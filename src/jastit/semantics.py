"""Satisfaction, model validity, and bounded counter-model search."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .diagnostics import DocumentError, ResourceBoundExceeded, violations
from .frames import JstitFrame, _closed_sets, _closure
from .models import EVERYTHING, JstitModel, Universe, act_violations, ev_contains
from .syntax import (
    And, Announced, Box, Cstit, Formula, Knows, Not, Proves, PropVar,
    check_agents, prop_vars, render_polynomial, subformulas,
)

__all__ = [
    "Index", "satisfies", "valid_in_model", "SearchBounds", "find_countermodel",
]


@dataclass(frozen=True)
class Index:
    moment: str
    history: str


def _as_index(at: Union[Index, tuple[str, str]]) -> Index:
    if isinstance(at, Index):
        return at
    m, h = at
    return Index(m, h)


class _Evaluator:
    """Recursive evaluator over truth vectors: bit v of sat(m, h, f) is the
    truth of f at (m, h) under the v-th of a block of valuations that share
    frame, act and evidence, and full has one bit per valuation. One model
    is the one-bit case. And and [j] are cached per (moment, history,
    formula), and the history-independent Box, K and proof assertion per
    (moment, formula), so a subformula that f shares (as <-> shares its
    operands) is evaluated once per index, not once per path to it."""

    def __init__(self, frame: JstitFrame, act: dict, evidence_at, atoms: dict, full: int):
        self.frame = frame
        self.act = act
        self.evidence_at = evidence_at
        self.atoms = atoms  # (variable, moment, history) -> vector; absent is false
        self.full = full
        self.memo: dict[tuple, int] = {}

    @classmethod
    def of_model(cls, model: JstitModel) -> "_Evaluator":
        atoms = {(p, m, h): 1 for p, pairs in model.valuation.items() for m, h in pairs}
        return cls(model.frame, model.act, model.evidence_at, atoms, 1)

    def sat(self, m: str, h: str, f: Formula) -> int:
        match f:
            case PropVar(name):
                return self.atoms.get((name, m, h), 0)
            case Not(a):
                return self.full ^ self.sat(m, h, a)
            case Announced(t):
                return self.full if t in self.act[(m, h)] else 0
            case And() | Cstit():
                key = (m, h, f)
            case Box() | Knows() | Proves():
                key = (m, f)
            case _:
                raise TypeError(f"not a formula: {f!r}")
        hit = self.memo.get(key)
        if hit is None:
            hit = self.memo[key] = self._sat_cached(m, h, f)
        return hit

    def _sat_cached(self, m: str, h: str, f: Formula) -> int:
        match f:
            case And(a, b):
                left = self.sat(m, h, a)
                return left and left & self.sat(m, h, b)
            case Cstit(j, a):
                return self._all(((m, g) for g in self.frame.choice_cell(m, j, h)), a)
            case Box(a):
                return self._all(((m, g.name) for g in self.frame.histories_through(m)), a)
            case Knows(a):
                return self._all(self._reachable(self.frame.r, m), a)
            case Proves(t, a):
                if not ev_contains(self.evidence_at(m, t), a):
                    return 0
                return self._all(self._reachable(self.frame.re, m), a)

    def _all(self, pairs, a: Formula) -> int:
        out = self.full
        for m, h in pairs:
            out &= self.sat(m, h, a)
            if not out:
                break
        return out

    def _reachable(self, rel, m: str):
        for m2 in self.frame.moments:
            if (m, m2) in rel:
                for g in self.frame.histories_through(m2):
                    yield m2, g.name


def satisfies(model: JstitModel, at: Union[Index, tuple[str, str]], f: Formula) -> bool:
    """Truth of f at the given moment-history pair."""
    at = _as_index(at)
    model.ensure_in_universe(f)
    check_agents(f, model.frame.agents)
    if at.moment not in model.frame.moments:
        raise DocumentError(f"unknown moment {at.moment!r}")
    try:
        h = model.frame.history(at.history)
    except KeyError:
        raise DocumentError(f"unknown history {at.history!r}") from None
    if at.moment not in h:
        raise DocumentError(f"history {at.history!r} does not pass through {at.moment!r}")
    return bool(_Evaluator.of_model(model).sat(at.moment, at.history, f))


def valid_in_model(model: JstitModel, f: Formula) -> tuple[bool, Optional[Index]]:
    """Truth at every moment-history pair; first failing pair in canonical order."""
    model.ensure_in_universe(f)
    check_agents(f, model.frame.agents)
    ev = _Evaluator.of_model(model)
    for m, h in model.mh_pairs():
        if not ev.sat(m, h, f):
            return False, Index(m, h)
    return True, None


# ---------------------------------------------------------------------------
# bounded counter-model search

# valuations evaluated at once, a power of two: the widest truth vector
# the search builds
_BLOCK = 1 << 16


@dataclass(frozen=True)
class SearchBounds:
    """Enumeration limits for find_countermodel.

    Cost model: for each rooted tree on up to max_moments moments the search
    multiplies choice maps (one when f has no [j]), relation pairs (one per
    distinct value of the parts of (r, re) that f can read), whiteboard
    assignments ((2^|announced|) per moment-class slot, monotone along the
    order, over the polynomials f announces with E) and valuations
    (2^(|vars| * |MH|)); enumeration stops with a resource error once budget
    candidates have been inspected without an answer.

    A candidate is one (frame, act, valuation) triple that the search
    visits, counted in enumeration order. The valuations of an act are
    evaluated together, in blocks of at most 2^16, but still count one
    candidate each, up to and including the counter-model's. Act validity
    reads only the order, the dense pairs and re, so one verdict per act
    serves every choice map and every r that share its re; a rejected act
    counts all of its valuations as inspected on every visit. Candidates
    skipped because f cannot tell them from an earlier one are not counted.

    max_moments, max_histories, agents and budget must be positive integers,
    and evidence_mode "everything" or "empty".
    """

    max_moments: int = 3
    max_histories: int = 4
    evidence_mode: str = "everything"  # or "empty"
    agents: int = 2
    budget: int = 200_000

    def __post_init__(self) -> None:
        for name in ("max_moments", "max_histories", "agents", "budget"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise DocumentError(f"{name} must be a positive integer, got {value!r}")
        if self.evidence_mode not in ("everything", "empty"):
            raise DocumentError(f"unknown evidence_mode {self.evidence_mode!r}")


def _parent_vectors(n: int) -> Iterator[tuple[int, ...]]:
    return itertools.product(*(range(i) for i in range(1, n)))


def _subsets_of(items: list) -> Iterator[frozenset]:
    """Every subset, smallest first, built only as it is asked for."""
    for k in range(len(items) + 1):
        for c in itertools.combinations(items, k):
            yield frozenset(c)


def _set_partitions(items: tuple) -> list[tuple[frozenset, ...]]:
    """All partitions of items, canonically ordered."""
    if not items:
        return [()]
    first, rest = items[0], items[1:]
    out = []
    for part in _set_partitions(rest):
        out.append(tuple(sorted((frozenset([first]),) + part, key=sorted)))
        for i, cell in enumerate(part):
            grown = part[:i] + (cell | {first},) + part[i + 1:]
            out.append(tuple(sorted(grown, key=sorted)))
    return sorted(out, key=lambda p: (len(p), tuple(sorted(map(sorted, p)))))


def _trees(bounds: SearchBounds) -> Iterator[tuple]:
    """Each rooted tree on moments m0..mN-1 within the bounds: its moments,
    edges, base frame, slot parents and moment-history pairs. Slot parents
    map each slot (a moment and one of its undivided classes), in
    construction order, to the slot above it, or to None at the root."""
    for n in range(1, bounds.max_moments + 1):
        for parents in _parent_vectors(n):
            moments = [f"m{i}" for i in range(n)]
            edges = [(moments[p], moments[i + 1]) for i, p in enumerate(parents)]
            base = JstitFrame(moments, edges, agents=bounds.agents)
            if len(base.histories) > bounds.max_histories:
                continue
            through = {m: [h.name for h in base.histories_through(m)] for m in moments}
            # the class above m's slots holds the histories through m: a
            # history sharing a moment after m's parent with one passes m
            up = {m: (p, frozenset(through[m])) for p, m in edges}
            parent_slot = {(m, cls): up.get(m)
                           for m in moments for cls in base.undivided_classes(m)}
            yield moments, edges, base, parent_slot, [(m, h) for m in moments for h in through[m]]


def find_countermodel(f: Formula, bounds: SearchBounds = SearchBounds()
                      ) -> Optional[tuple[JstitModel, Index]]:
    """First counter-model to f in canonical enumeration order, if any.

    Enumerates every jstit model (up to the bounds) whose frame is an
    unannotated rooted tree with canonical moment names m0..mN-1, whose
    whiteboard function is constant on undividedness classes (valid models
    always are), and whose evidence function is constantly Everything (mode
    "everything") or constantly empty (mode "empty"). Constant evidence
    meets every evidence constraint, so such a model is valid iff its act
    is (models.act_violations). A None result means no counter-model exists
    in that class within the bounds.

    The enumeration has four layers, each nested in the one before:
      - trees (_trees), which do not depend on f;
      - frames on a tree: choice maps (_joint_choice_options) times
        relation pairs (_relation_pairs);
      - acts on a frame (_act_assignments), each decided once per tree, re
        and position in the enumeration;
      - valuations of a valid act, decided a block at a time.

    Only the parts of a model that f can read are enumerated (its cone of
    influence). Acts range over the polynomials f announces: every act
    constraint of act_violations is a conjunction over single polynomials
    and the empty placement of a polynomial is always valid, so a valid
    act's projection onto the announced polynomials is valid, is enumerated
    no later than the act, and gives f the same truth value. Only the first
    choice map (_one_cell_choice) is built when f has no [j], and a relation
    pair is skipped when an earlier one agrees with it on r (if f has K) and
    on re (if f has a proof assertion or announces anything): re is
    otherwise read only by act transparency, which holds vacuously on an
    empty whiteboard. A skipped candidate gives f the same verdict at every
    index as one visited before it, so the first counter-model is the one a
    full enumeration finds.

    The valuations of a valid act are numbered (cell i of the variables of
    f times the moment-history pairs holds under valuation v iff bit i of v
    is set) and evaluated in blocks of at most 2^16, a block never reaching
    past the budget. The truth of a subformula at an index is one int whose
    bit v is its truth under valuation v, so one evaluation settles a block.
    The first counter-model is the lowest valuation falsifying f at some
    index, taken at its first such index in mh_pairs order, and only that
    model and its universe are built.
    """
    check_agents(f, bounds.agents)
    parts = subformulas(f)
    announced = sorted({g.poly for g in parts if isinstance(g, Announced)},
                       key=render_polynomial)
    reads_choice = any(isinstance(g, Cstit) for g in parts)
    reads_r = any(isinstance(g, Knows) for g in parts)
    reads_re = bool(announced) or any(isinstance(g, Proves) for g in parts)
    pvars = sorted(prop_vars(f))
    default = EVERYTHING if bounds.evidence_mode == "everything" else frozenset()

    def evidence_at(m: str, t):
        return default

    inspected = 0

    def spend(k: int) -> None:
        nonlocal inspected
        inspected += k
        if inspected > bounds.budget:
            n = len(moments)
            raise ResourceBoundExceeded(
                f"counter-model search exceeded budget of {bounds.budget} candidates"
                f" (at {n} moment{'' if n == 1 else 's'})")

    for moments, edges, base, parent_slot, mh in _trees(bounds):
        joint_choices = _joint_choice_options(base) if reads_choice else [_one_cell_choice(base)]
        rel_pairs = _relation_pairs(base, reads_r, reads_re)
        # valuation v makes cell i true iff bit i of v is set
        cells = [(p, pair) for p in pvars for pair in mh]
        valuation_count = 1 << len(cells)
        # width divides valuation_count, so only the budget cuts a block
        # short, and every block starts at a multiple of width
        width = min(_BLOCK, valuation_count)
        full = (1 << width) - 1
        low = _low_bit_vectors(width)
        atom_tables: dict[int, dict] = {}

        def atoms_at(lo: int) -> dict:
            """Truth vectors of the atoms over the block starting at lo;
            the bits past the low ones are constant within a block."""
            table = atom_tables.get(lo)
            if table is None:
                table = atom_tables[lo] = {
                    (p, m, h): low[i] if i < len(low) else full if lo >> i & 1 else 0
                    for i, (p, (m, h)) in enumerate(cells)}
            return table

        # act validity reads the order, the dense pairs and re, and the act
        # enumeration is the same for every frame on the tree, so one
        # verdict per (re, position)
        verdicts_by_re: dict[frozenset, list[bool]] = {}
        for choice in joint_choices:
            for r, re in rel_pairs:
                frame = JstitFrame(moments, edges, agents=bounds.agents,
                                   choice=choice, r=r, re=re)
                verdicts = verdicts_by_re.setdefault(re, [])
                for pos, act in enumerate(_act_assignments(parent_slot, announced)):
                    if pos == len(verdicts):
                        verdicts.append(not violations(act_violations(frame, act)))
                    if not verdicts[pos]:
                        spend(valuation_count)
                        continue
                    for lo in range(0, valuation_count, width):
                        block = min(width, bounds.budget - inspected + 1)
                        ev = _Evaluator(frame, act, evidence_at, atoms_at(lo), full)
                        bad = 0
                        for m, h in mh:
                            bad |= full ^ ev.sat(m, h, f)
                        bad &= (1 << block) - 1
                        if not bad:
                            spend(block)
                            continue
                        v = (bad & -bad).bit_length() - 1
                        spend(v + 1)
                        at = next(Index(m, h) for m, h in mh if not ev.sat(m, h, f) >> v & 1)
                        return JstitModel(frame, Universe.close(formulas=[f]), act, {},
                                          _valuation(cells, lo + v),
                                          evidence_default=default), at
    return None


def _one_cell_choice(base: JstitFrame) -> dict:
    """The first of _joint_choice_options(base), built directly: every agent
    has the one-cell partition of H_m at every moment."""
    return {(m, j): (frozenset(h.name for h in base.histories_through(m)),)
            for m in base.moments for j in range(base.agents)}


def _joint_choice_options(base: JstitFrame) -> list[dict]:
    """Per-frame list of full choice maps; cells are unions of undividedness
    classes and agents are pointwise independent, so built frames validate."""
    per_moment: list[tuple[str, list]] = []
    for m in base.moments:
        classes = base.undivided_classes(m)
        partitions = []
        for p in _set_partitions(tuple(range(len(classes)))):
            cells = tuple(sorted(
                (frozenset(x for i in block for x in classes[i]) for block in p),
                key=sorted))
            partitions.append(cells)
        combos = []
        for assignment in itertools.product(partitions, repeat=base.agents):
            # independence: every selection of one cell per agent intersects
            if all(frozenset.intersection(*combo)
                   for combo in itertools.product(*assignment)):
                combos.append(assignment)
        per_moment.append((m, combos))
    out = []
    for picks in itertools.product(*(combos for _, combos in per_moment)):
        cm = {}
        for (m, _), assignment in zip(per_moment, picks):
            for j, cells in enumerate(assignment):
                cm[(m, j)] = cells
        out.append(cm)
    return out


def _relation_pairs(base: JstitFrame, reads_r: bool = True, reads_re: bool = True
                    ) -> list[tuple[frozenset, frozenset]]:
    """The pairs r <= re of preorders containing the order, r-major, keeping
    the first pair per value of what f reads of them: r when reads_r, re
    when reads_re."""
    extras = [(a, b) for a in base.moments for b in base.moments
              if a != b and (a, b) not in base.leq]
    if len(extras) > 12:
        raise ResourceBoundExceeded(
            f"preorder enumeration over {len(extras)} free pairs exceeds the cost model")
    pres = sorted(_closed_sets(base.leq, extras, lambda s: _closure(base.moments, s),
                               lambda s: True), key=sorted)
    pairs: dict[tuple, tuple[frozenset, frozenset]] = {}
    for r in pres:
        for re in pres:
            if r <= re:
                pairs.setdefault((r if reads_r else None, re if reads_re else None), (r, re))
    return list(pairs.values())


def _act_assignments(parent_slot: dict, polys: list) -> Iterator[dict]:
    """Every act keyed by moment-history pair that is constant on each slot
    and holds at every slot its parent slot's polynomials: the first slot
    outermost, each slot's additions over its parent's smallest first."""
    slots = list(parent_slot)

    def rec(i: int, acc: dict) -> Iterator[dict]:
        if i == len(slots):
            yield {(m, h): acc[(m, cls)] for m, cls in slots for h in cls}
            return
        up = parent_slot[slots[i]]
        floor = acc[up] if up is not None else frozenset()
        for extra in _subsets_of([t for t in polys if t not in floor]):
            acc[slots[i]] = floor | extra
            yield from rec(i + 1, acc)

    yield from rec(0, {})


def _low_bit_vectors(width: int) -> list[int]:
    """For a power of two width, vector i has bit v set iff bit i of v is."""
    out = []
    step = 1
    while step < width:
        ones_every_period = ((1 << width) - 1) // ((1 << 2 * step) - 1)
        out.append(ones_every_period * (((1 << step) - 1) << step))
        step *= 2
    return out


def _valuation(cells: list[tuple[str, tuple[str, str]]], number: int) -> dict:
    """The valuation numbered number: cell i holds iff bit i is set."""
    val: dict[str, set] = {p: set() for p, _ in cells}
    for i, (p, pair) in enumerate(cells):
        if number >> i & 1:
            val[p].add(pair)
    return val
