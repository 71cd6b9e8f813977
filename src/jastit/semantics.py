"""Satisfaction, model validity, and bounded counter-model search."""

from __future__ import annotations

import functools
import itertools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .diagnostics import DocumentError, ResourceBoundExceeded, violations
from .frames import JstitFrame, _closed_sets, _closure
from .models import EVERYTHING, JstitModel, Universe, act_violations, ev_contains
from .syntax import (
    And, Announced, Box, Cstit, Formula, Knows, Not, ProofVar, Proves, PropVar,
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
    candidate each, up to and including the counter-model's. An act is
    valid iff the placement of each polynomial it announces (the slots that
    hold it) is valid, and placement validity reads only the tree and re,
    so it is decided once per tree and re and serves every formula, choice
    map and r; a rejected act counts all of its valuations as inspected on
    every visit. Candidates skipped because f cannot tell them from an
    earlier one are not counted.

    Nothing that depends only on the tree is rebuilt between searches: each
    process keeps the tables of the _TREE_TABLES trees used last, and each
    table keeps the _FRAMES_PER_TREE frames built last on its tree.

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


# Per-process tables of the search's trees. Nothing in a table depends on
# the formula, so each tree is built once and serves every later search
# that reaches it; both caches are bounded least-recently-used, so memory
# stays flat however many searches a process runs.
_TREE_TABLES = 16       # trees kept, keyed by (parent vector, agents)
_FRAMES_PER_TREE = 256  # built frames kept per tree

# the polynomial of the one-polynomial acts that decide placements; act
# validity does not depend on which polynomial it is
_PLACED = ProofVar("x")


class _TreeTable:
    """What the search needs of one rooted tree on moments m0..mN-1, for
    any formula: its moments, edges, base frame, slot parents, slots and
    moment-history pairs, the relation pairs and choice maps, the frames
    built on it and the valid placements per re.

    A slot is a moment and one of its undivided classes, in construction
    order; slot parents map each slot to the slot above it, or to None at
    the root. An act that is constant on each slot is given by the
    placement of each polynomial it announces: the set of slots that hold
    it, as a bit set over the slots. Every act constraint of act_violations
    is a conjunction over single polynomials, so an act is valid iff each of
    its placements is; a placement's validity depends only on the tree and
    re, and is decided once per re on the one-polynomial act."""

    def __init__(self, parents: tuple[int, ...], agents: int):
        moments = self.moments = [f"m{i}" for i in range(len(parents) + 1)]
        edges = self.edges = [(moments[p], moments[i + 1]) for i, p in enumerate(parents)]
        base = self.base = JstitFrame(moments, edges, agents=agents)
        through = {m: [h.name for h in base.histories_through(m)] for m in moments}
        # the class above m's slots holds the histories through m: a
        # history sharing a moment after m's parent with one passes m
        up = {m: (p, frozenset(through[m])) for p, m in edges}
        self.parent_slot = {(m, cls): up.get(m)
                            for m in moments for cls in base.undivided_classes(m)}
        self.slots = list(self.parent_slot)
        index = {slot: i for i, slot in enumerate(self.slots)}
        self._up = [index.get(parent) for parent in self.parent_slot.values()]
        self._pair_slot = [((m, h), i) for i, (m, cls) in enumerate(self.slots) for h in cls]
        self.mh = [(m, h) for m in moments for h in through[m]]
        self._pairs: dict[tuple[bool, bool], list] = {}
        self._frames: OrderedDict[tuple, JstitFrame] = OrderedDict()
        self._valid: dict[frozenset, frozenset[int]] = {}

    @functools.cached_property
    def joint_choices(self) -> list[dict]:
        return _joint_choice_options(self.base)

    @functools.cached_property
    def one_cell_choice(self) -> dict:
        return _one_cell_choice(self.base)

    def relation_pairs(self, reads_r: bool, reads_re: bool) -> list[tuple[frozenset, frozenset]]:
        pairs = self._pairs.get((reads_r, reads_re))
        if pairs is None:
            pairs = self._pairs[(reads_r, reads_re)] = _relation_pairs(self.base, reads_r, reads_re)
        return pairs

    def frame(self, choice: int, r: frozenset, re: frozenset) -> JstitFrame:
        """The frame with the choice-th joint choice map and relations r and
        re; the first map is the one-cell map, built without the others."""
        key = (choice, r, re)
        frame = self._frames.get(key)
        if frame is not None:
            self._frames.move_to_end(key)
            return frame
        cm = self.one_cell_choice if choice == 0 else self.joint_choices[choice]
        # r and re come from _relation_pairs, already closed preorders
        frame = self._frames[key] = JstitFrame(
            self.moments, self.edges, agents=self.base.agents, choice=cm, r=r, re=re,
            close_relations=False)
        if len(self._frames) > _FRAMES_PER_TREE:
            self._frames.popitem(last=False)
        return frame

    def acts(self, k: int) -> Iterator[tuple[int, ...]]:
        """Every act over k polynomials that is constant on each slot and
        holds at every slot its parent slot's polynomials, as the placement
        of each polynomial: the first slot outermost, each slot's additions
        over its parent's smallest first."""
        up, placed = self._up, [0] * k
        held = [0] * len(up)  # per slot, a bit set of polynomials

        def rec(i: int) -> Iterator[tuple[int, ...]]:
            if i == len(up):
                yield tuple(placed)
                return
            floor = held[up[i]] if up[i] is not None else 0
            free = [j for j in range(k) if not floor >> j & 1]
            for size in range(len(free) + 1):
                for extra in itertools.combinations(free, size):
                    held[i] = bits = floor | sum(1 << j for j in extra)
                    for j in range(k):
                        placed[j] = placed[j] & ~(1 << i) | (bits >> j & 1) << i
                    yield from rec(i + 1)

        return rec(0)

    def act(self, polys: list, placements: tuple[int, ...]) -> dict:
        """The act keyed by moment-history pair that places polys[j] at the
        slots of placements[j]."""
        held = [frozenset(t for t, p in zip(polys, placements) if p >> i & 1)
                for i in range(len(self.slots))]
        return {pair: held[i] for pair, i in self._pair_slot}

    def valid_placements(self, frame: JstitFrame) -> frozenset[int]:
        """The placements valid on frame, a frame on this tree: act validity
        reads only the order, the dense pairs and re, so this is decided
        once per re."""
        valid = self._valid.get(frame.re)
        if valid is None:
            valid = self._valid[frame.re] = frozenset(
                p for p, in self.acts(1)
                if not violations(act_violations(frame, self.act([_PLACED], (p,)))))
        return valid


@functools.lru_cache(maxsize=_TREE_TABLES)
def _tree_table(parents: tuple[int, ...], agents: int) -> _TreeTable:
    return _TreeTable(parents, agents)


def _trees(bounds: SearchBounds) -> Iterator[_TreeTable]:
    """The table of each rooted tree within the bounds, fewest moments
    first and then by parent vector."""
    for n in range(1, bounds.max_moments + 1):
        for parents in _parent_vectors(n):
            tree = _tree_table(parents, bounds.agents)
            if len(tree.base.histories) <= bounds.max_histories:
                yield tree


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
      - trees (_trees), which do not depend on f: each is a _TreeTable,
        built on the first search that reaches it and kept for the process;
      - frames on a tree: choice maps (_joint_choice_options) times
        relation pairs (_relation_pairs), each frame built once per table;
      - acts on a frame (_TreeTable.acts), each the placement of every
        announced polynomial, and valid iff every placement is in the
        table's valid placements for the frame's re (one act_violations
        call per placement and re, on the one-polynomial act);
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
    model and its universe are built. Its frame is the one the tree table
    keeps, shared with later searches, so it must not be mutated.
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
            n = len(tree.moments)
            raise ResourceBoundExceeded(
                f"counter-model search exceeded budget of {bounds.budget} candidates"
                f" (at {n} moment{'' if n == 1 else 's'})")

    for tree in _trees(bounds):
        mh = tree.mh
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

        for choice in range(len(tree.joint_choices) if reads_choice else 1):
            for r, re in tree.relation_pairs(reads_r, reads_re):
                frame = tree.frame(choice, r, re)
                # with nothing announced the one act is the empty one
                valid = tree.valid_placements(frame) if announced else ()
                for placements in tree.acts(len(announced)):
                    if not all(p in valid for p in placements):
                        spend(valuation_count)
                        continue
                    act = tree.act(announced, placements)
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
