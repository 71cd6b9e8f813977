"""Satisfaction, model validity, and bounded counter-model search."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .diagnostics import DocumentError, ResourceBoundExceeded, violations
from .frames import JstitFrame, _closed_sets, _closure
from .models import (
    EVERYTHING, JstitModel, Universe, ev_contains, validate_model,
)
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
    """Recursive evaluator. And and [j] are cached per (moment, history,
    formula), and the history-independent Box, K and proof assertion per
    (moment, formula), so a subformula that f shares (as <-> shares its
    operands) is evaluated once per index, not once per path to it."""

    def __init__(self, model: JstitModel):
        self.model = model
        self.frame = model.frame
        self.memo: dict[tuple, bool] = {}

    def sat(self, m: str, h: str, f: Formula) -> bool:
        match f:
            case PropVar(name):
                return (m, h) in self.model.val_at(name)
            case Not(a):
                return not self.sat(m, h, a)
            case Announced(t):
                return t in self.model.act_at(m, h)
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

    def _sat_cached(self, m: str, h: str, f: Formula) -> bool:
        match f:
            case And(a, b):
                return self.sat(m, h, a) and self.sat(m, h, b)
            case Cstit(j, a):
                cell = self.frame.choice_cell(m, j, h)
                return all(self.sat(m, g, a) for g in cell)
            case Box(a):
                return all(self.sat(m, g.name, a) for g in self.frame.histories_through(m))
            case Knows(a):
                return self._everywhere_reachable(self.frame.r, m, a)
            case Proves(t, a):
                return ev_contains(self.model.evidence_at(m, t), a) and \
                    self._everywhere_reachable(self.frame.re, m, a)

    def _everywhere_reachable(self, rel, m: str, a: Formula) -> bool:
        for m2 in self.frame.moments:
            if (m, m2) in rel:
                for g in self.frame.histories_through(m2):
                    if not self.sat(m2, g.name, a):
                        return False
        return True


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
    return _Evaluator(model).sat(at.moment, at.history, f)


def valid_in_model(model: JstitModel, f: Formula) -> tuple[bool, Optional[Index]]:
    """Truth at every moment-history pair; first failing pair in canonical order."""
    model.ensure_in_universe(f)
    check_agents(f, model.frame.agents)
    bad = _first_falsifying(model, f)
    return bad is None, bad


# ---------------------------------------------------------------------------
# bounded counter-model search

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
    visits, counted in enumeration order. Model validity does not depend on
    the valuation, so each whiteboard assignment is validated once; when it
    is rejected, all of its valuations are counted as inspected without
    being built. Candidates skipped because f cannot tell them from an
    earlier one are not counted.

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
    if n == 1:
        yield ()
        return
    yield from itertools.product(*(range(i) for i in range(1, n)))


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


def _preorders_over(moments: tuple[str, ...], leq: frozenset) -> list[frozenset]:
    extras = [
        (a, b) for a in moments for b in moments
        if a != b and (a, b) not in leq
    ]
    if len(extras) > 12:
        raise ResourceBoundExceeded(
            f"preorder enumeration over {len(extras)} free pairs exceeds the cost model")
    found = _closed_sets(leq, extras, lambda s: _closure(moments, s), lambda s: True)
    return sorted(found, key=sorted)


def find_countermodel(f: Formula, bounds: SearchBounds = SearchBounds()
                      ) -> Optional[tuple[JstitModel, Index]]:
    """First counter-model to f in canonical enumeration order, if any.

    Enumerates every jstit model (up to the bounds) whose frame is an
    unannotated rooted tree with canonical moment names m0..mN-1, whose
    whiteboard function is constant on undividedness classes (valid models
    always are), and whose evidence function is constantly Everything (mode
    "everything") or constantly empty (mode "empty"). A None result means no
    counter-model exists in that class within the bounds.

    Only the parts of a model that f can read are enumerated (its cone of
    influence). Acts range over the polynomials f announces: every act
    constraint of validate_model is a conjunction over single polynomials
    and the empty placement of a polynomial is always valid, so a valid
    act's projection onto the announced polynomials is valid, is enumerated
    no later than the act, and gives f the same truth value. Choice maps
    past the first are skipped when f has no [j], and a relation pair is
    skipped when an earlier one agrees with it on r (if f has K) and on re
    (if f has a proof assertion or announces anything): re is otherwise read
    only by evidence monotonicity, which holds under constant evidence, and
    by act transparency, which holds vacuously on an empty whiteboard. A
    skipped candidate gives f the same verdict at every index as one visited
    before it, so the first counter-model is the one a full enumeration
    finds.
    """
    check_agents(f, bounds.agents)
    universe = Universe.close(formulas=[f])
    parts = subformulas(f)
    announced = sorted({g.poly for g in parts if isinstance(g, Announced)},
                       key=render_polynomial)
    reads_choice = any(isinstance(g, Cstit) for g in parts)
    reads_r = any(isinstance(g, Knows) for g in parts)
    reads_re = bool(announced) or any(isinstance(g, Proves) for g in parts)
    pvars = sorted(prop_vars(f))
    default = EVERYTHING if bounds.evidence_mode == "everything" else frozenset()
    inspected = 0

    def spend(k: int) -> None:
        nonlocal inspected
        inspected += k
        if inspected > bounds.budget:
            raise ResourceBoundExceeded(
                f"counter-model search exceeded budget of {bounds.budget} candidates"
                f" (at {n} moment{'' if n == 1 else 's'})")

    for n in range(1, bounds.max_moments + 1):
        for parents in _parent_vectors(n):
            moments = [f"m{i}" for i in range(n)]
            edges = [(moments[p], moments[i + 1]) for i, p in enumerate(parents)]
            base = JstitFrame(moments, edges, agents=bounds.agents)
            if len(base.histories) > bounds.max_histories:
                continue

            # slots in construction order so each parent slot precedes its children
            slots = [(m, cls) for m in moments for cls in base.undivided_classes(m)]
            parent_slot: dict[tuple, Optional[tuple]] = {}
            parent_of = dict((moments[i + 1], moments[p]) for i, p in enumerate(parents))
            for m, cls in slots:
                up = parent_of.get(m)
                if up is None:
                    parent_slot[(m, cls)] = None
                else:
                    member = sorted(cls)[0]
                    for cls2 in base.undivided_classes(up):
                        if member in cls2:
                            parent_slot[(m, cls)] = (up, cls2)
                            break

            joint_choices = _joint_choice_options(base)
            if not reads_choice:
                joint_choices = joint_choices[:1]
            rel_pairs = {}
            for r, re in _relation_pairs(base):
                rel_pairs.setdefault((r if reads_r else None, re if reads_re else None),
                                     (r, re))
            mh = [(m, h.name) for m in base.moments for h in base.histories_through(m)]
            class_key = {
                (m, hname): (m, _class_of(base, m, hname)) for m, hname in mh
            }
            valuation_count = 1 << (len(pvars) * len(mh))

            for choice in joint_choices:
                for r, re in rel_pairs.values():
                    frame = JstitFrame(moments, edges, agents=bounds.agents,
                                       choice=choice, r=r, re=re)
                    for act in _act_assignments(slots, parent_slot, announced):
                        act_map = {pair: act[class_key[pair]] for pair in mh}
                        # validation never reads the valuation, so one check
                        # per act settles all of its valuations at once
                        if violations(validate_model(JstitModel(
                                frame, universe, act_map, evidence_default=default))):
                            spend(valuation_count)
                            continue
                        for val in _valuations(pvars, mh):
                            spend(1)
                            model = JstitModel(frame, universe, act_map, {}, val,
                                               evidence_default=default)
                            bad = _first_falsifying(model, f)
                            if bad is not None:
                                return model, bad
    return None


def _class_of(frame: JstitFrame, m: str, hname: str) -> frozenset:
    for cls in frame.undivided_classes(m):
        if hname in cls:
            return cls
    raise AssertionError(f"{hname} missing from classes at {m}")


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


def _relation_pairs(base: JstitFrame) -> list[tuple[frozenset, frozenset]]:
    pres = _preorders_over(base.moments, base.leq)
    return [(r, re) for r in pres for re in pres if r <= re]


def _act_assignments(slots, parent_slot, polys) -> Iterator[dict]:
    def rec(i: int, acc: dict) -> Iterator[dict]:
        if i == len(slots):
            yield dict(acc)
            return
        slot = slots[i]
        up = parent_slot[slot]
        floor = acc[up] if up is not None else frozenset()
        rest = [t for t in polys if t not in floor]
        for extra in _subsets_of(rest):
            acc[slot] = floor | extra
            yield from rec(i + 1, acc)
        del acc[slot]

    yield from rec(0, {})


def _valuations(pvars: list[str], mh: list[tuple[str, str]]) -> Iterator[dict]:
    cells = [(p, pair) for p in pvars for pair in mh]
    for mask in range(1 << len(cells)):
        val: dict[str, set] = {p: set() for p in pvars}
        for i, (p, pair) in enumerate(cells):
            if mask >> i & 1:
                val[p].add(pair)
        yield {p: frozenset(v) for p, v in val.items()}


def _first_falsifying(model: JstitModel, f: Formula) -> Optional[Index]:
    ev = _Evaluator(model)
    for m, h in model.mh_pairs():
        if not ev.sat(m, h, f):
            return Index(m, h)
    return None
