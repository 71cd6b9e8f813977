"""Finite branching-time frames in three layers: temporal, stit, jstit.

Moments form a finite set with a partial order <= (written m <= m' for "m is
no later than m'"). Histories are the maximal chains. A stit frame adds an
agent count and a choice partition of H_m per moment and agent; a jstit frame
adds two epistemic preorders r and re with order <= r <= re (as relations).

Density annotations. A finite order cannot contain a moment with strictly
later moments but no immediate successor, yet several classifier targets only
bite in exactly that situation. A frame may therefore declare a set of
`dense` pairs (a, b): each must be a covering pair, and it asserts that the
intended structure has a densely ordered stretch of extra moments strictly
between a and b (same choice/evidence behavior as b, no branching inside the
stretch). The executable effect is confined to two places: `next` reports
False on annotated pairs, and the model validator relaxes one Act constraint
at annotated targets (see models.validate_model). All classifiers work on
the annotated frame as if the stretch were present.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence, Union

from .diagnostics import Diagnostic, ResourceBoundExceeded, VIOLATION

__all__ = [
    "History", "TemporalFrame", "StitFrame", "JstitFrame",
    "validate_frame", "is_mixsucc", "theta", "is_regular", "is_unirelational",
]

Pair = tuple[str, str]

_BAD_ID_CHARS = set(",/")


def _check_moment_id(m: str) -> None:
    if not isinstance(m, str) or not m or _BAD_ID_CHARS & set(m):
        raise ValueError(f"bad moment id {m!r}: need a nonempty string without ',' or '/'")


def _closure(moments: Sequence[str], pairs: Iterable[Pair]) -> frozenset[Pair]:
    """Reflexive-transitive closure over the given carrier."""
    succ: dict[str, set[str]] = {m: {m} for m in moments}
    for a, b in pairs:
        succ[a].add(b)
    changed = True
    while changed:
        changed = False
        for a in moments:
            new = set()
            for b in succ[a]:
                new |= succ[b]
            if not new <= succ[a]:
                succ[a] |= new
                changed = True
    return frozenset((a, b) for a in moments for b in succ[a])


@dataclass(frozen=True)
class History:
    """A maximal chain, earliest moment first."""

    name: str
    chain: tuple[str, ...]

    def __contains__(self, moment: str) -> bool:
        return moment in self.chain


class TemporalFrame:
    kind = "temporal"

    def __init__(self, moments: Iterable[str], order: Iterable[Pair],
                 dense: Iterable[Pair] = ()):
        ms = list(moments)
        for m in ms:
            _check_moment_id(m)
        if len(set(ms)) != len(ms):
            raise ValueError("duplicate moment ids")
        self.moments: tuple[str, ...] = tuple(sorted(ms))
        known = set(self.moments)
        pairs = [(a, b) for a, b in order]
        for a, b in pairs:
            if a not in known or b not in known:
                raise ValueError(f"order pair ({a!r}, {b!r}) mentions unknown moment")
        self.leq: frozenset[Pair] = _closure(self.moments, pairs)
        dn = frozenset((a, b) for a, b in dense)
        for a, b in dn:
            if a not in known or b not in known:
                raise ValueError(f"dense pair ({a!r}, {b!r}) mentions unknown moment")
        self.dense: frozenset[Pair] = dn
        self._histories: Optional[tuple[History, ...]] = None
        self._by_name: dict[str, History] = {}
        self._through: dict[str, tuple[History, ...]] = {}
        self._preds: Optional[dict[str, tuple[str, ...]]] = None
        self._classes: dict[str, tuple[frozenset[str], ...]] = {}

    # -- order relations

    def le(self, a: str, b: str) -> bool:
        return (a, b) in self.leq

    def lt(self, a: str, b: str) -> bool:
        return a != b and (a, b) in self.leq and (b, a) not in self.leq

    def _strict_preds(self, b: str) -> tuple[str, ...]:
        if self._preds is None:
            self._preds = {
                m: tuple(a for a in self.moments if self.lt(a, m)) for m in self.moments
            }
        return self._preds[b]

    def covers(self, a: str, b: str) -> bool:
        """b immediately succeeds a, ignoring density annotations."""
        return self.lt(a, b) and all(self.le(c, a) for c in self._strict_preds(b))

    def next(self, a: str, b: str) -> bool:
        """Immediate succession; False across a declared dense stretch."""
        return (a, b) not in self.dense and self.covers(a, b)

    def cover_successors(self, m: str) -> tuple[str, ...]:
        return tuple(b for b in self.moments if self.covers(m, b))

    def minimal_moments(self) -> tuple[str, ...]:
        return tuple(m for m in self.moments if not self._strict_preds(m))

    # -- histories

    @property
    def histories(self) -> tuple[History, ...]:
        if self._histories is None:
            self._compute_histories()
        return self._histories  # type: ignore[return-value]

    def _compute_histories(self) -> None:
        chains: list[tuple[str, ...]] = []

        def extend(chain: list[str]) -> None:
            succs = self.cover_successors(chain[-1])
            if not succs:
                chains.append(tuple(chain))
                return
            for b in succs:
                chain.append(b)
                extend(chain)
                chain.pop()

        for m in self.minimal_moments():
            extend([m])
        chains.sort()
        hs = tuple(History(f"h{i}", c) for i, c in enumerate(chains))
        self._histories = hs
        self._by_name = {h.name: h for h in hs}
        self._through = {
            m: tuple(h for h in hs if m in h) for m in self.moments
        }

    def history(self, name: str) -> History:
        self.histories
        return self._by_name[name]

    def histories_through(self, m: str) -> tuple[History, ...]:
        self.histories
        return self._through[m]

    def _as_history(self, h: Union[History, str]) -> History:
        return h if isinstance(h, History) else self.history(h)

    def undivided_at(self, m: str, h: Union[History, str], g: Union[History, str]) -> bool:
        """h and g share a moment strictly later than m."""
        h = self._as_history(h)
        g = self._as_history(g)
        if m not in h or m not in g:
            raise ValueError(f"histories must both pass through {m!r}")
        return any(self.lt(m, w) and w in g for w in h.chain)

    def undivided_classes(self, m: str) -> tuple[frozenset[str], ...]:
        """Partition of H_m by undividedness at m (union-find closure)."""
        cached = self._classes.get(m)
        if cached is not None:
            return cached
        hs = self.histories_through(m)
        parent = {h.name: h.name for h in hs}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for h, g in itertools.combinations(hs, 2):
            if self.undivided_at(m, h, g):
                parent[find(h.name)] = find(g.name)
        groups: dict[str, set[str]] = {}
        for h in hs:
            groups.setdefault(find(h.name), set()).add(h.name)
        result = tuple(sorted((frozenset(v) for v in groups.values()), key=sorted))
        self._classes[m] = result
        return result

    # -- plumbing

    def _key(self) -> tuple:
        return (self.kind, self.moments, self.leq, self.dense)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TemporalFrame) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {len(self.moments)} moments, {len(self.histories)} histories>"


def _normalize_choice(choice: Mapping, agents: int, known: set[str]):
    out: dict[tuple[str, int], tuple[frozenset[str], ...]] = {}
    for (m, j), cells in choice.items():
        if m not in known:
            raise ValueError(f"choice key mentions unknown moment {m!r}")
        if not isinstance(j, int) or not 0 <= j < agents:
            raise ValueError(f"choice key agent {j!r} out of range for {agents} agents")
        norm = tuple(sorted((frozenset(c) for c in cells), key=sorted))
        out[(m, j)] = norm
    return out


class StitFrame(TemporalFrame):
    kind = "stit"

    def __init__(self, moments: Iterable[str], order: Iterable[Pair], agents: int,
                 choice: Optional[Mapping] = None, dense: Iterable[Pair] = ()):
        super().__init__(moments, order, dense)
        if not isinstance(agents, int) or agents < 1:
            raise ValueError(f"need at least one agent, got {agents!r}")
        self.agents = agents
        self.choice = _normalize_choice(choice or {}, agents, set(self.moments))

    def choice_cells(self, m: str, j: int) -> tuple[frozenset[str], ...]:
        """Cells of Choice^m_j; a missing entry is the trivial one-cell partition."""
        explicit = self.choice.get((m, j))
        if explicit is not None:
            return explicit
        return (frozenset(h.name for h in self.histories_through(m)),)

    def choice_cell(self, m: str, j: int, h: Union[History, str]) -> frozenset[str]:
        name = h.name if isinstance(h, History) else h
        for cell in self.choice_cells(m, j):
            if name in cell:
                return cell
        raise ValueError(f"history {name!r} not covered by Choice^{m!r}_{j}")

    def temporal_reduct(self) -> TemporalFrame:
        return TemporalFrame(self.moments, self.leq, self.dense)

    def with_relations(self, r: Optional[Iterable[Pair]] = None,
                       re: Optional[Iterable[Pair]] = None) -> "JstitFrame":
        return JstitFrame(self.moments, self.leq, self.agents, self.choice,
                          dense=self.dense, r=r, re=re)

    def _key(self) -> tuple:
        return super()._key() + (self.agents, tuple(sorted(self.choice.items())))


class JstitFrame(StitFrame):
    kind = "jstit"

    def __init__(self, moments: Iterable[str], order: Iterable[Pair], agents: int,
                 choice: Optional[Mapping] = None, dense: Iterable[Pair] = (),
                 r: Optional[Iterable[Pair]] = None, re: Optional[Iterable[Pair]] = None,
                 close_relations: bool = True):
        super().__init__(moments, order, agents, choice, dense)
        known = set(self.moments)

        def prep(rel: Optional[Iterable[Pair]], default: frozenset[Pair]) -> frozenset[Pair]:
            if rel is None:
                return default
            pairs = list(rel)
            for a, b in pairs:
                if a not in known or b not in known:
                    raise ValueError(f"relation pair ({a!r}, {b!r}) mentions unknown moment")
            if close_relations:
                return _closure(self.moments, pairs)
            return frozenset(pairs)

        self.r = prep(r, self.leq)
        self.re = prep(re, self.r)
        self._theta_cache: dict[str, tuple[frozenset[str], ...]] = {}

    def _key(self) -> tuple:
        return super()._key() + (self.r, self.re)


Frame = Union[TemporalFrame, StitFrame, JstitFrame]


# ---------------------------------------------------------------------------
# validation

def _is_preorder(moments: Sequence[str], rel: frozenset[Pair]) -> Optional[tuple]:
    for m in moments:
        if (m, m) not in rel:
            return ("reflexivity", m)
    for a, b in rel:
        for c, d in rel:
            if b == c and (a, d) not in rel:
                return ("transitivity", a, b, d)
    return None


def validate_frame(frame: Frame) -> list[Diagnostic]:
    """Check every frame-level invariant; one diagnostic per failed instance class."""
    out: list[Diagnostic] = []

    def bad(code: str, message: str, witness: tuple = ()) -> None:
        out.append(Diagnostic(VIOLATION, code, message, witness))

    ms = frame.moments

    for a, b in itertools.combinations(ms, 2):
        if frame.le(a, b) and frame.le(b, a):
            bad("order-cycle", f"{a} and {b} are mutually below each other", (a, b))

    for a, b in itertools.combinations(ms, 2):
        if not any(frame.le(c, a) and frame.le(c, b) for c in ms):
            bad("historical-connection", f"{a} and {b} have no common predecessor", (a, b))

    for m in ms:
        below = [a for a in ms if frame.le(a, m)]
        for a, b in itertools.combinations(below, 2):
            if not frame.le(a, b) and not frame.le(b, a):
                bad("backward-branching",
                    f"{a} and {b} are incomparable below {m}", (a, b, m))

    for a, b in sorted(frame.dense):
        if not frame.covers(a, b):
            bad("dense-not-cover",
                f"dense pair ({a}, {b}) is not a covering pair", (a, b))

    if isinstance(frame, StitFrame):
        names = {h.name for h in frame.histories}
        for (m, j), cells in sorted(frame.choice.items()):
            members = [x for cell in cells for x in cell]
            unknown = sorted(set(members) - names)
            if unknown:
                bad("choice-domain",
                    f"Choice^{m}_{j} mentions unknown histories {unknown}", (m, j, tuple(unknown)))
                continue
            h_m = {h.name for h in frame.histories_through(m)}
            if len(members) != len(set(members)) or set(members) != h_m:
                bad("choice-partition",
                    f"Choice^{m}_{j} cells do not partition H_{m}", (m, j))
        for m in ms:
            hs = frame.histories_through(m)
            for j in range(frame.agents):
                for h, g in itertools.combinations(hs, 2):
                    if frame.undivided_at(m, h, g):
                        try:
                            same = frame.choice_cell(m, j, h) == frame.choice_cell(m, j, g)
                        except ValueError:
                            continue  # partition defect already reported
                        if not same:
                            bad("choice-undivided",
                                f"{h.name} and {g.name} are undivided at {m} but split by agent {j}",
                                (m, j, h.name, g.name))
            cell_lists = [frame.choice_cells(m, j) for j in range(frame.agents)]
            for combo in itertools.product(*cell_lists):
                if not frozenset.intersection(*combo):
                    bad("choice-independence",
                        f"agents admit no joint choice at {m}", (m,) + tuple(sorted(map(sorted, combo), key=str)))
                    break

    if isinstance(frame, JstitFrame):
        for label, rel in (("r", frame.r), ("re", frame.re)):
            defect = _is_preorder(ms, rel)
            if defect:
                bad(f"{label}-not-preorder", f"{label} fails {defect[0]}", defect[1:])
        missing = sorted(frame.leq - frame.r)
        if missing:
            bad("order-not-in-r",
                f"temporal order pair {missing[0]} missing from r", missing[0])
        missing = sorted(frame.r - frame.re)
        if missing:
            bad("r-not-in-re", f"r pair {missing[0]} missing from re", missing[0])

    return out


# ---------------------------------------------------------------------------
# classifiers

def is_mixsucc(frame: Frame) -> tuple[bool, Optional[tuple[str, str]]]:
    """Mixed-successor check.

    Holds iff for every m strictly below some m1, either some m2 <= m1 is an
    immediate (next) successor of m, or all histories through m are pairwise
    undivided at m. The first failing (m, m1) in sorted order is the witness.
    On frames without density annotations the first disjunct always holds, so
    genuine violations require annotated covers.
    """
    for m in frame.moments:
        for m1 in frame.moments:
            if not frame.lt(m, m1):
                continue
            if any(frame.next(m, m2) and frame.le(m2, m1) for m2 in frame.moments):
                continue
            hs = frame.histories_through(m)
            if all(frame.undivided_at(m, h, g) for h, g in itertools.combinations(hs, 2)):
                continue
            return False, (m, m1)
    return True, None


def _theta_members_have_preds(frame: TemporalFrame, s: frozenset[str]) -> bool:
    # executable finite form of the density/predecessor condition: a declared
    # dense stretch below an annotated member supplies the required earlier
    # members, and any unannotated finite moment has an immediate predecessor,
    # so the condition can only fail at order-minimal members
    return all(frame._strict_preds(m1) for m1 in s)


def _theta_re_closed(frame: JstitFrame, s: frozenset[str]) -> bool:
    return all(b in s for a, b in frame.re if a in s)


def _theta_next_closed(frame: JstitFrame, s: frozenset[str]) -> bool:
    for m1 in frame.moments:
        if m1 in s:
            continue
        hs = frame.histories_through(m1)
        if hs and all(
            any(frame.next(m1, m2) and m2 in s for m2 in h.chain) for h in hs
        ):
            return False
    return True


def theta(frame: JstitFrame, m: str, *, max_moments: int = 16) -> tuple[frozenset[str], ...]:
    """The family Theta_m of candidate support sets containing m.

    S belongs iff: m in S; every member of S has a strict predecessor (see
    _theta_members_have_preds for why this is the finite executable form of
    the density condition); S is closed forward under re; and any moment all
    of whose histories hit a next successor inside S is itself in S.
    Enumerates all subsets containing m, so |moments| is capped.
    """
    if m not in frame.moments:
        raise ValueError(f"unknown moment {m!r}")
    if len(frame.moments) > max_moments:
        raise ResourceBoundExceeded(
            f"theta enumeration needs 2^{len(frame.moments) - 1} subsets; "
            f"cap is {max_moments} moments"
        )
    cached = frame._theta_cache.get(m)
    if cached is not None:
        return cached
    others = [w for w in frame.moments if w != m]
    found: list[frozenset[str]] = []
    for mask in range(1 << len(others)):
        s = frozenset([m] + [w for i, w in enumerate(others) if mask >> i & 1])
        if not _theta_members_have_preds(frame, s):
            continue
        if not _theta_re_closed(frame, s):
            continue
        if not _theta_next_closed(frame, s):
            continue
        found.append(s)
    result = tuple(sorted(found, key=lambda s: (len(s), tuple(sorted(s)))))
    frame._theta_cache[m] = result
    return result


def is_regular(frame: JstitFrame, *, max_moments: int = 16
               ) -> tuple[bool, Optional[tuple[str, str, str, frozenset[str]]]]:
    """Regularity check; witness (m0, m1, h', S) instantiates the failure.

    A failure consists of m0 strictly below m1 with no next successor of m0
    anywhere below-or-at m1, a support set S common to every Theta_w for w in
    the half-open interval (m0, m1] with m0 outside S, and a history h'
    through m0 divided at m0 from every history through m1 and avoiding next
    successors of m0 that lie in S.
    """
    for m0 in frame.moments:
        for m1 in frame.moments:
            if not frame.lt(m0, m1):
                continue
            if any(frame.next(m0, m2) and frame.le(m2, m1) for m2 in frame.moments):
                continue
            interval = [w for w in frame.moments if frame.lt(m0, w) and frame.le(w, m1)]
            common: Optional[set[frozenset[str]]] = None
            for w in interval:
                fam = set(theta(frame, w, max_moments=max_moments))
                common = fam if common is None else common & fam
                if not common:
                    break
            if not common:
                continue
            h_m1 = frame.histories_through(m1)
            for s in sorted(common, key=lambda s: (len(s), tuple(sorted(s)))):
                if m0 in s:
                    continue
                for h in frame.histories_through(m0):
                    if any(frame.undivided_at(m0, h, g) for g in h_m1):
                        continue
                    if any(frame.next(m0, w) and w in s for w in h.chain):
                        continue
                    return False, (m0, m1, h.name, s)
    return True, None


def is_unirelational(frame: JstitFrame) -> bool:
    return frame.re <= frame.r
