"""Finite jstit models: universes, evidence, the whiteboard function Act.

A model fixes everything satisfaction needs: a jstit frame, a finite universe
of polynomials/formulas/variables the tool can talk about, the presented-proof
function act on moment-history pairs, an admissible evidence function, and a
valuation. Evidence over the infinite set of formulas is truncated to the
universe, with an Everything sentinel for the common "all formulas" regime;
every place the truncation could hide a failure emits an explicit warning
instead of staying silent.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union

from .diagnostics import Diagnostic, Report
from .frames import History, JstitFrame
from .syntax import (
    And, App, Check, Formula, Not, Polynomial, ProofConst, ProofVar, Proves,
    PropVar, Sum, render, render_polynomial, subformulas, subpolynomials,
)

__all__ = [
    "Universe", "EVERYTHING", "EvidenceSet", "ev_contains", "ev_subset",
    "ConstantSpecification", "cs_entry_key", "JstitModel", "OutOfUniverseError",
    "act_settled", "act_violations", "validate_model", "derived_property_check",
]


# ---------------------------------------------------------------------------
# universe

@dataclass(frozen=True)
class Universe:
    """Finite carrier: what the tool can mention. Closed under subterms."""

    polynomials: frozenset
    formulas: frozenset
    prop_vars: frozenset

    def __post_init__(self) -> None:
        for f in self.formulas:
            for g in subformulas(f):
                if g not in self.formulas:
                    raise ValueError(f"universe formulas not subterm closed: missing {render(g)}")
            for t in subpolynomials(f):
                if t not in self.polynomials:
                    raise ValueError(f"universe misses polynomial {render_polynomial(t)} of {render(f)}")
            if isinstance(f, PropVar) and f.name not in self.prop_vars:
                raise ValueError(f"universe misses variable {f.name}")
        for t in self.polynomials:
            for u in subpolynomials(t):
                if u not in self.polynomials:
                    raise ValueError(f"universe polynomials not subterm closed: missing {render_polynomial(u)}")

    @classmethod
    def close(cls, formulas: Iterable[Formula] = (), polynomials: Iterable[Polynomial] = (),
              prop_vars: Iterable[str] = ()) -> "Universe":
        # each root's subterm tuples are cached on it, so this is linear in
        # the distinct subterms however much the roots share
        fs: set = set()
        ps: set = set()
        for f in formulas:
            fs.update(subformulas(f))
            ps.update(subpolynomials(f))
        for t in polynomials:
            ps.update(subpolynomials(t))
        pvs = set(prop_vars) | {f.name for f in fs if isinstance(f, PropVar)}
        return cls(frozenset(ps), frozenset(fs), frozenset(pvs))

    def extended(self, formulas: Iterable[Formula] = (),
                 polynomials: Iterable[Polynomial] = ()) -> "Universe":
        return Universe.close(
            formulas=set(self.formulas) | set(formulas),
            polynomials=set(self.polynomials) | set(polynomials),
            prop_vars=self.prop_vars,
        )

    @functools.cached_property
    def inexpressible_composites(self) -> tuple[str, ...]:
        """Rendered s * t, s + t and !t over the universe's polynomials that
        fall outside it, so that evidence closure cannot be checked there;
        sorted."""
        ps = self.polynomials
        comps = [App(s, t) for s in ps for t in ps] + [Sum(s, t) for s in ps for t in ps]
        comps += [Check(t) for t in ps]
        return tuple(sorted({render_polynomial(c) for c in comps if c not in ps}))

    def missing_from(self, f: Formula):
        """First subterm of f outside this universe, or None."""
        for g in subformulas(f):
            if g not in self.formulas:
                return g
        for t in subpolynomials(f):
            if t not in self.polynomials:
                return t
        return None


# ---------------------------------------------------------------------------
# evidence

class _Everything:
    """Evidence value standing for the full (infinite) set of formulas."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __contains__(self, item) -> bool:
        return True

    def __repr__(self) -> str:
        return "EVERYTHING"


EVERYTHING = _Everything()
EvidenceSet = Union[_Everything, frozenset]


def ev_contains(es: EvidenceSet, f: Formula) -> bool:
    return f in es


def ev_subset(a: EvidenceSet, b: EvidenceSet) -> bool:
    if a is EVERYTHING:
        return b is EVERYTHING
    return b is EVERYTHING or a <= b


# ---------------------------------------------------------------------------
# constant specifications

CsEntry = tuple[tuple[str, ...], Formula]


def cs_entry_key(entry: CsEntry) -> tuple:
    """Canonical order of constant specification entries: shorter chains
    first, then by chain, then by the rendered payload."""
    chain, payload = entry
    return (len(chain), chain, render(payload))


@dataclass(frozen=True)
class ConstantSpecification:
    """Entries (constant chain outermost first, payload formula).

    The entry ((c2, c1), A) stands for the formula c2 : c1 : A. Use
    from_entries, which completes the set downward (dropping outermost
    constants) and records what it added.
    """

    entries: frozenset
    auto_added: tuple = ()

    @staticmethod
    def chain_formula(chain: tuple[str, ...], payload: Formula) -> Formula:
        f = payload
        for c in reversed(chain):
            f = Proves(ProofConst(c), f)
        return f

    @classmethod
    def from_entries(cls, entries: Iterable[CsEntry]) -> "ConstantSpecification":
        base: set[CsEntry] = set()
        for chain, payload in entries:
            chain = tuple(chain)
            if not chain:
                raise ValueError("constant chain must be nonempty")
            for c in chain:
                ProofConst(c)  # validates the naming convention
            base.add((chain, payload))
        added: list[CsEntry] = []
        work = list(base)
        while work:
            chain, payload = work.pop()
            if len(chain) > 1:
                derived = (chain[1:], payload)
                if derived not in base:
                    base.add(derived)
                    added.append(derived)
                    work.append(derived)
        added.sort(key=cs_entry_key)
        return cls(frozenset(base), tuple(added))

    def contains_formula(self, f: Formula) -> bool:
        return any(self.chain_formula(chain, a) == f for chain, a in self.entries)

    def normality_requirements(self) -> tuple[tuple[str, Formula], ...]:
        """Pairs (c, F) such that c : F is asserted by the specification."""
        reqs = {
            (chain[0], self.chain_formula(chain[1:], a)) for chain, a in self.entries
        }
        return tuple(sorted(reqs, key=lambda r: (r[0], render(r[1]))))


# ---------------------------------------------------------------------------
# models

class OutOfUniverseError(Exception):
    def __init__(self, term, rendered: str):
        self.term = term
        super().__init__(f"subterm outside the model universe: {rendered}")


class JstitModel:
    def __init__(self, frame: JstitFrame, universe: Optional[Universe] = None,
                 act: Optional[Mapping] = None, evidence: Optional[Mapping] = None,
                 valuation: Optional[Mapping] = None,
                 evidence_default: EvidenceSet = EVERYTHING):
        self.frame = frame
        act = dict(act or {})
        evidence = dict(evidence or {})
        valuation = dict(valuation or {})

        if universe is None:
            universe = Universe.close(
                formulas=[f for es in evidence.values() if es is not EVERYTHING for f in es],
                polynomials=[t for ts in act.values() for t in ts] + [t for (_, t) in evidence],
                prop_vars=valuation.keys(),
            )
        self.universe = universe

        mh = set(self.mh_pairs())
        self.act: dict[tuple[str, str], frozenset] = {pair: frozenset() for pair in mh}
        for (m, hname), ts in act.items():
            if (m, hname) not in mh:
                raise ValueError(f"act key ({m!r}, {hname!r}) is not a moment-history pair")
            ts = frozenset(ts)
            for t in ts:
                if t not in universe.polynomials:
                    raise ValueError(
                        f"act value {render_polynomial(t)} at ({m}, {hname}) outside universe")
            self.act[(m, hname)] = ts

        if not (evidence_default is EVERYTHING or isinstance(evidence_default, frozenset)):
            evidence_default = frozenset(evidence_default)
        self.evidence_default = evidence_default
        self.evidence: dict[tuple[str, Polynomial], EvidenceSet] = {}
        for (m, t), es in evidence.items():
            if m not in frame.moments:
                raise ValueError(f"evidence key mentions unknown moment {m!r}")
            if es is not EVERYTHING:
                es = frozenset(es)
                for f in es:
                    if f not in universe.formulas:
                        raise ValueError(
                            f"evidence formula {render(f)} at ({m}, {render_polynomial(t)}) outside universe")
            self.evidence[(m, t)] = es

        self.valuation: dict[str, frozenset] = {}
        for p, pairs in valuation.items():
            if p not in universe.prop_vars:
                raise ValueError(f"valuation variable {p!r} outside universe")
            pairs = frozenset(tuple(x) for x in pairs)
            for pair in pairs:
                if pair not in mh:
                    raise ValueError(f"valuation pair {pair!r} for {p!r} is not a moment-history pair")
            self.valuation[p] = pairs

    # -- accessors

    def mh_pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(
            (m, h.name) for m in self.frame.moments for h in self.frame.histories_through(m)
        )

    def act_at(self, m: str, h: Union[History, str]) -> frozenset:
        name = h.name if isinstance(h, History) else h
        return self.act[(m, name)]

    def evidence_at(self, m: str, t: Polynomial) -> EvidenceSet:
        return self.evidence.get((m, t), self.evidence_default)

    def val_at(self, p: str) -> frozenset:
        return self.valuation.get(p, frozenset())

    def ensure_in_universe(self, f: Formula) -> None:
        missing = self.universe.missing_from(f)
        if missing is not None:
            if isinstance(missing, (ProofVar, ProofConst, Sum, App, Check)):
                raise OutOfUniverseError(missing, render_polynomial(missing))
            raise OutOfUniverseError(missing, render(missing))

    def _key(self) -> tuple:
        return (
            self.frame, self.universe,
            tuple(sorted(self.act.items())),
            tuple(sorted(((m, render_polynomial(t)), es if es is EVERYTHING else tuple(sorted(map(render, es))))
                         for (m, t), es in self.evidence.items())),
            tuple(sorted((p, tuple(sorted(v))) for p, v in self.valuation.items())),
            self.evidence_default is EVERYTHING,
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, JstitModel) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"<JstitModel over {len(self.frame.moments)} moments, |P|={len(self.universe.polynomials)}>"


def act_settled(model: JstitModel, m: str) -> frozenset:
    """Proofs presented on every history through m (an accomplished fact at m)."""
    return _settled(model.frame, model.act, m)


def _settled(frame: JstitFrame, act: Mapping, m: str) -> frozenset:
    hs = frame.histories_through(m)
    if not hs:
        return frozenset()
    return frozenset.intersection(*(act[(m, h.name)] for h in hs))


# ---------------------------------------------------------------------------
# validation

def _holds_implies(es: EvidenceSet, a: Formula, b: Formula) -> bool:
    """implies(a, b) in es, without building the implication (a probe
    with a missing part misses too)."""
    return es is EVERYTHING or Not.find(And.find(a, Not.find(b))) in es


def _sorted_polys(ts) -> list:
    return sorted(ts, key=render_polynomial)


def _sorted_formulas(fs) -> list:
    return sorted(fs, key=render)


def act_violations(frame: JstitFrame, act: Mapping) -> list[Diagnostic]:
    """Check the Act constraints of an act keyed by every moment-history
    pair of frame; diagnostics, not exceptions.

    Reads only the order, the dense pairs and re of the frame. The
    no-new-proofs condition is waived (with a warning) at moments whose
    incoming cover is density-annotated: the declared stretch carries the
    presented proofs that a finite order cannot.
    """
    out = Report()
    # expansion of presented proofs along the order
    for m2 in frame.moments:
        for m in frame.moments:
            if not frame.lt(m, m2):
                continue
            for h in frame.histories_through(m2):
                extra = act[(m, h.name)] - act[(m2, h.name)]
                if extra:
                    t = _sorted_polys(extra)[0]
                    out.bad("act-expansion",
                            f"{render_polynomial(t)} presented at {m} on {h.name} but gone at later {m2}",
                            (m, m2, h.name, render_polynomial(t)))

    # no new proofs guaranteed (settled proofs must have been presented before)
    for m in frame.moments:
        settled = _settled(frame, act, m)
        if not settled:
            continue
        seen = set()
        for m2 in frame.moments:
            if frame.lt(m2, m):
                for h in frame.histories_through(m):
                    seen |= act[(m2, h.name)]
        fresh = settled - seen
        if fresh:
            t = _sorted_polys(fresh)[0]
            if any(b == m for (_, b) in frame.dense):
                out.note("act-new-proofs-waived",
                         f"settled proof {render_polynomial(t)} at {m} attributed to the declared dense stretch below {m}",
                         (m, render_polynomial(t)))
            else:
                out.bad("act-new-proofs",
                        f"{render_polynomial(t)} settled at {m} without having been presented strictly before",
                        (m, render_polynomial(t)))

    # presenting divides: undivided histories carry the same presented proofs
    for m in frame.moments:
        hs = frame.histories_through(m)
        for h, g in itertools.combinations(hs, 2):
            if frame.undivided_at(m, h, g) and act[(m, h.name)] != act[(m, g.name)]:
                out.bad("act-undivided",
                        f"{h.name} and {g.name} are undivided at {m} but present different proofs",
                        (m, h.name, g.name))

    # epistemic transparency of settled proofs along re
    for m, m2 in sorted(frame.re):
        if m == m2:
            continue
        extra = _settled(frame, act, m) - _settled(frame, act, m2)
        if extra:
            t = _sorted_polys(extra)[0]
            out.bad("act-transparency",
                    f"settled proof {render_polynomial(t)} at {m} unknown at re-successor {m2}",
                    (m, m2, render_polynomial(t)))
    return out


def validate_model(model: JstitModel, cs: Optional[ConstantSpecification] = None
                   ) -> list[Diagnostic]:
    """Check the Act/evidence/valuation constraints; diagnostics, not exceptions.

    Evidence closure is checked only where the composite polynomial lies in
    the universe; skipped composites are reported in one warning.
    """
    frame = model.frame
    uni = model.universe
    out = Report()

    # monotonicity of evidence along re
    polys = set(uni.polynomials) | {t for (_, t) in model.evidence}
    for t in _sorted_polys(polys):
        for m, m2 in sorted(frame.re):
            if m == m2:
                continue
            if not ev_subset(model.evidence_at(m, t), model.evidence_at(m2, t)):
                out.bad("evidence-monotonicity",
                        f"evidence for {render_polynomial(t)} shrinks from {m} to its re-successor {m2}",
                        (m, m2, render_polynomial(t)))

    # evidence closure under *, +, ! where the composite is expressible.
    # An absent composite falls back to the default evidence set; when that
    # default is Everything the closure conclusion holds vacuously, so only
    # a smaller default leaves composites genuinely unchecked.
    skipped = (uni.inexpressible_composites
               if model.evidence_default is not EVERYTHING else ())
    up = _sorted_polys(uni.polynomials)
    # only closure checks on explicit composite evidence read the formulas,
    # and rendering them all for the sort is the costly part of a call
    uf = functools.cache(lambda: _sorted_formulas(uni.formulas))

    # the composites are probed, not built: a term that is not live is in
    # no universe and no evidence set
    for m in frame.moments:
        for s, t in itertools.product(up, up):
            comp = App.find(s, t)
            if comp in uni.polynomials and model.evidence_at(m, comp) is not EVERYTHING:
                es, et, ec = model.evidence_at(m, s), model.evidence_at(m, t), model.evidence_at(m, comp)
                for b in uf():
                    if b in ec:
                        continue
                    if any(a in et and _holds_implies(es, a, b) for a in uf()):
                        out.bad("evidence-closure-app",
                                f"{render(b)} derivable at {m} but missing from evidence for {render_polynomial(comp)}",
                                (m, render_polynomial(comp), render(b)))
            comp = Sum.find(s, t)
            if comp in uni.polynomials and model.evidence_at(m, comp) is not EVERYTHING:
                ec = model.evidence_at(m, comp)
                for a in uf():
                    if (a in model.evidence_at(m, s) or a in model.evidence_at(m, t)) and a not in ec:
                        out.bad("evidence-closure-sum",
                                f"{render(a)} in a summand's evidence at {m} but not in evidence for {render_polynomial(comp)}",
                                (m, render_polynomial(comp), render(a)))
        for t in up:
            comp = Check.find(t)
            if comp in uni.polynomials and model.evidence_at(m, comp) is not EVERYTHING:
                ec = model.evidence_at(m, comp)
                for a in uf():
                    if a in model.evidence_at(m, t) and Proves.find(t, a) not in ec:
                        out.bad("evidence-closure-check",
                                f"{render_polynomial(t)} : {render(a)} missing from evidence for {render_polynomial(comp)} at {m}",
                                (m, render_polynomial(comp), render(a)))
    if skipped:
        out.note("evidence-closure-skipped",
                 "closure not checked for composites outside the universe: "
                 + ", ".join(skipped), skipped)

    out.extend(act_violations(frame, model.act))

    # CS-normality: everything the specification asserts is admissible evidence
    if cs is not None:
        for c, f in cs.normality_requirements():
            for m in frame.moments:
                if not ev_contains(model.evidence_at(m, ProofConst(c)), f):
                    out.bad("cs-normality",
                            f"specification asserts {c} : {render(f)} but {render(f)} is not evidence for {c} at {m}",
                            (m, c, render(f)))

    return out


def derived_property_check(model: JstitModel) -> list[Diagnostic]:
    """Cross-check: a proof presented at m on a history through a later m2 is settled at m2.

    Follows from expansion plus undividedness plus the whiteboard constraints;
    a hit here on a validated model means the validator itself is broken.
    """
    frame = model.frame
    out = Report()
    for m in frame.moments:
        for m2 in frame.moments:
            if not frame.lt(m, m2):
                continue
            settled_late = act_settled(model, m2)
            for h in frame.histories_through(m2):
                for t in _sorted_polys(model.act_at(m, h) - settled_late):
                    out.bad("presented-not-settled-later",
                            f"{render_polynomial(t)} presented at {m} on {h.name} is not settled at {m2}",
                            (m, m2, h.name, render_polynomial(t)))
    return out
