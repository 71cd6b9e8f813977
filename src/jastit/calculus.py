"""Axiom recognition and Hilbert proof checking for the announcement system.

The system has ten axiom groups and four rules. Every group of fixed
shape is written out in ``SCHEME_PATTERNS``, which is the reference for
what each scheme accepts: the patterns are parsed once at import, and one
structural matcher checks them all. In a pattern, upper-case atoms are
formula metavariables, ``s`` and ``t`` polynomial metavariables, and every
``[n]`` stands for the one agent metavariable ``j``. Two groups keep code
of their own:

    A3  (Dia [j1]A1 & ... & Dia [jn]An) -> Dia ([j1]A1 & ... & [jn]An),
        agents pairwise distinct, conjuncts in the same order on both sides
    A0  classical propositional logic

The first match wins, in the order A2, A3, A4, A5, A6, A8, A9, A1 (the S5
base {K-distribution, T, 5}, for Box before [j]), A7 (the S4 base
{K-distribution, T, 4} for K), then A0.

A0 has two modes. The default "oracle" mode accepts any formula whose
Boolean skeleton is a truth-table tautology when maximal non-Boolean
subformulas are read as atoms: any full propositional axiom set generates
exactly these under modus ponens, so the oracle is basis-agnostic. The
"strict" mode instead matches the ten-scheme basis ``STRICT_BASIS`` (the
standard implication, conjunction, disjunction and negation postulates
plus double negation elimination) for audits that want a concrete
instance.

A match records its bindings as ``AxiomMatch.detail``: the fixed head
(``modality`` and ``axiom`` for the modal bases, ``basis`` for strict A0)
first, then polynomial metavariables, then formula metavariables, then
``j``, each group by name. A [j] row of A1 names the agent in
``modality`` (for example ``[3]``) instead of binding ``j``.

Rules: R1 is modus ponens; R2 is necessitation for K; the announcement
rule turns K A -> (~Box E t1 | ... | ~Box E tn | Box E s1 | ... | Box E sk)
into the same implication with the boxes stripped, matching the disjuncts
as a multiset; the specification rule introduces any member of a constant
specification. Necessitation for Box and [j] is not part of the system
and is only accepted behind an explicit flag.

Proof lines are numbered from 1, and every premise reference must point
strictly upward.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .diagnostics import Diagnostic, Report, ResourceBoundExceeded
from .models import ConstantSpecification, cs_entry_key
from .syntax import (
    And, Announced, App, Box, Check, Cstit, Formula, Knows, Not, ProofVar,
    PropVar, Proves, Sum, as_dia, as_implies, flatten_and, flatten_or,
    implies, parse_formula, render, render_polynomial,
)

__all__ = [
    "AxiomMatch", "match_axiom", "is_tautology", "match_strict_tautology",
    "match_rd",
    "Axiom", "MP", "KNec", "RD", "RCS", "BoxNec", "CstitNec",
    "Justification", "ProofLine", "Proof",
    "LineVerdict", "ProofVerdict", "verify_proof", "check_cs",
    "SCHEME_IDS", "SCHEME_PATTERNS", "STRICT_BASIS",
]

SCHEME_IDS = ("A0", "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9")

Detail = tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class AxiomMatch:
    """Scheme id plus a record of what the metavariables were bound to."""

    scheme: str
    detail: Detail = ()

    @property
    def bindings(self) -> dict:
        return dict(self.detail)


# ---------------------------------------------------------------------------
# schemes as patterns

# (scheme, "modality axiom" head or "", pattern), in first-match order; A3
# is tried between A2 and A4
SCHEME_PATTERNS: tuple[tuple[str, str, str], ...] = (
    ("A2", "", "Box A -> [0]A"),
    ("A4", "", "s:(A -> B) -> (t:A -> (s * t):B)"),
    ("A5", "", "t:A -> (!t:(t:A) & K A)"),
    ("A6", "", "(s:A | t:A) -> (s + t):A"),
    ("A8", "", "K A -> Box K Box A"),
    ("A9", "", "Box E t -> K Box E t"),
    ("A1", "Box K", "Box (A -> B) -> (Box A -> Box B)"),
    ("A1", "Box T", "Box A -> A"),
    ("A1", "Box 5", "~Box ~A -> Box ~Box ~A"),
    ("A1", "[j] K", "[0](A -> B) -> ([0]A -> [0]B)"),
    ("A1", "[j] T", "[0]A -> A"),
    ("A1", "[j] 5", "~[0]~A -> [0]~[0]~A"),
    ("A7", "K K", "K (A -> B) -> (K A -> K B)"),
    ("A7", "K T", "K A -> A"),
    ("A7", "K 4", "K A -> K K A"),
)

# The ten-scheme basis for strict mode: the standard postulates for ->, &,
# | and ~, with double negation elimination closing the classical gap.
STRICT_BASIS: tuple[tuple[str, str], ...] = (
    ("PC1", "A -> (B -> A)"),
    ("PC2", "(A -> B) -> ((A -> (B -> C)) -> (A -> C))"),
    ("PC3", "A -> (B -> A & B)"),
    ("PC4", "A & B -> A"),
    ("PC5", "A & B -> B"),
    ("PC6", "A -> A | B"),
    ("PC7", "B -> A | B"),
    ("PC8", "(A -> C) -> ((B -> C) -> (A | B -> C))"),
    ("PC9", "(A -> B) -> ((A -> ~B) -> ~A)"),
    ("PC10", "~~A -> A"),
)

_Row = tuple[str, Detail, Formula]


def _head(text: str) -> Detail:
    return tuple(zip(("modality", "axiom"), text.split()))


_SCHEMES: tuple[_Row, ...] = tuple(
    (scheme, _head(head), parse_formula(text))
    for scheme, head, text in SCHEME_PATTERNS)
_STRICT: tuple[_Row, ...] = tuple(
    ("A0", (("basis", name),), parse_formula(text)) for name, text in STRICT_BASIS)


def _unify(pattern, term, env: dict) -> bool:
    """One-way match of a pattern against a term, binding metavariables in
    env. Patterns hold no object-level atoms, so every PropVar and ProofVar
    in one is a metavariable; an agent binds under the name j."""
    kind = type(pattern)
    if kind is PropVar or kind is ProofVar:
        bound = env.setdefault(pattern.name, term)
        return bound is term  # terms are hash-consed
    if kind is not type(term):
        return False
    if kind is Not or kind is Box or kind is Knows or kind is Check:
        return _unify(pattern.arg, term.arg, env)
    if kind is And or kind is Sum or kind is App:
        return (_unify(pattern.left, term.left, env)
                and _unify(pattern.right, term.right, env))
    if kind is Proves:
        return (_unify(pattern.poly, term.poly, env)
                and _unify(pattern.arg, term.arg, env))
    if kind is Cstit:
        return (env.setdefault("j", term.agent) == term.agent
                and _unify(pattern.arg, term.arg, env))
    return _unify(pattern.poly, term.poly, env)  # Announced


def _detail(head: Detail, env: dict) -> Detail:
    # a [j] head takes the agent, which then is not listed again
    fixed = []
    for key, value in head:
        if value == "[j]":
            value = f"[{env.pop('j')}]"
        fixed.append((key, value))
    # polynomial (lower case), then formula (upper case) metavariables, then j
    names = sorted(env, key=lambda n: (n == "j", n.isupper(), n))
    return tuple(fixed) + tuple(
        (n, str(env[n]) if n == "j"
         else render(env[n]) if n.isupper() else render_polynomial(env[n]))
        for n in names)


def _first_match(f: Formula, rows: Iterable[_Row]) -> Optional[AxiomMatch]:
    for scheme, head, pattern in rows:
        env: dict = {}
        if _unify(pattern, f, env):
            return AxiomMatch(scheme, _detail(head, env))
    return None


def _match_a3(f: Formula) -> Optional[AxiomMatch]:
    ir = as_implies(f)
    if not ir:
        return None
    lhs, rhs = ir
    body = as_dia(rhs)
    if body is None:
        return None
    stits = flatten_and(body)
    if not all(isinstance(g, Cstit) for g in stits):
        return None
    agents = [g.agent for g in stits]
    if len(set(agents)) != len(agents):
        return None
    parts = flatten_and(lhs)
    if len(parts) != len(stits):
        return None
    for part, st in zip(parts, stits):
        if as_dia(part) != st:
            return None
    return AxiomMatch("A3", (("n", str(len(stits))),
                             ("agents", ",".join(str(j) for j in agents))))


# ---------------------------------------------------------------------------
# A0: classical propositional logic

# truth tables are built over at most this many atoms
MAX_ATOMS = 20


def _boolean_atoms(f: Formula) -> dict:
    """Maximal non-Boolean subformulas, in first-seen order."""
    atoms: dict = {}

    def walk(g: Formula) -> None:
        if isinstance(g, And):
            walk(g.left)
            walk(g.right)
        elif isinstance(g, Not):
            walk(g.arg)
        else:
            atoms.setdefault(g, len(atoms))

    walk(f)
    return atoms


def is_tautology(f: Formula) -> bool:
    """Truth-table tautology over the Boolean skeleton of f."""
    atoms = _boolean_atoms(f)
    if len(atoms) > MAX_ATOMS:
        raise ResourceBoundExceeded(
            f"tautology check over {len(atoms)} atoms exceeds the "
            f"{MAX_ATOMS}-atom bound")

    def ev(g: Formula, row: int) -> bool:
        if isinstance(g, And):
            return ev(g.left, row) and ev(g.right, row)
        if isinstance(g, Not):
            return not ev(g.arg, row)
        return bool(row >> atoms[g] & 1)

    return all(ev(f, row) for row in range(1 << len(atoms)))


def match_strict_tautology(f: Formula) -> Optional[AxiomMatch]:
    return _first_match(f, _STRICT)


def _match_a0(f: Formula, mode: str) -> Optional[AxiomMatch]:
    if mode == "strict":
        return match_strict_tautology(f)
    if mode != "oracle":
        raise ValueError(f"unknown tautology mode {mode!r}")
    if is_tautology(f):
        return AxiomMatch("A0", (("atoms", str(len(_boolean_atoms(f)))),))
    return None


def match_axiom(f: Formula, *, tautology_mode: str = "oracle"
                ) -> Optional[AxiomMatch]:
    """First matching scheme in the order A2, A3, then the rest of
    SCHEME_PATTERNS (A4..A6, A8, A9, A1, A7), then A0."""
    return (_first_match(f, _SCHEMES[:1]) or _match_a3(f)
            or _first_match(f, _SCHEMES[1:]) or _match_a0(f, tautology_mode))


# ---------------------------------------------------------------------------
# the announcement rule

def _rd_parts(f: Formula, boxed: bool) -> Optional[tuple[Formula, Counter]]:
    """Split K A -> (disjunction of announcement literals) into the K part
    and a polarity-tagged multiset of polynomials."""
    ir = as_implies(f)
    if not ir:
        return None
    ka, rhs = ir
    if not isinstance(ka, Knows):
        return None
    bag: Counter = Counter()
    for disjunct in flatten_or(rhs):
        neg = isinstance(disjunct, Not)
        core = disjunct.arg if neg else disjunct
        if boxed:
            if not (isinstance(core, Box) and isinstance(core.arg, Announced)):
                return None
            bag[(neg, core.arg.poly)] += 1
        else:
            if not isinstance(core, Announced):
                return None
            bag[(neg, core.poly)] += 1
    return ka, bag


def match_rd(premise: Formula, conclusion: Formula) -> bool:
    """True iff conclusion is premise with the boxes stripped from every
    announcement disjunct, the disjuncts matched as a multiset."""
    p = _rd_parts(premise, boxed=True)
    c = _rd_parts(conclusion, boxed=False)
    return p is not None and c is not None and p == c


# ---------------------------------------------------------------------------
# proofs

@dataclass(frozen=True)
class Axiom:
    """Axiom line; scheme, when given, must agree with the matcher."""

    scheme: Optional[str] = None

    def __post_init__(self) -> None:
        if self.scheme is not None and self.scheme not in SCHEME_IDS:
            raise ValueError(f"unknown axiom scheme {self.scheme!r}")


@dataclass(frozen=True)
class MP:
    """Modus ponens: line i is the antecedent, line j the implication."""

    i: int
    j: int


@dataclass(frozen=True)
class KNec:
    """Necessitation for K from line i."""

    i: int


@dataclass(frozen=True)
class RD:
    """Announcement rule applied to line i."""

    i: int


@dataclass(frozen=True)
class RCS:
    """Introduction of a constant specification member."""


@dataclass(frozen=True)
class BoxNec:
    """Necessitation for Box from line i; needs the opt-in flag."""

    i: int


@dataclass(frozen=True)
class CstitNec:
    """Necessitation for [agent] from line i; needs the opt-in flag."""

    i: int
    agent: int

    def __post_init__(self) -> None:
        if not isinstance(self.agent, int) or isinstance(self.agent, bool) or self.agent < 0:
            raise ValueError(f"agent index must be a nonnegative int, got {self.agent!r}")


Justification = Union[Axiom, MP, KNec, RD, RCS, BoxNec, CstitNec]


@dataclass(frozen=True)
class ProofLine:
    formula: Formula
    just: Justification


@dataclass(frozen=True)
class Proof:
    lines: tuple[ProofLine, ...]

    def __init__(self, lines: Iterable) -> None:
        normalized = []
        for entry in lines:
            if isinstance(entry, ProofLine):
                normalized.append(entry)
            else:
                formula, just = entry
                normalized.append(ProofLine(formula, just))
        object.__setattr__(self, "lines", tuple(normalized))

    def __len__(self) -> int:
        return len(self.lines)

    def __iter__(self):
        return iter(self.lines)


@dataclass(frozen=True)
class LineVerdict:
    index: int
    ok: bool
    rule: str
    message: str
    scheme: Optional[str] = None


@dataclass(frozen=True)
class ProofVerdict:
    lines: tuple[LineVerdict, ...]

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.lines)

    def failures(self) -> tuple[LineVerdict, ...]:
        return tuple(v for v in self.lines if not v.ok)


# necessitation rules: the operator applied to the premise, its name in
# messages, and whether the rule is modal (outside the system, so accepted
# only behind the flag)
_NECESSITATIONS = {
    KNec: lambda just: (Knows, "K", False),
    BoxNec: lambda just: (Box, "Box", True),
    CstitNec: lambda just: (lambda f: Cstit(just.agent, f), f"[{just.agent}]", True),
}


def verify_proof(proof: Proof, cs: Optional[ConstantSpecification] = None,
                 *, tautology_mode: str = "oracle",
                 allow_modal_necessitation: bool = False) -> ProofVerdict:
    """Check every line of a proof; lines are numbered from 1.

    A line passes when its justification really yields its formula: axiom
    lines must match the declared scheme (or any scheme when none is
    declared), rule lines must point at earlier lines of the right shape,
    and specification lines must quote the constant specification
    verbatim. Verdicts are independent per line: a line may use the
    formula of an earlier failed line, so one bad justification does not
    cascade.
    """
    if cs is None:
        cs = ConstantSpecification(frozenset())
    formulas = [line.formula for line in proof.lines]

    def check(idx: int, formula: Formula, just: Justification
              ) -> tuple[bool, str, Optional[str]]:
        premises = (getattr(just, name) for name in ("i", "j") if hasattr(just, name))
        bad_ref = next((r for r in premises if not 1 <= r < idx), None)
        if bad_ref is not None:
            return False, f"premise reference {bad_ref} not strictly above line {idx}", None
        if isinstance(just, Axiom):
            got = match_axiom(formula, tautology_mode=tautology_mode)
            if got is None:
                return False, "no axiom scheme matches", None
            if just.scheme is not None and just.scheme != got.scheme:
                return False, f"matches {got.scheme}, not the declared {just.scheme}", None
            return True, f"axiom {got.scheme}", got.scheme
        if isinstance(just, MP):
            if formulas[just.j - 1] == implies(formulas[just.i - 1], formula):
                return True, f"modus ponens from {just.i} and {just.j}", None
            return False, f"line {just.j} is not (line {just.i} -> line {idx})", None
        if isinstance(just, RD):
            if match_rd(formulas[just.i - 1], formula):
                return True, f"announcement rule on {just.i}", None
            return False, f"not the box-stripped form of line {just.i}", None
        if isinstance(just, RCS):
            if cs.contains_formula(formula):
                return True, "constant specification member", None
            return False, "formula is not in the constant specification", None
        nec = _NECESSITATIONS.get(type(just))
        if nec is None:
            return False, f"unknown justification {type(just).__name__}", None
        op, name, modal = nec(just)
        if modal and not allow_modal_necessitation:
            return False, ("modal necessitation is not a rule of the system; "
                           "enable it explicitly to accept this line"), None
        if formula == op(formulas[just.i - 1]):
            return True, f"{name}-necessitation of {just.i}", None
        return False, f"formula is not {name} applied to line {just.i}", None

    verdicts = []
    for idx, line in enumerate(proof.lines, start=1):
        ok, message, scheme = check(idx, line.formula, line.just)
        verdicts.append(LineVerdict(idx, ok, type(line.just).__name__, message, scheme))
    return ProofVerdict(tuple(verdicts))


def check_cs(cs: ConstantSpecification) -> tuple[Diagnostic, ...]:
    """Every payload must be an axiom instance; closure gaps are violations
    and auto-completed entries are flagged."""
    out = Report()
    for chain, payload in sorted(cs.entries, key=cs_entry_key):
        if match_axiom(payload) is None:
            out.bad("cs-entry-not-axiom",
                    f"{':'.join(chain)} annotates {render(payload)}, "
                    "which matches no axiom scheme",
                    (":".join(chain), render(payload)))
        if len(chain) > 1 and (chain[1:], payload) not in cs.entries:
            out.bad("cs-not-closed",
                    f"entry {':'.join(chain)} lacks the shortened entry "
                    f"{':'.join(chain[1:])} for {render(payload)}",
                    (":".join(chain), render(payload)))
    for chain, payload in cs.auto_added:
        out.note("cs-closure-added",
                 f"closure added {':'.join(chain)} : {render(payload)}",
                 (":".join(chain), render(payload)))
    return tuple(out)
