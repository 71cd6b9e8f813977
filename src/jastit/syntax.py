"""Formulas and proof polynomials for the justification-announcement stit language.

The core grammar is deliberately small:

    t ::= x | c | t + t | t * t | !t
    A ::= p | A & A | ~A | [j]A | Box A | t : A | K A | E t

Implication, disjunction, equivalence, Dia, top and bot are surface sugar and
are desugared by the parser, so every downstream component works on eight
formula constructors and five polynomial constructors.

Concrete syntax notes:

* identifiers starting with ``c`` or ``d`` are proof constants, every other
  identifier is a proof variable (so ``x``, ``y``, ``t1`` are variables and
  ``c``, ``c3``, ``d_elim`` are constants);
* ``:`` binds tighter than ``~``, which binds tighter than ``&``, then ``|``,
  then ``->`` (right associative), then ``<->``;
* for polynomials ``!`` binds tighter than ``*`` than ``+``;
* the right-hand side of ``:`` is parsed at prefix level: ``x : ~p & q``
  reads as ``(x : ~p) & q``;
* ``E`` takes a whole polynomial: ``E s + t`` reads as ``E (s + t)``.

Unicode aliases are accepted on input (``∧ ∨ ¬ → ↔ □ ◇ × ⊤ ⊥``); ASCII is
always sufficient and is what the renderer emits.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Union

__all__ = [
    "Agent",
    "ProofVar", "ProofConst", "Sum", "App", "Check", "Polynomial",
    "PropVar", "And", "Not", "Cstit", "Box", "Proves", "Knows", "Announced",
    "Formula",
    "implies", "disj", "iff", "dia", "top", "bot",
    "as_implies", "as_or", "as_dia", "flatten_or", "flatten_and",
    "subformulas", "subpolynomials", "prop_vars", "agents_in", "check_agents",
    "parse_formula", "parse_polynomial", "ParseError",
    "render", "render_polynomial",
]

Agent = int

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")
_KEYWORDS = frozenset({"Box", "Dia", "K", "E", "top", "bot"})


def _require_ident(name: str) -> None:
    if not _IDENT_RE.match(name) or name in _KEYWORDS:
        raise ValueError(f"not a usable identifier: {name!r}")


# ---------------------------------------------------------------------------
# proof polynomials


@dataclass(frozen=True)
class ProofVar:
    name: str

    def __post_init__(self) -> None:
        _require_ident(self.name)
        if self.name[0] in "cd":
            raise ValueError(
                f"{self.name!r} starts with 'c'/'d' and is reserved for proof constants"
            )


@dataclass(frozen=True)
class ProofConst:
    name: str

    def __post_init__(self) -> None:
        _require_ident(self.name)
        if self.name[0] not in "cd":
            raise ValueError(
                f"proof constants must start with 'c' or 'd', got {self.name!r}"
            )


@dataclass(frozen=True)
class Sum:
    left: "Polynomial"
    right: "Polynomial"


@dataclass(frozen=True)
class App:
    """Application s * t: apply reasoning s to premise evidence t."""

    left: "Polynomial"
    right: "Polynomial"


@dataclass(frozen=True)
class Check:
    """Positive proof checker !t."""

    arg: "Polynomial"


Polynomial = Union[ProofVar, ProofConst, Sum, App, Check]


# ---------------------------------------------------------------------------
# formulas


@dataclass(frozen=True)
class PropVar:
    name: str

    def __post_init__(self) -> None:
        _require_ident(self.name)


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Not:
    arg: "Formula"


@dataclass(frozen=True)
class Cstit:
    """[j]A: agent j sees to it that A."""

    agent: Agent
    arg: "Formula"

    def __post_init__(self) -> None:
        if not isinstance(self.agent, int) or isinstance(self.agent, bool) or self.agent < 0:
            raise ValueError(f"agent index must be a nonnegative int, got {self.agent!r}")


@dataclass(frozen=True)
class Box:
    """Historical necessity."""

    arg: "Formula"


@dataclass(frozen=True)
class Proves:
    """t : A, the proof assertion."""

    poly: Polynomial
    arg: "Formula"


@dataclass(frozen=True)
class Knows:
    arg: "Formula"


@dataclass(frozen=True)
class Announced:
    """E t: polynomial t has been presented to the community."""

    poly: Polynomial


Formula = Union[PropVar, And, Not, Cstit, Box, Proves, Knows, Announced]

_POLY_TYPES = (ProofVar, ProofConst, Sum, App, Check)


# ---------------------------------------------------------------------------
# sugar in, sugar out

def implies(a: Formula, b: Formula) -> Formula:
    return Not(And(a, Not(b)))


def disj(a: Formula, b: Formula) -> Formula:
    return Not(And(Not(a), Not(b)))


def iff(a: Formula, b: Formula) -> Formula:
    return And(implies(a, b), implies(b, a))


def dia(a: Formula) -> Formula:
    return Not(Box(Not(a)))


# top and bot are anchored to the fixed variable p
bot: Formula = And(PropVar("p"), Not(PropVar("p")))
top: Formula = Not(bot)


def as_implies(f: Formula) -> Optional[tuple[Formula, Formula]]:
    """Read f as A -> B if it has the desugared implication shape."""
    match f:
        case Not(And(a, Not(b))):
            return (a, b)
    return None


def as_or(f: Formula) -> Optional[tuple[Formula, Formula]]:
    match f:
        case Not(And(Not(a), Not(b))):
            return (a, b)
    return None


def as_dia(f: Formula) -> Optional[Formula]:
    match f:
        case Not(Box(Not(a))):
            return a
    return None


def flatten_or(f: Formula) -> tuple[Formula, ...]:
    """Maximal disjunct list of f; (f,) when f is not an Or pattern."""
    ab = as_or(f)
    if ab is None:
        return (f,)
    return flatten_or(ab[0]) + flatten_or(ab[1])


def flatten_and(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, And):
        return flatten_and(f.left) + flatten_and(f.right)
    return (f,)


# ---------------------------------------------------------------------------
# structural walks

def _formula_children(f: Formula) -> tuple[Formula, ...]:
    match f:
        case And(a, b):
            return (a, b)
        case Not(a) | Cstit(_, a) | Box(a) | Knows(a) | Proves(_, a):
            return (a,)
        case _:
            return ()


def subformulas(f: Formula) -> tuple[Formula, ...]:
    """All distinct subformulas of f in post order (children first, f last)."""
    seen: set[Formula] = set()
    out: list[Formula] = []

    def walk(g: Formula) -> None:
        if g in seen:
            return
        for child in _formula_children(g):
            walk(child)
        seen.add(g)
        out.append(g)

    walk(f)
    return tuple(out)


def subpolynomials(x: Union[Formula, Polynomial]) -> tuple[Polynomial, ...]:
    """All distinct polynomial subterms occurring in a formula or polynomial."""
    seen: set[Polynomial] = set()
    out: list[Polynomial] = []

    def walk_poly(t: Polynomial) -> None:
        if t in seen:
            return
        match t:
            case Sum(a, b) | App(a, b):
                walk_poly(a)
                walk_poly(b)
            case Check(a):
                walk_poly(a)
        seen.add(t)
        out.append(t)

    if isinstance(x, _POLY_TYPES):
        walk_poly(x)
    else:
        for g in subformulas(x):
            match g:
                case Proves(t, _) | Announced(t):
                    walk_poly(t)
    return tuple(out)


def prop_vars(f: Formula) -> frozenset[str]:
    return frozenset(g.name for g in subformulas(f) if isinstance(g, PropVar))


def agents_in(f: Formula) -> frozenset[int]:
    return frozenset(g.agent for g in subformulas(f) if isinstance(g, Cstit))


def check_agents(f: Formula, agent_count: int) -> None:
    """Raise ValueError if f mentions an agent index outside range(agent_count)."""
    bad = sorted(j for j in agents_in(f) if j >= agent_count)
    if bad:
        raise ValueError(
            f"agent index {bad[0]} out of range for {agent_count} agents"
        )


# ---------------------------------------------------------------------------
# lexer

class ParseError(Exception):
    """Syntax error with position and the tokens that would have been accepted."""

    def __init__(self, message: str, pos: int, text: str, expected: tuple[str, ...] = ()):
        self.pos = pos
        self.text = text
        self.expected = expected
        suffix = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at position {pos}{suffix}")


_TOKEN_RE = re.compile(
    r"""
      (?P<WS>      \s+)
    | (?P<ARROW>   ->|→)
    | (?P<IFF>     <->|↔)
    | (?P<AND>     &|∧)
    | (?P<OR>      \||∨)
    | (?P<NOT>     ~|¬)
    | (?P<BOXU>    □)
    | (?P<DIAU>    ◇)
    | (?P<TOPU>    ⊤)
    | (?P<BOTU>    ⊥)
    | (?P<TIMES>   \*|×)
    | (?P<PLUS>    \+)
    | (?P<BANG>    !)
    | (?P<COLON>   :)
    | (?P<LPAR>    \()
    | (?P<RPAR>    \))
    | (?P<LBRACK>  \[)
    | (?P<RBRACK>  \])
    | (?P<INT>     \d+)
    | (?P<IDENT>   [A-Za-z_][A-Za-z0-9_']*)
    """,
    re.VERBOSE,
)

# unicode operators normalize to their keyword token kinds
_UNICODE_KINDS = {"BOXU": "Box", "DIAU": "Dia", "TOPU": "top", "BOTU": "bot"}


@dataclass(frozen=True)
class _Token:
    kind: str
    value: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos, text)
        kind = m.lastgroup or ""
        value = m.group()
        if kind != "WS":
            if kind in _UNICODE_KINDS:
                tokens.append(_Token("KEYWORD", _UNICODE_KINDS[kind], pos))
            elif kind == "IDENT" and value in _KEYWORDS:
                tokens.append(_Token("KEYWORD", value, pos))
            else:
                tokens.append(_Token(kind, value, pos))
        pos = m.end()
    tokens.append(_Token("EOF", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# parser

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    # -- token plumbing

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def at(self, kind: str, value: Optional[str] = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (value is None or tok.value == value)

    def eat(self, kind: str, value: Optional[str] = None) -> _Token:
        if not self.at(kind, value):
            tok = self.peek()
            want = value if value is not None else kind.lower()
            raise ParseError(
                f"unexpected {tok.value!r}" if tok.kind != "EOF" else "unexpected end of input",
                tok.pos, self.text, expected=(want,),
            )
        return self.advance()

    def fail(self, expected: tuple[str, ...]) -> ParseError:
        tok = self.peek()
        msg = f"unexpected {tok.value!r}" if tok.kind != "EOF" else "unexpected end of input"
        return ParseError(msg, tok.pos, self.text, expected=expected)

    # -- formulas, loosest binding first

    def formula(self) -> Formula:
        left = self.impl()
        if self.at("IFF"):
            self.advance()
            right = self.formula()
            return iff(left, right)
        return left

    def impl(self) -> Formula:
        left = self.disjunction()
        if self.at("ARROW"):
            self.advance()
            right = self.impl()
            return implies(left, right)
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while self.at("OR"):
            self.advance()
            left = disj(left, self.conjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.unary()
        while self.at("AND"):
            self.advance()
            left = And(left, self.unary())
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "NOT":
            self.advance()
            return Not(self.unary())
        if tok.kind == "KEYWORD" and tok.value == "Box":
            self.advance()
            return Box(self.unary())
        if tok.kind == "KEYWORD" and tok.value == "Dia":
            self.advance()
            return dia(self.unary())
        if tok.kind == "KEYWORD" and tok.value == "K":
            self.advance()
            return Knows(self.unary())
        if tok.kind == "LBRACK":
            self.advance()
            agent = int(self.eat("INT").value)
            self.eat("RBRACK", "]")
            return Cstit(agent, self.unary())
        return self.operand()

    def operand(self) -> Formula:
        # a polynomial followed by ':' is a proof assertion; backtrack otherwise
        mark = self.i
        try:
            t = self.polynomial()
        except ParseError:
            self.i = mark
        else:
            if self.at("COLON"):
                self.advance()
                return Proves(t, self.unary())
            self.i = mark
        return self.primary()

    def primary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "LPAR":
            self.advance()
            inner = self.formula()
            self.eat("RPAR", ")")
            return inner
        if tok.kind == "KEYWORD" and tok.value == "E":
            self.advance()
            return Announced(self.polynomial())
        if tok.kind == "KEYWORD" and tok.value == "top":
            self.advance()
            return top
        if tok.kind == "KEYWORD" and tok.value == "bot":
            self.advance()
            return bot
        if tok.kind == "IDENT":
            self.advance()
            return PropVar(tok.value)
        raise self.fail(("formula",))

    # -- polynomials

    def polynomial(self) -> Polynomial:
        left = self.poly_product()
        while self.at("PLUS"):
            self.advance()
            left = Sum(left, self.poly_product())
        return left

    def poly_product(self) -> Polynomial:
        left = self.poly_unary()
        while self.at("TIMES"):
            self.advance()
            left = App(left, self.poly_unary())
        return left

    def poly_unary(self) -> Polynomial:
        if self.at("BANG"):
            self.advance()
            return Check(self.poly_unary())
        return self.poly_primary()

    def poly_primary(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "LPAR":
            self.advance()
            inner = self.polynomial()
            self.eat("RPAR", ")")
            return inner
        if tok.kind == "IDENT":
            self.advance()
            if tok.value[0] in "cd":
                return ProofConst(tok.value)
            return ProofVar(tok.value)
        raise self.fail(("polynomial",))


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    f = p.formula()
    if not p.at("EOF"):
        raise p.fail(("end of input",))
    return f


def parse_polynomial(text: str) -> Polynomial:
    p = _Parser(text)
    t = p.polynomial()
    if not p.at("EOF"):
        raise p.fail(("end of input",))
    return t


# ---------------------------------------------------------------------------
# rendering
#
# Binding levels; a child is parenthesized when its level is below what its
# context requires. Or/Implies/Dia patterns are resugared before plain
# rendering (Or before Implies: the Or shape is the more specific of the two).

_IFF_LVL, _IMP_LVL, _OR_LVL, _AND_LVL, _UN_LVL, _ATOM_LVL = 0, 1, 2, 3, 4, 5
_PSUM_LVL, _PPROD_LVL, _PUN_LVL, _PATOM_LVL = 0, 1, 2, 3


def _wrap(s: str, lvl: int, need: int) -> str:
    return f"({s})" if lvl < need else s


def _render_poly(t: Polynomial) -> tuple[str, int]:
    match t:
        case ProofVar(name) | ProofConst(name):
            return name, _PATOM_LVL
        case Sum(a, b):
            sa, la = _render_poly(a)
            sb, lb = _render_poly(b)
            return f"{_wrap(sa, la, _PSUM_LVL)} + {_wrap(sb, lb, _PSUM_LVL + 1)}", _PSUM_LVL
        case App(a, b):
            sa, la = _render_poly(a)
            sb, lb = _render_poly(b)
            return f"{_wrap(sa, la, _PPROD_LVL)} * {_wrap(sb, lb, _PPROD_LVL + 1)}", _PPROD_LVL
        case Check(a):
            sa, la = _render_poly(a)
            return f"!{_wrap(sa, la, _PUN_LVL)}", _PUN_LVL
    raise TypeError(f"not a polynomial: {t!r}")


def render_polynomial(t: Polynomial) -> str:
    return _render_poly(t)[0]


def _announced_arg(t: Polynomial) -> str:
    s, lvl = _render_poly(t)
    # compound sums/products after E get parens for readability
    return f"({s})" if lvl < _PUN_LVL else s


def _render(f: Formula) -> tuple[str, int]:
    ab = as_or(f)
    if ab is not None:
        sa, la = _render(ab[0])
        sb, lb = _render(ab[1])
        return f"{_wrap(sa, la, _OR_LVL)} | {_wrap(sb, lb, _OR_LVL + 1)}", _OR_LVL
    ab = as_implies(f)
    if ab is not None:
        sa, la = _render(ab[0])
        sb, lb = _render(ab[1])
        return f"{_wrap(sa, la, _IMP_LVL + 1)} -> {_wrap(sb, lb, _IMP_LVL)}", _IMP_LVL
    a = as_dia(f)
    if a is not None:
        sa, la = _render(a)
        return f"Dia {_wrap(sa, la, _UN_LVL)}", _UN_LVL
    match f:
        case PropVar(name):
            return name, _ATOM_LVL
        case And(a, b):
            sa, la = _render(a)
            sb, lb = _render(b)
            return f"{_wrap(sa, la, _AND_LVL)} & {_wrap(sb, lb, _AND_LVL + 1)}", _AND_LVL
        case Not(a):
            sa, la = _render(a)
            return f"~{_wrap(sa, la, _UN_LVL)}", _UN_LVL
        case Cstit(j, a):
            sa, la = _render(a)
            return f"[{j}] {_wrap(sa, la, _UN_LVL)}", _UN_LVL
        case Box(a):
            sa, la = _render(a)
            return f"Box {_wrap(sa, la, _UN_LVL)}", _UN_LVL
        case Knows(a):
            sa, la = _render(a)
            return f"K {_wrap(sa, la, _UN_LVL)}", _UN_LVL
        case Proves(t, a):
            sa, la = _render(a)
            return f"{render_polynomial(t)} : {_wrap(sa, la, _UN_LVL)}", _UN_LVL
        case Announced(t):
            return f"E {_announced_arg(t)}", _UN_LVL
    raise TypeError(f"not a formula: {f!r}")


def render(f: Formula) -> str:
    """Concrete syntax for f; parse(render(f)) == f."""
    return _render(f)[0]
