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
* a proof assertion starts where an operand may start and the tokens up to
  the next ``:`` form one whole polynomial: ``(x + y) * z : p`` is an
  assertion, while in ``(x : p)`` the first ``(`` groups a formula, since
  ``(x`` is no polynomial. Anything else there is a formula operand. The
  parser finds these starts in one right-to-left scan per input, so it
  reads each input once and never backtracks;
* the right-hand side of ``:`` is parsed at prefix level: ``x : ~p & q``
  reads as ``(x : ~p) & q``;
* ``E`` takes a whole polynomial: ``E s + t`` reads as ``E (s + t)``;
* a term nested more than ``MAX_DEPTH`` constructors deep, sugar expanded,
  is a ``ParseError``, and so is text with more than ``MAX_DEPTH``
  parentheses open at once (formula and polynomial ones together; 200
  parse, 201 do not). Redundant parentheses add no constructor, so they
  are bounded by their own count.

Unicode aliases are accepted on input (``∧ ∨ ¬ → ↔ □ ◇ × ⊤ ⊥``); ASCII is
always sufficient and is what the renderer emits.
"""

from __future__ import annotations

import functools
import re
import weakref
from dataclasses import dataclass
from typing import Callable, Optional, TypeVar, Union

from .diagnostics import DocumentError

__all__ = [
    "Agent",
    "ProofVar", "ProofConst", "Sum", "App", "Check", "Polynomial",
    "PropVar", "And", "Not", "Cstit", "Box", "Proves", "Knows", "Announced",
    "Formula",
    "implies", "disj", "iff", "dia", "top", "bot",
    "as_implies", "as_or", "as_dia", "flatten_or", "flatten_and",
    "subformulas", "subpolynomials", "prop_vars", "agents_in", "check_agents",
    "parse_formula", "parse_polynomial", "ParseError", "MAX_DEPTH",
    "render", "render_polynomial", "tree_size", "AST_DUMP_MAX_NODES",
]

Agent = int
_T = TypeVar("_T")

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")
_KEYWORDS = frozenset({"Box", "Dia", "K", "E", "top", "bot"})


def _require_ident(name: str) -> None:
    if not _IDENT_RE.match(name) or name in _KEYWORDS:
        raise ValueError(f"not a usable identifier: {name!r}")


# ---------------------------------------------------------------------------
# hash-consing
#
# Every node is interned (Filliatre & Conchon, "Type-safe modular
# hash-consing", 2006): each constructor class keeps a table from field
# tuples to weak references to the live node with those fields, and a call
# whose fields match a live node returns that node. Equal terms are therefore one object, so ==
# is identity, and the hash is computed once, when the node is built. It is
# hash(field tuple), the value a frozen dataclass gives, so the iteration
# order of sets and dicts of terms is what it was before interning.


class _Ref(weakref.ref):
    """Weak reference to an interned node that remembers the node's key."""

    __slots__ = ("key",)


def _forget(table: dict, ref: _Ref) -> None:
    """Weak-reference callback: drop a dead node's entry, unless a new node
    has taken its key since."""
    if table.get(ref.key) is ref:
        del table[ref.key]


class _Interned(type):
    """Metaclass of the term constructors: one live node per field tuple."""

    def __init__(cls, name, bases, ns):
        super().__init__(name, bases, ns)
        cls._table = {}
        cls._forget = functools.partial(_forget, cls._table)

    def __call__(cls, *fields):
        # fields are positional: they are the table key as written
        cls._check(*fields)
        ref = cls._table.get(fields)
        node = None if ref is None else ref()
        if node is None:
            cls._check_new(*fields)
            node = super().__call__(*fields)
            object.__setattr__(node, "_hash", hash(fields))
            ref = _Ref(node, cls._forget)
            ref.key = fields
            cls._table[fields] = ref
        return node

    def find(cls, *fields):
        """The live node with these fields, or None. Builds nothing: a miss
        means no term with these fields exists anywhere."""
        ref = cls._table.get(fields)
        return None if ref is None else ref()


class _Term(metaclass=_Interned):
    """Base of every formula and polynomial node."""

    @staticmethod
    def _check(*fields) -> None:
        """Reject bad scalar fields; runs on every call, before the table
        is consulted, because True == 1 would find a Cstit of agent 1."""

    @staticmethod
    def _check_new(*fields) -> None:
        """Reject bad scalar fields that only a miss can hold: a name that
        equals an interned node's name is that checked string."""

    def __hash__(self) -> int:
        return self._hash

    def _fields(self) -> tuple:
        return tuple(getattr(self, n) for n in self.__match_args__)

    def __reduce__(self):
        # copy, deepcopy and unpickling go through the constructor, so
        # they return the interned node
        return type(self), self._fields()

    def __repr__(self) -> str:
        # the dataclass form, unless it would unfold more than
        # AST_DUMP_MAX_NODES nodes; a child never has more than its parent
        size = tree_size(self)
        if size > AST_DUMP_MAX_NODES:
            return f"<{type(self).__qualname__} of {size} unfolded nodes>"
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


# the constructors' decorator; equality and repr come from _Term
_node = dataclass(frozen=True, eq=False, repr=False)

# The most nodes that a term's repr and documents.ast_dump unfold. Shared
# subterms are unfolded at each occurrence, so the tree of a term within
# MAX_DEPTH can be exponentially larger than the term: a chain of <->
# doubles per link.
AST_DUMP_MAX_NODES = 100_000


def tree_size(x: _Term) -> int:
    """Nodes of x's unfolded tree. Cached on each node, so the count costs
    one step per distinct subterm however often it is shared."""
    size = x.__dict__.get("_tree_size")
    if size is None:
        size = 1 + sum(tree_size(c) for c in x._fields() if isinstance(c, _Term))
        object.__setattr__(x, "_tree_size", size)
    return size


# ---------------------------------------------------------------------------
# proof polynomials


@_node
class ProofVar(_Term):
    name: str

    @staticmethod
    def _check_new(name: str) -> None:
        _require_ident(name)
        if name[0] in "cd":
            raise ValueError(
                f"{name!r} starts with 'c'/'d' and is reserved for proof constants")


@_node
class ProofConst(_Term):
    name: str

    @staticmethod
    def _check_new(name: str) -> None:
        _require_ident(name)
        if name[0] not in "cd":
            raise ValueError(f"proof constants must start with 'c' or 'd', got {name!r}")


@_node
class Sum(_Term):
    left: "Polynomial"
    right: "Polynomial"


@_node
class App(_Term):
    """Application s * t: apply reasoning s to premise evidence t."""

    left: "Polynomial"
    right: "Polynomial"


@_node
class Check(_Term):
    """Positive proof checker !t."""

    arg: "Polynomial"


Polynomial = Union[ProofVar, ProofConst, Sum, App, Check]


# ---------------------------------------------------------------------------
# formulas


@_node
class PropVar(_Term):
    name: str

    _check_new = staticmethod(_require_ident)


@_node
class And(_Term):
    left: "Formula"
    right: "Formula"


@_node
class Not(_Term):
    arg: "Formula"


@_node
class Cstit(_Term):
    """[j]A: agent j sees to it that A."""

    agent: Agent
    arg: "Formula"

    @staticmethod
    def _check(agent: Agent, arg: "Formula") -> None:
        if not isinstance(agent, int) or isinstance(agent, bool) or agent < 0:
            raise ValueError(f"agent index must be a nonnegative int, got {agent!r}")


@_node
class Box(_Term):
    """Historical necessity."""

    arg: "Formula"


@_node
class Proves(_Term):
    """t : A, the proof assertion."""

    poly: Polynomial
    arg: "Formula"


@_node
class Knows(_Term):
    arg: "Formula"


@_node
class Announced(_Term):
    """E t: polynomial t has been presented to the community."""

    poly: Polynomial


Formula = Union[PropVar, And, Not, Cstit, Box, Proves, Knows, Announced]

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


def _merged(node: _Term, attr: str, parts) -> tuple:
    """Cache on the node the distinct items of the part tuples, in order.
    Each part is a child's cached tuple, so a term costs one merge per
    distinct subterm, however often it is shared."""
    out = tuple(dict.fromkeys(x for part in parts for x in part))
    object.__setattr__(node, attr, out)
    return out


def subformulas(f: Formula) -> tuple[Formula, ...]:
    """All distinct subformulas of f in post order (children first, f last)."""
    cached = f.__dict__.get("_subformulas")
    if cached is not None:
        return cached
    return _merged(f, "_subformulas",
                   [*map(subformulas, _formula_children(f)), (f,)])


def subpolynomials(x: Union[Formula, Polynomial]) -> tuple[Polynomial, ...]:
    """All distinct polynomial subterms occurring in a formula or polynomial,
    in the order of a post-order walk over the subformulas."""
    cached = x.__dict__.get("_subpolynomials")
    if cached is not None:
        return cached
    match x:
        case Sum(a, b) | App(a, b):
            parts = [subpolynomials(a), subpolynomials(b), (x,)]
        case Check(a):
            parts = [subpolynomials(a), (x,)]
        case ProofVar() | ProofConst():
            parts = [(x,)]
        case Proves(t, a):
            parts = [subpolynomials(a), subpolynomials(t)]
        case Announced(t):
            parts = [subpolynomials(t)]
        case _:
            parts = map(subpolynomials, _formula_children(x))
    return _merged(x, "_subpolynomials", parts)


def prop_vars(f: Formula) -> frozenset[str]:
    return frozenset(g.name for g in subformulas(f) if isinstance(g, PropVar))


def agents_in(f: Formula) -> frozenset[int]:
    return frozenset(g.agent for g in subformulas(f) if isinstance(g, Cstit))


def check_agents(f: Formula, agent_count: int) -> None:
    """Raise DocumentError if f mentions an agent index outside range(agent_count)."""
    bad = sorted(j for j in agents_in(f) if j >= agent_count)
    if bad:
        raise DocumentError(
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


# one token; no two alternatives start with the same character
_TOKEN = r"->|→|<->|↔|[&∧|∨~¬□◇⊤⊥*×+!:()\[\]]|\d+|[A-Za-z_][A-Za-z0-9_']*"
_TOKEN_RE = re.compile(_TOKEN)
# the longest prefix made of tokens and white space
_LEXABLE_RE = re.compile(rf"(?:\s*(?:{_TOKEN}))*\s*")

# Unicode keywords are reported by keyword name in error messages
_KEYWORD_ALIASES = {"□": "Box", "◇": "Dia", "⊤": "top", "⊥": "bot"}
# token text to kind: the ASCII spelling of an operator or keyword; any
# other token is an INT or an IDENT
_KINDS = ({s: s for s in ("->", "<->", "&", "|", "~", "*", "+", "!", ":",
                          "(", ")", "[", "]", *_KEYWORDS)}
          | {"→": "->", "↔": "<->", "∧": "&", "∨": "|", "¬": "~", "×": "*"}
          | _KEYWORD_ALIASES)


def _assertion_starts(kinds: list[str]) -> set[int]:
    """The tokens where a proof assertion begins: those from which the tokens
    up to the next ':' form one whole polynomial.

    Each run before a ':' is read right to left, keeping whether a whole
    operand lies to the right and how many ')' are open. A pair of
    neighbours that no polynomial holds (an operator before ')', two
    operands side by side), or a '(' that no ')' closes, ends the run:
    every longer run holds it too."""
    starts = set()
    if ":" not in kinds:
        return starts
    live = False
    for i in range(len(kinds) - 1, -1, -1):
        k = kinds[i]
        if k == ":":
            live, operand, depth = True, False, 0
            continue
        if not live:
            continue
        if k == "IDENT":
            live, operand = not operand, True
        elif k == ")":
            live, depth = not operand, depth + 1
        elif k == "+" or k == "*":
            live, operand = operand, False
        elif k == "!":
            live = operand
        elif k == "(":
            live, depth = operand and depth > 0, depth - 1
        else:
            live = False
        if live and operand and depth == 0:
            starts.add(i)
    return starts


# ---------------------------------------------------------------------------
# parser
#
# One pass, no backtracking: prefix operators are gathered in a loop, infix
# chains are folded with an operator stack, and only parentheses recurse.

_PREFIX = {"~": Not, "Box": Box, "Dia": dia, "K": Knows}
# infix operator: (binding strength, builder); strengths below 2 group to
# the right, the others to the left
_FORMULA_INFIX = {"<->": (0, iff), "->": (1, implies), "|": (2, disj), "&": (3, And)}
_POLY_INFIX = {"+": (2, Sum), "*": (3, App)}


def _reduce(out: list, ops: list) -> None:
    right = out.pop()
    out[-1] = ops.pop()[1](out[-1], right)


class _Parser:
    def __init__(self, text: str):
        lexable = _LEXABLE_RE.match(text).end()
        if lexable < len(text):
            raise ParseError(f"unexpected character {text[lexable]!r}", lexable, text)
        self.text = text
        self.toks = _TOKEN_RE.findall(text)
        self.kinds = [_KINDS.get(s) or ("INT" if s.isdecimal() else "IDENT")
                      for s in self.toks]
        self.kinds.append("EOF")
        self.assertions = _assertion_starts(self.kinds)
        self.i = 0
        self.parens = 0

    # -- token plumbing

    def pos(self, i: int) -> int:
        """Character offset of token i; only errors need it."""
        if i == len(self.toks):
            return len(self.text)
        return [m.start() for m in _TOKEN_RE.finditer(self.text)][i]

    def eat(self, kind: str) -> str:
        i = self.i
        if self.kinds[i] != kind:
            raise self.fail(kind.lower())
        self.i = i + 1
        return self.toks[i]

    def fail(self, expected: str) -> ParseError:
        i = self.i
        if i == len(self.toks):
            msg = "unexpected end of input"
        else:
            msg = f"unexpected {_KEYWORD_ALIASES.get(self.toks[i], self.toks[i])!r}"
        return ParseError(msg, self.pos(i), self.text, (expected,))

    def infix(self, operand: Callable[[], _T], table: dict) -> _T:
        """operand (op operand)*, for the operators in table."""
        out = [operand()]
        ops = []
        while (k := self.kinds[self.i]) in table:
            strength, build = table[k]
            while ops and (ops[-1][0] > strength or ops[-1][0] == strength >= 2):
                _reduce(out, ops)
            ops.append((strength, build))
            self.i += 1
            out.append(operand())
        while ops:
            _reduce(out, ops)
        return out[0]

    def group(self, operand: Callable[[], _T], table: dict) -> _T:
        """A parenthesized infix chain; the '(' is at self.i - 1."""
        if self.parens == MAX_DEPTH:
            raise ParseError(f"nesting too deep (more than {MAX_DEPTH} parentheses)",
                             self.pos(self.i - 1), self.text)
        self.parens += 1
        out = self.infix(operand, table)
        self.eat(")")
        self.parens -= 1
        return out

    # -- formulas

    def formula(self) -> Formula:
        return self.infix(self.unary, _FORMULA_INFIX)

    def unary(self) -> Formula:
        # prefixes are gathered first and applied inside out to the operand
        wrap = []
        kinds = self.kinds
        while True:
            i = self.i
            k = kinds[i]
            if k in _PREFIX:
                wrap.append(_PREFIX[k])
                self.i = i + 1
            elif k == "[":
                self.i = i + 1
                digits = self.eat("INT")
                try:
                    agent = int(digits)
                except ValueError:  # more digits than int() converts
                    raise ParseError("agent index too large", self.pos(i + 1),
                                     self.text) from None
                self.eat("]")
                wrap.append(functools.partial(Cstit, agent))
            elif i in self.assertions:
                wrap.append(functools.partial(Proves, self.polynomial()))
                self.i += 1  # the ':'
            else:
                break
        self.i = i + 1
        if k == "IDENT":
            f = PropVar(self.toks[i])
        elif k == "(":
            f = self.group(self.unary, _FORMULA_INFIX)
        elif k == "E":
            f = Announced(self.polynomial())
        elif k == "top":
            f = top
        elif k == "bot":
            f = bot
        else:
            self.i = i
            raise self.fail("formula")
        for w in reversed(wrap):
            f = w(f)
        return f

    # -- polynomials

    def polynomial(self) -> Polynomial:
        return self.infix(self.poly_unary, _POLY_INFIX)

    def poly_unary(self) -> Polynomial:
        start = i = self.i
        while self.kinds[i] == "!":
            i += 1
        k = self.kinds[i]
        self.i = i + 1
        if k == "IDENT":
            name = self.toks[i]
            t = ProofConst(name) if name[0] in "cd" else ProofVar(name)
        elif k == "(":
            t = self.group(self.poly_unary, _POLY_INFIX)
        else:
            self.i = i
            raise self.fail("polynomial")
        for _ in range(i - start):
            t = Check(t)
        return t


# Deepest term the parsers accept. Every walk over terms downstream (render,
# hashing, evaluation, the JSON dumps) recurses once or twice per level, so a
# cap well below the interpreter's recursion limit keeps them all in range.
MAX_DEPTH = 200


def _too_deep(x: Union[Formula, Polynomial]) -> bool:
    # one level at a time, each distinct node once per level: sugar such as
    # <-> shares subterms, so the unfolded tree can be exponentially larger
    level = {x}
    for _ in range(MAX_DEPTH):
        level = {c for node in level for c in node._fields() if isinstance(c, _Term)}
        if not level:
            return False
    return True


def _parse(text: str, rule: Callable[[_Parser], _T]) -> _T:
    p = _Parser(text)
    try:
        out = rule(p)
    except RecursionError:
        raise ParseError("nesting too deep", p.pos(p.i), text) from None
    if p.kinds[p.i] != "EOF":
        raise p.fail("end of input")
    # no token adds more than four levels (<-> and top expand the most),
    # so only inputs of more than MAX_DEPTH / 4 tokens need the walk
    if 4 * len(p.toks) > MAX_DEPTH and _too_deep(out):
        raise ParseError(f"nesting too deep (more than {MAX_DEPTH} levels)", 0, text)
    return out


def parse_formula(text: str) -> Formula:
    return _parse(text, _Parser.formula)


def parse_polynomial(text: str) -> Polynomial:
    return _parse(text, _Parser.polynomial)


# ---------------------------------------------------------------------------
# rendering
#
# Binding levels; a child is parenthesized when its level is below what its
# context requires. Or/Implies/Dia patterns are resugared before plain
# rendering (Or before Implies: the Or shape is the more specific of the two).

_IMP_LVL, _OR_LVL, _AND_LVL, _UN_LVL, _ATOM_LVL = 1, 2, 3, 4, 5
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
