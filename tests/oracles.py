"""Brute-force reference implementations used to cross-check the package.

Every function here restates a defining condition as a direct quantifier
sweep over a finite structure.  Nothing is shared with the package
implementations beyond raw input data (moment sets, the ordering relation,
the choice partition, act/evidence/valuation tables), so agreement between
the two is meaningful evidence rather than a tautology; the one exception is
naive_find_countermodel, which shares the search's enumerator of choice maps
(semantics._joint_choice_options), refereed on its own by brute force over
every choice table.
These are slow on purpose; keep the structures they are fed small. The
parsers at the end are the package's earlier backtracking parser, kept as
the referee of the one-pass parser that replaced it.
"""

from __future__ import annotations

import itertools
import re
from typing import Callable, NamedTuple, Optional, TypeVar

from jastit.syntax import (
    MAX_DEPTH,
    And,
    Announced,
    App,
    Box,
    Check,
    Cstit,
    Formula,
    Knows,
    Not,
    ParseError,
    Polynomial,
    ProofConst,
    ProofVar,
    PropVar,
    Proves,
    Sum,
    _KEYWORDS,
    _too_deep,
    bot,
    dia,
    disj,
    iff,
    implies,
    prop_vars,
    render,
    render_polynomial,
    top,
)
from jastit.diagnostics import ResourceBoundExceeded, violations
from jastit.frames import JstitFrame
from jastit.models import EVERYTHING, JstitModel, Universe, validate_model
from jastit import semantics


# ---------------------------------------------------------------------------
# order-theoretic primitives, recomputed from the raw relation
# ---------------------------------------------------------------------------

def naive_lt(leq: frozenset, a: str, b: str) -> bool:
    return a != b and (a, b) in leq


def naive_between(leq: frozenset, moments, a: str, b: str) -> bool:
    """Something strictly between a and b."""
    return any(naive_lt(leq, a, c) and naive_lt(leq, c, b) for c in moments)


def naive_next(frame, a: str, b: str) -> bool:
    """Immediate successor that is not annotated as a dense gap."""
    if not naive_lt(frame.leq, a, b):
        return False
    if naive_between(frame.leq, frame.moments, a, b):
        return False
    return (a, b) not in frame.dense


def naive_histories(frame) -> set[frozenset]:
    """Inclusion-maximal chains, found by enumerating every subset."""
    moments = list(frame.moments)
    chains = []
    for bits in itertools.product((False, True), repeat=len(moments)):
        s = frozenset(m for m, keep in zip(moments, bits) if keep)
        if not s:
            continue
        if all((a, b) in frame.leq or (b, a) in frame.leq
               for a in s for b in s):
            chains.append(s)
    return {c for c in chains if not any(c < d for d in chains)}


def _history_sets(frame) -> dict[str, frozenset]:
    return {h.name: frozenset(h.chain) for h in frame.histories}


def naive_undivided(frame, m: str, hset: frozenset, gset: frozenset) -> bool:
    """h and g share a moment strictly after m."""
    return any(naive_lt(frame.leq, m, x) for x in hset & gset)


def _histories_through(frame, m: str) -> list[frozenset]:
    return [s for s in naive_histories(frame) if m in s]


# ---------------------------------------------------------------------------
# frame conditions
# ---------------------------------------------------------------------------

def naive_mixsucc(frame) -> bool:
    moments = frame.moments
    for m in moments:
        hs = _histories_through(frame, m)
        vacuous = all(naive_undivided(frame, m, h, g)
                      for h in hs for g in hs)
        for m1 in moments:
            if not naive_lt(frame.leq, m, m1):
                continue
            witnessed = any((m2 == m1 or naive_lt(frame.leq, m2, m1))
                            and naive_next(frame, m, m2)
                            for m2 in moments)
            if not (witnessed or vacuous):
                return False
    return True


def naive_theta(frame, m: str) -> set[frozenset]:
    """All support sets at m, by testing every subset against the four
    closure conditions stated over the raw order."""
    moments = list(frame.moments)
    out = set()
    for bits in itertools.product((False, True), repeat=len(moments)):
        s = frozenset(x for x, keep in zip(moments, bits) if keep)
        if m not in s:
            continue
        if any(x in s and (x, y) in frame.re and y not in s
               for x in moments for y in moments):
            continue
        # every history through m1 meeting a next successor inside s
        # forces m1 itself in
        pulled = False
        for m1 in moments:
            if m1 in s:
                continue
            hs = _histories_through(frame, m1)
            if all(any(m2 in h and naive_next(frame, m1, m2)
                       and m2 in s for m2 in moments)
                   for h in hs):
                pulled = True
                break
        if pulled:
            continue
        ok = True
        for m1 in s:
            preds = [m2 for m2 in moments if naive_lt(frame.leq, m2, m1)]
            if all(naive_between(frame.leq, moments, m2, m1) for m2 in preds):
                if not any(m4 in s for m4 in preds):
                    ok = False
                    break
        if ok:
            out.add(s)
    return out


def naive_regular(frame) -> bool:
    moments = list(frame.moments)
    hsets = _history_sets(frame)
    theta_cache = {m: naive_theta(frame, m) for m in moments}
    for m in moments:
        for m1 in moments:
            if not naive_lt(frame.leq, m, m1):
                continue
            if any((m2 == m1 or naive_lt(frame.leq, m2, m1))
                   and naive_next(frame, m, m2) for m2 in moments):
                continue
            interval = [m0 for m0 in moments
                        if naive_lt(frame.leq, m, m0)
                        and (m0 == m1 or naive_lt(frame.leq, m0, m1))]
            shared = None
            for m0 in interval:
                fam = theta_cache[m0]
                shared = fam if shared is None else shared & fam
            if not shared:
                continue
            h1s = [s for s in hsets.values() if m1 in s]
            for s in shared:
                if m in s:
                    continue
                for hp in hsets.values():
                    if m not in hp:
                        continue
                    if any(naive_undivided(frame, m, hp, g) for g in h1s):
                        continue
                    if any(mp in hp and naive_next(frame, m, mp) and mp in s
                           for mp in moments):
                        continue
                    return False
    return True


# ---------------------------------------------------------------------------
# satisfaction
# ---------------------------------------------------------------------------

def naive_satisfies(model, m: str, hname: str, f: Formula) -> bool:
    """Recursive clause-by-clause evaluation with no caching."""
    frame = model.frame
    hsets = _history_sets(frame)

    def names_through(x: str) -> list[str]:
        return [n for n, s in hsets.items() if x in s]

    def ev(mx: str, hx: str, g: Formula) -> bool:
        if isinstance(g, PropVar):
            return (mx, hx) in model.val_at(g.name)
        if isinstance(g, Not):
            return not ev(mx, hx, g.arg)
        if isinstance(g, And):
            return ev(mx, hx, g.left) and ev(mx, hx, g.right)
        if isinstance(g, Cstit):
            cell = frame.choice_cell(mx, g.agent, hx)
            return all(ev(mx, hn, g.arg) for hn in cell)
        if isinstance(g, Box):
            return all(ev(mx, hn, g.arg) for hn in names_through(mx))
        if isinstance(g, Knows):
            return all(ev(my, hn, g.arg)
                       for my in frame.moments if (mx, my) in frame.r
                       for hn in names_through(my))
        if isinstance(g, Proves):
            e = model.evidence_at(mx, g.poly)
            if e is not EVERYTHING and g.arg not in e:
                return False
            return all(ev(my, hn, g.arg)
                       for my in frame.moments if (mx, my) in frame.re
                       for hn in names_through(my))
        if isinstance(g, Announced):
            return g.poly in model.act_at(mx, hx)
        raise TypeError(f"not a formula: {g!r}")

    return ev(m, hname, f)


# ---------------------------------------------------------------------------
# propositional reasoning
# ---------------------------------------------------------------------------

def _boolean_leaves(f: Formula, acc: list) -> None:
    if isinstance(f, Not):
        _boolean_leaves(f.arg, acc)
    elif isinstance(f, And):
        _boolean_leaves(f.left, acc)
        _boolean_leaves(f.right, acc)
    elif f not in acc:
        acc.append(f)


def truth_table_tautology(f: Formula) -> bool:
    """Independent tautology test over the non-boolean leaves."""
    leaves: list = []
    _boolean_leaves(f, leaves)
    leaves.sort(key=render)

    def ev(g: Formula, row: dict) -> bool:
        if isinstance(g, Not):
            return not ev(g.arg, row)
        if isinstance(g, And):
            return ev(g.left, row) and ev(g.right, row)
        return row[g]

    for values in itertools.product((False, True), repeat=len(leaves)):
        if not ev(f, dict(zip(leaves, values))):
            return False
    return True


# ---------------------------------------------------------------------------
# announcement-elimination rule, all orderings
# ---------------------------------------------------------------------------

def _disjunction_shapes(parts: tuple) -> list:
    if len(parts) == 1:
        return [parts[0]]
    out = []
    for i in range(1, len(parts)):
        for left in _disjunction_shapes(parts[:i]):
            for right in _disjunction_shapes(parts[i:]):
                out.append(disj(left, right))
    return out


def rd_conclusions(antecedent: Formula,
                   parts: tuple[tuple[bool, Polynomial], ...]) -> set:
    """Every conclusion obtainable from K(antecedent) -> disjunction of
    boxed announcement literals: all permutations, all bracketings,
    with the boxes stripped."""
    out = set()
    for perm in itertools.permutations(parts):
        literals = tuple(
            Not(Announced(t)) if neg else Announced(t)
            for neg, t in perm)
        for body in _disjunction_shapes(literals):
            out.add(implies(Knows(antecedent), body))
    return out


def rd_premises(antecedent: Formula,
                parts: tuple[tuple[bool, Polynomial], ...]) -> set:
    """Every premise shape for the same rule instance: boxed literals in
    every order and bracketing."""
    out = set()
    for perm in itertools.permutations(parts):
        literals = tuple(
            Not(Box(Announced(t))) if neg else Box(Announced(t))
            for neg, t in perm)
        for body in _disjunction_shapes(literals):
            out.add(implies(Knows(antecedent), body))
    return out


# ---------------------------------------------------------------------------
# counter-model search
# ---------------------------------------------------------------------------

def naive_preorders(moments, leq: frozenset) -> set[frozenset]:
    """Every preorder on moments containing leq: each relation between leq
    and the full relation, kept when it is reflexive and transitive."""
    free = [(a, b) for a in moments for b in moments if (a, b) not in leq]
    out = set()
    for bits in itertools.product((False, True), repeat=len(free)):
        rel = frozenset(leq) | {p for p, keep in zip(free, bits) if keep}
        if all((m, m) in rel for m in moments) and all(
                (a, d) in rel for a, b in rel for c, d in rel if b == c):
            out.add(rel)
    return out


def naive_partitions(items) -> set[frozenset]:
    """Every partition of items into cells: each labelling of the items by
    cell numbers, grouped by label."""
    out = set()
    for labels in itertools.product(range(len(items)), repeat=len(items)):
        out.add(frozenset(frozenset(x for x, k in zip(items, labels) if k == label)
                          for label in set(labels)))
    return out


def naive_slots(frame) -> dict:
    """Each slot of a tree frame, a moment with a class of the histories
    through it that pairwise share a later moment, mapped to the slot above
    it: the class at the moment's immediate predecessor that holds the
    slot's histories, or None at the root. Slots come in the search's
    order, by moment and then by the sorted members of the class."""
    hsets = _history_sets(frame)

    def classes(m: str) -> list[frozenset]:
        names = [n for n, s in hsets.items() if m in s]
        return sorted({frozenset(g for g in names if g == h
                                 or naive_undivided(frame, m, hsets[h], hsets[g]))
                       for h in names}, key=sorted)

    out = {}
    for m in frame.moments:
        up = [a for a in frame.moments if naive_lt(frame.leq, a, m)
              and not naive_between(frame.leq, frame.moments, a, m)]
        for cls in classes(m):
            out[(m, cls)] = next(((a, c) for a in up for c in classes(a) if cls <= c), None)
    return out


def naive_acts(slots: dict, polys: list):
    """Every act constant on each slot, by brute force: one subset of polys
    per slot, smallest first and the first slot outermost, kept when no
    slot lacks a proof that its parent slot has. Acts are maps from
    moment-history pairs."""
    subsets = [frozenset(c) for k in range(len(polys) + 1)
               for c in itertools.combinations(polys, k)]
    for picks in itertools.product(subsets, repeat=len(slots)):
        act = dict(zip(slots, picks))
        if all(up is None or act[up] <= act[slot] for slot, up in slots.items()):
            yield {(m, h): ts for (m, cls), ts in act.items() for h in cls}


def naive_act_valid(frame, act: dict) -> bool:
    """The four Act conditions on an act keyed by every moment-history pair
    of frame, over the raw order, dense pairs and re. A proof is settled at
    m when it is presented on every history through m. Presented proofs
    stay presented at later moments of the same history; a proof settled at
    m was presented strictly before m on a history through m, unless a
    dense pair ends at m; histories undivided at m present the same proofs
    there; and a proof settled at m is settled at each re-successor of m."""
    hsets = _history_sets(frame)
    through = {m: [n for n, s in hsets.items() if m in s] for m in frame.moments}
    proofs = {t for ts in act.values() for t in ts}

    def settled(m: str) -> set:
        return {t for t in proofs if all(t in act[(m, n)] for n in through[m])}

    for m in frame.moments:
        for m2 in frame.moments:
            if naive_lt(frame.leq, m, m2) and any(
                    not act[(m, n)] <= act[(m2, n)] for n in through[m2] if n in through[m]):
                return False
    for m in frame.moments:
        if any(b == m for _, b in frame.dense):
            continue
        before = {t for m2 in frame.moments if naive_lt(frame.leq, m2, m)
                  for n in through[m] if n in through[m2] for t in act[(m2, n)]}
        if not settled(m) <= before:
            return False
    for m in frame.moments:
        for n in through[m]:
            for g in through[m]:
                if naive_undivided(frame, m, hsets[n], hsets[g]) and act[(m, n)] != act[(m, g)]:
                    return False
    return all(settled(m) <= settled(m2) for m, m2 in frame.re if m != m2)


def _valuations(pvars: list[str], mh: list[tuple[str, str]]):
    """Every valuation of pvars over the pairs mh, in the search's order:
    the v-th makes cell i of [(p, pair) for p in pvars for pair in mh]
    true iff bit i of v is set."""
    cells = [(p, pair) for p in pvars for pair in mh]
    for mask in range(1 << len(cells)):
        val: dict[str, set] = {p: set() for p in pvars}
        for i, (p, pair) in enumerate(cells):
            if mask >> i & 1:
                val[p].add(pair)
        yield {p: frozenset(v) for p, v in val.items()}


def naive_find_countermodel(f: Formula, bounds):
    """find_countermodel with every candidate built and validated in turn.

    It referees the bookkeeping of the search (which candidates are
    skipped and how the budget counts them) over the full enumeration, in
    the search's order: trees from parent vectors, slots from naive_slots,
    the search's choice maps (semantics._joint_choice_options), relation
    pairs from naive_preorders, acts over every polynomial of the universe
    from naive_acts and valuations from _valuations. Each candidate is
    evaluated with naive_satisfies at every index in mh_pairs order.
    Returns the outcome, a (model, index) pair, None, or the
    ResourceBoundExceeded the search raises, together with the number of
    candidates inspected.
    """
    universe = Universe.close(formulas=[f])
    polys = sorted(universe.polynomials, key=render_polynomial)
    pvars = sorted(prop_vars(f))
    default = EVERYTHING if bounds.evidence_mode == "everything" else frozenset()
    inspected = 0
    for n in range(1, bounds.max_moments + 1):
        for parents in itertools.product(*(range(i) for i in range(1, n))):
            moments = [f"m{i}" for i in range(n)]
            edges = [(moments[p], moments[i + 1]) for i, p in enumerate(parents)]
            base = JstitFrame(moments, edges, agents=bounds.agents)
            if len(base.histories) > bounds.max_histories:
                continue
            slots = naive_slots(base)
            mh = [(m, h.name) for m in base.moments for h in base.histories_through(m)]
            pres = sorted(naive_preorders(base.moments, base.leq), key=sorted)
            for choice in semantics._joint_choice_options(base):
                for r, re in [(r, re) for r in pres for re in pres if r <= re]:
                    frame = JstitFrame(moments, edges, agents=bounds.agents,
                                       choice=choice, r=r, re=re)
                    for act in naive_acts(slots, polys):
                        for val in _valuations(pvars, mh):
                            inspected += 1
                            if inspected > bounds.budget:
                                return ResourceBoundExceeded(
                                    f"counter-model search exceeded budget of "
                                    f"{bounds.budget} candidates"), bounds.budget
                            model = JstitModel(frame, universe, act, {}, val,
                                               evidence_default=default)
                            if violations(validate_model(model)):
                                continue
                            bad = next((semantics.Index(m, h) for m, h in model.mh_pairs()
                                        if not naive_satisfies(model, m, h, f)), None)
                            if bad is not None:
                                return (model, bad), inspected
    return None, inspected


# ---------------------------------------------------------------------------
# parsing: the backtracking parser that syntax.py replaced
# ---------------------------------------------------------------------------
#
# It tokenizes with one named group per token kind and tries every operand
# as a polynomial first, falling back to a formula when that fails. It
# shares with the package only the term constructors and sugar, the keyword
# set, ParseError and the final depth check (MAX_DEPTH, _too_deep). The code
# is as it was in syntax.py, except that a token is a NamedTuple instead of
# a frozen dataclass: bench/run.py loads this file without registering it
# in sys.modules, where a dataclass looks its module up.

_T = TypeVar("_T")

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


class _Token(NamedTuple):
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


def _parse(text: str, rule: Callable[[_Parser], _T]) -> _T:
    p = _Parser(text)
    try:
        out = rule(p)
    except RecursionError:
        raise ParseError("nesting too deep", p.peek().pos, text) from None
    if not p.at("EOF"):
        raise p.fail(("end of input",))
    # no token adds more than four levels (<-> and top expand the most),
    # so only inputs of more than MAX_DEPTH / 4 tokens need the walk
    if 4 * (len(p.tokens) - 1) > MAX_DEPTH and _too_deep(out):
        raise ParseError(f"nesting too deep (more than {MAX_DEPTH} levels)", 0, text)
    return out


def naive_parse_formula(text: str) -> Formula:
    return _parse(text, _Parser.formula)


def naive_parse_polynomial(text: str) -> Polynomial:
    return _parse(text, _Parser.polynomial)
