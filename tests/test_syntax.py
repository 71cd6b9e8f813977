import copy
import pickle
import random
import time
from typing import get_args

import pytest
from hypothesis import given, settings, strategies as st

from jastit.generators import random_formula, random_polynomial
from jastit.syntax import (
    AST_DUMP_MAX_NODES,
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
    MAX_DEPTH,
    Sum,
    agents_in,
    as_dia,
    as_implies,
    as_or,
    check_agents,
    dia,
    disj,
    flatten_and,
    flatten_or,
    iff,
    implies,
    parse_formula,
    parse_polynomial,
    prop_vars,
    render,
    render_polynomial,
    subformulas,
    subpolynomials,
    tree_size,
)
from oracles import naive_parse_formula, naive_parse_polynomial

P, Q, R = PropVar("p"), PropVar("q"), PropVar("r")
X, Y = ProofVar("x"), ProofVar("y")


# ---------------------------------------------------------------------------
# constructors

def test_proof_const_naming():
    assert ProofConst("c3").name == "c3"
    assert ProofConst("d_mp").name == "d_mp"
    with pytest.raises(ValueError):
        ProofConst("e")
    with pytest.raises(ValueError):
        ProofConst("x")


def test_identifier_guards():
    with pytest.raises(ValueError):
        PropVar("")
    with pytest.raises(ValueError):
        PropVar("2p")
    with pytest.raises(ValueError):
        ProofVar("has space")


def test_agent_index_guard():
    with pytest.raises(ValueError):
        Cstit(-1, P)
    with pytest.raises(ValueError):
        Cstit("0", P)
    assert Cstit(0, P).agent == 0


# ---------------------------------------------------------------------------
# parsing: precedence and shape

def test_and_binds_tighter_than_or():
    assert parse_formula("p | q & r") == disj(P, And(Q, R))


def test_implication_is_right_associative():
    assert parse_formula("p -> q -> r") == implies(P, implies(Q, R))


def test_proves_binds_tighter_than_arrow():
    assert parse_formula("x : p -> q") == implies(Proves(X, P), Q)


def test_app_binds_tighter_than_sum():
    assert parse_polynomial("x + y * z") == Sum(X, App(Y, ProofVar("z")))


def test_check_is_prefix_tight():
    assert parse_polynomial("! x + y") == Sum(Check(X), Y)
    assert parse_polynomial("!(x + y)") == Check(Sum(X, Y))


def test_announced_takes_whole_polynomial():
    f = parse_formula("E x + y")
    assert f == Announced(Sum(X, Y))
    assert render(f) == "E (x + y)"


def test_stit_operator_and_negation():
    assert parse_formula("~[0] p & q") == And(Not(Cstit(0, P)), Q)


def test_unicode_operators_match_ascii():
    assert parse_formula("□p → ◇q ∧ ⊤") == parse_formula("Box p -> Dia q & top")
    assert parse_formula("¬p ∨ ⊥") == parse_formula("~p | bot")
    assert parse_formula("p ↔ q") == parse_formula("p <-> q")


def test_sugar_desugars():
    assert parse_formula("top") == implies(P, P)
    assert parse_formula("bot") == And(P, Not(P))
    assert parse_formula("p <-> q") == iff(P, Q)
    assert parse_formula("Dia p") == dia(P)
    assert parse_formula("p -> q") == Not(And(P, Not(Q)))
    assert parse_formula("p | q") == Not(And(Not(P), Not(Q)))


# ---------------------------------------------------------------------------
# parse errors

@pytest.mark.parametrize("text,pos,first_expected", [
    ("p ->", 4, "formula"),
    ("(p", 2, ")"),
    ("E", 1, "polynomial"),
    ("[2", 2, "]"),
    ("x :", 3, "formula"),
])
def test_parse_error_positions(text, pos, first_expected):
    with pytest.raises(ParseError) as exc:
        parse_formula(text)
    assert exc.value.pos == pos
    assert first_expected in exc.value.expected
    assert exc.value.text == text


def test_unexpected_character():
    with pytest.raises(ParseError) as exc:
        parse_formula("p @ q")
    assert exc.value.pos == 2


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_formula("p q")
    with pytest.raises(ParseError):
        parse_polynomial("x y")


def test_nesting_too_deep_is_a_parse_error():
    # deep prefix chains overflow the recursive parser; long left-nested
    # chains parse in a loop but would overflow recursive walks downstream.
    # <-> shares its operands: unfolded, this chain has about 2^60 nodes
    for text in ("~" * 3000 + "p", "(" * 300 + "p" + ")" * 300,
                 " & ".join(["p"] * (MAX_DEPTH + 1)), " <-> ".join(["p"] * 60)):
        with pytest.raises(ParseError, match="nesting too deep"):
            parse_formula(text)
    for text in ("!" * 3000 + "x", " + ".join(["x"] * (MAX_DEPTH + 1))):
        with pytest.raises(ParseError, match="nesting too deep"):
            parse_polynomial(text)
    deepest = parse_formula("~" * (MAX_DEPTH - 1) + "p")
    assert parse_formula(render(deepest)) == deepest


def test_parentheses_nest_at_most_max_depth_deep():
    # redundant parentheses add no node, so only their count bounds them
    for parse, inner in ((parse_formula, "p"), (parse_polynomial, "x")):
        assert parse("(" * MAX_DEPTH + inner + ")" * MAX_DEPTH) is parse(inner)
        text = "(" * (MAX_DEPTH + 1) + inner + ")" * (MAX_DEPTH + 1)
        with pytest.raises(ParseError, match="more than 200 parentheses") as exc:
            parse(text)
        assert exc.value.pos == MAX_DEPTH
    # formula and polynomial parentheses count together
    half = MAX_DEPTH // 2
    text = "(" * half + "E " + "(" * (half + 1) + "x" + ")" * (2 * half + 1)
    with pytest.raises(ParseError, match="parentheses"):
        parse_formula(text)


def test_agent_index_too_large_is_a_parse_error():
    # int() refuses more than a few thousand digits
    with pytest.raises(ParseError, match="agent index too large") as exc:
        parse_formula("~[" + "1" * 5000 + "] p")
    assert exc.value.pos == 2


# ---------------------------------------------------------------------------
# round trips

FIXED_CORPUS = [
    "p",
    "~~p",
    "p & q & r",
    "p | q -> r",
    "[0] p & [1] ~q",
    "Box (p -> K p)",
    "K Box p",
    "x : (p -> q)",
    "(x * y) : q",
    "! x : x : p",
    "E x",
    "E (x + y * !x)",
    "K (Box E x | ~Box E y) -> (E x | ~E y)",
    "c1 : top",
]


@pytest.mark.parametrize("text", FIXED_CORPUS)
def test_fixed_corpus_roundtrip(text):
    f = parse_formula(text)
    assert parse_formula(render(f)) == f


def test_seeded_ast_roundtrip():
    rng = random.Random(2024)
    for _ in range(400):
        f = random_formula(rng, depth=5)
        assert parse_formula(render(f)) == f
        t = random_polynomial(rng, depth=4)
        assert parse_polynomial(render_polynomial(t)) == t


# ---------------------------------------------------------------------------
# the one-pass parser against the backtracking parser it replaced

_SOUP = ("p", "q", "x", "y", "c", "d1", "t'", "E", "K", "Box", "Dia", "top", "bot",
         "~", "&", "|", "->", "<->", ":", "+", "*", "!", "(", ")", "[", "]", "0", "12",
         "¬", "∧", "∨", "→", "↔", "□", "◇", "⊤", "⊥", "×")
_EDIT_CHARS = "pqxcE K~&|-><:+*!()[]0 @¬∧∨→↔□◇⊤⊥×_'"
_ATOMS = ("p", "q", "top", "⊥", "E x", "E c1 + !y", "E (x × y)")
_PREFIXES = ("~", "¬", "Box ", "□", "Dia ", "◇", "K ", "[0] ", "[12]", "x : ", "c : ",
             "!x : ", "(x + y) * z : ")
_INFIXES = (" -> ", " <-> ", " | ", " & ", "→", "↔", "∨", "∧")


# texts where a polynomial run before ':' is, or only nearly is, a proof
# assertion
_ASSERTION_EDGES = (
    "x : p", "(x : p)", "(x) : p", "((x) + y) * z : p", "!(x : p)", "(!x : p)",
    "x + : p", "+ x : p", "x y : p", "x ( y : p", "x) + (y : p", "(x + (y : p))",
    "x * (y) : (x : p)", "E x : p", "top : p", "[0] x : p", "x : y : ~z : p",
    "() : p", "(x)) : p", "((x) : p", "! : p", "x ! : p", "x * ! y : p",
)


def _surface_text(rng, depth):
    """A formula in the surface syntax: both spellings of every operator,
    sugar, redundant parentheses and bare infix chains."""
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        return rng.choice(_ATOMS)
    if roll < 0.45:
        return rng.choice(_PREFIXES) + _surface_text(rng, depth - 1)
    if roll < 0.6:
        return "(" + _surface_text(rng, depth - 1) + ")"
    return _surface_text(rng, depth - 1) + rng.choice(_INFIXES) + _surface_text(rng, depth - 1)


def _differential_texts(rng, n):
    """n texts, in turn a rendered term, a surface formula, a token soup,
    and a surface or rendered formula with one character inserted or one
    deleted."""
    yield from _ASSERTION_EDGES
    for k in range(n):
        kind = k % 5
        if kind == 0 and k % 10:
            yield render_polynomial(random_polynomial(rng, depth=rng.randint(0, 4)))
        elif kind == 0:
            yield render(random_formula(rng, depth=rng.randint(1, 5)))
        elif kind == 1:
            yield _surface_text(rng, 4)
        elif kind == 2:
            tokens = (rng.choice(_SOUP) for _ in range(rng.randint(0, 12)))
            yield rng.choice(("", " ")).join(tokens)
        else:
            text = (_surface_text(rng, 3) if k % 2
                    else render(random_formula(rng, depth=rng.randint(1, 4))))
            at = rng.randint(0, len(text))
            if kind == 3:
                yield text[:at] + rng.choice(_EDIT_CHARS) + text[at:]
            else:
                yield text[:at] + text[at + 1:]


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as e:
        return (str(e), e.pos, e.expected, e.text)


def test_parser_agrees_with_backtracking_oracle():
    rng = random.Random(2025)
    parsed = failed = 0
    for text in _differential_texts(rng, 20_000):
        for parse, naive in ((parse_formula, naive_parse_formula),
                             (parse_polynomial, naive_parse_polynomial)):
            new, old = _outcome(parse, text), _outcome(naive, text)
            if isinstance(old, tuple):
                assert new == old, text
                failed += 1
            else:
                assert new is old, text
                parsed += 1
    assert parsed > 10_000 and failed > 10_000


_prop = st.sampled_from([P, Q, R])
_poly = st.deferred(lambda: st.one_of(
    st.sampled_from([X, Y, ProofConst("c"), ProofConst("d2")]),
    st.builds(Sum, _poly, _poly),
    st.builds(App, _poly, _poly),
    st.builds(Check, _poly),
))
_formula = st.deferred(lambda: st.one_of(
    _prop,
    st.builds(Not, _formula),
    st.builds(And, _formula, _formula),
    st.builds(Cstit, st.integers(0, 3), _formula),
    st.builds(Box, _formula),
    st.builds(Knows, _formula),
    st.builds(Proves, _poly, _formula),
    st.builds(Announced, _poly),
))


@settings(max_examples=300, deadline=None)
@given(_formula)
def test_hypothesis_formula_roundtrip(f):
    assert parse_formula(render(f)) == f


@settings(max_examples=200, deadline=None)
@given(_poly)
def test_hypothesis_polynomial_roundtrip(t):
    assert parse_polynomial(render_polynomial(t)) == t


@settings(max_examples=200, deadline=None)
@given(_formula)
def test_render_is_stable(f):
    # canonical text is a fixed point of parse-then-render
    s = render(f)
    assert render(parse_formula(s)) == s


# ---------------------------------------------------------------------------
# structure helpers

TARGET = parse_formula("K (Box E x | ~Box E y) -> (E x | ~E y)")


def test_subformula_census():
    assert len(subformulas(TARGET)) == 18
    assert prop_vars(TARGET) == frozenset()
    assert agents_in(TARGET) == frozenset()
    assert set(subpolynomials(TARGET)) == {X, Y}


def test_subformulas_deduplicate():
    f = And(P, P)
    assert subformulas(f) == (P, And(P, P))


def test_agents_census_and_check():
    f = parse_formula("[0] p & [3] q")
    assert agents_in(f) == frozenset({0, 3})
    check_agents(f, 4)
    with pytest.raises(ValueError):
        check_agents(f, 3)


def test_sugar_views():
    assert as_implies(parse_formula("p -> q")) == (P, Q)
    assert as_implies(And(P, Q)) is None
    assert as_or(parse_formula("p | q")) == (P, Q)
    assert as_dia(parse_formula("Dia p")) == P
    assert as_dia(Box(P)) is None
    assert flatten_or(parse_formula("p | q | r")) == (P, Q, R)
    assert flatten_and(parse_formula("p & q & r")) == (P, Q, R)


# ---------------------------------------------------------------------------
# hash-consing

# one text per constructor, whose parse has that constructor at the root
CONSTRUCTOR_TEXTS = {
    PropVar: "p", And: "p & q", Not: "~p", Cstit: "[1] p", Box: "Box p",
    Proves: "x : p", Knows: "K p", Announced: "E x",
    ProofVar: "x", ProofConst: "c1", Sum: "x + y", App: "x * y", Check: "!x",
}


def _parse_any(cls, text):
    return parse_polynomial(text) if cls in get_args(Polynomial) else parse_formula(text)


def test_every_constructor_is_covered():
    assert set(CONSTRUCTOR_TEXTS) == set(get_args(Formula) + get_args(Polynomial))


@pytest.mark.parametrize("cls", CONSTRUCTOR_TEXTS, ids=lambda c: c.__name__)
def test_equal_terms_are_one_object(cls):
    text = CONSTRUCTOR_TEXTS[cls]
    first = _parse_any(cls, text)
    assert type(first) is cls
    assert _parse_any(cls, f"({text})") is first
    fields = tuple(getattr(first, n) for n in cls.__match_args__)
    assert cls(*fields) is first
    assert cls.find(*fields) is first


@pytest.mark.parametrize("cls", CONSTRUCTOR_TEXTS, ids=lambda c: c.__name__)
def test_hash_is_the_field_tuple_hash(cls):
    node = _parse_any(cls, CONSTRUCTOR_TEXTS[cls])
    assert hash(node) == hash(tuple(getattr(node, n) for n in cls.__match_args__))


@pytest.mark.parametrize("cls", CONSTRUCTOR_TEXTS, ids=lambda c: c.__name__)
def test_copies_and_pickles_return_the_interned_node(cls):
    node = _parse_any(cls, CONSTRUCTOR_TEXTS[cls])
    assert copy.copy(node) is node
    assert copy.deepcopy(node) is node
    assert pickle.loads(pickle.dumps(node)) is node


def test_find_builds_nothing():
    fresh = ProofVar("x_never_built_elsewhere")
    assert App.find(fresh, fresh) is None
    assert App.find(fresh, fresh) is None
    built = App(fresh, fresh)
    assert App.find(fresh, fresh) is built


def test_validation_runs_before_the_table():
    Cstit(1, P)
    with pytest.raises(ValueError):
        Cstit(True, P)
    with pytest.raises(ValueError):
        Cstit(1.0, P)


def test_subterm_walks_are_shared_not_unfolded():
    # n links of <-> unfold to about 2^n nodes but hold fewer than 6n
    # distinct ones
    f = parse_formula(" <-> ".join(["p"] * 40))
    subs = subformulas(f)
    count, last_is_f, cached = len(subs), subs[-1] is f, subformulas(f) is subs
    assert count < 6 * 40
    assert last_is_f and cached


def test_repr_is_the_dataclass_form():
    assert repr(parse_formula("[1] x : p & E !c")) == (
        "And(left=Cstit(agent=1, arg=Proves(poly=ProofVar(name='x'), "
        "arg=PropVar(name='p'))), right=Announced(poly=Check(arg=ProofConst(name='c'))))")


def test_repr_of_a_shared_chain_is_bounded():
    # 40 links unfold to about 2^42 nodes
    f = parse_formula(" <-> ".join(["p"] * 40))
    start = time.perf_counter()
    text = repr(f)
    assert time.perf_counter() - start < 0.5
    assert text == f"<And of {tree_size(f)} unfolded nodes>"
    assert tree_size(f) > 2 ** 40
    # at the bound the term is still unfolded
    g = parse_formula(" <-> ".join(["p"] * 12))
    assert tree_size(g) <= AST_DUMP_MAX_NODES
    assert repr(g).startswith("And(left=Not(arg=And(")
    assert repr(g).count("(") == tree_size(g)
