import random

import pytest
from hypothesis import given, settings, strategies as st

from jastit.generators import random_formula, random_polynomial
from jastit.syntax import (
    And,
    Announced,
    App,
    Box,
    Check,
    Cstit,
    Knows,
    Not,
    ParseError,
    ProofConst,
    ProofVar,
    PropVar,
    Proves,
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
)

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
