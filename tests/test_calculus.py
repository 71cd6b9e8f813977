import random

import pytest

from jastit.generators import random_formula, random_polynomial, scheme_instance
from oracles import rd_conclusions, rd_premises, truth_table_tautology
from jastit.calculus import (
    SCHEME_IDS,
    Axiom,
    BoxNec,
    CstitNec,
    KNec,
    MP,
    Proof,
    RCS,
    RD,
    check_cs,
    is_tautology,
    match_axiom,
    match_rd,
    match_strict_tautology,
    verify_proof,
)
from jastit.diagnostics import ResourceBoundExceeded
from jastit.models import ConstantSpecification
from jastit.syntax import (
    And,
    Announced,
    Box,
    Knows,
    Not,
    ProofVar,
    PropVar,
    disj,
    implies,
    parse_formula as pf,
    render,
)

P, Q = PropVar("p"), PropVar("q")
X, Y = ProofVar("x"), ProofVar("y")


# ---------------------------------------------------------------------------
# scheme recognition

SCHEME_TABLE = [
    ("Box p -> [0] p", "A2"),
    ("Box (p & q) -> [3] (p & q)", "A2"),
    ("Dia [0] p & Dia [1] q -> Dia ([0] p & [1] q)", "A3"),
    ("Dia [2] p & Dia [0] q & Dia [1] p -> Dia ([2] p & [0] q & [1] p)", "A3"),
    ("Dia [0] p -> Dia [0] p", "A3"),
    ("x : (p -> q) -> (y : p -> (x * y) : q)", "A4"),
    ("(x + y) : (p -> q) -> (!x : p -> ((x + y) * !x) : q)", "A4"),
    ("x : p -> (!x : x : p & K p)", "A5"),
    ("(x : p | y : p) -> (x + y) : p", "A6"),
    ("K p -> Box K Box p", "A8"),
    ("Box E x -> K Box E x", "A9"),
    ("Box E x + y -> K Box E x + y", "A9"),
    ("Box p -> p", "A1"),
    ("[1] p -> p", "A1"),
    ("Box (p -> q) -> (Box p -> Box q)", "A1"),
    ("[0] (p -> q) -> ([0] p -> [0] q)", "A1"),
    ("Dia p -> Box Dia p", "A1"),
    ("~[2] ~p -> [2] ~[2] ~p", "A1"),
    ("K p -> p", "A7"),
    ("K (p -> q) -> (K p -> K q)", "A7"),
    ("K p -> K K p", "A7"),
    ("p -> (q -> p)", "A0"),
    ("p | ~p", "A0"),
    ("Box p -> Box p", "A0"),
    ("x : p -> x : p", "A0"),
]


# the full detail of every SCHEME_TABLE row, as the hand-written matchers
# produced it before the schemes became patterns
SCHEME_DETAIL = {
    "Box p -> [0] p": (("A", "p"), ("j", "0")),
    "Box (p & q) -> [3] (p & q)": (("A", "p & q"), ("j", "3")),
    "Dia [0] p & Dia [1] q -> Dia ([0] p & [1] q)": (("n", "2"), ("agents", "0,1")),
    "Dia [2] p & Dia [0] q & Dia [1] p -> Dia ([2] p & [0] q & [1] p)":
        (("n", "3"), ("agents", "2,0,1")),
    "Dia [0] p -> Dia [0] p": (("n", "1"), ("agents", "0")),
    "x : (p -> q) -> (y : p -> (x * y) : q)":
        (("s", "x"), ("t", "y"), ("A", "p"), ("B", "q")),
    "(x + y) : (p -> q) -> (!x : p -> ((x + y) * !x) : q)":
        (("s", "x + y"), ("t", "!x"), ("A", "p"), ("B", "q")),
    "x : p -> (!x : x : p & K p)": (("t", "x"), ("A", "p")),
    "(x : p | y : p) -> (x + y) : p": (("s", "x"), ("t", "y"), ("A", "p")),
    "K p -> Box K Box p": (("A", "p"),),
    "Box E x -> K Box E x": (("t", "x"),),
    "Box E x + y -> K Box E x + y": (("t", "x + y"),),
    "Box p -> p": (("modality", "Box"), ("axiom", "T"), ("A", "p")),
    "[1] p -> p": (("modality", "[1]"), ("axiom", "T"), ("A", "p")),
    "Box (p -> q) -> (Box p -> Box q)":
        (("modality", "Box"), ("axiom", "K"), ("A", "p"), ("B", "q")),
    "[0] (p -> q) -> ([0] p -> [0] q)":
        (("modality", "[0]"), ("axiom", "K"), ("A", "p"), ("B", "q")),
    "Dia p -> Box Dia p": (("modality", "Box"), ("axiom", "5"), ("A", "p")),
    "~[2] ~p -> [2] ~[2] ~p": (("modality", "[2]"), ("axiom", "5"), ("A", "p")),
    "K p -> p": (("modality", "K"), ("axiom", "T"), ("A", "p")),
    "K (p -> q) -> (K p -> K q)":
        (("modality", "K"), ("axiom", "K"), ("A", "p"), ("B", "q")),
    "K p -> K K p": (("modality", "K"), ("axiom", "4"), ("A", "p")),
    "p -> (q -> p)": (("atoms", "2"),),
    "p | ~p": (("atoms", "1"),),
    "Box p -> Box p": (("atoms", "1"),),
    "x : p -> x : p": (("atoms", "1"),),
}


@pytest.mark.parametrize("text,scheme", SCHEME_TABLE)
def test_scheme_table(text, scheme):
    got = match_axiom(pf(text))
    assert got is not None, text
    assert got.scheme == scheme
    assert got.detail == SCHEME_DETAIL[text]


NON_AXIOMS = [
    "Box p -> K p",
    "p -> Box p",
    "x : p -> p & q",
    "Dia [0] p & Dia [0] q -> Dia ([0] p & [0] q)",  # repeated agent
    "K p -> Box K p",
    "E x -> K E x",
    "x : (p -> q) -> (y : p -> (y * x) : q)",  # product order swapped
    "(x : p | y : q) -> (x + y) : p",  # summands must share the content
    "K p -> K q",
]


@pytest.mark.parametrize("text", NON_AXIOMS)
def test_non_axioms_rejected(text):
    assert match_axiom(pf(text)) is None, text


# one step away from a fixed-shape scheme; none of them is an axiom
NEAR_MISSES = [
    "[0] (p -> q) -> ([1] p -> [1] q)",  # A1 K with mixed agents
    "[0] (p -> q) -> ([0] p -> [1] q)",
    "~[0] ~p -> [1] ~[0] ~p",  # A1 5 with mixed agents
    "x : (p -> q) -> (y : p -> (y * x) : q)",  # A4 with t * s
    "x : (p -> q) -> (x : p -> (y * x) : q)",
    "(x : p | y : q) -> (x + y) : p",  # A6 with different arguments
    "(x : p | y : p) -> (x + y) : q",
    "(x : p | y : p) -> (y + x) : p",
    "Box p -> [0] q",  # A2 with different bodies
    "Box (p & q) -> [1] (q & p)",
    "x : p -> !x : x : p",  # A5 without K A
    "x : p -> (!x : x : p & K q)",
    "x : p -> (!y : x : p & K p)",
    "K p -> Box K Box q",
    "Box E x -> K Box E y",
    "K p -> K K q",
    "Dia p -> Box Dia q",
]


@pytest.mark.parametrize("text", NEAR_MISSES)
def test_near_misses_rejected(text):
    assert match_axiom(pf(text)) is None, text


def test_scheme_instances_get_their_own_scheme():
    rng = random.Random(61)
    fill = lambda r, agents: random_formula(r, 3, agents=agents)
    poly = lambda r: random_polynomial(r, 2)
    for agents in (1, 2, 3):
        for _ in range(100):
            for scheme in SCHEME_IDS[1:]:
                f = scheme_instance(rng, scheme, agents, fill, poly)
                got = match_axiom(f)
                assert got is not None and got.scheme == scheme, render(f)


def test_a3_requires_matching_order():
    assert match_axiom(pf("Dia [0] p & Dia [1] q -> Dia ([1] q & [0] p)")) is None


def test_stit_t_goes_to_a2_shape_first():
    # Box [0] p -> [0] p fits the settledness-to-agency bridge pattern only
    # as T for Box; the bridge scheme needs identical content on both sides
    got = match_axiom(pf("Box [0] p -> [0] p"))
    assert got is not None and got.scheme == "A1"
    assert dict(got.detail)["axiom"] == "T"


def test_match_detail_bindings():
    got = match_axiom(pf("Box (p & q) -> [3] (p & q)"))
    assert got.bindings["j"] == "3"
    got = match_axiom(pf("K p -> K K p"))
    assert got.bindings["axiom"] == "4"
    assert got.bindings["modality"] == "K"


def test_scheme_ids_are_complete():
    assert SCHEME_IDS == ("A0", "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9")


# ---------------------------------------------------------------------------
# propositional layer

def test_is_tautology_agrees_with_truth_tables():
    rng = random.Random(53)
    atoms = [P, Q, Box(P), Knows(Q), Announced(X)]

    def boolean_skeleton(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(atoms)
        if rng.random() < 0.5:
            return Not(boolean_skeleton(depth - 1))
        return And(boolean_skeleton(depth - 1), boolean_skeleton(depth - 1))

    agree = taut = 0
    for _ in range(2000):
        f = boolean_skeleton(4)
        got = is_tautology(f)
        assert got == truth_table_tautology(f), render(f)
        agree += 1
        taut += got
    assert agree == 2000 and 0 < taut < 2000


def test_is_tautology_sees_through_modal_atoms():
    assert is_tautology(pf("K p | ~K p"))
    assert not is_tautology(pf("K p | ~p"))
    assert not is_tautology(pf("K (p | ~p)"))  # the whole thing is one atom


def test_is_tautology_atom_cap():
    f = PropVar("v0")
    for i in range(1, 22):
        f = disj(f, PropVar(f"v{i}"))
    with pytest.raises(ResourceBoundExceeded):
        is_tautology(f)


def test_strict_basis_membership():
    for text, scheme in [
        ("p -> (q -> p)", "PC1"),
        ("(p & q) -> p", "PC4"),
        ("p -> (p | q)", "PC6"),
        ("~~p -> p", "PC10"),
    ]:
        got = match_strict_tautology(pf(text))
        assert got is not None and got.detail[0][1] == scheme, text


def test_strict_mode_rejects_non_basis_tautologies():
    peirce = pf("((p -> q) -> p) -> p")
    assert match_axiom(peirce, tautology_mode="oracle").scheme == "A0"
    assert match_axiom(peirce, tautology_mode="strict") is None
    assert match_strict_tautology(peirce) is None


# ---------------------------------------------------------------------------
# announcement elimination

def test_match_rd_basic():
    prem = pf("K p -> (~Box E x | Box E y)")
    assert match_rd(prem, pf("K p -> (~E x | E y)"))
    assert match_rd(prem, pf("K p -> (E y | ~E x)"))  # any order
    assert not match_rd(prem, pf("K q -> (~E x | E y)"))  # antecedent differs
    assert not match_rd(prem, pf("K p -> (~E x | E x)"))
    assert not match_rd(prem, pf("K p -> ~E x"))


def test_match_rd_requires_boxed_premise():
    assert not match_rd(pf("K p -> (~E x | E y)"), pf("K p -> (~E x | E y)"))
    assert not match_rd(pf("K p -> (Box E x | q)"), pf("K p -> (E x | q)"))


def test_match_rd_multiset_semantics():
    prem = pf("K p -> (Box E x | Box E x)")
    assert match_rd(prem, pf("K p -> (E x | E x)"))
    assert not match_rd(prem, pf("K p -> E x"))  # multiplicity matters


def test_match_rd_against_all_orderings():
    parts_pool = [
        ((False, X),),
        ((True, X), (False, Y)),
        ((False, X), (False, Y), (True, X)),
    ]
    for parts in parts_pool:
        prems = rd_premises(P, parts)
        concs = rd_conclusions(P, parts)
        for prem in prems:
            for conc in concs:
                assert match_rd(prem, conc), (render(prem), render(conc))
        # dropping one disjunct must always fail
        short = rd_conclusions(P, parts[:-1]) if len(parts) > 1 else set()
        for prem in prems:
            for conc in short:
                assert not match_rd(prem, conc)


# ---------------------------------------------------------------------------
# proof verification

TARGET = pf("K (Box E x | ~Box E y) -> (E x | ~E y)")


def target_proof() -> Proof:
    return Proof([
        (pf("K (Box E x | ~Box E y) -> (Box E x | ~Box E y)"), Axiom("A7")),
        (TARGET, RD(1)),
    ])


def test_two_line_target_proof():
    verdict = verify_proof(target_proof())
    assert verdict.ok
    assert [v.ok for v in verdict.lines] == [True, True]
    assert verdict.lines[0].scheme == "A7"


def test_axiom_scheme_declaration_enforced():
    proof = Proof([(pf("Box p -> p"), Axiom("A2"))])
    verdict = verify_proof(proof)
    assert not verdict.ok
    assert "matches A1" in verdict.lines[0].message


def test_undeclared_axiom_accepts_any_scheme():
    proof = Proof([(pf("Box p -> p"), Axiom())])
    assert verify_proof(proof).ok


def test_mp_direction():
    proof = Proof([
        (P, Axiom()),
        (implies(P, Q), Axiom()),
        (Q, MP(1, 2)),
    ])
    verdict = verify_proof(proof)
    # lines 1 and 2 are not axioms, but line 3 checks shape independently
    assert [v.ok for v in verdict.lines] == [False, False, True]
    assert not verdict.ok
    assert len(verdict.failures()) == 2


def test_mp_swapped_arguments_fail():
    proof = Proof([
        (pf("p -> p"), Axiom()),
        (pf("(p -> p) -> (q -> q)"), Axiom()),
        (pf("q -> q"), MP(2, 1)),
    ])
    assert not verify_proof(proof).lines[2].ok


def test_knec():
    proof = Proof([
        (pf("p -> p"), Axiom()),
        (pf("K (p -> p)"), KNec(1)),
        (pf("K p"), KNec(1)),
    ])
    verdict = verify_proof(proof)
    assert verdict.lines[1].ok and not verdict.lines[2].ok


def test_forward_and_self_references_fail():
    proof = Proof([
        (pf("K (p -> p)"), KNec(1)),
        (pf("K (p -> p)"), KNec(2)),
    ])
    verdict = verify_proof(proof)
    assert not verdict.lines[0].ok and not verdict.lines[1].ok
    assert "not strictly above" in verdict.lines[0].message


def test_rcs_needs_a_specification():
    member = ConstantSpecification.chain_formula(("c1",), pf("p -> (q -> p)"))
    proof = Proof([(member, RCS())])
    assert not verify_proof(proof).ok
    cs = ConstantSpecification.from_entries([(("c1",), pf("p -> (q -> p)"))])
    assert verify_proof(proof, cs).ok


def test_rcs_chain_entries():
    cs = ConstantSpecification.from_entries([(("c2", "c1"), pf("p -> (q -> p)"))])
    inner = ConstantSpecification.chain_formula(("c1",), pf("p -> (q -> p)"))
    outer = ConstantSpecification.chain_formula(("c2", "c1"), pf("p -> (q -> p)"))
    verdict = verify_proof(Proof([(inner, RCS()), (outer, RCS())]), cs)
    assert verdict.ok


def test_modal_necessitation_gate():
    proof = Proof([
        (pf("p -> p"), Axiom()),
        (pf("Box (p -> p)"), BoxNec(1)),
        (pf("[1] (p -> p)"), CstitNec(1, agent=1)),
    ])
    verdict = verify_proof(proof)
    assert [v.ok for v in verdict.lines] == [True, False, False]
    assert "not a rule of the system" in verdict.lines[1].message
    verdict = verify_proof(proof, allow_modal_necessitation=True)
    assert verdict.ok


def test_strict_mode_flows_through_verify():
    peirce = pf("((p -> q) -> p) -> p")
    proof = Proof([(peirce, Axiom())])
    assert verify_proof(proof).ok
    assert not verify_proof(proof, tautology_mode="strict").ok


def test_soundness_of_matcher_against_verifier():
    # anything the matcher accepts must verify as a one-line proof
    rng = random.Random(59)
    accepted = 0
    for _ in range(400):
        f = random_formula(rng, depth=4)
        g = implies(f, f)
        got = match_axiom(g)
        if got is not None:
            assert verify_proof(Proof([(g, Axiom(got.scheme))])).ok
            accepted += 1
    assert accepted > 100


# ---------------------------------------------------------------------------
# constant specifications

def test_check_cs_clean():
    cs = ConstantSpecification.from_entries([(("c1",), pf("p -> (q -> p)"))])
    assert check_cs(cs) == ()


def test_check_cs_non_axiom_entry():
    cs = ConstantSpecification.from_entries([(("c1",), pf("p -> q"))])
    codes = {d.code for d in check_cs(cs)}
    assert codes == {"cs-entry-not-axiom"}


def test_check_cs_closure():
    raw = ConstantSpecification(frozenset({(("c2", "c1"), pf("p -> (q -> p)"))}))
    codes = {d.code for d in check_cs(raw)}
    assert "cs-not-closed" in codes
    completed = ConstantSpecification.from_entries([(("c2", "c1"), pf("p -> (q -> p)"))])
    codes = {d.code for d in check_cs(completed)}
    assert codes == {"cs-closure-added"}
