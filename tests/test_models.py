import random

import pytest

from jastit.generators import random_jstit_frame, random_model
from jastit.diagnostics import violations, warnings
from jastit.frames import JstitFrame
from jastit.models import (
    EVERYTHING,
    ConstantSpecification,
    JstitModel,
    OutOfUniverseError,
    Universe,
    act_settled,
    derived_property_check,
    ev_contains,
    ev_subset,
    validate_model,
)
from jastit.syntax import (
    And,
    App,
    Announced,
    ProofConst,
    ProofVar,
    PropVar,
    Proves,
    Sum,
    implies,
    parse_formula,
    parse_polynomial,
)

P, Q = PropVar("p"), PropVar("q")
X, Y = ProofVar("x"), ProofVar("y")


def golden_frame() -> JstitFrame:
    return JstitFrame(
        ["r", "m0", "c", "cc"],
        [("r", "m0"), ("m0", "c"), ("m0", "cc")],
        agents=2,
        dense=[("m0", "c")],
    )


# ---------------------------------------------------------------------------
# universe

def test_universe_closes_under_subterms():
    uni = Universe.close(formulas=[parse_formula("x : (p & q)")])
    assert P in uni.formulas and And(P, Q) in uni.formulas
    assert X in uni.polynomials
    assert "p" in uni.prop_vars and "q" in uni.prop_vars


def test_universe_polynomial_closure():
    uni = Universe.close(polynomials=[parse_polynomial("x + y * x")])
    assert X in uni.polynomials and Y in uni.polynomials
    assert App(Y, X) in uni.polynomials


def test_universe_extended_and_missing():
    uni = Universe.close(formulas=[P])
    assert uni.missing_from(And(P, Q))
    bigger = uni.extended(formulas=[And(P, Q)])
    assert not bigger.missing_from(And(P, Q))
    assert not uni.missing_from(P)


def test_out_of_universe_raises():
    model = JstitModel(golden_frame(), Universe.close(formulas=[P]))
    with pytest.raises(OutOfUniverseError):
        model.ensure_in_universe(Q)


# ---------------------------------------------------------------------------
# evidence sets

def test_everything_sentinel():
    assert ev_contains(EVERYTHING, P)
    assert ev_subset(frozenset([P]), EVERYTHING)
    assert ev_subset(EVERYTHING, EVERYTHING)
    assert not ev_subset(EVERYTHING, frozenset([P]))
    assert ev_subset(frozenset(), frozenset([P]))


def test_default_evidence_is_everything():
    model = JstitModel(golden_frame(), Universe.close(formulas=[P]))
    assert model.evidence_at("r", X) is EVERYTHING


# ---------------------------------------------------------------------------
# constant specifications

def test_cs_completes_downward():
    cs = ConstantSpecification.from_entries([(("c1", "c2"), implies(P, P))])
    inner = (("c2",), implies(P, P))
    assert inner in cs.entries
    assert inner in cs.auto_added
    assert cs.contains_formula(Proves(ProofConst("c2"), implies(P, P)))
    assert cs.contains_formula(
        Proves(ProofConst("c1"), Proves(ProofConst("c2"), implies(P, P))))


def test_cs_normality_requirements():
    cs = ConstantSpecification.from_entries([(("c1", "c2"), implies(P, P))])
    reqs = set(cs.normality_requirements())
    assert ("c2", implies(P, P)) in reqs
    assert ("c1", Proves(ProofConst("c2"), implies(P, P))) in reqs


def test_chain_formula_order():
    f = ConstantSpecification.chain_formula(("c1", "c2"), P)
    assert f == Proves(ProofConst("c1"), Proves(ProofConst("c2"), P))


# ---------------------------------------------------------------------------
# act table

def _uniform_act(frame, polys):
    return {(m, h.name): frozenset(polys)
            for m in frame.moments for h in frame.histories_through(m)}


def test_act_accessors_and_settled():
    f = golden_frame()
    act = _uniform_act(f, [])
    act[("c", "h0")] = frozenset([X])
    uni = Universe.close(formulas=[Announced(X)])
    model = JstitModel(f, uni, act)
    assert model.act_at("c", "h0") == {X}
    assert model.act_at("c", f.history("h0")) == {X}
    assert act_settled(model, "c") == {X}
    assert act_settled(model, "m0") == frozenset()


def test_act_expansion_violation():
    f = golden_frame()
    act = _uniform_act(f, [])
    act[("r", "h0")] = frozenset([X])  # presented early, gone later
    model = JstitModel(f, Universe.close(formulas=[Announced(X)]), act)
    codes = {d.code for d in violations(validate_model(model))}
    assert "act-expansion" in codes


def test_act_new_proofs_violation_and_waiver():
    f = golden_frame()
    uni = Universe.close(formulas=[Announced(X)])
    # cc has a single history and no dense cover: settled without prior presentation
    act = _uniform_act(f, [])
    act[("cc", "h1")] = frozenset([X])
    codes = {d.code for d in violations(validate_model(JstitModel(f, uni, act)))}
    assert "act-new-proofs" in codes
    # c sits above the declared dense stretch, so the same pattern is waived
    act = _uniform_act(f, [])
    act[("c", "h0")] = frozenset([X])
    diags = validate_model(JstitModel(f, uni, act))
    assert violations(diags) == []
    assert {d.code for d in warnings(diags)} == {"act-new-proofs-waived"}


def test_act_undivided_violation():
    f = golden_frame()
    act = _uniform_act(f, [])
    # h0 and h1 are undivided at r but present different proofs there
    act[("r", "h0")] = frozenset([X])
    act[("c", "h0")] = frozenset([X])
    act[("m0", "h0")] = frozenset([X])
    model = JstitModel(f, Universe.close(formulas=[Announced(X)]), act)
    codes = {d.code for d in violations(validate_model(model))}
    assert "act-undivided" in codes


def test_act_transparency_violation():
    f = golden_frame().with_relations(re=None)
    f = JstitFrame(f.moments, f.leq, f.agents, dense=f.dense,
                   re=set(f.re) | {("c", "cc")})
    uni = Universe.close(formulas=[Announced(X)])
    act = _uniform_act(f, [])
    act[("c", "h0")] = frozenset([X])  # settled at c, invisible from cc
    codes = {d.code for d in violations(validate_model(JstitModel(f, uni, act)))}
    assert "act-transparency" in codes


# ---------------------------------------------------------------------------
# evidence constraints

def test_evidence_monotonicity_violation():
    f = golden_frame()
    uni = Universe.close(formulas=[Proves(X, P)])
    evidence = {("r", X): frozenset([P]), ("m0", X): frozenset()}
    model = JstitModel(f, uni, evidence=evidence, evidence_default=frozenset())
    codes = {d.code for d in violations(validate_model(model))}
    assert "evidence-monotonicity" in codes


def test_evidence_closure_app():
    f = golden_frame()
    uni = Universe.close(formulas=[Proves(App(X, Y), Q)],
                         polynomials=[App(X, Y)])
    uni = uni.extended(formulas=[implies(P, Q), P])
    ev = {}
    for m in f.moments:
        ev[(m, X)] = frozenset([implies(P, Q)])
        ev[(m, Y)] = frozenset([P])
        ev[(m, App(X, Y))] = frozenset()
    model = JstitModel(f, uni, evidence=ev, evidence_default=frozenset())
    codes = {d.code for d in violations(validate_model(model))}
    assert "evidence-closure-app" in codes


def test_evidence_closure_sum():
    f = golden_frame()
    uni = Universe.close(formulas=[Proves(Sum(X, Y), P)])
    ev = {}
    for m in f.moments:
        ev[(m, X)] = frozenset([P])
        ev[(m, Y)] = frozenset()
        ev[(m, Sum(X, Y))] = frozenset()
    model = JstitModel(f, uni, evidence=ev, evidence_default=frozenset())
    codes = {d.code for d in violations(validate_model(model))}
    assert "evidence-closure-sum" in codes


def test_evidence_closure_check():
    f = golden_frame()
    from jastit.syntax import Check
    uni = Universe.close(formulas=[Proves(Check(X), Proves(X, P))])
    ev = {}
    for m in f.moments:
        ev[(m, X)] = frozenset([P])
        ev[(m, Check(X))] = frozenset()
    model = JstitModel(f, uni, evidence=ev, evidence_default=frozenset())
    codes = {d.code for d in violations(validate_model(model))}
    assert "evidence-closure-check" in codes


def test_evidence_closure_skip_warning_only_without_everything():
    f = golden_frame()
    uni = Universe.close(formulas=[Proves(X, P), Proves(Y, Q)])
    model = JstitModel(f, uni)
    assert warnings(validate_model(model)) == []
    explicit = JstitModel(f, uni, evidence_default=frozenset())
    codes = {d.code for d in warnings(validate_model(explicit))}
    assert codes == {"evidence-closure-skipped"}


def test_everything_closure_is_vacuous():
    f = golden_frame()
    uni = Universe.close(formulas=[Proves(App(X, Y), Q), implies(P, Q)],
                         polynomials=[App(X, Y)])
    model = JstitModel(f, uni)
    assert validate_model(model) == []


# ---------------------------------------------------------------------------
# CS-normality

def test_cs_normality_checked_at_every_moment():
    f = golden_frame()
    cs = ConstantSpecification.from_entries([(("c1",), implies(P, P))])
    uni = Universe.close(formulas=[Proves(ProofConst("c1"), implies(P, P))])
    good = JstitModel(f, uni)
    assert validate_model(good, cs) == []
    ev = {(m, ProofConst("c1")): frozenset() for m in f.moments}
    bad = JstitModel(f, uni, evidence=ev, evidence_default=frozenset())
    codes = {d.code for d in violations(validate_model(bad, cs))}
    assert "cs-normality" in codes


# ---------------------------------------------------------------------------
# generated models stay clean

def test_random_models_validate():
    rng = random.Random(41)
    for i in range(25):
        f = random_jstit_frame(rng, rng.randint(2, 6), dense_p=0.25,
                               r_extra=i % 3, re_extra=i % 2)
        model = random_model(rng, f, explicit_evidence=(i % 3 == 0))
        assert violations(validate_model(model)) == []
        assert derived_property_check(model) == []
