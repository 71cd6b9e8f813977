import random

import pytest

from jastit.generators import mixsucc_witness_frame, random_jstit_frame
from jastit.countermodels import (
    MixsuccWitness,
    POLY_X,
    POLY_Y,
    RegWitness,
    TARGET_FORMULA,
    WitnessError,
    build_jstit_countermodel,
    build_stit_countermodel,
    build_temporal_countermodel,
    check_mixsucc_witness,
    check_reg_witness,
    complete_mixsucc_witness,
    dense_pairs_supporting,
)
from jastit.diagnostics import violations, warnings
from jastit.frames import JstitFrame, StitFrame, TemporalFrame, is_regular
from jastit.models import validate_model
from jastit.semantics import Index, satisfies
from jastit.syntax import parse_formula, render


def golden_frame() -> JstitFrame:
    return JstitFrame(
        ["r", "m0", "c", "cc"],
        [("r", "m0"), ("m0", "c"), ("m0", "cc")],
        agents=2,
        dense=[("m0", "c")],
    )


def test_target_formula_shape():
    assert render(TARGET_FORMULA) == "K (Box E x | ~Box E y) -> E x | ~E y"
    assert TARGET_FORMULA == parse_formula("K(Box E x | ~Box E y) -> (E x | ~E y)")


# ---------------------------------------------------------------------------
# witness checking

def test_complete_mixsucc_witness_golden():
    w = complete_mixsucc_witness(golden_frame(), "m0", "c")
    assert w == MixsuccWitness("m0", "c", "h0", "h1")
    check_mixsucc_witness(golden_frame(), w)


def test_mixsucc_witness_conjuncts():
    f = golden_frame()
    cases = [
        (MixsuccWitness("zz", "c", "h0", "h1"), "moments"),
        (MixsuccWitness("c", "m0", "h0", "h1"), "m0 strictly before m1"),
        (MixsuccWitness("m0", "c", "h9", "h1"), "h0 through m0"),
        (MixsuccWitness("m0", "c", "h1", "h1"), "h0 divided from h1 at m0"),
        (MixsuccWitness("r", "c", "h0", "h1"), "h0 divided from h1 at m0"),
        (MixsuccWitness("m0", "cc", "h0", "h1"), "no immediate successor up to m1"),
    ]
    for w, conjunct in cases:
        with pytest.raises(WitnessError) as exc:
            check_mixsucc_witness(f, w)
        assert exc.value.conjunct == conjunct, w


def test_complete_requires_divided_histories():
    f = golden_frame()
    with pytest.raises(WitnessError) as exc:
        complete_mixsucc_witness(f, "r", "c")
    assert exc.value.conjunct == "h0 divided from h1 at m0"


def test_reg_witness_golden():
    f = golden_frame()
    ok, wit = is_regular(f)
    assert not ok
    w = RegWitness(*wit)
    check_reg_witness(f, w)
    assert w == RegWitness("m0", "c", "h1", frozenset({"c"}))


def test_reg_witness_conjuncts():
    f = golden_frame()
    cases = [
        (RegWitness("zz", "c", "h1", frozenset({"c"})), "moments"),
        (RegWitness("c", "m0", "h1", frozenset({"c"})), "m0 strictly before m1"),
        (RegWitness("m0", "c", "h1", frozenset({"zz"})), "support set"),
        (RegWitness("m0", "c", "h1", frozenset({"c", "m0"})), "m0 outside S"),
        (RegWitness("m0", "c", "h1", frozenset({"cc"})),
         "S in every Theta family on the interval"),
        (RegWitness("m0", "c", "h9", frozenset({"c"})), "h' through m0"),
        (RegWitness("m0", "c", "h0", frozenset({"c"})),
         "h' divided from every history through m1"),
        (RegWitness("m0", "c", "h1", frozenset({"c", "cc"})),
         "h' avoids next successors inside S"),
    ]
    for w, conjunct in cases:
        with pytest.raises(WitnessError) as exc:
            check_reg_witness(f, w)
        assert exc.value.conjunct == conjunct, w


def test_dense_pairs_supporting():
    f = golden_frame()
    assert dense_pairs_supporting(f, "m0", "c") == (("m0", "c"),)
    assert dense_pairs_supporting(f, "m0", "cc") == ()
    assert dense_pairs_supporting(f, "r", "c") == ()


# ---------------------------------------------------------------------------
# golden builds

def test_stit_build_golden():
    f = golden_frame()
    w = complete_mixsucc_witness(f, "m0", "c")
    stit = StitFrame(f.moments, f.leq, f.agents, dense=f.dense)
    model, idx = build_stit_countermodel(stit, w)
    assert idx == Index("m0", "h0")
    assert not satisfies(model, idx, TARGET_FORMULA)
    diags = validate_model(model)
    assert violations(diags) == []
    assert {d.code for d in warnings(diags)} == {"act-new-proofs-waived"}
    # the relations collapse onto the temporal order
    assert model.frame.r == model.frame.leq
    assert model.frame.re == model.frame.leq


def test_stit_build_act_pattern():
    f = golden_frame()
    w = complete_mixsucc_witness(f, "m0", "c")
    stit = StitFrame(f.moments, f.leq, f.agents, dense=f.dense)
    model, _ = build_stit_countermodel(stit, w)
    assert model.act_at("m0", "h0") == {POLY_Y}
    assert model.act_at("c", "h0") == {POLY_X, POLY_Y}
    for m, h in [("m0", "h1"), ("r", "h0"), ("r", "h1"), ("cc", "h1")]:
        assert model.act_at(m, h) == frozenset(), (m, h)


def test_temporal_build_golden():
    f = golden_frame()
    w = complete_mixsucc_witness(f, "m0", "c")
    temporal = TemporalFrame(f.moments, f.leq, dense=f.dense)
    model, idx = build_temporal_countermodel(temporal, w, agents=2)
    assert idx == Index("m0", "h0")
    assert not satisfies(model, idx, TARGET_FORMULA)
    assert violations(validate_model(model)) == []
    assert model.frame.agents == 2


def test_jstit_build_golden():
    f = golden_frame()
    _, wit = is_regular(f)
    model, idx = build_jstit_countermodel(f, RegWitness(*wit))
    assert idx == Index("m0", "h0")
    assert not satisfies(model, idx, TARGET_FORMULA)
    assert violations(validate_model(model)) == []
    # frame relations are preserved, not rebuilt
    assert model.frame.r == f.r and model.frame.re == f.re
    assert model.act_at("m0", "h0") == {POLY_Y}
    assert model.act_at("c", "h0") == {POLY_X, POLY_Y}
    assert model.act_at("r", "h0") == frozenset()
    assert model.act_at("m0", "h1") == frozenset()


def test_builders_are_deterministic():
    f = golden_frame()
    w = complete_mixsucc_witness(f, "m0", "c")
    stit = StitFrame(f.moments, f.leq, f.agents, dense=f.dense)
    a = build_stit_countermodel(stit, w)
    b = build_stit_countermodel(stit, w)
    assert a[0] == b[0] and a[1] == b[1]
    _, wit = is_regular(f)
    c1 = build_jstit_countermodel(f, RegWitness(*wit))
    c2 = build_jstit_countermodel(f, RegWitness(*wit))
    assert c1 == c2


def test_build_rejects_bad_witness():
    f = golden_frame()
    stit = StitFrame(f.moments, f.leq, f.agents, dense=f.dense)
    with pytest.raises(WitnessError):
        build_stit_countermodel(stit, MixsuccWitness("m0", "cc", "h0", "h1"))
    with pytest.raises(WitnessError):
        build_jstit_countermodel(f, RegWitness("m0", "c", "h0", frozenset({"c"})))


# ---------------------------------------------------------------------------
# generated replays

def test_stit_replays_on_generated_witness_frames():
    rng = random.Random(61)
    for _ in range(25):
        stit, a, b = mixsucc_witness_frame(rng, rng.randint(4, 7))
        w = complete_mixsucc_witness(stit, a, b)
        model, idx = build_stit_countermodel(stit, w)
        assert violations(validate_model(model)) == []
        assert not satisfies(model, idx, TARGET_FORMULA)


def test_temporal_replays_on_generated_witness_frames():
    rng = random.Random(67)
    for _ in range(25):
        stit, a, b = mixsucc_witness_frame(rng, rng.randint(4, 7))
        temporal = stit.temporal_reduct()
        w = complete_mixsucc_witness(temporal, a, b)
        model, idx = build_temporal_countermodel(temporal, w)
        assert violations(validate_model(model)) == []
        assert not satisfies(model, idx, TARGET_FORMULA)


def test_jstit_replays_on_generated_irregular_frames():
    rng = random.Random(71)
    built = 0
    while built < 20:
        f = random_jstit_frame(rng, rng.randint(4, 7), dense_p=0.5)
        ok, wit = is_regular(f)
        if ok:
            continue
        model, idx = build_jstit_countermodel(f, RegWitness(*wit))
        assert violations(validate_model(model)) == []
        assert not satisfies(model, idx, TARGET_FORMULA)
        built += 1
