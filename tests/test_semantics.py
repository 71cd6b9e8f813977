import random

import pytest

from jastit.generators import random_formula, random_jstit_frame, random_model
from oracles import naive_satisfies
from jastit.diagnostics import ResourceBoundExceeded, violations
from jastit.frames import JstitFrame, is_regular
from jastit.models import EVERYTHING, JstitModel, OutOfUniverseError, Universe, validate_model
from jastit.semantics import Index, SearchBounds, find_countermodel, satisfies, valid_in_model
from jastit.countermodels import RegWitness, TARGET_FORMULA, build_jstit_countermodel
from jastit.syntax import parse_formula, render


def golden_frame() -> JstitFrame:
    return JstitFrame(
        ["r", "m0", "c", "cc"],
        [("r", "m0"), ("m0", "c"), ("m0", "cc")],
        agents=2,
        dense=[("m0", "c")],
    )


def golden_countermodel():
    frame = golden_frame()
    _, w = is_regular(frame)
    return build_jstit_countermodel(frame, RegWitness(*w))


def _widen(model, formulas):
    uni = model.universe.extended(formulas=formulas)
    return JstitModel(model.frame, uni, model.act, dict(model.evidence),
                      dict(model.valuation), model.evidence_default)


# ---------------------------------------------------------------------------
# clause-by-clause spot checks on the golden counter-model

def test_announcement_clause():
    model, _ = golden_countermodel()
    wide = _widen(model, [parse_formula("E x & E y")])
    assert satisfies(wide, ("m0", "h0"), parse_formula("E y"))
    assert not satisfies(wide, ("m0", "h0"), parse_formula("E x"))
    assert satisfies(wide, ("c", "h0"), parse_formula("E x & E y"))
    assert not satisfies(wide, ("cc", "h1"), parse_formula("E y"))


def test_settledness_clause():
    model, _ = golden_countermodel()
    wide = _widen(model, [parse_formula("Box (E x & E y)"),
                          parse_formula("~Box E y | ~Box E x")])
    # E y holds on h0 but not h1 at m0, so it is not settled there
    assert not satisfies(wide, ("m0", "h0"), parse_formula("Box E y"))
    assert satisfies(wide, ("c", "h0"), parse_formula("Box (E x & E y)"))
    assert satisfies(wide, ("m0", "h0"), parse_formula("~Box E y | ~Box E x"))


def test_knowledge_clause():
    model, _ = golden_countermodel()
    # r reaches every moment through r, where announcements vary
    wide = _widen(model, [parse_formula("K ~E x"), parse_formula("K (E x | ~E x)")])
    assert not satisfies(wide, ("r", "h0"), parse_formula("K ~E x"))
    assert satisfies(wide, ("r", "h0"), parse_formula("K (E x | ~E x)"))


def test_target_falsified_at_returned_index():
    model, idx = golden_countermodel()
    assert idx == Index("m0", "h0")
    assert not satisfies(model, idx, TARGET_FORMULA)
    assert satisfies(model, idx, parse_formula("K (Box E x | ~Box E y)"))
    assert not satisfies(model, idx, parse_formula("E x | ~E y"))


def test_stit_clause_trivial_choice():
    model, _ = golden_countermodel()
    wide = _widen(model, [parse_formula("[0] E y"), parse_formula("[1] E y")])
    # vacuous partitions make the stit modalities agree with Box
    for m, h in [("m0", "h0"), ("c", "h0")]:
        for f in ["[0] E y", "[1] E y"]:
            assert satisfies(wide, (m, h), parse_formula(f)) == \
                satisfies(wide, (m, h), parse_formula("Box E y"))


def test_proves_clause_everything_evidence():
    model, _ = golden_countermodel()
    wide = _widen(model, [parse_formula("x : E y"), parse_formula("x : (E x | ~E x)")])
    # admissibility is vacuous here, so only the re-spread of the content
    # matters: E y fails at (cc, h1), an re-successor of m0
    assert not satisfies(wide, ("m0", "h0"), parse_formula("x : E y"))
    assert satisfies(wide, ("m0", "h0"), parse_formula("x : (E x | ~E x)"))
    # at the leaf c the only re-successor is c itself, where E y holds
    assert satisfies(wide, ("c", "h0"), parse_formula("x : E y"))


def test_proves_clause_empty_evidence():
    model, _ = golden_countermodel()
    wide = _widen(model, [parse_formula("x : (E x | ~E x)")])
    empty = JstitModel(wide.frame, wide.universe, wide.act, dict(wide.evidence),
                       dict(wide.valuation), evidence_default=frozenset())
    assert not satisfies(empty, ("c", "h0"), parse_formula("x : (E x | ~E x)"))


# ---------------------------------------------------------------------------
# index handling

def test_index_forms_and_errors():
    model, _ = golden_countermodel()
    f = parse_formula("E y")
    assert satisfies(model, Index("m0", "h0"), f) == satisfies(model, ("m0", "h0"), f)
    with pytest.raises(ValueError):
        satisfies(model, ("m0", "h9"), f)
    with pytest.raises(ValueError):
        satisfies(model, ("c", "h1"), f)  # h1 does not pass through c
    with pytest.raises(OutOfUniverseError):
        satisfies(model, ("m0", "h0"), parse_formula("zz9"))


def test_valid_in_model():
    model, idx = golden_countermodel()
    ok, where = valid_in_model(model, TARGET_FORMULA)
    assert not ok and where == idx
    wide = _widen(model, [parse_formula("E y | ~E y")])
    ok, where = valid_in_model(wide, parse_formula("E y | ~E y"))
    assert ok and where is None


# ---------------------------------------------------------------------------
# agreement with the reference evaluator

def test_satisfies_agrees_with_reference():
    rng = random.Random(47)
    checked = 0
    for i in range(18):
        frame = random_jstit_frame(rng, rng.randint(2, 5), dense_p=0.2,
                                   r_extra=i % 2, re_extra=i % 2)
        model = random_model(rng, frame, explicit_evidence=(i % 3 == 0))
        probes = [random_formula(rng, depth=3) for _ in range(6)]
        wide = _widen(model, probes)
        for f in probes:
            for m in frame.moments:
                for h in frame.histories_through(m):
                    got = satisfies(wide, (m, h.name), f)
                    want = naive_satisfies(wide, m, h.name, f)
                    assert got == want, (render(f), m, h.name)
                    checked += 1
    assert checked > 400


# ---------------------------------------------------------------------------
# bounded search

def test_search_finds_announcement_failure():
    found = find_countermodel(parse_formula("E x"))
    assert found is not None
    model, idx = found
    assert not satisfies(model, idx, parse_formula("E x"))
    assert violations(validate_model(model)) == []


def test_search_respects_soundness_probes():
    for text in ["x : p -> p", "x : p -> K p", "K p -> Box p",
                 "Box E x -> K Box E x"]:
        assert find_countermodel(parse_formula(text)) is None, text


def test_search_refutes_invalid_formulas():
    for text in ["Box p -> K p", "p -> x : p", "E x -> Box E x"]:
        found = find_countermodel(parse_formula(text))
        assert found is not None, text
        model, idx = found
        assert not satisfies(model, idx, parse_formula(text))
        assert violations(validate_model(model)) == []


def test_search_empty_evidence_mode():
    found = find_countermodel(parse_formula("x : (p -> p)"),
                              SearchBounds(evidence_mode="empty"))
    assert found is not None
    model, idx = found
    assert model.evidence_default == frozenset()
    assert not satisfies(model, idx, parse_formula("x : (p -> p)"))


def test_search_budget_exhaustion():
    with pytest.raises(ResourceBoundExceeded):
        find_countermodel(parse_formula("x : p -> p"), SearchBounds(budget=50))


def test_search_rejects_unknown_mode_and_agents():
    with pytest.raises(ValueError):
        find_countermodel(parse_formula("p"), SearchBounds(evidence_mode="x"))
    with pytest.raises(ValueError):
        find_countermodel(parse_formula("[5] p"), SearchBounds(agents=2))


def test_found_models_are_minimal_first():
    found = find_countermodel(parse_formula("p"))
    assert found is not None
    model, _ = found
    assert len(model.frame.moments) == 1
