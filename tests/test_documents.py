import random

import pytest

from jastit.generators import random_jstit_frame, random_model
from jastit.calculus import Axiom, KNec, MP, Proof, RCS, RD, verify_proof
from jastit.countermodels import (
    RegWitness,
    build_jstit_countermodel,
    complete_mixsucc_witness,
)
from jastit.documents import (
    DocumentError,
    ast_dump,
    canonical_json,
    countermodel_document,
    dump_cs,
    dump_frame,
    dump_model,
    dump_proof,
    dump_witness,
    load_cs,
    load_frame,
    load_model,
    load_proof,
    load_witness,
)
from jastit.frames import JstitFrame, is_regular
from jastit.models import ConstantSpecification
from jastit.syntax import parse_formula as pf


def golden_frame() -> JstitFrame:
    return JstitFrame(
        ["r", "m0", "c", "cc"],
        [("r", "m0"), ("m0", "c"), ("m0", "cc")],
        agents=2,
        dense=[("m0", "c")],
    )


# ---------------------------------------------------------------------------
# canonical json

def test_canonical_json_shape():
    s = canonical_json({"b": 1, "a": [2, 3]})
    assert s == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'
    assert s.endswith("\n")


# ---------------------------------------------------------------------------
# frames

def test_frame_roundtrip_golden():
    f = golden_frame()
    doc = dump_frame(f)
    assert load_frame(doc) == f
    # the dumped order lists covering pairs only
    assert ["r", "m0"] in [list(p) for p in doc["order"]]
    assert ["r", "c"] not in [list(p) for p in doc["order"]]
    # relations are spelled out without the reflexive pairs
    assert ["r", "r"] not in [list(p) for p in doc["r"]]


def test_frame_roundtrip_with_choice_and_relations():
    f = JstitFrame(
        ["r", "a", "b"], [("r", "a"), ("r", "b")], agents=2,
        choice={("r", 0): [["h0"], ["h1"]]},
        re=[("a", "b")],
    )
    doc = dump_frame(f)
    g = load_frame(doc)
    assert g == f
    assert g.choice_cells("r", 0) == (frozenset({"h0"}), frozenset({"h1"}))
    assert ("a", "b") in g.re and ("a", "b") not in g.r


def test_frame_roundtrip_random():
    rng = random.Random(73)
    for i in range(20):
        f = random_jstit_frame(rng, rng.randint(1, 6), dense_p=0.3,
                               r_extra=i % 2, re_extra=i % 3)
        assert load_frame(dump_frame(f)) == f


def test_frame_agents_fallback():
    doc = {"moments": ["a"], "order": []}
    assert load_frame(doc).agents == 2
    assert load_frame(doc, default_agents=5).agents == 5
    doc["agents"] = 3
    assert load_frame(doc, default_agents=5).agents == 3


def test_frame_unknown_key_rejected():
    doc = dump_frame(golden_frame())
    doc["extra"] = 1
    with pytest.raises(DocumentError):
        load_frame(doc)


def test_frame_malformed_fields():
    with pytest.raises(DocumentError):
        load_frame({"moments": "abc", "order": []})
    with pytest.raises(DocumentError):
        load_frame({"moments": ["a"], "order": [["a"]]})
    with pytest.raises(DocumentError):
        load_frame({"moments": ["a", "b"], "order": [["a", "b"]],
                    "choice": {"badkey": [[0]]}})
    with pytest.raises(DocumentError):
        load_frame({"moments": ["a", "b"], "order": [["a", "b"]],
                    "choice": {"a,0": [[7]]}})


def test_json_booleans_are_not_integers():
    doc = dump_frame(golden_frame())
    doc["agents"] = True
    with pytest.raises(DocumentError, match="agents"):
        load_frame(doc)
    with pytest.raises(DocumentError, match="history indices"):
        load_frame({"moments": ["a", "b"], "order": [["a", "b"]],
                    "choice": {"a,0": [[False]]}})
    for just in ({"kind": "mp", "i": True, "j": 1},
                 {"kind": "mp", "i": 1, "j": True},
                 {"kind": "cstitnec", "i": 1, "agent": False}):
        doc = {"lines": [{"formula": "p -> p", "just": {"kind": "axiom"}},
                         {"formula": "[0] (p -> p)", "just": just}]}
        with pytest.raises(DocumentError, match="must be an integer"):
            load_proof(doc)


# ---------------------------------------------------------------------------
# models

def test_model_roundtrip_golden_countermodel():
    f = golden_frame()
    _, wit = is_regular(f)
    model, _ = build_jstit_countermodel(f, RegWitness(*wit))
    doc = dump_model(model)
    assert load_model(doc) == model
    assert doc["act"]["m0/h0"] == ["y"]
    assert doc["act"]["c/h0"] == ["x", "y"]
    assert doc["evidence"] == {"default": "*"}


def test_model_roundtrip_random():
    rng = random.Random(79)
    for i in range(15):
        frame = random_jstit_frame(rng, rng.randint(2, 5), dense_p=0.2)
        model = random_model(rng, frame, explicit_evidence=(i % 2 == 0))
        assert load_model(dump_model(model)) == model


def test_model_explicit_evidence_dump():
    rng = random.Random(83)
    frame = random_jstit_frame(rng, 3)
    model = random_model(rng, frame, explicit_evidence=True)
    doc = dump_model(model)
    assert doc["evidence"]["default"] == []
    restored = load_model(doc)
    assert restored.evidence_default == frozenset()
    for (m, t), es in model.evidence.items():
        assert restored.evidence_at(m, t) == es


def test_model_unknown_act_history_rejected():
    f = golden_frame()
    _, wit = is_regular(f)
    model, _ = build_jstit_countermodel(f, RegWitness(*wit))
    doc = dump_model(model)
    doc["act"]["m0/h9"] = []
    with pytest.raises(DocumentError):
        load_model(doc)


def test_model_bad_polynomial_rejected():
    f = golden_frame()
    _, wit = is_regular(f)
    model, _ = build_jstit_countermodel(f, RegWitness(*wit))
    doc = dump_model(model)
    doc["act"]["m0/h0"] = ["???"]
    with pytest.raises(DocumentError):
        load_model(doc)


# ---------------------------------------------------------------------------
# constant specifications

def test_cs_roundtrip():
    cs = ConstantSpecification.from_entries([
        (("c1",), pf("p -> (q -> p)")),
        (("c2", "c1"), pf("p -> (q -> p)")),
    ])
    assert load_cs(dump_cs(cs)) == cs


def test_cs_bad_chain_rejected():
    with pytest.raises(DocumentError):
        load_cs([{"chain": ["x1"], "formula": "p -> p"}])
    with pytest.raises(DocumentError):
        load_cs([{"chain": [], "formula": "p -> p"}])


# ---------------------------------------------------------------------------
# proofs

def target_proof() -> Proof:
    return Proof([
        (pf("K (Box E x | ~Box E y) -> (Box E x | ~Box E y)"), Axiom("A7")),
        (pf("K (Box E x | ~Box E y) -> (E x | ~E y)"), RD(1)),
    ])


def test_proof_roundtrip_structural():
    proof = target_proof()
    doc = dump_proof(proof)
    loaded, cs = load_proof(doc)
    assert loaded == proof
    assert cs == ConstantSpecification(frozenset())
    assert verify_proof(loaded, cs).ok


def test_proof_roundtrip_all_justifications():
    cs = ConstantSpecification.from_entries([(("c1",), pf("p -> (q -> p)"))])
    member = ConstantSpecification.chain_formula(("c1",), pf("p -> (q -> p)"))
    proof = Proof([
        (pf("p -> (q -> p)"), Axiom("A0")),
        (pf("K (p -> (q -> p))"), KNec(1)),
        (member, RCS()),
        (pf("(p -> (q -> p)) -> (p -> (q -> p))"), Axiom()),
        (pf("p -> (q -> p)"), MP(1, 4)),
    ])
    doc = dump_proof(proof, cs)
    loaded, cs2 = load_proof(doc)
    assert loaded == proof and cs2 == cs
    assert verify_proof(loaded, cs2).ok


def test_proof_line_numbering_is_one_based():
    doc = dump_proof(target_proof())
    assert doc["lines"][1]["just"] == {"kind": "rd", "i": 1}


def test_proof_bad_kind_rejected():
    doc = dump_proof(target_proof())
    doc["lines"][0]["just"] = {"kind": "zz"}
    with pytest.raises(DocumentError):
        load_proof(doc)


def test_proof_bad_reference_rejected():
    doc = dump_proof(target_proof())
    doc["lines"][1]["just"] = {"kind": "rd", "i": "one"}
    with pytest.raises(DocumentError):
        load_proof(doc)


# ---------------------------------------------------------------------------
# witnesses

def test_witness_roundtrip_both_kinds():
    f = golden_frame()
    w = complete_mixsucc_witness(f, "m0", "c")
    assert load_witness(dump_witness(w)) == w
    _, wit = is_regular(f)
    r = RegWitness(*wit)
    assert load_witness(dump_witness(r)) == r


def test_witness_unknown_kind_rejected():
    with pytest.raises(DocumentError):
        load_witness({"kind": "zz"})
    with pytest.raises(DocumentError):
        load_witness({"kind": "mixsucc", "m0": "a"})


# ---------------------------------------------------------------------------
# counter-model documents

def test_countermodel_document_contents():
    f = golden_frame()
    _, wit = is_regular(f)
    w = RegWitness(*wit)
    model, idx = build_jstit_countermodel(f, w)
    doc = countermodel_document(model, idx, w)
    assert doc["witness"] == {"kind": "reg", "m0": "m0", "m1": "c",
                              "h_prime": "h1", "s": ["c"]}
    assert doc["index"] == ["m0", "h0"]
    assert doc["falsified"] == "K (Box E x | ~Box E y) -> E x | ~E y"
    assert "declared stretch" in doc["provenance"]
    # the report loads straight back as a model; the extra keys are ignored
    assert load_model(doc) == model


def test_countermodel_document_mixsucc_provenance():
    # a genuine witness always sits over an annotated cover: without one,
    # some immediate successor of m0 would lie at or below m1
    from jastit.countermodels import build_stit_countermodel
    from jastit.frames import StitFrame
    sg = StitFrame(["r", "a", "b"], [("r", "a"), ("r", "b")], 2,
                   dense=[("r", "a")])
    w = complete_mixsucc_witness(sg, "r", "a")
    model, idx = build_stit_countermodel(sg, w)
    doc = countermodel_document(model, idx, w)
    assert doc["witness"]["kind"] == "mixsucc"
    assert "r < a" in doc["provenance"]


def test_ast_dump():
    assert ast_dump(pf("[1] p")) == "Cstit(1, PropVar(p))"
    assert ast_dump(pf("x : p")) == "Proves(ProofVar(x), PropVar(p))"
    assert ast_dump(pf("E !x")) == "Announced(Check(ProofVar(x)))"
    assert ast_dump(pf("[1] (Box ~p & K (c + x) : E !(y * x))")) == (
        "Cstit(1, And(Box(Not(PropVar(p))), Knows(Proves(Sum(ProofConst(c), "
        "ProofVar(x)), Announced(Check(App(ProofVar(y), ProofVar(x))))))))")
