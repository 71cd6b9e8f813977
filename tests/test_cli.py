import json

import pytest

from jastit.calculus import Axiom, BoxNec, Proof, RD
from jastit.cli import main
from jastit.countermodels import RegWitness, build_jstit_countermodel
from jastit.documents import canonical_json, dump_frame, dump_model, dump_proof
from jastit.frames import JstitFrame, is_regular
from jastit.syntax import parse_formula as pf


def golden_frame() -> JstitFrame:
    return JstitFrame(
        ["r", "m0", "c", "cc"],
        [("r", "m0"), ("m0", "c"), ("m0", "cc")],
        agents=2,
        dense=[("m0", "c")],
    )


def write(tmp_path, name, doc) -> str:
    p = tmp_path / name
    p.write_text(canonical_json(doc))
    return str(p)


def golden_model_doc():
    f = golden_frame()
    _, wit = is_regular(f)
    model, _ = build_jstit_countermodel(f, RegWitness(*wit))
    return dump_model(model)


# ---------------------------------------------------------------------------
# parse

def test_parse_prints_constructor_tree(capsys):
    assert main(["parse", "K p -> p"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "Not(And(Knows(PropVar(p)), Not(PropVar(p))))"


def test_parse_error_shows_caret(capsys):
    assert main(["parse", "p ->"]) == 2
    err = capsys.readouterr().err
    assert "expected one of: formula" in err
    assert "^" in err


def test_parse_agent_check_only_when_requested(capsys):
    assert main(["parse", "[5] p"]) == 0
    assert main(["--ag", "2", "parse", "[5] p"]) == 2
    assert "out of range" in capsys.readouterr().err
    assert main(["--ag", "6", "parse", "[5] p"]) == 0


# ---------------------------------------------------------------------------
# check-frame

def test_check_frame_clean(tmp_path, capsys):
    path = write(tmp_path, "f.json", dump_frame(golden_frame()))
    assert main(["check-frame", path]) == 0
    assert "0 violation(s)" in capsys.readouterr().out


def test_check_frame_violations(tmp_path, capsys):
    doc = {"moments": ["a", "b"], "order": [["a", "b"], ["b", "a"]]}
    path = write(tmp_path, "f.json", doc)
    assert main(["check-frame", path]) == 1
    assert "order-cycle" in capsys.readouterr().out


def test_check_frame_missing_file(capsys):
    assert main(["check-frame", "/nonexistent/f.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_frame_bad_json(tmp_path, capsys):
    p = tmp_path / "f.json"
    p.write_text("{not json")
    assert main(["check-frame", str(p)]) == 2


def test_check_frame_unknown_key(tmp_path):
    doc = dump_frame(golden_frame())
    doc["bogus"] = True
    path = write(tmp_path, "f.json", doc)
    assert main(["check-frame", path]) == 2


def test_check_frame_boolean_agents(tmp_path, capsys):
    doc = dump_frame(golden_frame())
    doc["agents"] = True
    path = write(tmp_path, "f.json", doc)
    assert main(["check-frame", path]) == 2
    assert "agents must be an integer" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# classify

def test_classify_report(tmp_path, capsys):
    path = write(tmp_path, "f.json", dump_frame(golden_frame()))
    assert main(["classify", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mixsucc"] == {"holds": False,
                                 "witness": {"m0": "m0", "m1": "c"}}
    assert report["regular"]["holds"] is False
    assert report["regular"]["witness"]["s"] == ["c"]
    assert report["theta_sizes"] == {"c": 2, "cc": 2, "m0": 0, "r": 0}
    assert report["unirelational"] is True


def test_classify_positive_frame(tmp_path, capsys):
    f = JstitFrame(["r", "a", "b"], [("r", "a"), ("r", "b")], agents=2)
    path = write(tmp_path, "f.json", dump_frame(f))
    assert main(["classify", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mixsucc"]["holds"] is True
    assert report["regular"]["holds"] is True


def test_classify_theta_cap(tmp_path, capsys):
    f = JstitFrame(["r", "a", "b"], [("r", "a"), ("r", "b")], agents=2)
    path = write(tmp_path, "f.json", dump_frame(f))
    assert main(["classify", "--theta-cap", "2", path]) == 3
    assert "resource bound exceeded" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# check-model

def test_check_model_clean(tmp_path, capsys):
    path = write(tmp_path, "m.json", golden_model_doc())
    assert main(["check-model", path]) == 0
    out = capsys.readouterr().out
    assert "0 violation(s)" in out
    assert "act-new-proofs-waived" in out  # warning shown, not fatal


def test_check_model_violation(tmp_path, capsys):
    doc = golden_model_doc()
    doc["act"]["r/h0"] = ["x", "y"]  # presented early, gone later
    path = write(tmp_path, "m.json", doc)
    assert main(["check-model", path]) == 1
    assert "act-expansion" in capsys.readouterr().out


def test_check_model_with_cs(tmp_path, capsys):
    doc = golden_model_doc()
    path = write(tmp_path, "m.json", doc)
    cs_doc = [{"chain": ["c1"], "formula": "p -> q"}]
    cs_path = write(tmp_path, "cs.json", cs_doc)
    assert main(["check-model", "--cs", cs_path, path]) == 1
    assert "cs-entry-not-axiom" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# eval

def test_eval_true_false(tmp_path, capsys):
    path = write(tmp_path, "m.json", golden_model_doc())
    assert main(["eval", "--at", "m0,h0", "--formula", "E y", path]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["eval", "--at", "m0,h0", "--formula", "E x", path]) == 1
    assert capsys.readouterr().out.strip() == "false"


def test_eval_bad_at(tmp_path, capsys):
    path = write(tmp_path, "m.json", golden_model_doc())
    assert main(["eval", "--at", "m0h0", "--formula", "E x", path]) == 2
    assert "moment,history" in capsys.readouterr().err
    assert main(["eval", "--at", "m0,h9", "--formula", "E x", path]) == 2
    assert "unknown history" in capsys.readouterr().err


def test_eval_out_of_universe(tmp_path, capsys):
    path = write(tmp_path, "m.json", golden_model_doc())
    assert main(["eval", "--at", "m0,h0", "--formula", "zz9", path]) == 2
    assert "universe" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# countermodel

def test_countermodel_auto_jstit(tmp_path, capsys):
    path = write(tmp_path, "f.json", dump_frame(golden_frame()))
    assert main(["countermodel", path]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["witness"]["kind"] == "reg"
    assert doc["index"] == ["m0", "h0"]
    assert doc["act"]["m0/h0"] == ["y"]


def test_countermodel_stit_kind(tmp_path, capsys):
    doc = dump_frame(golden_frame())
    del doc["r"], doc["re"]  # bare branching-time data: auto means stit
    path = write(tmp_path, "f.json", doc)
    assert main(["countermodel", path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["witness"]["kind"] == "mixsucc"
    assert out["witness"]["m0"] == "m0"
    assert main(["countermodel", "--kind", "temporal", path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["witness"]["kind"] == "mixsucc"


def test_countermodel_explicit_witness(tmp_path, capsys):
    path = write(tmp_path, "f.json", dump_frame(golden_frame()))
    w = json.dumps({"kind": "reg", "m0": "m0", "m1": "c",
                    "h_prime": "h1", "s": ["c"]})
    assert main(["countermodel", "--witness", w, path]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["falsified"].startswith("K (Box E x | ~Box E y)")


def test_countermodel_invalid_witness(tmp_path, capsys):
    path = write(tmp_path, "f.json", dump_frame(golden_frame()))
    w = json.dumps({"kind": "reg", "m0": "m0", "m1": "c",
                    "h_prime": "h0", "s": ["c"]})
    assert main(["countermodel", "--witness", w, path]) == 2
    assert "witness invalid" in capsys.readouterr().err


def test_countermodel_report_feeds_check_and_eval(tmp_path, capsys):
    path = write(tmp_path, "f.json", dump_frame(golden_frame()))
    assert main(["countermodel", path]) == 1
    report = tmp_path / "cm.json"
    report.write_text(capsys.readouterr().out)
    assert main(["check-model", str(report)]) == 0
    capsys.readouterr()
    assert main(["eval", "--at", "m0,h0", "--formula", "E y", str(report)]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_countermodel_nothing_to_falsify(tmp_path, capsys):
    f = JstitFrame(["r", "a", "b"], [("r", "a"), ("r", "b")], agents=2)
    path = write(tmp_path, "f.json", dump_frame(f))
    assert main(["countermodel", path]) == 0
    assert "nothing to falsify" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# verify-proof

def target_proof_doc():
    proof = Proof([
        (pf("K (Box E x | ~Box E y) -> (Box E x | ~Box E y)"), Axiom("A7")),
        (pf("K (Box E x | ~Box E y) -> (E x | ~E y)"), RD(1)),
    ])
    return dump_proof(proof)


def test_verify_proof_accepted(tmp_path, capsys):
    path = write(tmp_path, "p.json", target_proof_doc())
    assert main(["verify-proof", path]) == 0
    out = capsys.readouterr().out
    assert "line 1: ok - axiom A7" in out
    assert "line 2: ok - announcement rule on 1" in out
    assert "proof accepted" in out


def test_verify_proof_rejected(tmp_path, capsys):
    doc = target_proof_doc()
    doc["lines"][0]["just"] = {"kind": "axiom", "scheme": "A2"}
    path = write(tmp_path, "p.json", doc)
    assert main(["verify-proof", path]) == 1
    out = capsys.readouterr().out
    assert "line 1: FAIL" in out
    assert "proof rejected" in out


def test_verify_proof_strict_tautologies(tmp_path, capsys):
    proof = Proof([(pf("((p -> q) -> p) -> p"), Axiom())])
    path = write(tmp_path, "p.json", dump_proof(proof))
    assert main(["verify-proof", path]) == 0
    assert main(["verify-proof", "--strict-tautologies", path]) == 1


def test_verify_proof_modal_necessitation_flag(tmp_path):
    proof = Proof([
        (pf("p -> p"), Axiom()),
        (pf("Box (p -> p)"), BoxNec(1)),
    ])
    path = write(tmp_path, "p.json", dump_proof(proof))
    assert main(["verify-proof", path]) == 1
    assert main(["verify-proof", "--allow-modal-necessitation", path]) == 0


def test_verify_proof_bad_cs_is_input_error(tmp_path, capsys):
    doc = target_proof_doc()
    doc["cs"] = [{"chain": ["c1"], "formula": "p -> q"}]
    path = write(tmp_path, "p.json", doc)
    assert main(["verify-proof", path]) == 2
    captured = capsys.readouterr()
    assert "cs-entry-not-axiom" in captured.out
    assert "constant specification rejected" in captured.err


# ---------------------------------------------------------------------------
# search

def test_search_found(capsys):
    assert main(["search", "--formula", "Box p -> K p", "--max-moments", "2"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["formula"] == "Box p -> K p"
    assert len(doc["index"]) == 2
    assert "act" in doc and "valuation" in doc


def test_search_none(capsys):
    assert main(["search", "--formula", "x : p -> p", "--max-moments", "2"]) == 0
    assert "none within bounds" in capsys.readouterr().out


def test_search_budget(capsys):
    assert main(["search", "--formula", "x : p -> p", "--budget", "10"]) == 3
    assert "resource bound exceeded" in capsys.readouterr().err


def test_search_bad_formula(capsys):
    assert main(["search", "--formula", "p ->"]) == 2


def test_search_agent_bound_respects_global_flag(capsys):
    assert main(["--ag", "1", "search", "--formula", "[0] p -> p",
                 "--max-moments", "1"]) == 0
    assert main(["--ag", "1", "search", "--formula", "[1] p -> p",
                 "--max-moments", "1"]) == 2
