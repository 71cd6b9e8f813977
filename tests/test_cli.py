import contextlib
import copy
import dataclasses
import io
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from jastit import cli, documents
from jastit.calculus import Axiom, BoxNec, CstitNec, KNec, MP, Proof, RCS, RD
from jastit.cli import main
from jastit.countermodels import RegWitness, build_jstit_countermodel
from jastit.documents import canonical_json, dump_frame, dump_model, dump_proof
from jastit.frames import JstitFrame, is_regular
from jastit.models import Universe
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


def test_parse_too_deep_is_bad_input(capsys):
    assert main(["parse", "~" * 3000 + "p"]) == 2
    err = capsys.readouterr().err
    assert "nesting too deep" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ["(" * 10_000 + "p" + ")" * 10_000, "~" * 10_000 + "p"],
                         ids=["parentheses", "negations"])
def test_deep_nesting_is_bad_input(tmp_path, capsys, text):
    path = write(tmp_path, "m.json", golden_model_doc())
    for command in (["parse", text], ["eval", "--at", "m0,h0", "--formula", text, path]):
        assert main(command) == 2
        err = capsys.readouterr().err
        assert "nesting too deep" in err
        assert "Traceback" not in err


def test_parse_caps_the_unfolded_tree(capsys, monkeypatch):
    # <-> shares its operands, so each link doubles the printed tree
    assert main(["parse", " <-> ".join(["p"] * 20)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "resource bound exceeded" in captured.err
    assert main(["parse", "p <-> q <-> r"]) == 0
    nodes = capsys.readouterr().out.count("(")  # one per constructor
    monkeypatch.setattr(documents, "AST_DUMP_MAX_NODES", nodes)
    assert main(["parse", "p <-> q <-> r"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(documents, "AST_DUMP_MAX_NODES", nodes - 1)
    assert main(["parse", "p <-> q <-> r"]) == 3


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


def test_agent_count_costs_nothing_where_choice_is_trivial(tmp_path, capsys):
    # the agent count comes from the document: agents without choice
    # entries have the one-cell partition and must cost nothing
    outcomes = []
    for agents in (2, 10 ** 10):
        doc = dump_frame(golden_frame())
        doc["agents"] = agents
        doc["choice"] = {"m0,0": [[0], [1]]}
        path = write(tmp_path, f"f{agents}.json", doc)
        for command in ("check-frame", "classify", "countermodel"):
            start = time.perf_counter()
            code = main([command, path])
            assert time.perf_counter() - start < 1.0, (command, agents)
            out = capsys.readouterr().out.replace(f'"agents": {agents},', '"agents": N,')
            outcomes.append((command, code, out))
    assert outcomes[:3] == outcomes[3:]


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


def test_classify_theta_family_bound(tmp_path, capsys):
    names = [f"m{i:02d}" for i in range(17)]
    chain = list(zip(names, names[1:]))
    path = write(tmp_path, "chain.json",
                 dump_frame(JstitFrame(names, chain, 1, dense=[chain[-1]])))
    assert main(["classify", path]) == 0
    assert json.loads(capsys.readouterr().out)["theta_sizes"][names[-1]] == 1
    leaves = [f"l{i:02d}" for i in range(17)]
    star = [("r", leaf) for leaf in leaves]
    path = write(tmp_path, "star.json",
                 dump_frame(JstitFrame(["r"] + leaves, star, 1, dense=star)))
    assert main(["classify", path]) == 3
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


def test_shared_chain_stays_linear(tmp_path, capsys):
    # 20 links of <-> unfold to about 2^20 nodes; every step below must
    # cost time linear in the distinct subterms, for either value of p
    chain = " <-> ".join(["p"] * 20)
    start = time.perf_counter()
    assert len(Universe.close([pf(chain)]).formulas) < 6 * 20
    for valuation in ([], [["m", "h0"]]):
        path = write(tmp_path, "chain.json", {
            "moments": ["m"], "agents": 1, "universe": {"formulas": [chain]},
            "valuation": {"p": valuation}})
        assert main(["eval", "--at", "m,h0", "--formula", chain, path]) == 0
        assert capsys.readouterr().out == "true\n"
        assert main(["check-model", path]) == 0
        assert capsys.readouterr().out == "0 violation(s), 0 warning(s)\n"
    assert time.perf_counter() - start < 1.0


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


def every_kind_proof_doc():
    """A proof with a line of every justification kind and a cs block."""
    proof = Proof([
        (pf("p -> p"), Axiom()),
        (pf("(p -> p) -> (q -> q)"), Axiom("A0")),
        (pf("q -> q"), MP(1, 2)),
        (pf("K (q -> q)"), KNec(3)),
        (pf("Box (p -> p)"), BoxNec(1)),
        (pf("[1] (p -> p)"), CstitNec(1, 1)),
        (pf("c : (p -> p)"), RCS()),
        (pf("K (Box E x | ~Box E y) -> (Box E x | ~Box E y)"), Axiom("A7")),
        (pf("K (Box E x | ~Box E y) -> (E x | ~E y)"), RD(8)),
    ])
    cs = documents.load_cs([{"chain": ["c"], "formula": "p -> p"}])
    return dump_proof(proof, cs)


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


def test_verify_proof_negative_agent_is_bad_input(tmp_path, capsys):
    doc = {"lines": [
        {"formula": "p -> p", "just": {"kind": "axiom"}},
        {"formula": "[0] (p -> p)", "just": {"kind": "cstitnec", "i": 1, "agent": -1}},
    ]}
    path = write(tmp_path, "p.json", doc)
    assert main(["verify-proof", "--allow-modal-necessitation", path]) == 2
    assert capsys.readouterr().err == (
        "error: line 2.just: agent index must be a nonnegative int, got -1\n")


@pytest.mark.parametrize("just,message", [
    ({"kind": "knec", "i": "one"}, "line 2.just.i must be an integer"),
    ({"kind": "mp", "i": 1}, "line 2.just is missing the 'j' key"),
    ({"kind": "axiom", "scheme": 7}, "line 2.just.scheme must be a string"),
    ({"kind": "axiom", "scheme": "A11"}, "line 2.just: unknown axiom scheme 'A11'"),
    ({"kind": ["knec"], "i": 1}, "line 2.just.kind ['knec'] is not a justification kind"),
])
def test_verify_proof_justification_field_errors(tmp_path, capsys, just, message):
    doc = target_proof_doc()
    doc["lines"][1]["just"] = just
    path = write(tmp_path, "p.json", doc)
    assert main(["verify-proof", path]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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


def test_search_budget_stops_before_all_whiteboard_subsets(capsys):
    # 2^40 whiteboard subsets at the one moment: only the first few are built
    lhs = " & ".join(f"E x{i}" for i in range(40))
    assert main(["search", "--formula", f"{lhs} -> E x0",
                 "--budget", "1", "--max-moments", "1"]) == 3
    assert "resource bound exceeded" in capsys.readouterr().err


def test_search_budget_stops_before_all_valuations(capsys):
    # 2^40 valuations at the one moment: only the first block is evaluated
    lhs = " & ".join(f"p{i}" for i in range(40))
    assert main(["search", "--formula", f"{lhs} -> p0",
                 "--budget", "1", "--max-moments", "1"]) == 3
    assert "resource bound exceeded" in capsys.readouterr().err


def test_search_stops_at_the_five_moment_star(capsys):
    # the first five-moment tree is the star, whose preorders have 16 free
    # pairs; with one history only the chain (10 free pairs) is searched
    assert main(["search", "--formula", "p -> p", "--max-moments", "5"]) == 3
    assert "free pairs" in capsys.readouterr().err
    assert main(["search", "--formula", "p -> p", "--max-moments", "5",
                 "--max-histories", "1"]) == 0
    assert capsys.readouterr().out == "none within bounds\n"


def test_search_bad_formula(capsys):
    assert main(["search", "--formula", "p ->"]) == 2


@pytest.mark.parametrize("bounds,name", [
    (["--max-moments", "0"], "max_moments"),
    (["--max-histories", "0", "--max-moments", "2"], "max_histories"),
    (["--budget", "-1"], "budget"),
    (["--budget", "0"], "budget"),
])
def test_search_bounds_that_search_nothing_are_bad_input(capsys, bounds, name):
    assert main(["search", "--formula", "p", *bounds]) == 2
    assert f"{name} must be a positive integer" in capsys.readouterr().err


def test_search_without_agents_is_bad_input(capsys):
    assert main(["--ag", "0", "search", "--formula", "p"]) == 2
    assert "agents must be a positive integer" in capsys.readouterr().err


def test_search_agent_bound_respects_global_flag(capsys):
    assert main(["--ag", "1", "search", "--formula", "[0] p -> p",
                 "--max-moments", "1"]) == 0
    assert main(["--ag", "1", "search", "--formula", "[1] p -> p",
                 "--max-moments", "1"]) == 2


# ---------------------------------------------------------------------------
# malformed documents and internal faults

MALFORMED = [
    ("check-model", {"moments": ["r"], "act": [1]}, "act must be an object"),
    ("check-model", {"moments": ["r"], "evidence": ["x"]},
     "evidence must be an object"),
    ("check-model", {"moments": ["r"], "valuation": ["p"]},
     "valuation must be an object"),
    ("verify-proof", {"lines": [{"formula": "p", "just": {"kind": ["axiom"]}}]},
     "is not a justification kind"),
]


@pytest.mark.parametrize("command,doc,message", MALFORMED)
def test_malformed_document_is_bad_input(tmp_path, capsys, command, doc, message):
    path = write(tmp_path, "doc.json", doc)
    assert main([command, path]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


BACKWARD_BRANCHING = {"moments": ["a", "b", "c"], "order": [["a", "c"], ["b", "c"]],
                      "agents": 1}


@pytest.mark.parametrize("command", [
    ["classify"], ["countermodel"], ["countermodel", "--kind", "jstit"],
    ["countermodel", "--kind", "stit"],
])
def test_invalid_frame_is_bad_input(tmp_path, capsys, command):
    path = write(tmp_path, "f.json", BACKWARD_BRANCHING)
    assert main([*command, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("violation[backward-branching] a and b are incomparable below c"
            in captured.err)


def test_one_parser_serves_every_call(tmp_path, capsys):
    path = write(tmp_path, "f.json", dump_frame(golden_frame()))
    runs = [["classify", path], ["parse", "K p -> p"], ["parse", "p ->"],
            ["countermodel", path], ["search", "--help"], ["nosuch"], ["--help"]]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as e:  # --help and argparse's own usage errors
            code = e.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in runs:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    parser = cli._build_parser()
    assert [run(argv) for argv in runs + runs] == fresh + fresh
    assert cli._build_parser() is parser


def test_internal_error_is_not_a_failure(capsys, monkeypatch):
    def broken(args):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(cli, "_cmd_parse", broken)
    assert main(["parse", "p"]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: TypeError: unsupported operand\n"


def test_internal_key_error_is_not_bad_input(capsys, monkeypatch):
    def broken(args):
        raise KeyError("h7")

    monkeypatch.setattr(cli, "_cmd_parse", broken)
    assert main(["parse", "p"]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: KeyError: 'h7'\n"


# ---------------------------------------------------------------------------
# fuzzing: mutated documents never crash the command line

_WORDS = ("r", "m0", "c", "cc", "h0", "h1", "h9", "", "m0,0", "m0,-1", "r/h0",
          "*", "x", "E y", "K p", "[1] p", "x : p", "p ->", "A7", "mp")


def _nested(inner):
    return (st.lists(inner, max_size=3)
            | st.dictionaries(st.sampled_from(_WORDS), inner, max_size=3))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.sampled_from(_WORDS),
    _nested, max_leaves=6)


def _choice_frame_doc():
    doc = dump_frame(golden_frame())
    doc["choice"] = {"m0,0": [[0], [1]]}
    return doc


_SEEDS = {
    # valid frames, and frames that load but break a frame invariant
    # (backward branching, a cycle) or name an unknown moment in "dense"
    "frame": (dump_frame(golden_frame()), _choice_frame_doc(), BACKWARD_BRANCHING,
              {"moments": ["a", "b"], "order": [["a", "b"], ["b", "a"]], "agents": 1},
              {"moments": ["r", "m0"], "order": [["r", "m0"]], "dense": [["m0", "zz"]]}),
    "model": (golden_model_doc(),),
    "proof": (target_proof_doc(), every_kind_proof_doc()),
}


@st.composite
def _mutated(draw, kind):
    """A seed document of the kind with one to three nodes replaced, deleted
    or given an extra key."""
    doc = copy.deepcopy(draw(st.sampled_from(_SEEDS[kind])))
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while True:
            keys = sorted(node) if isinstance(node, dict) else list(range(len(node)))
            if not keys:
                break
            key = draw(st.sampled_from(keys))
            child = node[key]
            if isinstance(child, (dict, list)) and draw(st.booleans()):
                node = child
                continue
            action = draw(st.sampled_from(("replace", "delete", "add")))
            if action == "replace":
                node[key] = draw(_JSON)
            elif action == "delete":
                del node[key]
            elif isinstance(node, dict):
                node[draw(st.sampled_from(_WORDS))] = draw(_JSON)
            else:
                node.append(draw(_JSON))
            break
    return doc


_COMMANDS = {
    "frame": (["check-frame"], ["classify"], ["countermodel"],
              ["countermodel", "--kind", "stit"]),
    "model": (["check-model"],
              ["eval", "--at", "m0,h0", "--formula", "E y"],
              ["eval", "--at", "c,h1", "--formula", "K [1] p"],
              ["eval", "--at", "zz,h0", "--formula", "E x"]),
    "proof": (["verify-proof"], ["verify-proof", "--strict-tautologies"],
              ["verify-proof", "--allow-modal-necessitation"]),
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("kind", sorted(_SEEDS))
def test_mutated_documents_never_crash(fuzz_dir, kind):
    path = str(fuzz_dir / f"{kind}.json")

    @settings(max_examples=100, deadline=None)
    @given(_mutated(kind))
    def run(doc):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for command in _COMMANDS[kind]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*command, path])
            # exit 4 is a fault in jastit, never an answer to a document
            assert code in range(4), (command, doc, code, err.getvalue())
            assert "Traceback" not in err.getvalue(), (command, doc)

    run()


# each justification kind's own fields, drawn odd: negative, huge, boolean,
# string, null, float, or missing
_JUSTIFICATION_CLASSES = {
    "axiom": Axiom, "mp": MP, "knec": KNec, "rd": RD, "rcs": RCS,
    "boxnec": BoxNec, "cstitnec": CstitNec,
}
_ODD_VALUES = (-1, -(2 ** 63), 2 ** 63, 10 ** 30, True, False, "1", "", "A7",
               None, 1.5, 0, 1, 2, 9)


@st.composite
def _mutated_justification(draw, kind):
    """The every-kind proof with one block of the kind changed: one or two
    of its fields (or a key of another kind) set to an odd value or
    deleted."""
    doc = every_kind_proof_doc()
    just = draw(st.sampled_from([line["just"] for line in doc["lines"]
                                 if line["just"]["kind"] == kind]))
    names = [f.name for f in dataclasses.fields(_JUSTIFICATION_CLASSES[kind])]
    _set_odd_fields(draw, just, names + ["i", "j", "agent", "scheme"])
    return doc


def _set_odd_fields(draw, block: dict, names: list) -> None:
    """Set one or two of the named fields of block to an odd value, or
    delete them."""
    for name in draw(st.lists(st.sampled_from(names), min_size=1, max_size=2)):
        if draw(st.booleans()):
            block[name] = draw(st.sampled_from(_ODD_VALUES))
        else:
            block.pop(name, None)


@pytest.mark.parametrize("kind", sorted(_JUSTIFICATION_CLASSES))
def test_mutated_justification_fields_never_crash(fuzz_dir, kind):
    path = str(fuzz_dir / f"{kind}.json")

    @settings(max_examples=60, deadline=None)
    @given(_mutated_justification(kind))
    def run(doc):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for command in _COMMANDS["proof"]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*command, path])
            assert code in (0, 1, 2), (command, doc, code, err.getvalue())

    run()


# the fields of frame and model documents and of witness blocks, drawn odd
# in the same way
_FRAME_FIELDS = ["moments", "order", "agents", "choice", "r", "re", "dense"]
_FIELD_SEEDS = {
    "frame": (_FRAME_FIELDS, (dump_frame(golden_frame()), _choice_frame_doc())),
    "model": (_FRAME_FIELDS + ["act", "evidence", "valuation", "universe"],
              (golden_model_doc(),)),
    "witness": (["kind", "m0", "m1", "h0", "h1", "h_prime", "s"],
                ({"kind": "reg", "m0": "m0", "m1": "c", "h_prime": "h1", "s": ["c"]},
                 {"kind": "mixsucc", "m0": "m0", "m1": "c", "h0": "h0", "h1": "h1"})),
}


@st.composite
def _mutated_fields(draw, kind):
    names, seeds = _FIELD_SEEDS[kind]
    doc = copy.deepcopy(draw(st.sampled_from(seeds)))
    _set_odd_fields(draw, doc, names)
    return doc


@pytest.mark.parametrize("kind", sorted(_FIELD_SEEDS))
def test_mutated_document_fields_never_crash(fuzz_dir, kind):
    path = str(fuzz_dir / f"fields-{kind}.json")
    frame_path = write(fuzz_dir, "fields-witness-frame.json", dump_frame(golden_frame()))

    @settings(max_examples=60, deadline=None)
    @given(_mutated_fields(kind))
    def run(doc):
        if kind == "witness":
            commands = [["countermodel", "--witness", json.dumps(doc), frame_path],
                        ["countermodel", "--kind", "stit", "--witness", json.dumps(doc),
                         frame_path]]
        else:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            commands = [[*command, path] for command in _COMMANDS[kind]]
        for command in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(command)
            assert code in range(4), (command, doc, code, err.getvalue())
            assert "Traceback" not in err.getvalue(), (command, doc)

    run()
