"""Command line front end.

Eight subcommands over JSON documents:

    parse FORMULA                  print the core constructor tree
    check-frame FILE               frame constraint diagnostics
    classify FILE                  mixed-successor / regularity report
    check-model FILE [--cs FILE]   model constraint diagnostics
    eval FILE --at m,h --formula F truth at a moment-history pair
    countermodel FILE [...]        build the falsifying model for a witness
    verify-proof FILE [...]        per-line Hilbert proof verdicts
    search --formula F [...]       bounded counter-model search

Exit codes: 0 the checked property holds (or the report succeeded), 1 the
property fails or a counter-model was found, 2 the input was malformed,
3 a resource bound was exceeded, 4 an internal error (a fault in jastit,
reported in one line on stderr rather than as a traceback). Output is
deterministic for identical inputs: JSON is emitted with sorted keys and
history ids are canonical.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from .calculus import check_cs, verify_proof
from .countermodels import (
    MixsuccWitness, RegWitness, WitnessError, build_jstit_countermodel,
    build_stit_countermodel, build_temporal_countermodel,
    complete_mixsucc_witness,
)
from .diagnostics import ResourceBoundExceeded, VIOLATION, violations
from .documents import (
    DocumentError, ast_dump, canonical_json, countermodel_document,
    dump_model, load_cs, load_frame, load_model, load_proof, load_witness,
)
from .frames import is_mixsucc, is_regular, is_unirelational, theta, validate_frame
from .models import OutOfUniverseError, validate_model
from .semantics import Index, SearchBounds, find_countermodel, satisfies
from .syntax import ParseError, check_agents, parse_formula, render

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_INPUT = 2
EXIT_BOUND = 3
EXIT_INTERNAL = 4

# only the package's own input errors: any other exception is a fault in
# jastit and exits 4
_INPUT_ERRORS = (DocumentError, ParseError, OutOfUniverseError, WitnessError,
                 json.JSONDecodeError, OSError)


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as e:
            raise DocumentError(f"{path} is not UTF-8 text: {e}") from e


def _agents_default(args: argparse.Namespace) -> int:
    return args.ag if args.ag is not None else 2


def _load_valid_frame(doc, args: argparse.Namespace):
    """The document's frame; a DocumentError naming its violations when
    validate_frame reports any, since the classifiers and builders assume
    a well-formed frame."""
    frame = load_frame(doc, default_agents=_agents_default(args))
    bad = violations(validate_frame(frame))
    if bad:
        raise DocumentError("frame violates its invariants:\n  "
                            + "\n  ".join(map(str, bad)))
    return frame


def _print_diagnostics(diags) -> int:
    """Print diagnostics and return the number of violations."""
    for d in diags:
        print(d)
    return sum(1 for d in diags if d.severity == VIOLATION)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_parse(args: argparse.Namespace) -> int:
    f = parse_formula(args.formula)
    if args.ag is not None:
        check_agents(f, args.ag)
    print(ast_dump(f))
    return EXIT_HOLDS


def _cmd_check_frame(args: argparse.Namespace) -> int:
    frame = load_frame(_read_json(args.file), default_agents=_agents_default(args))
    diags = validate_frame(frame)
    bad = _print_diagnostics(diags)
    print(f"{bad} violation(s), {len(diags) - bad} warning(s)")
    return EXIT_FAILS if bad else EXIT_HOLDS


def _cmd_classify(args: argparse.Namespace) -> int:
    frame = _load_valid_frame(_read_json(args.file), args)
    mix_ok, mix_wit = is_mixsucc(frame)
    reg_ok, reg_wit = is_regular(frame)
    report = {
        "mixsucc": {
            "holds": mix_ok,
            "witness": None if mix_ok else {"m0": mix_wit[0], "m1": mix_wit[1]},
        },
        "regular": {
            "holds": reg_ok,
            "witness": None if reg_ok else {
                "m0": reg_wit[0], "m1": reg_wit[1],
                "h_prime": reg_wit[2], "s": sorted(reg_wit[3]),
            },
        },
        "unirelational": is_unirelational(frame),
        "theta_sizes": {m: len(theta(frame, m)) for m in frame.moments},
    }
    print(canonical_json(report), end="")
    return EXIT_HOLDS


def _cmd_check_model(args: argparse.Namespace) -> int:
    model = load_model(_read_json(args.file), default_agents=_agents_default(args))
    cs = None
    diags = []
    if args.cs is not None:
        cs = load_cs(_read_json(args.cs))
        diags.extend(check_cs(cs))
    diags.extend(validate_model(model, cs))
    bad = _print_diagnostics(diags)
    print(f"{bad} violation(s), {len(diags) - bad} warning(s)")
    return EXIT_FAILS if bad else EXIT_HOLDS


def _cmd_eval(args: argparse.Namespace) -> int:
    model = load_model(_read_json(args.file), default_agents=_agents_default(args))
    moment, sep, history = args.at.partition(",")
    if not sep:
        raise DocumentError('--at must be of the form "moment,history"')
    value = satisfies(model, Index(moment, history), parse_formula(args.formula))
    print("true" if value else "false")
    return EXIT_HOLDS if value else EXIT_FAILS


def _cmd_countermodel(args: argparse.Namespace) -> int:
    doc = _read_json(args.file)
    frame = _load_valid_frame(doc, args)
    kind = args.kind
    if kind == "auto":
        kind = "jstit" if ("r" in doc or "re" in doc) else "stit"

    w = load_witness(json.loads(args.witness)) if args.witness else None
    if kind in ("stit", "temporal"):
        if w is None:
            holds, pair = is_mixsucc(frame)
            if holds:
                print("frame satisfies the mixed-successor condition; "
                      "nothing to falsify")
                return EXIT_HOLDS
            w = complete_mixsucc_witness(frame, *pair)
        if not isinstance(w, MixsuccWitness):
            raise DocumentError(f"{kind} counter-models need a mixsucc witness")
        if kind == "stit":
            model, idx = build_stit_countermodel(frame, w)
        else:
            model, idx = build_temporal_countermodel(
                frame.temporal_reduct(), w, agents=frame.agents)
    else:
        if w is None:
            holds, wit = is_regular(frame)
            if holds:
                print("frame is regular; nothing to falsify")
                return EXIT_HOLDS
            w = RegWitness(wit[0], wit[1], wit[2], frozenset(wit[3]))
        if not isinstance(w, RegWitness):
            raise DocumentError("jstit counter-models need a reg witness")
        model, idx = build_jstit_countermodel(frame, w)

    print(canonical_json(countermodel_document(model, idx, w)), end="")
    return EXIT_FAILS


def _cmd_verify_proof(args: argparse.Namespace) -> int:
    proof, cs = load_proof(_read_json(args.file))
    cs_diags = check_cs(cs)
    if _print_diagnostics(cs_diags):
        print("constant specification rejected", file=sys.stderr)
        return EXIT_INPUT
    verdict = verify_proof(
        proof, cs,
        tautology_mode="strict" if args.strict_tautologies else "oracle",
        allow_modal_necessitation=args.allow_modal_necessitation)
    for v in verdict.lines:
        status = "ok" if v.ok else "FAIL"
        print(f"line {v.index}: {status} - {v.message}")
    print("proof accepted" if verdict.ok else "proof rejected")
    return EXIT_HOLDS if verdict.ok else EXIT_FAILS


def _cmd_search(args: argparse.Namespace) -> int:
    f = parse_formula(args.formula)
    bounds = SearchBounds(
        max_moments=args.max_moments,
        max_histories=args.max_histories,
        evidence_mode=args.evidence_mode,
        agents=_agents_default(args),
        budget=args.budget,
    )
    found = find_countermodel(f, bounds)
    if found is None:
        print("none within bounds")
        return EXIT_HOLDS
    model, idx = found
    doc = dump_model(model)
    doc["formula"] = render(f)
    doc["index"] = [idx.moment, idx.history]
    print(canonical_json(doc), end="")
    return EXIT_FAILS


# ---------------------------------------------------------------------------
# argument plumbing

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser as it was
    top = argparse.ArgumentParser(
        prog="jastit",
        description="Finite-structure toolkit for the stit logic of "
                    "justification announcements.")
    top.add_argument("--ag", type=int, default=None, metavar="N",
                     help="agent count used when a document does not "
                          "declare one (default 2)")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="print the core constructor tree")
    p.add_argument("formula")

    p = sub.add_parser("check-frame", help="frame constraint diagnostics")
    p.add_argument("file")

    p = sub.add_parser("classify", help="frame condition report")
    p.add_argument("file")

    p = sub.add_parser("check-model", help="model constraint diagnostics")
    p.add_argument("file")
    p.add_argument("--cs", metavar="FILE",
                   help="constant specification entries to check normality against")

    p = sub.add_parser("eval", help="evaluate a formula at a moment-history pair")
    p.add_argument("file")
    p.add_argument("--at", required=True, metavar="m,h")
    p.add_argument("--formula", required=True)

    p = sub.add_parser("countermodel",
                       help="build the falsifying model for a frame witness")
    p.add_argument("file")
    p.add_argument("--witness", metavar="JSON",
                   help="witness object; derived from the classifiers when omitted")
    p.add_argument("--kind", choices=("auto", "stit", "temporal", "jstit"),
                   default="auto")

    p = sub.add_parser("verify-proof", help="check a Hilbert proof line by line")
    p.add_argument("file")
    p.add_argument("--strict-tautologies", action="store_true",
                   help="match propositional axioms against the fixed "
                        "ten-scheme basis instead of the tautology oracle")
    p.add_argument("--allow-modal-necessitation", action="store_true",
                   help="accept boxnec/cstitnec lines (not rules of the system)")

    p = sub.add_parser("search", help="bounded counter-model search")
    p.add_argument("--formula", required=True)
    p.add_argument("--max-moments", type=int, default=3, metavar="N")
    p.add_argument("--max-histories", type=int, default=4, metavar="N")
    p.add_argument("--evidence-mode", choices=("everything", "empty"),
                   default="everything")
    p.add_argument("--budget", type=int, default=200_000, metavar="N")

    return top


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    # looked up on each call, not bound into the cached parser
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        if 0 <= e.pos <= len(e.text):
            print(f"  {e.text}", file=sys.stderr)
            print(f"  {' ' * e.pos}^", file=sys.stderr)
        return EXIT_INPUT
    except ResourceBoundExceeded as e:
        print(f"resource bound exceeded: {e}", file=sys.stderr)
        return EXIT_BOUND
    except _INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
