"""Replay the target falsification on batches of generated frames.

Each round builds a frame that breaks the mixed-successor condition (for
the stit and temporal kinds: a branching moment whose only cover toward
the witness moment carries a density annotation) or the regularity
condition (jstit kind), constructs the matching counter-model, validates
it, and evaluates the target implication at the returned index. One line
per round, a tally at the end, nonzero exit if any round fails to
falsify or validate.
"""

import argparse
import random
import sys

from jastit.countermodels import (
    RegWitness,
    TARGET_FORMULA,
    build_jstit_countermodel,
    build_stit_countermodel,
    build_temporal_countermodel,
    complete_mixsucc_witness,
)
from jastit.diagnostics import violations
from jastit.documents import canonical_json, countermodel_document
from jastit.frames import JstitFrame, is_mixsucc, is_regular
from jastit.generators import mixsucc_witness_frame, tree_data
from jastit.models import validate_model
from jastit.semantics import satisfies
from jastit.syntax import render


def moment_count(rng: random.Random, args) -> int:
    return rng.randint(max(args.min_moments, 4), args.max_moments)


def irregular_frame(rng: random.Random, args) -> JstitFrame:
    while True:
        names, covers, dense = tree_data(rng, moment_count(rng, args), 0.5)
        frame = JstitFrame(names, covers, agents=2, dense=dense)
        if not is_regular(frame)[0]:
            return frame


def one_round(rng: random.Random, args):
    if args.kind == "jstit":
        frame = irregular_frame(rng, args)
        _, wit = is_regular(frame)
        w = RegWitness(*wit)
        model, idx = build_jstit_countermodel(frame, w)
    else:
        frame, _, _ = mixsucc_witness_frame(rng, moment_count(rng, args))
        _, pair = is_mixsucc(frame)
        w = complete_mixsucc_witness(frame, *pair)
        if args.kind == "stit":
            model, idx = build_stit_countermodel(frame, w)
        else:
            model, idx = build_temporal_countermodel(
                frame.temporal_reduct(), w, agents=2)
    bad = violations(validate_model(model))
    falsified = not satisfies(model, idx, TARGET_FORMULA)
    return model, idx, w, bad, falsified


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kind", choices=("stit", "temporal", "jstit"),
                    default="stit")
    ap.add_argument("--count", type=int, default=20)
    ap.add_argument("--min-moments", type=int, default=4)
    ap.add_argument("--max-moments", type=int, default=9)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--dump", metavar="PATH",
                    help="write the last counter-model document here")
    args = ap.parse_args(argv)

    print(f"target: {render(TARGET_FORMULA)}")
    rng = random.Random(args.seed)
    ok = 0
    last = None
    for i in range(args.count):
        model, idx, w, bad, falsified = one_round(rng, args)
        last = (model, idx, w)
        status = "falsified" if falsified and not bad else "FAILED"
        print(f"[{i:3d}] {len(model.frame.moments)} moments, "
              f"witness {w.m0} < {w.m1}, {status} at ({idx.moment}, "
              f"{idx.history}), {len(bad)} violation(s)")
        if falsified and not bad:
            ok += 1

    print(f"{ok}/{args.count} rounds falsified the target on a validated model")
    if args.dump and last is not None:
        model, idx, w = last
        with open(args.dump, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(countermodel_document(model, idx, w)))
        print(f"wrote last counter-model document to {args.dump}")
    return 0 if ok == args.count else 1


if __name__ == "__main__":
    sys.exit(main())
