"""Survey frame classifications across density annotation rates.

Samples random annotated branching-time frames at several density
probabilities and tabulates how often the mixed-successor and regularity
conditions hold, together with support-family statistics. The point of
the table is the contrast: with no density annotations every tree
satisfies both conditions; as annotations appear, both conditions start
failing and the support families fatten.
"""

import argparse
import random
import sys

from jastit.frames import (
    JstitFrame, TemporalFrame, is_mixsucc, is_regular, theta,
)
from jastit.generators import random_preorder_extension, tree_data


def random_frame(rng: random.Random, args, dense_p: float) -> JstitFrame:
    n = rng.randint(args.min_moments, args.max_moments)
    names, covers, dense = tree_data(rng, n, dense_p)
    # grow r and re beyond the temporal order, keeping leq <= r <= re
    base = TemporalFrame(names, covers)
    r = random_preorder_extension(rng, base, base.leq,
                                  rng.randint(0, args.extra_pairs))
    re = random_preorder_extension(rng, base, r,
                                   rng.randint(0, args.extra_pairs))
    return JstitFrame(names, covers, agents=2, dense=dense, r=r, re=re)


def survey_cell(rng: random.Random, args, dense_p: float) -> dict:
    mix = reg = inhabited = families = 0
    for _ in range(args.frames):
        f = random_frame(rng, args, dense_p)
        if is_mixsucc(f)[0]:
            mix += 1
        if is_regular(f)[0]:
            reg += 1
        for m in f.moments:
            fam = theta(f, m)
            families += len(fam)
            if fam:
                inhabited += 1
    return {
        "dense_p": dense_p,
        "mixsucc": mix / args.frames,
        "regular": reg / args.frames,
        "inhabited": inhabited,
        "families": families,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--frames", type=int, default=60,
                    help="frames per density cell")
    ap.add_argument("--min-moments", type=int, default=3)
    ap.add_argument("--max-moments", type=int, default=8)
    ap.add_argument("--dense-grid", default="0,0.25,0.5,0.75",
                    help="comma list of annotation probabilities")
    ap.add_argument("--extra-pairs", type=int, default=2,
                    help="max extra epistemic relation pairs")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    grid = tuple(float(x) for x in args.dense_grid.split(","))

    print(f"{args.frames} frames per cell, {args.min_moments}-{args.max_moments} "
          "moments, 2 agents")
    header = f"{'dense_p':>8} {'mixsucc':>9} {'regular':>9} " \
             f"{'moments w/ theta':>17} {'total families':>15}"
    print(header)
    print("-" * len(header))
    rng = random.Random(args.seed)
    for dense_p in grid:
        row = survey_cell(rng, args, dense_p)
        print(f"{row['dense_p']:>8.2f} {row['mixsucc']:>8.0%} "
              f"{row['regular']:>8.0%} {row['inhabited']:>17d} "
              f"{row['families']:>15d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
