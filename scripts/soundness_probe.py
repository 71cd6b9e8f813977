"""Hunt for counter-models to random axiom scheme instances.

Every instance of the ten axiom groups should be valid, so the bounded
counter-model search must come back empty on each one. The probe draws
random instances per scheme, runs the search, and reports per-scheme
totals, each with the scheme's wall time and the process's peak
resident set size so far. A found counter-model is a soundness bug: its
document is printed and the exit code is nonzero. Hitting the
enumeration budget only narrows the claim and is reported separately.
"""

import argparse
import random
import resource
import sys
import time

from jastit.calculus import SCHEME_IDS, match_axiom
from jastit.diagnostics import ResourceBoundExceeded
from jastit.documents import canonical_json, dump_model
from jastit.generators import scheme_instance
from jastit.semantics import SearchBounds, find_countermodel
from jastit.syntax import (
    And, Announced, Box, Cstit, Knows, Not, ProofVar, PropVar, render,
)

POLYS = (ProofVar("x"), ProofVar("y"))


def filler(rng: random.Random, agents: int, depth: int = 2):
    """Small random formula to substitute into a scheme; small universes
    keep the bounded search tractable."""
    if depth == 0 or rng.random() < 0.4:
        return PropVar(rng.choice("pq"))
    k = rng.randrange(6)
    sub = filler(rng, agents, depth - 1)
    if k == 0:
        return Not(sub)
    if k == 1:
        return And(sub, filler(rng, agents, depth - 1))
    if k == 2:
        return Box(sub)
    if k == 3:
        return Knows(sub)
    if k == 4:
        return Cstit(rng.randrange(agents), sub)
    return Announced(rng.choice(POLYS))


def peak_rss_mb() -> float:
    """The process's peak resident set size so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--per-scheme", type=int, default=25)
    ap.add_argument("--agents", type=int, default=2)
    ap.add_argument("--max-moments", type=int, default=2)
    ap.add_argument("--budget", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--schemes", default=",".join(SCHEME_IDS),
                    help="comma list, e.g. A4,A5,A6")
    args = ap.parse_args(argv)
    schemes = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
    unknown = [s for s in schemes if s not in SCHEME_IDS]
    if unknown:
        ap.error(f"unknown scheme(s): {', '.join(unknown)}")

    rng = random.Random(args.seed)
    bounds = SearchBounds(max_moments=args.max_moments, agents=args.agents,
                          budget=args.budget)
    found = 0
    for scheme in schemes:
        clear = bound_hits = 0
        t0 = time.perf_counter()
        for _ in range(args.per_scheme):
            f = scheme_instance(rng, scheme, args.agents, filler,
                                lambda r: r.choice(POLYS))
            assert match_axiom(f) is not None, render(f)
            try:
                hit = find_countermodel(f, bounds)
            except ResourceBoundExceeded:
                bound_hits += 1
                continue
            if hit is None:
                clear += 1
            else:
                found += 1
                model, idx = hit
                print(f"{scheme}: COUNTER-MODEL for {render(f)} "
                      f"at ({idx.moment}, {idx.history})")
                print(canonical_json(dump_model(model)), end="")
        dt = time.perf_counter() - t0
        note = f", {bound_hits} hit the budget" if bound_hits else ""
        print(f"{scheme}: {clear}/{args.per_scheme} instances clear{note} "
              f"({dt:.2f}s, {peak_rss_mb():.0f} MB)")

    if found:
        print(f"{found} counter-model(s) found: soundness is broken")
        return 1
    print("no counter-models found")
    return 0


if __name__ == "__main__":
    sys.exit(main())
