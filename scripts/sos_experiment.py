#!/usr/bin/env python3
"""Enumerate the rescue-scenario equilibrium models and classify their shapes.

Two runs:

1. the desk-size rescaled constants (40->4, 50->5, 10->1, 2->1) over the
   full bounded trace space (lambda <= 5, gaps <= 3 by default);
2. a spot check at the original minute constants with time stamps drawn
   from the curated grid {0, 40, 45, 50, 51, 52}.

Every enumerated model is printed with its shape family; the summary lists
per-family counts.  Exits nonzero if any model fails to classify.
"""

import argparse
import sys
import time

from mdel.equilibrium import enumerate_equilibrium
from mdel.sos import (
    ALPHABET, CURATED_GRID, ORIGINAL, RESCALED, classify, curated_space, sos_theory,
)
from mdel.traces import TraceBounds


def render(model) -> str:
    states = ".".join("{" + ",".join(sorted(s)) + "}" for s in model.there)
    return f"tau={list(model.tau)} {states}"


def run_rescaled(lambda_max: int, max_gap: int, verbose: bool) -> dict:
    theory = sos_theory(RESCALED)
    bounds = TraceBounds(ALPHABET, lambda_max, max_gap, total_only=True)
    counts: dict = {}
    start = time.perf_counter()
    for result in enumerate_equilibrium(theory, bounds):
        fam = classify(result.model, RESCALED)
        counts[fam] = counts.get(fam, 0) + 1
        if verbose:
            print(f"  [{fam}] {render(result.model)}")
    elapsed = time.perf_counter() - start
    print(f"rescaled run (lambda<={lambda_max}, gap<={max_gap}): "
          f"{sum(counts.values())} models in {elapsed:.1f}s -> {counts}")
    return counts


def run_grid(verbose: bool) -> dict:
    counts: dict = {}
    start = time.perf_counter()
    for result in enumerate_equilibrium(sos_theory(ORIGINAL), curated_space(CURATED_GRID)):
        fam = classify(result.model, ORIGINAL)
        counts[fam] = counts.get(fam, 0) + 1
        if verbose:
            print(f"  [{fam}] {render(result.model)}")
    elapsed = time.perf_counter() - start
    print(f"curated grid run (tau in {list(CURATED_GRID)}): "
          f"{sum(counts.values())} models in {elapsed:.1f}s -> {counts}")
    return counts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lambda-max", type=int, default=5)
    ap.add_argument("--max-gap", type=int, default=3)
    ap.add_argument("--skip-grid", action="store_true")
    ap.add_argument("-v", "--verbose", action="store_true")
    args = ap.parse_args()
    if args.lambda_max < 0:
        ap.error("--lambda-max must be at least 0")
    if args.max_gap < 1:
        ap.error("--max-gap must be at least 1")

    counts = run_rescaled(args.lambda_max, args.max_gap, args.verbose)
    if not args.skip_grid:
        counts_grid = run_grid(args.verbose)
        if None in counts_grid:
            print("error: unclassified equilibrium models in the grid run")
            return 1
    if None in counts:
        print("error: unclassified equilibrium models in the rescaled run")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
