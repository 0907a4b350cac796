#!/usr/bin/env python3
"""Exhaustive dual-evaluator scan: direct metric semantics vs compiled core.

Builds the operator-grid formula space (every metric operator over a
canonical interval grid and a nested-argument pool) and checks, over all
traces within bounds, oracle agreement in both worlds plus the persistence
and totality laws.  Prints a summary; exits nonzero on any violation.
"""

import argparse
import sys
import time

from mdel.formulas import Atom
from mdel.laws import (
    agreement_scan, interval_grid, nested_argument_pool, operator_space,
)
from mdel.parser import parse_alphabet
from mdel.traces import TraceBounds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alphabet", default="a", help="comma-separated atoms")
    ap.add_argument("--lambda-max", type=int, default=3)
    ap.add_argument("--max-gap", type=int, default=3)
    ap.add_argument("--future-bound", type=int, default=3)
    ap.add_argument("--past-bound", type=int, default=3)
    ap.add_argument("--interval-stride", type=int, default=1,
                    help="take every n-th interval from the grids")
    ap.add_argument("--max-args", type=int, default=0,
                    help="cap the nested-argument pool (0 = no cap)")
    args = ap.parse_args()

    try:
        atoms = parse_alphabet(args.alphabet)
        bounds = TraceBounds(frozenset(atoms), args.lambda_max, args.max_gap)
    except ValueError as exc:
        ap.error(str(exc))
    if args.interval_stride < 1:
        ap.error("--interval-stride must be at least 1")
    if args.max_args < 0:
        ap.error("--max-args must be at least 0")
    future = interval_grid(range(0, args.future_bound + 1))[::args.interval_stride]
    past = interval_grid(range(-args.past_bound, args.past_bound + 1))
    past = past[::args.interval_stride]
    pool = list(dict.fromkeys(nested_argument_pool(atoms)))
    if args.max_args:
        pool = pool[:args.max_args]
    first = Atom(atoms[0])
    pairs = [(first, x) for x in pool[:10]] + [(x, first) for x in pool[:5]]
    space = operator_space(atoms, future, past, pool, pairs)

    print(f"scanning {len(space)} formulas over {bounds.describe()} "
          f"({len(future)} future / {len(past)} past intervals, "
          f"{len(pool)} nested arguments)")
    start = time.perf_counter()
    out = agreement_scan(space, bounds)
    elapsed = time.perf_counter() - start
    print(f"{out.traces} traces, {out.checks} position checks in {elapsed:.1f}s")
    for label, bad in (("agreement", out.agreement_violations),
                       ("persistence", out.persistence_violations),
                       ("totality", out.totality_violations)):
        print(f"  {label} violations: {len(bad)}")
        for cex in bad[:3]:
            print(f"    {cex}")
    return 0 if out.clean else 1


if __name__ == "__main__":
    sys.exit(main())
