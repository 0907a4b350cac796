"""One repetition of a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC.json [--trace] | --import-only

Times ``import mdel.cli`` first, before anything else imports ``mdel``
(or ``json`` and ``argparse``, which the CLI imports), then loads the
workload's inputs, runs the timed region once, judges the answers, and
prints one JSON line.  Exit code 3 means a correctness gate tripped.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: list) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    start = time.perf_counter()
    import mdel.cli  # noqa: F401
    setup_s = time.perf_counter() - start

    import json
    import resource

    if argv == ["--import-only"]:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from tracer import Tracer
    from workloads import WORKLOADS, GateError

    with open(argv[0], encoding="utf-8") as fh:
        spec = json.load(fh)
    workload = WORKLOADS[spec["workload"]]
    loaded = workload.load(spec["input"])
    tracer = Tracer() if "--trace" in argv else None
    if tracer:
        tracer.install()
    start = time.perf_counter()
    result = workload.run(loaded)
    verdict_s = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
    try:
        attempted, failed = workload.judge(spec["input"], result)
    except GateError as exc:
        print(f"correctness gate ({spec['workload']}): {exc}", file=sys.stderr)
        return 3
    latencies = (workload.latencies(spec["input"], result) if workload.latencies
                 else [verdict_s])
    doc = {"setup_s": setup_s, "verdict_s": verdict_s,
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "attempted": attempted, "failed": failed, "latencies_s": latencies}
    if tracer:
        doc["layers"] = tracer.layer_metrics()
        doc["spans"] = tracer.spans
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
