"""The three benchmark workloads: input generation, the timed call, and the
correctness gate for each.

Each workload is four functions:

- ``prepare(workdir, seed)`` writes the inputs and returns a JSON-able spec.
  It runs in the benchmark's parent process, never in a timed worker, so
  reference answers computed here warm none of the worker's caches.
- ``load(spec)`` turns the spec into call arguments, in the worker, before
  the timed region.
- ``run(loaded)`` is the timed region: calls into ``mdel`` and nothing else.
  It looks entry points up on their module at call time, so that the
  tracer's wrappers are seen.
- ``judge(spec, result)`` runs after the timed region.  It returns the
  number of operations attempted and failed, and raises :class:`GateError`
  on a wrong answer for a well-formed input.  A wrong answer aborts the run;
  it is never counted as a failed operation.

Importing this module imports ``mdel``, so a worker imports it only after
timing the package import.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time
from typing import Callable, NamedTuple, Optional

from mdel import cli, laws
from mdel.formulas import Atom, compile_to_core, is_metric, pretty_print
from mdel.laws import interval_grid, nested_argument_pool, operator_space, random_formula
from mdel.mht import mht_satisfies
from mdel.semantics import HERE, THERE
from mdel.sos import RESCALED, classify, sos_theory
from mdel.traces import TraceBounds, load_trace


class GateError(AssertionError):
    """A workload returned a wrong answer for a well-formed input."""


def _call_main(argv: list, out: io.StringIO):
    """Run the CLI with stdout captured; an escaped exception becomes its name."""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(list(argv))
        except Exception as exc:
            return type(exc).__name__


# -- sos-equilibrium -------------------------------------------------------------
#
# `mdel models` on the rescaled rescue theory.  lambda<=4 with gaps<=2 is
# 34,953 total traces.  The answers were recorded at this size: no late-help
# model fits in four positions with gaps of at most 2, and 'unattended' is
# unrealizable at the rescaled constants.

SOS_ARGS = ("--alphabet", "a,s,h", "--lambda-max", "4", "--max-gap", "2", "--json")
SOS_COUNTS = {"3": 1, "4": 5}
SOS_FAMILIES = {"accident-at-end": 4, "no-transition": 1, "immediate-help": 1}


def prepare_sos(workdir: str, seed: int) -> dict:
    path = os.path.join(workdir, "sos.mdel")
    with open(path, "w", encoding="utf-8") as fh:
        for f in sos_theory(RESCALED).formulas:
            fh.write(pretty_print(f) + "\n")
    return {"argv": ["models", path, *SOS_ARGS]}


def run_sos(spec: dict) -> dict:
    out = io.StringIO()
    return {"code": _call_main(spec["argv"], out), "stdout": out.getvalue()}


def judge_sos(spec: dict, result: dict, counts=SOS_COUNTS, families=SOS_FAMILIES):
    if result["code"] != 0:
        return 1, 1
    doc = json.loads(result["stdout"])
    if doc["counts"] != counts or doc["total"] != sum(counts.values()):
        raise GateError(f"equilibrium counts {doc['counts']} != {counts}")
    got: dict = {}
    for model in doc["models"]:
        family = classify(load_trace(model), RESCALED)
        got[family] = got.get(family, 0) + 1
    if got != families:
        raise GateError(f"model families {got} != {families}")
    return 1, 0


# -- oracle-agreement -----------------------------------------------------------
#
# Criterion 3's |A|=2 operator space, built exactly as the acceptance test
# builds it, thinned to every fourth formula (443 of 1,770) and scanned over
# all HT traces with |A|=2, lambda<=2 and gaps<=3.

ORACLE_BOUNDS = TraceBounds(frozenset("ab"), 2, 3)
ORACLE_TRACES = 253
ORACLE_CHECKS = 219_285


def oracle_space() -> tuple:
    future = interval_grid(range(0, 4))
    past = interval_grid(range(-3, 4))
    a, b = Atom("a"), Atom("b")
    args2 = list(dict.fromkeys(nested_argument_pool(["a", "b"])))
    pairs2 = [(a, x) for x in args2[:6]] + [(x, b) for x in args2[:4]]
    space2 = operator_space(["a", "b"], future[::3], past[::6], args2[:12], pairs2)
    return space2[::4]


def run_oracle(formulas: tuple) -> dict:
    try:
        return {"outcome": laws.agreement_scan(formulas, ORACLE_BOUNDS)}
    except Exception as exc:
        return {"outcome": None, "error": type(exc).__name__}


def judge_oracle(spec: dict, result: dict, traces=ORACLE_TRACES, checks=ORACLE_CHECKS):
    out = result["outcome"]
    if out is None:
        return 1, 1
    if not out.clean:
        bad = out.agreement_violations + out.persistence_violations + out.totality_violations
        raise GateError(f"agreement scan found violations: {bad[:1]}")
    if (out.traces, out.checks) != (traces, checks):
        raise GateError(f"scanned {out.traces} traces / {out.checks} checks, "
                        f"expected {traces} / {checks}")
    return 1, 0


# -- check-cli --------------------------------------------------------------------
#
# A seeded stream of independent `mdel check --json` calls, each with its own
# formula and trace file.  A fixed share of the stream is robustness input:
# negation chains nested deeper than 300, which are well-formed (the answer
# is the chain's parity, and refusing them with exit 2 is within the
# contract), and trace documents that break the schema, which must exit 2.

CHECK_ATOMS = ("a", "b", "c")
CHECK_REGULAR = 1176
CHECK_DEEP = 12
CHECK_BROKEN = ("lambda-true", "tau-not-increasing", "atom-outside-alphabet")
CHECK_PER_BROKEN = 4


def _random_trace_doc(rng: random.Random) -> dict:
    lam = rng.randint(4, 10)
    tau = [0]
    for _ in range(lam - 1):
        tau.append(tau[-1] + rng.randint(1, 3))
    there = [[x for x in CHECK_ATOMS if rng.random() < 0.5] for _ in range(lam)]
    here = there if rng.random() < 0.3 else [
        [x for x in state if rng.random() < 0.7] for state in there]
    return {"alphabet": list(CHECK_ATOMS), "lambda": lam, "tau": tau,
            "here": here, "there": there}


@contextlib.contextmanager
def _naive_reference():
    """naive_ref's literal clauses behind a memo that lives for one call.

    The reference rebuilds relations and re-evaluates subformulas on every
    call, which is exponential in modal nesting at lambda=10.  The memo only
    reuses results of that pure function and shares nothing with mdel's
    evaluator.  The module's functions are restored on exit.
    """
    import naive_ref

    satisfies, relation = naive_ref.naive_satisfies, naive_ref.naive_relation
    memo: dict = {}

    def memo_satisfies(m, k, f, world="here"):
        key = (m.here, m.there, m.tau, k, id(f), world)
        if key not in memo:
            memo[key] = satisfies(m, k, f, world)
        return memo[key]

    def memo_relation(rho, m):
        key = (m.here, m.there, m.tau, id(rho))
        if key not in memo:
            memo[key] = relation(rho, m)
        return memo[key]

    def reference(m, core) -> tuple:
        try:
            return memo_satisfies(m, 0, core, "here"), memo_satisfies(m, 0, core, "there")
        finally:
            memo.clear()

    naive_ref.naive_satisfies, naive_ref.naive_relation = memo_satisfies, memo_relation
    try:
        yield reference
    finally:
        naive_ref.naive_satisfies, naive_ref.naive_relation = satisfies, relation


def check_stream(seed: int) -> list:
    """The call stream for a seed: dicts with the call's kind, formula text,
    trace document and, for well-formed calls, the expected [here, there]
    verdicts at position 0."""
    rng = random.Random(seed)
    kinds = (["regular"] * CHECK_REGULAR + ["deep"] * CHECK_DEEP
             + [k for k in CHECK_BROKEN for _ in range(CHECK_PER_BROKEN)])
    rng.shuffle(kinds)
    # equal numbers of each (depth, raw modalities allowed) shape, so that
    # the stream's cost varies little from seed to seed
    shapes = [(depth, dynamic) for depth in range(2, 6) for dynamic in (False, True)]
    shapes *= CHECK_REGULAR // len(shapes)
    rng.shuffle(shapes)
    calls = []
    with _naive_reference() as naive:
        for kind in kinds:
            doc = _random_trace_doc(rng)
            trace = load_trace(doc)
            call = {"kind": kind, "trace": doc}
            if kind == "regular":
                depth, dynamic = shapes.pop()
                f = random_formula(rng, list(CHECK_ATOMS), depth, dynamic=dynamic)
                call["formula"] = pretty_print(f)
                if is_metric(f):
                    call["expect"] = [mht_satisfies(trace, 0, f, HERE),
                                      mht_satisfies(trace, 0, f, THERE)]
                else:
                    call["expect"] = list(naive(trace, compile_to_core(f)))
            elif kind == "deep":
                depth, atom = rng.randint(301, 400), rng.choice(CHECK_ATOMS)
                call["formula"] = "!" * depth + atom
                holds = (atom in trace.there[0]) != (depth % 2 == 1)
                call["expect"] = [holds, holds]
            else:
                call["formula"] = pretty_print(random_formula(rng, list(CHECK_ATOMS), 2))
                if kind == "lambda-true":  # bool passes as the int 1
                    doc.update(tau=[0], here=doc["here"][:1], there=doc["there"][:1])
                    doc["lambda"] = True
                elif kind == "tau-not-increasing":
                    i = rng.randrange(1, len(doc["tau"]))
                    doc["tau"][i] = doc["tau"][i - 1]
                else:
                    doc["there"][rng.randrange(len(doc["there"]))].append("z")
            calls.append(call)
    return calls


def prepare_check(workdir: str, seed: int) -> dict:
    calls = []
    for i, call in enumerate(check_stream(seed)):
        fpath = os.path.join(workdir, f"f{i:05d}.mdel")
        tpath = os.path.join(workdir, f"t{i:05d}.json")
        with open(fpath, "w", encoding="utf-8") as fh:
            fh.write(call["formula"] + "\n")
        with open(tpath, "w", encoding="utf-8") as fh:
            json.dump(call["trace"], fh)
        calls.append({"kind": call["kind"], "expect": call.get("expect"),
                      "argv": ["check", fpath, tpath, "--json"]})
    return {"calls": calls}


def run_check(spec: dict) -> dict:
    """One closed-loop caller: each call starts when the previous returned."""
    clock = time.perf_counter
    out = io.StringIO()
    outcomes, latencies = [], []
    for call in spec["calls"]:
        out.seek(0)
        out.truncate()
        start = clock()
        code = _call_main(call["argv"], out)
        latencies.append(clock() - start)
        outcomes.append((code, out.getvalue()))
    return {"outcomes": outcomes, "latencies": latencies}


def judge_check(spec: dict, result: dict):
    """A call fails when an exception escapes ``main`` or the exit code
    breaks the 0/1/2 contract: a regular input refused with 2, or a
    schema-breaking trace accepted with 0 or 1."""
    calls = spec["calls"]
    failed = 0
    for i, (call, (code, stdout)) in enumerate(zip(calls, result["outcomes"])):
        kind = call["kind"]
        if code not in (0, 1, 2):
            failed += 1
        elif kind in CHECK_BROKEN:
            failed += code != 2
        elif code == 2:
            failed += kind == "regular"
        else:
            doc = json.loads(stdout)
            got = [doc["here"], doc["there"]]
            if got != call["expect"] or code != (0 if got[0] else 1):
                raise GateError(f"call {i} ({kind}, {call['argv'][1]}): exit {code}, "
                                f"here/there {got}, expected {call['expect']}")
    return len(calls), failed


def check_latencies(spec: dict, result: dict) -> list:
    """Per-call latency of the regular calls only, so the robustness share
    does not sit on a percentile boundary."""
    return [t for call, t in zip(spec["calls"], result["latencies"])
            if call["kind"] == "regular"]


class Workload(NamedTuple):
    prepare: Callable  # (workdir, seed) -> spec, in the parent
    load: Callable  # spec -> run argument, in the worker before timing
    run: Callable  # the timed region
    judge: Callable  # (spec, result) -> (attempted, failed); raises GateError
    latencies: Optional[Callable]  # (spec, result) -> per-operation seconds


WORKLOADS = {
    "sos-equilibrium": Workload(prepare_sos, lambda spec: spec, run_sos, judge_sos, None),
    "oracle-agreement": Workload(lambda workdir, seed: {}, lambda spec: oracle_space(),
                                 run_oracle, judge_oracle, None),
    "check-cli": Workload(prepare_check, lambda spec: spec, run_check, judge_check,
                          check_latencies),
}
