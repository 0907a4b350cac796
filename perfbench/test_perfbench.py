"""Self-tests of the benchmark.  Run with ``python3 -m pytest perfbench -q``."""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import workloads as W  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

from mdel import equilibrium, laws, semantics, traces  # noqa: E402
from mdel.formulas import Atom, Eventually  # noqa: E402
from mdel.intervals import UNTIMED  # noqa: E402
from mdel.traces import TraceBounds  # noqa: E402


def test_same_seed_same_check_stream():
    first = W.check_stream(7)
    assert first == W.check_stream(7)
    assert first != W.check_stream(8)
    kinds = [call["kind"] for call in first]
    assert kinds.count("regular") == W.CHECK_REGULAR
    assert kinds.count("deep") == W.CHECK_DEEP
    for kind in W.CHECK_BROKEN:
        assert kinds.count(kind) == W.CHECK_PER_BROKEN
    # at least ten regular samples lie beyond the p99 of one repetition
    assert W.CHECK_REGULAR * 0.01 >= 10


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)
    layer_names = set(Tracer().layer_metrics()) | {"tracing.overhead_ratio"}
    assert layer_names == set(run.PER_LAYER)


# -- correctness gates ------------------------------------------------------------


def _small_models_result(tmp_path):
    spec = W.prepare_sos(str(tmp_path), 0)
    spec["argv"][spec["argv"].index("--lambda-max") + 1] = "3"
    return spec, W.run_sos(spec)


def test_sos_gate_trips_on_wrong_reference(tmp_path):
    spec, result = _small_models_result(tmp_path)
    right = {"counts": {"3": 1}, "families": {"accident-at-end": 1}}
    assert W.judge_sos(spec, result, **right) == (1, 0)
    with pytest.raises(W.GateError):
        W.judge_sos(spec, result, counts={"3": 2}, families=right["families"])
    with pytest.raises(W.GateError):
        W.judge_sos(spec, result, counts=right["counts"], families={"immediate-help": 1})
    assert W.judge_sos(spec, {"code": "RecursionError", "stdout": ""}) == (1, 1)


def test_oracle_gate_trips_on_wrong_reference():
    a = Atom("a")
    outcome = laws.agreement_scan([Eventually(UNTIMED, a)], TraceBounds(frozenset("a"), 1, 1))
    result = {"outcome": outcome}
    assert W.judge_oracle({}, result, traces=outcome.traces, checks=outcome.checks) == (1, 0)
    with pytest.raises(W.GateError):
        W.judge_oracle({}, result, traces=outcome.traces, checks=outcome.checks + 1)
    outcome.agreement_violations.append({"position": 0})
    with pytest.raises(W.GateError):
        W.judge_oracle({}, result, traces=outcome.traces, checks=outcome.checks)


def test_check_gate_trips_on_wrong_reference(tmp_path):
    spec = W.prepare_check(str(tmp_path), 3)
    spec["calls"] = [c for c in spec["calls"] if c["kind"] == "regular"][:30]
    result = W.run_check(spec)
    assert W.judge_check(spec, result) == (30, 0)
    spec["calls"][5]["expect"] = [not x for x in spec["calls"][5]["expect"]]
    with pytest.raises(W.GateError):
        W.judge_check(spec, result)


def test_check_failures_follow_the_exit_code_contract():
    calls = [{"kind": kind, "expect": expect, "argv": ["check", "f", "t", "--json"]}
             for kind, expect in (("regular", [True, True]), ("regular", [False, True]),
                                  ("deep", [True, True]), ("lambda-true", None),
                                  ("tau-not-increasing", None))]
    sat = json.dumps({"here": True, "there": True})
    outcomes = [(0, sat), (2, ""), (2, ""), (2, ""), (0, sat)]
    # regular refused with 2 and a broken trace accepted fail; a deep chain
    # refused with 2 and a broken trace refused with 2 do not
    assert W.judge_check({"calls": calls}, {"outcomes": outcomes}) == (5, 2)
    outcomes[2] = ("RecursionError", "")
    assert W.judge_check({"calls": calls}, {"outcomes": outcomes}) == (5, 3)


# -- tracer ------------------------------------------------------------------------


def test_uninstall_restores_every_patched_attribute():
    tracer = Tracer()
    tracer.install()
    try:
        patched = tracer.patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original
        assert ({attr for _, attr, _ in patched}
                == {path.rsplit(".", 1)[-1] for _, path, _, _ in TARGETS})
        # module functions are patched wherever they were imported by name
        owners = {owner for owner, attr, _ in patched if attr == "enumerate_traces"}
        assert {traces, equilibrium, semantics, laws} <= owners
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original
    assert tracer.patched == []


def test_tracing_keeps_answers_and_counts_layers(tmp_path):
    spec, plain = _small_models_result(tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        traced = W.run_sos(spec)
    finally:
        tracer.uninstall()
    assert traced == plain
    layers = tracer.layer_metrics()
    assert layers["equilibrium.equilibria"] == 1
    assert layers["traces.enumerated"] > 0 and layers["semantics.evaluators"] > 0
    assert layers["cli.build_parser_s"] > 0 and layers["laws.checks"] == 0
    assert [key for key, *_ in tracer.spans[:2]] == ["cli", "cli.build_parser"]
    assert tracer.spans[1][3] == 0  # build_parser's span is a child of main's
