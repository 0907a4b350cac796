"""The lane-batched direct metric oracle.

Its reference is the naive definitional semantics (``naive_ref``) of the
compiled core, trace by trace over ``enumerate_traces``, so the grid
column encoding the oracle reads is cross-checked too.  The scan-order
tests give the scans a faulty compiled side and compare them with a
per-trace loop that asks :func:`mht_satisfies` one trace at a time.
"""

import random

import pytest

from mdel import lanes
from mdel.formulas import (
    BINARY_METRIC, PAST_OPS, STEP, UNARY_METRIC, Atom, Box, Diamond, Final, Initial, Star,
    compile_to_core, pretty_print,
)
from mdel.intervals import UNTIMED
from mdel.lanes import LaneBatch, grid_batches, trace_batch
from mdel.laws import (
    agreement_scan, check_release_table, random_formula, random_interval, release_table_rows,
)
from mdel.mht import MhtEvaluator, mht_satisfies
from mdel.parser import parse_formula
from mdel.semantics import HERE, THERE, Evaluator
from mdel.traces import TraceBounds, enumerate_traces, make_trace, total_of, trace_to_dict


def test_only_a_total_evaluator_evaluates_core_modalities_and_paths():
    # the classical clauses read a single world, which only a total batch has
    trace = make_trace("a", [{"a"}, {"a"}], [0, 1], here=[set(), {"a"}])
    ev = MhtEvaluator(trace_batch(trace))
    path = Star(STEP)
    for node in (Diamond(path, UNTIMED, Atom("a")), Box(path, UNTIMED, Atom("a")), path):
        with pytest.raises(ValueError):
            ev.sat(node)
        assert ev.total.sat(node) == MhtEvaluator(trace_batch(total_of(trace))).sat(node)


def _metric_formulas(atoms, seed, count):
    """Every metric operator once over random intervals (past and negative
    ones included) and arguments, then ``count`` random metric formulas."""
    rng = random.Random(seed)

    def iv(op):
        return random_interval(rng, past=op in PAST_OPS or rng.random() < 0.5)

    def arg():
        return random_formula(rng, atoms, rng.randint(0, 1), dynamic=False)

    out = [Initial(), Final()]
    out += [op(iv(op), arg()) for op in UNARY_METRIC]
    out += [op(iv(op), arg(), arg()) for op in BINARY_METRIC]
    out += [random_formula(rng, atoms, rng.randint(1, 3), dynamic=False) for _ in range(count)]
    return out


@pytest.mark.parametrize("limit", [4096, 1024, 8])
@pytest.mark.parametrize("alphabet, lambda_max, max_gap, seed, count", [
    ("a", 3, 3, 1, 16), ("ab", 2, 2, 2, 16), ("ab", 3, 1, 3, 4)])
def test_batched_oracle_matches_naive_reference(monkeypatch, naive, limit, alphabet,
                                                lambda_max, max_gap, seed, count):
    monkeypatch.setattr(lanes, "LANE_LIMIT", limit)
    naive_satisfies, forget = naive
    bounds = TraceBounds(frozenset(alphabet), lambda_max, max_gap)
    formulas = _metric_formulas(sorted(alphabet), seed, count)
    cores = [compile_to_core(f) for f in formulas]
    traces = enumerate_traces(bounds)
    checked = 0
    for grid in grid_batches(bounds):
        oracle = MhtEvaluator(grid.batch)
        values = [(oracle.sat(f), oracle.total.sat(f)) for f in formulas]
        for lane in range(grid.size):
            trace = next(traces)
            assert grid.trace(lane) == trace
            forget()
            for f, core, (here, there) in zip(formulas, cores, values):
                for k in range(trace.length):
                    got = (here[k] >> lane & 1, there[k] >> lane & 1)
                    want = (naive_satisfies(trace, k, core, "here"),
                            naive_satisfies(trace, k, core, "there"))
                    assert got == want, (f, trace, k)
                    checked += 1
    assert next(traces, None) is None
    assert checked > 0


def test_one_lane_view_matches_batch():
    bounds = TraceBounds(frozenset("ab"), 2, 2)
    formulas = _metric_formulas(["a", "b"], 4, 10)
    traces = enumerate_traces(bounds)
    for grid in grid_batches(bounds):
        oracle = MhtEvaluator(grid.batch)
        for lane in range(grid.size):
            trace = next(traces)
            for f in formulas:
                for k in range(trace.length):
                    assert mht_satisfies(trace, k, f, HERE) == bool(oracle.sat(f)[k] >> lane & 1)
                    assert (mht_satisfies(trace, k, f, THERE)
                            == bool(oracle.total.sat(f)[k] >> lane & 1))


# -- scan order: the batched scans report what a trace-by-trace loop reports ------


def _faulty_diamonds(monkeypatch):
    """Make the lane engine wrong on every Diamond: at position 0, in every
    lane with atom a at position 1.  The fault depends on the lane's states
    only, so one-lane views and whole grids make the same mistakes."""
    correct = LaneBatch.sat

    def faulty(self, f):
        value = correct(self, f)
        if type(f) is Diamond and self.lam >= 2:
            value = [value[0] ^ (self.columns.get("a") or [0, 0])[1]] + value[1:]
        return value

    monkeypatch.setattr(LaneBatch, "sat", faulty)


def _oracle_mask(trace, f, world):
    return sum(1 << k for k in range(trace.length) if mht_satisfies(trace, k, f, world))


def _low_bit(mask):
    return (mask & -mask).bit_length() - 1


def test_agreement_scan_reports_in_trace_order(monkeypatch):
    _faulty_diamonds(monkeypatch)
    bounds = TraceBounds(frozenset("ab"), 2, 2)
    formulas = [parse_formula(text) for text in (
        "a until [0..2] b", "ev [1..2] a", "!(a release b)", "alw b", "evp [0..1] a")]
    for max_violations in (1, 4, 40):
        want = {"agreement": [], "persistence": [], "totality": []}
        traces = checks = 0
        for t in enumerate_traces(bounds):
            traces += 1
            if not t.length:
                continue
            ev = Evaluator(t)
            for f in formulas:
                core = compile_to_core(f)
                checks += t.length
                hm, tm = ev.sat_mask(core, HERE), ev.sat_mask(core, THERE)
                doc = (trace_to_dict(t), pretty_print(f))
                if hm & ~tm:
                    want["persistence"].append((*doc, _low_bit(hm & ~tm)))
                if t.is_total and ev.mdl_sat_mask(core) != hm:
                    want["totality"].append((*doc, _low_bit(ev.mdl_sat_mask(core) ^ hm)))
                om, otm = _oracle_mask(t, f, HERE), _oracle_mask(t, f, THERE)
                if om != hm or otm != tm:
                    want["agreement"].append((*doc, _low_bit((om ^ hm) | (otm ^ tm))))
            if sum(map(len, want.values())) >= max_violations:
                break
        out = agreement_scan(formulas, bounds, max_violations=max_violations)
        assert (out.traces, out.checks) == (traces, checks)
        for name, got in (("agreement", out.agreement_violations),
                          ("persistence", out.persistence_violations),
                          ("totality", out.totality_violations)):
            assert [(v["trace"], v["formula"], v["position"]) for v in got] == want[name], name
    assert want["agreement"] and want["persistence"] and want["totality"]


@pytest.mark.parametrize("faulty", [False, True])
def test_release_table_reports_in_trace_order(monkeypatch, faulty):
    if faulty:
        _faulty_diamonds(monkeypatch)
    bounds = TraceBounds(frozenset("ab"), 2, 2)
    m_values, n_values = (1, 2), (0, 2)
    reports = {r.law_id: r for r in check_release_table(bounds, m_values, n_values)}
    cases: dict = {}
    for m in m_values:
        for n in n_values:
            for row_id, lhs, rhs in release_table_rows(m, n):
                cases.setdefault(row_id, {}).setdefault(
                    (lhs.interval.lo, lhs.interval.hi), ([m, n], lhs, rhs))
    assert sorted(reports) == sorted(cases)
    failed = 0
    for row_id, row in cases.items():
        checked, first = 0, None
        for t in enumerate_traces(bounds):
            if not t.length:
                continue
            ev = Evaluator(t)
            for tag, lhs, rhs in row.values():
                cl, cr = compile_to_core(lhs), compile_to_core(rhs)
                lh, rh = ev.sat_mask(cl, HERE), ev.sat_mask(cr, HERE)
                lt, rt = ev.sat_mask(cl, THERE), ev.sat_mask(cr, THERE)
                om = _oracle_mask(t, lhs, HERE)
                checked += t.length
                if lh != rh or lt != rt or om != lh:
                    first = (trace_to_dict(t), _low_bit((lh ^ rh) | (lt ^ rt) | (om ^ lh)), tag)
                    break
            if first:
                break
        report = reports[row_id]
        assert report.checked == checked, row_id
        if first is None:
            assert report.verdict == "pass", row_id
        else:
            failed += 1
            cex = report.counterexample
            assert (cex["trace"], cex["position"], cex["bounds"]) == first, row_id
    assert failed == (len(cases) if faulty else 0)
