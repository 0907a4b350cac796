import gc
import random
import weakref
from types import SimpleNamespace

import pytest

from mdel import lanes
from mdel.formulas import (
    BINARY_METRIC, UNARY_METRIC, Atom, Choice, Converse, Diamond, Formula, Not, STEP, Seq,
    Star, Test, compile_to_core, formula_path,
)
from mdel.intervals import UNTIMED, Interval
from mdel.lanes import LaneBatch, grid_batches, grid_columns
from mdel.laws import random_formula
from mdel.mht import MhtEvaluator
from mdel.traces import TimeGrids, TraceBounds, enumerate_traces, total_of

STATES = [frozenset(), frozenset("a"), frozenset("b"), frozenset("ab")]
TAU = (0, 1, 3)


def _batch():
    columns, full = grid_columns(STATES, (), len(TAU))  # all 64 total traces
    return LaneBatch(((TAU, full),), columns, full)


def test_cache_keys_outlive_fresh_nodes():
    # nodes built and dropped in a loop reuse each other's ids; a cache keyed
    # by id() alone would hand out the relation of an earlier, dead node
    a, b = Atom("a"), Atom("b")
    paths = [Test(a), Seq(Test(b), STEP), Choice(Test(a), Converse(STEP)),
             formula_path(compile_to_core(Not(a))), Seq(STEP, Test(b))]
    batch = _batch()
    for i in range(200):
        star = Star(paths[i % len(paths)])
        assert batch.rel(star) == _batch().rel(star), i
        diamond = Diamond(paths[(i * 3) % len(paths)], UNTIMED, b if i % 2 else a)
        assert batch.sat(diamond) == _batch().sat(diamond), i


def test_window_rows_hold_the_lanes_of_each_offset():
    # three time grids of one length folded into one batch: every entry is
    # the mask of the lanes whose offset lies in the interval, and no zero
    # entry is stored
    taus = [(0, 1, 3), (0, 2, 3), (0, 1, 4)]
    columns, full = grid_columns(STATES, (), 3, len(taus))
    block = len(STATES) ** 3
    times = tuple((tau, ((1 << block) - 1) << j * block) for j, tau in enumerate(taus))
    batch = LaneBatch(times, columns, full)
    intervals = [
        Interval.closed_closed(1, 2),  # some entries hold in some time grids only
        Interval.closed_closed(5, 3),  # empty
        UNTIMED,
        Interval.open_closed(-3, -1),  # past offsets only
    ]
    partial = 0
    for iv in intervals:
        window = batch.window(iv.lo, iv.hi)
        assert batch.window(iv.lo, iv.hi) is window  # cached
        assert len(window) == 3
        for k, row in enumerate(window):
            assert 0 not in row.values(), (iv, k)
            for i in range(3):
                want = 0
                for tau, mask in times:
                    if tau[i] - tau[k] in iv:
                        want |= mask
                assert row.get(i, 0) == want, (iv, k, i)
                partial += want not in (0, full)
    assert partial  # some entries hold in only some of the lanes


def test_total_batches_and_evaluators_hold_no_reference_to_themselves():
    # a total batch is its own twin and its evaluator its own total; with
    # the cycle collector off, both must still be freed when dropped
    f = Not(Atom("a"))
    enabled = gc.isenabled()
    gc.disable()
    try:
        batch = _batch()
        ev = MhtEvaluator(batch)
        assert batch.twin is batch and ev.total is ev
        assert batch.sat(compile_to_core(f)) == ev.sat(f)
        refs = [weakref.ref(batch), weakref.ref(ev)]
        del batch, ev
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


def test_scan_violations_come_in_enumeration_order(monkeypatch):
    # with a classical evaluator made wrong on some total traces, the lane
    # scan must report the same violations, in the same order and after the
    # same number of traces, as a loop over enumerate_traces
    from mdel.laws import agreement_scan
    from mdel.parser import parse_formula
    from mdel.semantics import Evaluator
    from mdel.traces import TraceBounds, enumerate_traces, trace_to_dict

    correct = MhtEvaluator._compute

    def faulty(self, node):
        # every formula is wrong at position 0 on the lanes with a at position 1
        value = correct(self, node)
        if isinstance(node, Formula) and self.lam >= 2:
            value = [value[0] ^ (self.columns.get("a") or [0] * self.lam)[1], *value[1:]]
        return value

    monkeypatch.setattr(MhtEvaluator, "_compute", faulty)
    bounds = TraceBounds(frozenset("ab"), 2, 2)
    f = parse_formula("ev[0..2] (a & b)")
    core = compile_to_core(f)
    want, traces = [], 0
    for t in enumerate_traces(bounds):
        traces += 1
        if t.is_total and t.length:
            ev = Evaluator(t)
            if ev.mdl_sat_mask(core) != ev.sat_mask(core):
                want.append(trace_to_dict(t))
                if len(want) == 3:
                    break
    assert len(want) == 3
    out = agreement_scan([f], bounds, check_agreement=False, max_violations=3)
    assert [v["trace"] for v in out.totality_violations] == want
    assert out.traces == traces


# -- time grids of one length folded into one batch ----------------------------------

# runs of one length broken by other lengths; none of them folds into another
BROKEN = [(0, 3), (0, 1), (), (0, 2), (0, 1, 4), (0, 1, 2), (0, 2)]
SPACES = {
    # HT traces over explicit grids: 9 and 27 lanes per time grid
    "broken-ht": SimpleNamespace(alphabet=frozenset("a"), total_only=False,
                                 time_grids=lambda: iter(BROKEN)),
    "broken-total": TimeGrids(frozenset("ab"), BROKEN),  # 16 and 64 lanes
    # three 81-lane time grids of length 2 (the oracle-agreement bounds)
    "gaps-ht": TraceBounds(frozenset("ab"), 2, 3),
}


def _folding_formulas(atoms):
    """Metric formulas (every operator over two partial windows) and random
    formulas with modalities over tests, stars and converses."""
    a, b = Atom(atoms[0]), Atom(atoms[-1])
    windows = (Interval.closed_closed(1, 2), Interval.closed_open(0, 2))
    metric = [op(iv, x) for op in UNARY_METRIC for iv in windows for x in (a, Not(b))]
    metric += [op(iv, a, b) for op in BINARY_METRIC for iv in windows]
    rng = random.Random(11)
    dynamic = [random_formula(rng, atoms, rng.randint(1, 3)) for _ in range(24)]
    return metric, dynamic


@pytest.mark.parametrize("space, limit", [
    ("broken-ht", 4096), ("broken-ht", 1024), ("broken-ht", 8),
    ("broken-total", 4096), ("broken-total", 1024), ("broken-total", 8),
    ("gaps-ht", 162),  # a chunk of two time grids, then one of one
])
def test_folded_grids_match_naive_reference(space, limit, monkeypatch, naive):
    # the lane engine in both worlds, the direct oracle in both worlds and the
    # classical evaluator, lane by lane against enumerate_traces and naive_ref
    monkeypatch.setattr(lanes, "LANE_LIMIT", limit)
    naive_satisfies, forget = naive
    space = SPACES[space]
    metric, dynamic = _folding_formulas(sorted(space.alphabet))
    formulas = [(f, compile_to_core(f), f in metric) for f in metric + dynamic]
    traces = enumerate_traces(space)
    for grid in grid_batches(space):
        batch = grid.batch
        oracle, classical = MhtEvaluator(batch), MhtEvaluator(batch.twin)
        values = [(core, batch.sat(core), batch.twin.sat(core), classical.sat(core),
                   oracle.sat(f) if direct else None, oracle.total.sat(f) if direct else None)
                  for f, core, direct in formulas]
        for lane in range(grid.size):
            trace = next(traces)
            assert grid.trace(lane) == trace
            forget()
            total = total_of(trace)
            for core, here, there, mdl, direct_here, direct_there in values:
                for k in range(trace.length):
                    want = (naive_satisfies(trace, k, core, "here"),
                            naive_satisfies(trace, k, core, "there"))
                    assert (here[k] >> lane & 1, there[k] >> lane & 1) == want, (core, trace, k)
                    assert mdl[k] >> lane & 1 == naive_satisfies(total, k, core), (core, trace, k)
                    if direct_here is not None:
                        assert (direct_here[k] >> lane & 1,
                                direct_there[k] >> lane & 1) == want, (core, trace, k)
    assert next(traces, None) is None


def test_references_never_call_the_lane_engine(monkeypatch):
    # both references are built from a batch alone: with the engine's
    # satisfaction, relations and windows made to raise, they must still
    # give the values of an unpatched run
    space = SPACES["gaps-ht"]
    metric, dynamic = _folding_formulas(sorted(space.alphabet))
    cores = [compile_to_core(f) for f in metric + dynamic]
    paths = [Star(Choice(STEP, Test(Atom("a")))), Converse(Seq(STEP, Test(Atom("b"))))]

    def values():
        out = []
        for grid in grid_batches(space):
            oracle, classical = MhtEvaluator(grid.batch), MhtEvaluator(grid.batch.twin)
            out.append(([oracle.sat(f) for f in metric], [oracle.total.sat(f) for f in metric],
                        [classical.sat(node) for node in cores + paths]))
        return out

    want = values()

    def engine(self, *args):
        raise AssertionError("a reference called the lane engine")

    for name in ("sat", "rel", "window"):
        monkeypatch.setattr(LaneBatch, name, engine)
    assert values() == want


def test_chunks_hold_whole_time_grids_of_one_length(monkeypatch):
    def chunks(space):
        return [(g.batch.lam, len(g.batch.times), g.size) for g in grid_batches(space)]

    assert chunks(SPACES["broken-total"]) == [
        (2, 2, 32), (0, 1, 1), (2, 1, 16), (3, 2, 128), (2, 1, 16)]
    assert len(chunks(SPACES["gaps-ht"])) == 3  # the oracle-agreement bounds
    assert len(chunks(TraceBounds(frozenset("a"), 3, 3))) == 4  # criterion 3, |A|=1
    monkeypatch.setattr(lanes, "LANE_LIMIT", 162)
    assert chunks(SPACES["gaps-ht"]) == [(0, 1, 1), (1, 1, 9), (2, 2, 162), (2, 1, 81)]
    monkeypatch.setattr(lanes, "LANE_LIMIT", 8)  # wider than a chunk: split by states
    assert chunks(SPACES["broken-total"])[:3] == [(2, 1, 4)] * 3
