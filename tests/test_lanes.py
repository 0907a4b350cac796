from mdel.formulas import (
    Atom, Choice, Converse, Diamond, Formula, Not, STEP, Seq, Star, Test, compile_to_core,
    formula_path,
)
from mdel.intervals import UNTIMED
from mdel.lanes import LaneBatch, grid_columns

STATES = [frozenset(), frozenset("a"), frozenset("b"), frozenset("ab")]
TAU = (0, 1, 3)


def _batch():
    columns, full = grid_columns(STATES, (), len(TAU))  # all 64 total traces
    return LaneBatch(TAU, columns, full)


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


def test_scan_violations_come_in_enumeration_order(monkeypatch):
    # with a classical evaluator made wrong on some total traces, the lane
    # scan must report the same violations, in the same order and after the
    # same number of traces, as a loop over enumerate_traces
    from mdel.laws import agreement_scan
    from mdel.parser import parse_formula
    from mdel.semantics import ClassicalEvaluator, Evaluator
    from mdel.traces import TraceBounds, enumerate_traces, trace_to_dict

    correct = ClassicalEvaluator._compute

    def faulty(self, node):
        # every formula is wrong at position 0 on the lanes with a at position 1
        value = correct(self, node)
        if isinstance(node, Formula) and self.lam >= 2:
            value = [value[0] ^ (self.columns.get("a") or [0] * self.lam)[1], *value[1:]]
        return value

    monkeypatch.setattr(ClassicalEvaluator, "_compute", faulty)
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
