import random

import pytest

from mdel.formulas import Atom, Not, Star, STEP, Test, compile_path, formula_path
from mdel.lanes import grid_batches, lane_rows
from mdel.laws import (
    LawReport, SUITES, agreement_scan, bkt_fragment_formulas,
    check_release_naive, check_release_table, em_collapse_scan, interval_grid,
    invert_past_scan, random_formula, random_theory,
    relation_scan, run_suite, tau_independence_scan,
)
from mdel.parser import parse_formula
from mdel.traces import TraceBounds, trace_to_dict

from naive_ref import naive_closure

AB = frozenset({"a", "b"})
SMALL = TraceBounds(AB, 2, 2)


def test_interval_grid_is_canonical_and_deduplicated():
    grid = interval_grid(range(0, 3))
    assert len(set(grid)) == len(grid)
    assert all(iv.lo < iv.hi or iv.is_empty for iv in grid)
    assert any(iv.is_untimed for iv in grid)


def test_agreement_scan_clean_on_sampled_formulas():
    rng = random.Random(3)
    formulas = [random_formula(rng, ["a", "b"], rng.randint(1, 3), dynamic=False)
                for _ in range(60)]
    out = agreement_scan(formulas, SMALL)
    assert out.clean
    assert out.checks > 0


def test_agreement_scan_refuses_a_limit_below_one():
    # a limit below 1 would stop after the first lane with a clean outcome
    for limit in (0, -1):
        with pytest.raises(ValueError):
            agreement_scan([parse_formula("ev[0..2] a")], SMALL, max_violations=limit)


def test_relation_scan_clean():
    a = Atom("a")
    paths = (STEP, Star(STEP), Test(a), formula_path(Not(a)),
             Star(formula_path(a)))
    out = relation_scan(paths, SMALL)
    assert out.clean and out.checks > 0


def star_properties(paths, bounds):
    """The first lane (trace document and path) where star is not the least
    reflexive-transitive relation containing its body, or None."""
    paths = [(rho, Star(rho)) for rho in map(compile_path, paths)]
    for grid in grid_batches(bounds):
        lam = grid.batch.lam
        values = [(grid.batch.rel(rho), grid.batch.rel(star)) for rho, star in paths]
        for lane in range(grid.size):
            for (rho, _), (base_rel, star_rel) in zip(paths, values):
                base, star = lane_rows(base_rel, lane), lane_rows(star_rel, lane)
                reflexive = all(star[k] >> k & 1 for k in range(lam))
                contains = all(not (b & ~s) for b, s in zip(base, star))
                # every position reachable from k reaches nothing beyond star[k]
                transitive = all(not (star[j] & ~star[k]) for k in range(lam)
                                 for j in range(lam) if star[k] >> j & 1)
                # least: recompute a closure independently and compare
                if not (reflexive and contains and transitive
                        and naive_closure(base, lam) == star):
                    return trace_to_dict(grid.trace(lane)), rho
    return None


def test_star_is_least_reflexive_transitive_closure():
    a = Atom("a")
    paths = (STEP, Test(a), formula_path(Not(a)), Star(STEP))
    assert star_properties(paths, SMALL) is None


def test_release_table_rows_pass_at_small_bounds():
    reports = check_release_table(SMALL, m_values=(1, 2), n_values=(0, 2))
    assert len(reports) == 16
    assert all(r.verdict == "pass" for r in reports)


def test_release_naive_claims_fail_with_reachable_offsets():
    reports = check_release_naive(TraceBounds(AB, 3, 4))
    assert [r.verdict for r in reports] == ["fail", "fail"]
    for r in reports:
        assert r.counterexample is not None
        assert "trace" in r.counterexample


def test_release_naive_vacuous_at_tiny_bounds():
    # offsets cannot reach the [3..5] window, so no counterexample exists
    reports = check_release_naive(TraceBounds(AB, 2, 1))
    assert [r.verdict for r in reports] == ["pass", "pass"]


def test_em_collapse_scan():
    rng = random.Random(0)
    theories = [random_theory(rng, ["a", "b"]) for _ in range(25)]
    out = em_collapse_scan(theories, SMALL)
    assert out.clean
    assert out.checks > 0  # some EM-extended models were actually found


def test_tau_independence():
    rng = random.Random(1)
    formulas = [random_formula(rng, ["a", "b"], rng.randint(1, 3), untimed_only=True)
                for _ in range(20)]
    out = tau_independence_scan(formulas, rng, TraceBounds(AB, 3, 3), samples=200)
    assert out.clean


def test_tau_independence_checks_nothing_without_a_position():
    # a space of lambda <= 0 holds only the empty trace: no sample to draw
    formulas = [parse_formula("ev a")]
    out = tau_independence_scan(formulas, random.Random(1), TraceBounds(AB, 0, 3), samples=50)
    assert (out.traces, out.checks, out.clean) == (0, 0, True)
    [report] = run_suite("untimed-independence", TraceBounds(AB, 0, 2), samples=20)
    assert (report.verdict, report.checked) == ("pass", 0)


def test_tau_independence_counterexample_matches_per_trace_views(monkeypatch):
    # an engine made to depend on tau: the two-lane batch must report the
    # difference that two one-trace views of the sample show, at the first
    # differing position, here world first
    from mdel.formulas import Diamond, compile_to_core
    from mdel.lanes import LaneBatch
    from mdel.semantics import HERE, THERE, Evaluator
    from mdel.traces import load_trace

    correct = LaneBatch._sat_compute

    def faulty(self, f):
        value = correct(self, f)
        if type(f) is Diamond:  # flip position 0 where the last stamp is odd
            flip = sum(lanes for tau, lanes in self.times if tau and tau[-1] % 2)
            value = [value[0] ^ flip, *value[1:]]
        return value

    monkeypatch.setattr(LaneBatch, "_sat_compute", faulty)
    f = parse_formula("ev (a | b)")
    out = tau_independence_scan([f], random.Random(4), TraceBounds(AB, 3, 3), samples=50)
    [cex] = out.agreement_violations
    m1 = load_trace(cex["trace"])
    m2 = load_trace({**cex["trace"], "tau": cex["other_tau"]})
    ev1, ev2 = Evaluator(m1), Evaluator(m2)
    core = compile_to_core(f)
    diffs = [ev1.sat_mask(core, w) ^ ev2.sat_mask(core, w) for w in (HERE, THERE)]
    first = next(d for d in diffs if d)
    assert cex["position"] == (first & -first).bit_length() - 1
    assert m1.tau[-1] % 2 != m2.tau[-1] % 2


def test_invert_past_scan():
    rng = random.Random(2)
    formulas = bkt_fragment_formulas(rng, ["a", "b"], 40)
    out = invert_past_scan(formulas, SMALL)
    assert out.clean


def test_every_suite_runs_and_reports():
    for name in SUITES:
        reports = run_suite(name, SMALL, seed=0, samples=20)
        assert reports and all(isinstance(r, LawReport) for r in reports)
        expected_fail = name == "release-naive"
        if not expected_fail:
            assert all(r.verdict == "pass" for r in reports), name


def test_run_suite_refuses_an_empty_alphabet():
    # sampling over a phantom atom would report a pass for a space without atoms
    for name in SUITES:
        with pytest.raises(ValueError, match="empty alphabet"):
            run_suite(name, TraceBounds(frozenset(), 2, 1), samples=4)


@pytest.mark.parametrize("samples", [0, -1])
def test_run_suite_refuses_fewer_than_one_sample(samples):
    # no sample means no check: a pass would be vacuous
    for name in SUITES:
        with pytest.raises(ValueError, match="samples must be at least 1"):
            run_suite(name, TraceBounds(AB, 2, 2), samples=samples)


def test_report_serialization():
    reports = check_release_naive(TraceBounds(AB, 3, 4))
    doc = reports[0].to_dict()
    assert doc["verdict"] == "fail" and "counterexample" in doc


def test_inputs_the_law_checks_refuse():
    with pytest.raises(ValueError, match="m > 0"):
        check_release_table(SMALL, m_values=(0,))
    with pytest.raises(KeyError, match="unknown law suite: nope"):
        run_suite("nope", SMALL)
    with pytest.raises(ValueError, match="interval-free"):
        tau_independence_scan([parse_formula("ev a"), parse_formula("ev [0..2] a")],
                              random.Random(1), SMALL, samples=1)
