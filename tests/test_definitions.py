"""The operator tables of :mod:`mdel.formulas` and the release rows built from
them, pinned against forms written out by hand."""

import pytest

from mdel.formulas import (
    AlwPast, Always, And, Atom, Box, Converse, Diamond, EvPast, Eventually, Next, Not, Or,
    PAST_OF, PAST_OPS, Prev, Release, STEP, Since, Star, Trigger, UNARY_CORE, UNARY_METRIC,
    Until, WNext, WPrev, compile_to_core,
)
from mdel.intervals import Interval, UNTIMED
from mdel.laws import check_equivalence_dual, check_release_naive, release_table_rows
from mdel.traces import TraceBounds

A = Atom("a")
IV = Interval.closed_open(1, 4)  # canonical (0..4)
MIRRORED = Interval(-4, 0)


@pytest.mark.parametrize("op, core", [
    (Next, Diamond(STEP, IV, A)),
    (WNext, Box(STEP, IV, A)),
    (Eventually, Diamond(Star(STEP), IV, A)),
    (Always, Box(Star(STEP), IV, A)),
    (Prev, Diamond(Converse(STEP), MIRRORED, A)),
    (WPrev, Box(Converse(STEP), MIRRORED, A)),
    (EvPast, Diamond(Converse(Star(STEP)), MIRRORED, A)),
    (AlwPast, Box(Converse(Star(STEP)), MIRRORED, A)),
], ids=lambda x: getattr(x, "__name__", ""))
def test_core_form_of_each_unary_metric_operator(op, core):
    assert compile_to_core(op(IV, A)) == core


def test_operator_tables():
    assert PAST_OPS == (Prev, WPrev, EvPast, AlwPast, Since, Trigger)
    assert PAST_OF == {Next: Prev, WNext: WPrev, Eventually: EvPast, Always: AlwPast,
                       Until: Since, Release: Trigger}
    assert set(UNARY_CORE) == set(UNARY_METRIC)
    # one path object per future operator, shared by every compiled form
    assert compile_to_core(Eventually(IV, A)).path is compile_to_core(Always(UNTIMED, Not(A))).path


def _written_trigger_rows(m, n):
    """The T rows of the release table, spelled out as the paper displays them."""
    a, b = Atom("a"), Atom("b")
    co, cc = Interval.closed_open, Interval.closed_closed
    tail = Or(a, WPrev(UNTIMED, b))
    rows = []
    for name, iv in (("co", co), ("cc", cc), ("oo", Interval.open_open),
                     ("oc", Interval.open_closed)):
        closed = name[0] == "c"
        rows += [
            (f"T-{name}-m", Trigger(iv(m, n), a, b),
             Or(AlwPast(iv(m, n), b), EvPast((co if closed else cc)(0, m),
                                             Trigger(UNTIMED, a, tail)))),
            (f"T-{name}-0", Trigger(iv(0, n), a, b),
             Or(AlwPast(iv(0, n), b), Trigger(UNTIMED, a, b if closed else tail)))]
    return rows


@pytest.mark.parametrize("m, n", [(1, 0), (2, 3), (3, 1)])
def test_trigger_rows_are_the_written_mirror_rows(m, n):
    rows = release_table_rows(m, n)
    assert [row_id[0] for row_id, _, _ in rows] == ["R"] * 8 + ["T"] * 8
    assert rows[8:] == _written_trigger_rows(m, n)


def test_naive_trigger_claim_is_the_written_one():
    a, b = Atom("a"), Atom("b")
    iv = Interval.closed_closed(3, 5)
    bounds = TraceBounds(frozenset("ab"), 3, 4)
    written = Or(Since(iv, b, And(a, b)), AlwPast(iv, b))
    [_, report] = check_release_naive(bounds)
    cex, checked = check_equivalence_dual(Trigger(iv, a, b), written, bounds)
    assert (report.law_id, report.counterexample, report.checked) == (
        "trigger-naive-T", cex, checked)
