import random

from hypothesis import given, settings, strategies as st

from mdel import formulas
from mdel.formulas import (
    Always, AlwPast, And, Atom, BOT, Bot, Box, Choice, Converse, Diamond, EvPast,
    Eventually, Final, Implies, Initial, Next, Not, Or, Prev, Release, Since, Star,
    STEP, Seq, Step, Test, Top, Trigger, Until, WNext, WPrev, atoms_of, compile_to_core,
    invert_past, is_core, is_interval_free, untimed_release, walk,
)
from mdel.intervals import Interval, UNTIMED
from mdel.laws import random_formula

import pytest

A, B = Atom("a"), Atom("b")


def size(f):
    return sum(1 for _ in walk(f))


def test_past_eventually_flips_path_and_interval():
    f = EvPast(Interval.closed_closed(2, 9), A)
    core = compile_to_core(f)
    assert core == Diamond(Converse(Star(STEP)), Interval.closed_closed(-9, -2), A)


def test_weak_next_is_a_box_over_step():
    iv = Interval.closed_open(1, 4)
    assert compile_to_core(WNext(iv, A)) == Box(STEP, iv, A)


def test_release_closed_at_zero_uses_plain_untimed_tail():
    iv = Interval.closed_open(0, 3)
    got = compile_to_core(Release(iv, A, B))
    want = compile_to_core(Or(Always(iv, B), untimed_release(A, B)))
    assert got == want


def test_release_open_at_zero_gets_weak_next_tail():
    iv = Interval.open_open(0, 3)
    got = compile_to_core(Release(iv, A, B))
    tail = untimed_release(A, Or(A, WNext(UNTIMED, B)))
    assert got == compile_to_core(Or(Always(iv, B), tail))


def test_release_positive_lower_end_adds_eventually_prefix():
    iv = Interval.closed_closed(3, 5)  # canonical (2..6)
    got = compile_to_core(Release(iv, A, B))
    tail = untimed_release(A, Or(A, WNext(UNTIMED, B)))
    prefix = Eventually(Interval(-1, 3), tail)  # offsets 0..2
    assert got == compile_to_core(Or(Always(iv, B), prefix))


def test_release_unbounded_below_is_clamped():
    # a lower end below zero dispatches like closed-at-zero: plain untimed tail
    got = compile_to_core(Release(UNTIMED, A, B))
    assert got == compile_to_core(Or(Always(UNTIMED, B), untimed_release(A, B)))
    from mdel.semantics import equiv_bounded
    from mdel.traces import TraceBounds
    v = equiv_bounded(Release(UNTIMED, A, B),
                      Release(Interval.closed_open(0, float("inf")), A, B),
                      TraceBounds(frozenset("ab"), 3, 3))
    assert v.valid


def test_trigger_mirrors_release():
    iv = Interval.closed_closed(3, 5)
    got = compile_to_core(Trigger(iv, A, B))
    tail = Or(Since(UNTIMED, Or(A, WPrev(UNTIMED, B)), And(A, Or(A, WPrev(UNTIMED, B)))),
              AlwPast(UNTIMED, Or(A, WPrev(UNTIMED, B))))
    want = compile_to_core(Or(AlwPast(iv, B), EvPast(Interval(-1, 3), tail)))
    assert got == want


def test_until_and_since_paths():
    iv = Interval.closed_closed(0, 2)
    assert compile_to_core(Until(iv, A, B)) == Diamond(Star(Seq(Test(A), STEP)), iv, B)
    assert compile_to_core(Since(iv, A, B)) == Diamond(
        Converse(Star(Seq(STEP, Test(A)))), iv.invert(), B)


def test_boolean_expansions():
    top_core = Box(Test(BOT), UNTIMED, BOT)
    assert compile_to_core(Top()) == top_core
    assert compile_to_core(And(A, B)) == Diamond(Test(A), UNTIMED, B)
    assert compile_to_core(Or(A, B)) == Diamond(
        Choice(Test(A), Test(B)), UNTIMED, top_core)
    assert compile_to_core(Implies(A, B)) == Box(Test(A), UNTIMED, B)
    assert compile_to_core(Not(A)) == Box(Test(A), UNTIMED, BOT)


@settings(max_examples=250, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(0, 3))
def test_compile_output_is_core_and_stable(seed, depth):
    rng = random.Random(seed)
    f = random_formula(rng, ["a", "b"], depth)
    core = compile_to_core(f)
    assert is_core(core)
    assert compile_to_core(f) is core  # memoized, hence pure
    assert compile_to_core(core) == core


def test_compile_memos_stay_within_their_cap(monkeypatch):
    # a memo at its cap is emptied before its next entry; equal inputs still
    # share one compiled object while it is live, and results do not change
    monkeypatch.setattr(formulas, "MEMO_CAP", 64)
    rng = random.Random(11)
    compiled = []
    for _ in range(200):
        f = random_formula(rng, ["a", "b"], 4)
        core = compile_to_core(f)
        assert len(formulas._CORE_MEMO) <= 64 and len(formulas._PATH_MEMO) <= 64
        assert compile_to_core(f) is core
        compiled.append((f, core))
    assert all(compile_to_core(f) == core for f, core in compiled)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(0, 3))
def test_release_expansion_is_linear_in_operand_size(seed, depth):
    # one table expansion makes a constant number of operand copies, so the
    # output is linear in the compiled operand sizes (nesting compounds this
    # per level, which is why the bound is stated per release node)
    rng = random.Random(seed)
    left = random_formula(rng, ["a", "b"], depth, dynamic=False)
    right = random_formula(rng, ["a", "b"], depth, dynamic=False)
    sx, sy = size(compile_to_core(left)), size(compile_to_core(right))
    for iv in (Interval.closed_closed(2, 5), Interval.open_open(0, 3), UNTIMED):
        assert size(compile_to_core(Release(iv, left, right))) <= 5 * (sx + sy) + 40
        assert size(compile_to_core(Trigger(iv, left, right))) <= 5 * (sx + sy) + 40


def test_invert_past_examples():
    f = EvPast(Interval.closed_closed(2, 9), A)
    assert invert_past(f) == Diamond(
        Converse(Star(STEP)), Interval.closed_closed(-9, -2), A)
    g = Or(Not(A), Eventually(Interval.closed_closed(0, 2), B))
    assert invert_past(g) == g  # identity on past-free fixed points


def test_invert_past_rewrites_innermost_first():
    nested = EvPast(Interval.closed_closed(1, 2), EvPast(Interval.closed_closed(0, 1), A))
    out = invert_past(nested)
    assert not any(isinstance(x, EvPast) for x in walk(out))
    inner = Diamond(Converse(Star(STEP)), Interval.closed_closed(-1, 0), A)
    assert out == Diamond(Converse(Star(STEP)), Interval.closed_closed(-2, -1), inner)


def test_invert_past_rejects_other_past_operators():
    with pytest.raises(ValueError):
        invert_past(Trigger(UNTIMED, A, B))
    with pytest.raises(ValueError):
        invert_past(AlwPast(UNTIMED, A))


def test_children_are_the_formula_and_path_fields_in_order():
    # name and interval are data; every other field is a child
    assert formulas.CHILDREN == {
        Step: (), Test: ("body",), Choice: ("left", "right"), Seq: ("left", "right"),
        Star: ("body",), Converse: ("body",),
        Atom: (), Bot: (), Diamond: ("path", "body"), Box: ("path", "body"),
        Top: (), Final: (), Initial: (), Not: ("body",),
        And: ("left", "right"), Or: ("left", "right"), Implies: ("left", "right"),
        Next: ("body",), WNext: ("body",), Prev: ("body",), WPrev: ("body",),
        Eventually: ("body",), Always: ("body",), EvPast: ("body",), AlwPast: ("body",),
        Until: ("left", "right"), Since: ("left", "right"),
        Release: ("left", "right"), Trigger: ("left", "right"),
    }


# each formula below hides its only interesting subformula in a path test


def test_walk_reaches_atoms_in_path_tests():
    f = Diamond(Test(Atom("q")), UNTIMED, Top())
    assert atoms_of(f) == {"q"}
    assert [type(g) for g in walk(Diamond(Seq(Star(Test(Not(A))), STEP), UNTIMED, B))] == [
        Diamond, Not, Atom, Atom]


def test_interval_in_a_path_test_is_seen():
    f = Diamond(Test(Eventually(Interval.closed_closed(1, 2), A)), UNTIMED, A)
    assert not is_interval_free(f)


def test_derived_operator_in_a_path_test_is_not_core():
    assert not is_core(Diamond(Test(Not(A)), UNTIMED, A))
    assert is_core(compile_to_core(Diamond(Test(Not(A)), UNTIMED, A)))


def test_invert_past_rewrites_inside_path_tests():
    iv = Interval.closed_closed(2, 9)
    f = Box(Choice(STEP, Test(EvPast(iv, A))), UNTIMED, B)
    inverted = Diamond(Converse(Star(STEP)), iv.invert(), A)
    assert invert_past(f) == Box(Choice(STEP, Test(inverted)), UNTIMED, B)
    with pytest.raises(ValueError):
        invert_past(Diamond(Star(Test(AlwPast(UNTIMED, A))), UNTIMED, B))
    with pytest.raises(TypeError):
        invert_past("a")
