import random

import pytest
from hypothesis import given, settings, strategies as st

from mdel import lanes
from mdel.formulas import (
    Atom, BOT, Converse, Diamond, Eventually, Or, Star, STEP,
    compile_path, compile_to_core,
)
from mdel.intervals import Interval, UNTIMED
from mdel.lanes import grid_batches
from mdel.laws import random_formula, random_path
from mdel.mht import MhtEvaluator, mht_satisfies
from mdel.parser import parse_formula
from mdel.semantics import (
    HERE, THERE, Evaluator, accessibility, equiv_bounded, is_tautology_bounded, satisfies,
    satisfies_mdl,
)
from mdel.traces import TimeGrids, TraceBounds, enumerate_traces, make_trace, total_of

from naive_ref import naive_relation, naive_satisfies

AB = frozenset({"a", "b"})
TRACE_43 = make_trace(AB, [{"a"}, set(), set()], [0, 1, 4])


def test_access_relation_examples():
    assert accessibility(STEP, TRACE_43).pairs == {(0, 1), (1, 2)}
    assert accessibility(Star(STEP), TRACE_43).pairs == {
        (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)}
    assert accessibility(Converse(STEP), TRACE_43).pairs == {(1, 0), (2, 1)}


def test_access_relation_membership_and_inclusion():
    step, star = accessibility(STEP, TRACE_43), accessibility(Star(STEP), TRACE_43)
    assert (0, 1) in step and (1, 0) not in step
    assert step <= star and not star <= step


def test_release_counterexample_trace():
    assert satisfies(TRACE_43, 0, parse_formula("a release [3..5] b", AB))
    assert not satisfies(TRACE_43, 0, parse_formula("b until [3..5] (a & b)", AB))
    assert not satisfies(TRACE_43, 0, parse_formula("alw [3..5] b", AB))


def test_constants_everywhere():
    for k in range(TRACE_43.length):
        assert satisfies(TRACE_43, k, parse_formula("top", AB))
        assert not satisfies(TRACE_43, k, parse_formula("bot", AB))


def test_negation_reads_the_there_world():
    ht = make_trace(AB, [{"a"}], [0], here=[set()])
    not_a = parse_formula("!a", AB)
    for k in range(ht.length):
        assert satisfies(ht, k, not_a) == (not satisfies(total_of(ht), k, Atom("a")))
    assert not satisfies(ht, 0, not_a)
    assert not satisfies(ht, 0, Atom("a"))  # both a and !a fail here


def test_position_out_of_range():
    with pytest.raises(IndexError):
        satisfies(TRACE_43, 3, Atom("a"))
    with pytest.raises(IndexError):
        mht_satisfies(TRACE_43, -1, Atom("a"))


def test_mdl_requires_total():
    ht = make_trace(AB, [{"a"}], [0], here=[set()])
    with pytest.raises(ValueError):
        satisfies_mdl(ht, 0, Atom("a"))


def test_excluded_middle_classical_but_not_ht():
    em = parse_formula("a | !a", AB)
    for m in enumerate_traces(TraceBounds(AB, 2, 2, total_only=True)):
        for k in range(m.length):
            assert satisfies_mdl(m, k, em)
    ht = make_trace(AB, [{"a"}], [0], here=[set()])
    assert not satisfies(ht, 0, em)


def test_mht_item_examples():
    m = make_trace(AB, [set(), {"a"}], [0, 1])
    assert mht_satisfies(m, 0, parse_formula("initial", AB))
    assert not mht_satisfies(m, 1, parse_formula("initial", AB))
    assert mht_satisfies(m, 1, parse_formula("final", AB))
    assert not mht_satisfies(m, 0, parse_formula("final", AB))
    assert not mht_satisfies(m, 0, parse_formula("next[3..3] a", AB))
    assert mht_satisfies(m, 0, parse_formula("next[1..1] a", AB))


def test_mht_rejects_raw_modalities():
    with pytest.raises(ValueError):
        mht_satisfies(TRACE_43, 0, Diamond(STEP, UNTIMED, Atom("a")))


def test_tautology_counterexample_is_first_in_order():
    v = is_tautology_bounded(parse_formula("a | !a", AB), TraceBounds(frozenset("a"), 1, 1))
    assert not v.valid
    trace, k = v.counterexample
    assert k == 0
    assert trace.here == (frozenset(),) and trace.there == (frozenset({"a"}),)
    doc = v.to_dict()
    assert doc["verdict"] == "counterexample" and doc["position"] == 0


def test_tautology_valid_and_serialization():
    v = is_tautology_bounded(parse_formula("!!a -> !!a", AB), TraceBounds(AB, 2, 2))
    assert v.valid
    assert v.to_dict()["verdict"] == "valid-up-to-bounds"


def test_equiv_eventually_is_star_diamond():
    iv = Interval.closed_closed(0, 2)
    f = Eventually(iv, Atom("a"))
    g = Diamond(Star(STEP), iv, Atom("a"))
    assert equiv_bounded(f, g, TraceBounds(AB, 3, 2)).valid


def test_equiv_reflexive():
    f = parse_formula("a release [1..2] (b | !a)", AB)
    assert equiv_bounded(f, f, TraceBounds(AB, 2, 2)).valid


def test_naive_release_equivalence_fails_on_counterexample_family():
    f = parse_formula("a release [3..5] b", AB)
    g = parse_formula("(b until [3..5] (a & b)) | alw [3..5] b", AB)
    v = equiv_bounded(f, g, TraceBounds(AB, 3, 4))
    assert not v.valid
    trace, k = v.counterexample
    assert satisfies(trace, k, f) != satisfies(trace, k, g) or \
        satisfies(trace, k, f, THERE) != satisfies(trace, k, g, THERE)
    # the displayed length-3 instance is itself a counterexample
    assert satisfies(TRACE_43, 0, f) and not satisfies(TRACE_43, 0, g)


# -- the classical grid evaluator against the naive reference ----------------------


def _classical_reference_cases():
    # random core formulas and paths: tests, choice, sequence, star and
    # converse, with future, past and negative intervals
    rng = random.Random(8)
    formulas = [compile_to_core(random_formula(rng, ["a", "b"], rng.randint(1, 3)))
                for _ in range(40)]
    paths = [compile_path(random_path(rng, ["a", "b"], rng.randint(1, 3))) for _ in range(24)]
    return formulas, paths


def _classical_by_lane(ev, nodes, lane, lam):
    """One lane's positions per formula and position pairs per path."""
    formulas, paths = nodes
    return ([[ev.sat(f)[k] >> lane & 1 for k in range(lam)] for f in formulas],
            [{(k, i) for k in range(lam) for i in range(lam) if ev.sat(rho)[k][i] >> lane & 1}
             for rho in paths])


def _naive_classical(m, nodes):
    formulas, paths = nodes
    return ([[int(naive_satisfies(m, k, f)) for k in range(m.length)] for f in formulas],
            [naive_relation(rho, m) for rho in paths])


@pytest.mark.parametrize("space", [
    TimeGrids(AB, [(), (0,), (0, 3), (0, 1, 4), (0, 2, 3)]),  # uneven, total
    TraceBounds(AB, 2, 2),  # HT: the total lanes are a part of each grid
], ids=["uneven-total", "ht"])
def test_classical_grid_evaluator_matches_naive_reference(space, monkeypatch):
    # every lane, at every position, against the naive classical clauses;
    # the evaluator reads the there-world columns, which on a total lane are
    # the lane's own states (on the others, those of its collapsed trace)
    nodes = _classical_reference_cases()
    want: dict = {}
    for limit in (4096, 1024, 8):
        monkeypatch.setattr(lanes, "LANE_LIMIT", limit)
        lanes_seen = 0
        for grid in grid_batches(space):
            ev = MhtEvaluator(grid.batch.twin)
            for lane in range(grid.size):
                m = total_of(grid.trace(lane))
                if (m.tau, m.there) not in want:
                    want[m.tau, m.there] = _naive_classical(m, nodes)
                assert _classical_by_lane(ev, nodes, lane, m.length) == want[m.tau, m.there]
            lanes_seen += grid.size
        assert lanes_seen == sum(1 for _ in enumerate_traces(space))


def test_mdl_rel_rows_match_naive_relation():
    # row k of a path's classical relation is the mask of the positions k
    # reaches, on every total trace of lambda <= 3 over {a, b}
    _, paths = _classical_reference_cases()
    for m in enumerate_traces(TraceBounds(AB, 3, 2, total_only=True)):
        ev = Evaluator(m)
        for rho in paths:
            rows = ev.mdl_rel_rows(rho)
            got = {(k, i) for k, row in enumerate(rows) for i in range(m.length) if row >> i & 1}
            assert len(rows) == m.length and got == naive_relation(rho, m)


@st.composite
def formula_and_seed(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    return random_formula(rng, ["a", "b"], draw(st.integers(0, 3)))


@settings(max_examples=120, deadline=None)
@given(formula_and_seed(), st.integers(min_value=0, max_value=2**32 - 1))
def test_there_world_collapses_to_total(f, seed):
    rng = random.Random(seed)
    m = _random_trace(rng)
    core = compile_to_core(f)
    for k in range(m.length):
        assert satisfies(m, k, core, THERE) == satisfies(total_of(m), k, core, HERE)


@settings(max_examples=60, deadline=None)
@given(formula_and_seed(), st.integers(min_value=0, max_value=2**32 - 1))
def test_engine_matches_naive_reference(f, seed):
    rng = random.Random(seed)
    m = _random_trace(rng, max_len=3)
    core = compile_to_core(f)
    for k in range(m.length):
        assert satisfies(m, k, core, HERE) == naive_satisfies(m, k, core, "here")


def _random_trace(rng, max_len=4):
    lam = rng.randint(1, max_len)
    tau, there, here = [0], [], []
    for _ in range(lam - 1):
        tau.append(tau[-1] + rng.randint(1, 4))
    for _ in range(lam):
        t = {x for x in ("a", "b") if rng.random() < 0.5}
        here.append({x for x in t if rng.random() < 0.6})
        there.append(t)
    return make_trace(AB, there, tau[:lam], here)


# -- unconditional transfer: no-implication formulas can be compared classically ----


def _random_unconditional(rng, depth):
    """Formulas with no atom under a box: diamond-family operators only."""
    from mdel.formulas import (
        And, EvPast, Eventually, Final, Initial, Next, Or, Prev, Since,
        TOP, Until,
    )
    from mdel.laws import random_interval

    if depth <= 0:
        return rng.choice([Atom("a"), Atom("b"), TOP, BOT, Final(), Initial()])
    c = rng.randrange(8)
    sub = lambda: _random_unconditional(rng, depth - 1)
    if c == 0:
        return And(sub(), sub())
    if c == 1:
        return Or(sub(), sub())
    if c <= 3:
        return rng.choice((Next, Eventually))(random_interval(rng), sub())
    if c <= 5:
        return rng.choice((Prev, EvPast))(random_interval(rng, past=True), sub())
    if c == 6:
        return Until(random_interval(rng), sub(), sub())
    return Since(random_interval(rng, past=True), sub(), sub())


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_unconditional_equivalence_transfers_to_classical(seed):
    rng = random.Random(seed)
    f = _random_unconditional(rng, rng.randint(1, 2))
    g = _random_unconditional(rng, rng.randint(1, 2))
    bounds = TraceBounds(AB, 2, 2)
    ht_equiv = equiv_bounded(f, g, bounds).valid
    cf, cg = compile_to_core(f), compile_to_core(g)
    classical_equiv = all(
        satisfies_mdl(m, k, cf) == satisfies_mdl(m, k, cg)
        for m in enumerate_traces(TraceBounds(AB, 2, 2, total_only=True))
        for k in range(m.length)
    )
    assert ht_equiv == classical_equiv
