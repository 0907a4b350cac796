import json
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from mdel.traces import (
    TimedHTTrace, TraceBounds, TraceError, dump_trace, enumerate_traces,
    enumerate_total_traces_with_tau, load_trace, make_trace, strictly_below,
    total_of, trace_to_dict,
)

DOC_43 = {"alphabet": ["a", "s", "h"], "lambda": 3, "tau": [0, 1, 4],
          "here": [["a"], [], []], "there": [["a"], [], []]}


def test_load_counterexample_trace():
    m = load_trace(json.dumps(DOC_43))
    assert m.length == 3
    assert m.tau == (0, 1, 4)
    assert m.there[0] == frozenset({"a"}) and not m.there[1] and not m.there[2]
    assert m.is_total


def test_load_empty_trace():
    m = load_trace({"alphabet": ["a"], "lambda": 0, "tau": [], "there": []})
    assert m.length == 0 and m.is_total


def test_here_defaults_to_there():
    doc = dict(DOC_43)
    doc.pop("here")
    assert load_trace(doc) == load_trace(DOC_43)


def test_non_strict_tau_rejected():
    doc = {"alphabet": ["a"], "lambda": 2, "tau": [0, 0], "there": [[], []]}
    with pytest.raises(TraceError):
        load_trace(doc)


def test_nonzero_origin_rejected():
    with pytest.raises(TraceError):
        make_trace({"a"}, [set()], [1])


def test_here_not_below_there_rejected():
    with pytest.raises(TraceError):
        make_trace({"a"}, [set()], [0], here=[{"a"}])


def test_schema_errors():
    with pytest.raises(TraceError):
        load_trace("{not json")
    with pytest.raises(TraceError):
        load_trace({"alphabet": ["a"], "tau": [0], "there": [[]]})  # no lambda
    with pytest.raises(TraceError):
        load_trace({"alphabet": ["a"], "lambda": 2, "tau": [0], "there": [[]]})
    # JSON booleans are ints to Python; neither they nor floats are accepted
    for lam, tau in ((True, [0]), (1.0, [0]), (2, [0.0, True]), (2, [0, 1.5])):
        with pytest.raises(TraceError):
            load_trace({"alphabet": ["a"], "lambda": lam, "tau": tau,
                        "there": [[]] * len(tau)})


@pytest.mark.parametrize("field, states", [
    ("there", ["ab", ""]),        # a string is not read as its characters
    ("there", [{"a": 5}]),        # nor an object as its keys
    ("here", [["a"], "a"]),
    ("there", [["a", 1]]),
    ("there", [None]),
    ("here", [[["a"]]]),
])
def test_states_must_be_lists_of_atom_names(field, states):
    doc = {"alphabet": ["a", "b"], "lambda": len(states), "tau": list(range(len(states))),
           "there": [["a", "b"]] * len(states), field: states}
    with pytest.raises(TraceError, match="state must be a list of atom names"):
        load_trace(doc)


def test_dump_round_trips_and_omits_here_when_total():
    m = load_trace(DOC_43)
    doc = trace_to_dict(m)
    assert "here" not in doc
    assert load_trace(doc) == m
    ht = make_trace({"a"}, [{"a"}], [0], here=[set()])
    doc = trace_to_dict(ht)
    assert doc["here"] == [[]]
    assert load_trace(dump_trace(ht)) == ht


def test_total_of():
    ht = make_trace({"a"}, [{"a"}, {"a"}], [0, 1], here=[set(), {"a"}])
    t = total_of(ht)
    assert t.here == t.there == ht.there and t.tau == ht.tau
    assert total_of(t) == t
    already = make_trace({"a"}, [{"a"}], [0])
    assert total_of(already) == already


def test_strictly_below():
    assert strictly_below([set(), set()], [{"a"}, set()])
    assert not strictly_below([{"a"}], [{"a"}])
    assert not strictly_below([{"a"}], [set()])  # pointwise inclusion fails
    with pytest.raises(ValueError):
        strictly_below([set()], [set(), set()])


def test_strictly_below_is_a_strict_partial_order():
    # exhaustive at |A| <= 2, lambda = 2
    atoms = ["a", "b"]
    subsets = [frozenset(c) for c in ([], ["a"], ["b"], ["a", "b"])]
    seqs = list(product(subsets, repeat=2))
    for x in seqs:
        assert not strictly_below(x, x)
    for x in seqs:
        for y in seqs:
            if strictly_below(x, y):
                assert not strictly_below(y, x)
                for z in seqs:
                    if strictly_below(y, z):
                        assert strictly_below(x, z)


def test_enumeration_counts_single_atom():
    # spec oracle: 1 empty trace + 2^|A| single-state total traces
    got = list(enumerate_traces(TraceBounds(frozenset("a"), 1, 1, total_only=True)))
    assert len(got) == 3
    assert got[0].length == 0
    assert [sorted(s) for m in got[1:] for s in m.there] == [[], ["a"]]


def test_enumeration_ht_states_in_documented_order():
    got = [m for m in enumerate_traces(TraceBounds(frozenset("a"), 1, 1))
           if m.length == 1]
    pairs = [(set(m.here[0]), set(m.there[0])) for m in got]
    assert pairs == [(set(), set()), (set(), {"a"}), ({"a"}, {"a"})]


def test_enumeration_time_grids():
    got = {m.tau for m in enumerate_traces(TraceBounds(frozenset(), 3, 2))
           if m.length == 3}
    assert got == {(0, 1, 2), (0, 1, 3), (0, 2, 3), (0, 2, 4)}
    assert len(got) == 4  # gap^(lambda-1) distinct time functions


@pytest.mark.parametrize("atoms,lam,gap,total", [
    ("a", 2, 2, True), ("a", 2, 2, False), ("ab", 2, 3, True), ("ab", 1, 1, False),
])
def test_enumeration_counts_match_formula(atoms, lam, gap, total):
    bounds = TraceBounds(frozenset(atoms), lam, gap, total_only=total)
    base = (2 if total else 3) ** len(atoms)
    per_length = [base ** k * gap ** max(k - 1, 0) for k in range(lam + 1)]
    got = list(enumerate_traces(bounds))
    assert len(got) == sum(per_length)
    # no duplicates, and every yield re-validates through the constructor
    seen = set()
    for m in got:
        key = (m.tau, m.here, m.there)
        assert key not in seen
        seen.add(key)
        assert TimedHTTrace(m.alphabet, m.here, m.there, m.tau) == m


def test_enumeration_is_deterministic():
    bounds = TraceBounds(frozenset("ab"), 2, 2)
    assert list(enumerate_traces(bounds)) == list(enumerate_traces(bounds))


def test_fixed_tau_enumeration():
    got = list(enumerate_total_traces_with_tau({"a"}, (0, 5)))
    assert len(got) == 4
    assert all(m.tau == (0, 5) for m in got)


@given(st.integers(0, 2), st.integers(1, 2))
@settings(max_examples=10, deadline=None)
def test_lambda_zero_always_first_and_unique(lam, gap):
    ms = list(enumerate_traces(TraceBounds(frozenset("a"), lam, gap)))
    assert ms[0].length == 0
    assert sum(1 for m in ms if m.length == 0) == 1
