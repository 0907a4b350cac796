import random
from itertools import combinations

import pytest

from mdel import equilibrium, lanes
from mdel.equilibrium import (
    enumerate_equilibrium, is_equilibrium, is_model, iter_models, result_to_dict,
)
from mdel.formulas import Theory, compile_to_core
from mdel.lanes import LaneBatch
from mdel.laws import random_theory
from mdel.parser import parse_theory
from mdel.sos import RESCALED, curated_space, sos_theory
from mdel.traces import (
    TimeGrids, TimedHTTrace, TraceBounds, enumerate_traces, load_trace, make_trace,
)

from naive_ref import naive_equilibrium_models, naive_is_model

A1 = frozenset("a")
AB = frozenset("ab")
EV_A = parse_theory("ev a", A1)
EMPTY = Theory((), A1)
BOT_THEORY = parse_theory("bot", A1)


def test_sos_hand_model():
    theory = sos_theory(RESCALED)
    m = make_trace(theory.alphabet, [set(), {"a"}], [0, 4])
    assert is_model(m, theory)
    assert not is_model(make_trace(theory.alphabet, [set(), set()], [0, 4]), theory)
    verdict = is_equilibrium(m, theory)
    assert verdict.status == "equilibrium"
    assert verdict.witnesses_checked == 1  # only H=[{},{}] lies strictly below


def test_sos_hand_model_original_constants():
    from mdel.sos import ORIGINAL

    theory = sos_theory(ORIGINAL)
    m = make_trace(theory.alphabet, [set(), {"a"}], [0, 40])
    assert is_model(m, theory)
    assert is_equilibrium(m, theory).status == "equilibrium"


def test_empty_theory_models_everything():
    for tau, states in [((0,), [{"a"}]), ((0, 3), [set(), {"a"}])]:
        assert is_model(make_trace(A1, states, tau), EMPTY)


def test_lambda_zero_convention():
    empty_trace = make_trace(A1, [], [])
    assert is_model(empty_trace, EMPTY)
    assert not is_model(empty_trace, EV_A)


def test_bot_theory_never_models():
    for t in (make_trace(A1, [set()], [0]), make_trace(A1, [{"a"}], [0])):
        assert is_model(t, BOT_THEORY) is False
        assert is_equilibrium(t, BOT_THEORY).status == "not-model"


def test_blocked_verdict_returns_first_blocker():
    t = make_trace(A1, [{"a"}, {"a"}], [0, 1])
    v = is_equilibrium(t, EV_A)
    assert v.status == "blocked"
    # first candidate in order removes the earliest occurrence
    assert v.blocker.here == (frozenset(), frozenset({"a"}))
    assert v.blocker.there == t.there and v.blocker.tau == t.tau


def test_equilibrium_requires_total_input():
    ht = make_trace(A1, [{"a"}], [0], here=[set()])
    with pytest.raises(ValueError):
        is_equilibrium(ht, EV_A)


def test_single_a_characterization():
    bounds = TraceBounds(A1, 3, 2, total_only=True)
    results = list(enumerate_equilibrium(EV_A, bounds))
    assert results, "expected equilibrium models"
    for r in results:
        occupied = [s for s in r.model.there if s]
        assert occupied == [frozenset({"a"})]  # exactly one a, nothing else
    lengths = [r.lam for r in results]
    assert lengths == sorted(lengths)  # grouped by ascending length


def test_empty_theory_equilibria_are_all_empty_traces():
    bounds = TraceBounds(A1, 2, 2)
    results = list(enumerate_equilibrium(EMPTY, bounds))
    shapes = [(r.lam, r.model.tau, r.model.there) for r in results]
    assert shapes == [
        (0, (), ()),
        (1, (0,), (frozenset(),)),
        (2, (0, 1), (frozenset(), frozenset())),
        (2, (0, 2), (frozenset(), frozenset())),
    ]


def test_partition_by_length():
    bounds = TraceBounds(A1, 3, 2)
    results = list(enumerate_equilibrium(EV_A, bounds))
    by_lambda = {}
    for r in results:
        by_lambda.setdefault(r.lam, []).append(r)
        assert r.lam == r.model.length
    total = sum(len(v) for v in by_lambda.values())
    assert total == len(results)  # groups partition the result list


def test_results_revalidate():
    bounds = TraceBounds(A1, 2, 2)
    for r in enumerate_equilibrium(EV_A, bounds):
        assert is_model(r.model, EV_A)
        v = is_equilibrium(r.model, EV_A)
        assert v.status == "equilibrium"
        assert v.witnesses_checked == r.witnesses_checked


def test_matches_naive_oracle_small():
    compiled = [compile_to_core(f) for f in EV_A.formulas]
    want = naive_equilibrium_models(compiled, ["a"], 2, 2)
    got = {(r.model.tau, r.model.there)
           for r in enumerate_equilibrium(EV_A, TraceBounds(A1, 2, 2))}
    assert got == want


def test_result_serialization():
    r = next(iter(enumerate_equilibrium(EV_A, TraceBounds(A1, 1, 1))))
    doc = result_to_dict(r)
    assert doc["status"] == "equilibrium"
    assert doc["lambda"] == r.lam
    assert load_trace({k: v for k, v in doc.items() if k != "status"}) == r.model


def test_alphabet_containment_enforced():
    with pytest.raises(ValueError):
        list(enumerate_equilibrium(sos_theory(), TraceBounds(A1, 1, 1)))


def test_iter_models_enforces_alphabet_containment():
    with pytest.raises(ValueError):
        list(iter_models(parse_theory("a | b", AB), TraceBounds(A1, 1, 1)))


def test_is_model_enforces_alphabet_containment():
    # b is outside the trace's alphabet: refused, not read as false
    with pytest.raises(ValueError):
        is_model(make_trace(A1, [set()], [0]), parse_theory("a | b", AB))


def test_is_equilibrium_enforces_alphabet_containment():
    with pytest.raises(ValueError):
        is_equilibrium(make_trace(A1, [{"a"}], [0]), parse_theory("a | b", AB))


def test_iter_models_includes_ht_models():
    ms = list(iter_models(EV_A, TraceBounds(A1, 1, 1)))
    assert make_trace(A1, [{"a"}], [0]) in ms
    # <H,T> with H empty is not a model: ev a fails in the here world
    assert make_trace(A1, [{"a"}], [0], here=[set()]) not in ms


# -- differential tests: the lane engine against a per-trace naive search ---------

def _reference_check(t, compiled):
    """Per-trace minimality search on naive_ref's clauses, candidate by candidate."""
    if not naive_is_model(t, compiled):
        return "not-model", None, 0
    occurrences = [(i, a) for i, state in enumerate(t.there) for a in sorted(state)]
    witnesses = 0
    for removed in range(1, len(occurrences) + 1):
        for combo in combinations(occurrences, removed):
            witnesses += 1
            here = [set(s) for s in t.there]
            for i, a in combo:
                here[i].discard(a)
            candidate = TimedHTTrace(t.alphabet, tuple(frozenset(s) for s in here),
                                     t.there, t.tau)
            if naive_is_model(candidate, compiled):
                return "blocked", candidate, witnesses
    return "equilibrium", None, witnesses


# theories whose equilibria need several rounds or block in late rounds
HAND_THEORIES = [
    "alw (!b -> a)", "!a -> b\n!b -> a", "a | b", "alw (a -> next b)\nev[1..2] a",
    "a release [1..2] b", "alw (a | b)\n!(a & b) | final", "ev b\nalw (b -> prev a)",
]


def _random_theories(count, seed):
    rng = random.Random(seed)
    return [random_theory(rng, ["a", "b"][:rng.randint(1, 2)], 3, 3) for _ in range(count)]


DIFFERENTIAL_THEORIES = [parse_theory(text, AB) for text in HAND_THEORIES] + _random_theories(20, 7)


@pytest.mark.parametrize("theory", DIFFERENTIAL_THEORIES, ids=range(len(DIFFERENTIAL_THEORIES)))
def test_lane_engine_matches_per_trace_reference(theory):
    alphabet = theory.alphabet
    compiled = [compile_to_core(f) for f in theory.formulas]
    bounds = TraceBounds(alphabet, 3, 2, total_only=True)
    want = []
    for t in enumerate_traces(bounds):
        status, blocker, witnesses = _reference_check(t, compiled)
        got = is_equilibrium(t, theory)
        assert (got.status, got.blocker, got.witnesses_checked) == (status, blocker, witnesses)
        if status == "equilibrium":
            want.append((t, t.length, witnesses))
    got = [(r.model, r.lam, r.witnesses_checked)
           for r in enumerate_equilibrium(theory, bounds)]
    assert got == want

    ht_bounds = TraceBounds(alphabet, 2, 2)
    want_models = [m for m in enumerate_traces(ht_bounds)
                   if naive_is_model(m, compiled)]
    assert list(iter_models(theory, ht_bounds)) == want_models


@pytest.mark.parametrize("theory", DIFFERENTIAL_THEORIES[:4] + DIFFERENTIAL_THEORIES[-2:],
                         ids=range(6))
def test_lane_engine_matches_naive_oracle(theory):
    compiled = [compile_to_core(f) for f in theory.formulas]
    want = naive_equilibrium_models(compiled, sorted(theory.alphabet), 3, 2)
    got = {(r.model.tau, r.model.there)
           for r in enumerate_equilibrium(theory, TraceBounds(theory.alphabet, 3, 2))}
    assert got == want


def test_lane_chunks_keep_the_enumeration(monkeypatch):
    theory = sos_theory(RESCALED)
    bounds = TraceBounds(theory.alphabet, 3, 2)
    whole = [(r.model, r.witnesses_checked) for r in enumerate_equilibrium(theory, bounds)]
    whole_models = list(iter_models(EV_A, TraceBounds(A1, 3, 2)))
    monkeypatch.setattr(lanes, "LANE_LIMIT", 8)  # one free position per chunk
    assert [(r.model, r.witnesses_checked)
            for r in enumerate_equilibrium(theory, bounds)] == whole
    assert list(iter_models(EV_A, TraceBounds(A1, 3, 2))) == whole_models


UNEVEN_TAUS = [(), (0,), (0, 3), (0, 1, 4), (0, 2, 3)]


@pytest.mark.parametrize("limit", [4096, 1024, 8])
@pytest.mark.parametrize("theory", [DIFFERENTIAL_THEORIES[i] for i in (0, 3, 5, 6, 21, 26)],
                         ids=range(6))
def test_explicit_grids_match_per_trace_reference(theory, limit, monkeypatch):
    monkeypatch.setattr(lanes, "LANE_LIMIT", limit)
    compiled = [compile_to_core(f) for f in theory.formulas]
    space = TimeGrids(theory.alphabet, UNEVEN_TAUS)
    want = []
    for t in enumerate_traces(space):
        status, _, witnesses = _reference_check(t, compiled)
        if status == "equilibrium":
            want.append((t, t.length, witnesses))
    got = [(r.model, r.lam, r.witnesses_checked)
           for r in enumerate_equilibrium(theory, space)]
    assert got == want


def test_curated_space_must_start_at_zero():
    for grid in ((), (5, 40)):
        with pytest.raises(ValueError):
            curated_space(grid)


# -- the grouped minimality search: lanes with equally many occurrences share
# each round's candidate, so one grid mixes groups in different states ------------

def _matches_reference(theory, space):
    """Check the enumerated equilibria (order, witnesses) and every trace's
    is_equilibrium verdict against _reference_check.

    Returns the reference verdicts of the models by occurrence count.
    """
    compiled = [compile_to_core(f) for f in theory.formulas]
    want, groups = [], {}
    for t in enumerate_traces(space):
        status, blocker, witnesses = _reference_check(t, compiled)
        got = is_equilibrium(t, theory)
        assert (got.status, got.blocker, got.witnesses_checked) == (status, blocker, witnesses)
        n = sum(map(len, t.there))
        if status == "equilibrium":
            assert witnesses == 2 ** n - 1
            want.append((t, t.length, witnesses))
        if status != "not-model":
            groups.setdefault(n, []).append((status, witnesses))
    got = [(r.model, r.lam, r.witnesses_checked) for r in enumerate_equilibrium(theory, space)]
    assert got == want
    return groups


@pytest.mark.parametrize("limit", [4096, 1024, 8])
def test_groups_run_out_stay_open_and_block_in_one_grid(limit, monkeypatch):
    # at LANE_LIMIT 8 each chunk fixes two positions, so the occurrence
    # counters of a chunk start from its prefix's occurrences
    monkeypatch.setattr(lanes, "LANE_LIMIT", limit)
    theory = parse_theory("(a & next a) | (b & next b & next next b)", AB)
    groups = _matches_reference(theory, TimeGrids(AB, [(0, 1, 2)]))
    assert groups[2] == [("equilibrium", 3)]  # runs out in round 4 ...
    assert ("equilibrium", 7) in groups[3]  # ... while this group is still open
    assert ("blocked", 2) in groups[3]
    for n in (4, 5, 6):  # and these are blocked by then
        assert all(status == "blocked" and witnesses <= 3 for status, witnesses in groups[n])


THREE_ATOMS = [sos_theory(RESCALED), parse_theory("alw (a | b)\nalw (b | c)", "abc")]


@pytest.mark.parametrize("limit", [4096, 1024, 8])
@pytest.mark.parametrize("theory", THREE_ATOMS, ids=["sos", "two-choices"])
def test_three_atoms_with_up_to_nine_occurrences(theory, limit, monkeypatch):
    monkeypatch.setattr(lanes, "LANE_LIMIT", limit)
    space = TimeGrids(theory.alphabet, [(0, 4, 5), (0, 1, 5), (0, 2, 3)])
    groups = _matches_reference(theory, space)
    assert max(groups) == 9
    assert any(status == "equilibrium" for verdicts in groups.values() for status, _ in verdicts)


# -- candidate lanes: a group whose rounds would be many leaves them, and its
# models are decided in batches whose lanes are the here-candidates -----------

# a is on every position or on none, and b is wherever a is: the model with a
# and b everywhere is blocked by the first candidate that removes every a
ALL_OR_NOTHING = "alw (a -> (next a | final))\nalw (a -> (prev a | initial))\nalw (a -> b)"
FACTS = parse_theory("alw a\nalw b", AB)  # equilibria after 2^n - 1 candidates
CANDIDATE_THEORIES = [
    parse_theory(ALL_OR_NOTHING, AB),
    parse_theory(ALL_OR_NOTHING + "\nalw (b -> a)", AB),  # blocked by the last candidate
    FACTS,
    parse_theory(ALL_OR_NOTHING + "\nalw (c | !c)", "abc"),  # and free choices of c
]
MIXED_GRIDS = [(0, 1, 2, 3), (0, 2, 3, 5), (0, 1), (0, 3, 4), ()]


@pytest.fixture
def candidate_verdicts(monkeypatch):
    """``(witnesses, blocked)`` of every model decided by candidate lanes."""
    seen = []
    decide = equilibrium._candidate_lanes

    def spy(*args):
        verdicts = decide(*args)
        seen.extend((w, removed is not None) for _, w, removed in verdicts)
        return verdicts

    monkeypatch.setattr(equilibrium, "_candidate_lanes", spy)
    return seen


@pytest.mark.parametrize("limit", [4096, 1024, 8])
@pytest.mark.parametrize("theory", CANDIDATE_THEORIES,
                         ids=["mid-rank", "last-rank", "facts", "with-choices"])
def test_candidate_lanes_match_per_trace_reference(theory, limit, monkeypatch,
                                                   candidate_verdicts):
    # at LANE_LIMIT 8 a model's candidates take many batches of 8 lanes
    monkeypatch.setattr(lanes, "LANE_LIMIT", limit)
    grids = MIXED_GRIDS if len(theory.alphabet) == 2 else MIXED_GRIDS[2:5]
    groups = _matches_reference(theory, TimeGrids(theory.alphabet, grids))
    assert len(groups) > 2 and candidate_verdicts  # groups of both kinds
    if theory is CANDIDATE_THEORIES[0]:
        # at lambda = 4, (0, 2, 4, 6) is the 21st candidate of size 4, after 92 smaller ones
        assert (92 + 21, True) in candidate_verdicts
    if theory is CANDIDATE_THEORIES[1]:
        assert (255, True) in candidate_verdicts
    if theory is FACTS:
        assert (255, False) in candidate_verdicts


@pytest.mark.parametrize("limit", [4096, 1024, 8])
@pytest.mark.parametrize("theory", CANDIDATE_THEORIES[:3], ids=["mid-rank", "last-rank", "facts"])
def test_candidate_lanes_match_naive_oracle(theory, limit, monkeypatch, candidate_verdicts):
    monkeypatch.setattr(lanes, "LANE_LIMIT", limit)
    compiled = [compile_to_core(f) for f in theory.formulas]
    want = naive_equilibrium_models(compiled, sorted(theory.alphabet), 3, 3)
    got = [(r.model.tau, r.model.there)
           for r in enumerate_equilibrium(theory, TraceBounds(theory.alphabet, 3, 3))]
    assert set(got) == want and len(got) == len(want)
    assert candidate_verdicts


def test_facts_decided_in_candidate_batches(monkeypatch):
    # the one model of each length has n = 2 lambda occurrences; its rounds
    # would be 2^n - 1, and at lambda = 9 that is 262,143
    bounds = TraceBounds(AB, 8, 1)
    assert [(r.lam, r.witnesses_checked) for r in enumerate_equilibrium(FACTS, bounds)] == [
        (lam, 2 ** (2 * lam) - 1) for lam in range(1, 9)]
    passes = []
    models = LaneBatch.models
    monkeypatch.setattr(LaneBatch, "models",
                        lambda self, *args: passes.append(1) or models(self, *args))
    verdict = is_equilibrium(make_trace(AB, [AB] * 9, range(9)), FACTS)
    assert (verdict.status, verdict.witnesses_checked) == ("equilibrium", 262_143)
    # modelhood, then rounds until they outnumber twice the 64 batches of
    # 4,096 candidates that decide the rest
    batches = 2 ** 18 // lanes.LANE_LIMIT
    assert len(passes) == 1 + (2 * batches + 1) + batches
