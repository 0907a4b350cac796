"""Equilibrium (stable) model checking and bounded enumeration.

A total trace is in equilibrium for a theory when it is a model and no
trace with the same there component and time grid but a strictly smaller
here component is also a model.  The minimality search therefore fixes
there and tau and varies only the here states.  Candidates are examined in
a fixed order: by the number of removed atom occurrences ascending, then
lexicographically by the removed occurrence positions (occurrences listed
position-major with atoms sorted alphabetically); the first blocking model
in that order is reported.

All checks run on lane batches (:mod:`mdel.lanes`): the enumerator
evaluates the total traces of a chunk of time grids in one pass, and the
minimality search runs in rounds, round r evaluating the r-th candidate of
every model still open in one here batch whose there twin is that pass.
Models with the same number of occurrences share their candidates' index
tuples, so a round costs Python work per such group, not per model.  A
group that outlasts twice as many rounds as it would take batches with its
candidates as lanes, and has more candidates left than that, is decided
in such batches instead: ``LANE_LIMIT`` candidates of one model per batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from typing import Iterator, Optional

from . import lanes
from .formulas import Theory, compile_to_core
from .lanes import LaneBatch, grid_batches, iter_lanes, low_bit, trace_batch
from .traces import Space, TimedHTTrace, trace_to_dict


@dataclass(frozen=True)
class EquilibriumResult:
    model: TimedHTTrace
    lam: int
    witnesses_checked: int


@dataclass(frozen=True)
class EquilibriumVerdict:
    status: str  # "equilibrium" | "not-model" | "blocked"
    blocker: Optional[TimedHTTrace]
    witnesses_checked: int


def result_to_dict(r: EquilibriumResult) -> dict:
    doc = trace_to_dict(r.model)
    doc["status"] = "equilibrium"
    return doc


def _compile_theory(theory: Theory, alphabet: frozenset):
    """The theory's core formulas, refusing atoms outside a trace's or space's alphabet."""
    if not theory.alphabet <= alphabet:
        raise ValueError("theory alphabet must be contained in the search alphabet")
    return tuple(compile_to_core(f) for f in theory.formulas)


def is_model(m: TimedHTTrace, theory: Theory) -> bool:
    """Modelhood: satisfaction of every theory formula at position 0.

    The empty trace has no position 0, so it models only the empty theory.
    """
    return bool(trace_batch(m).models(_compile_theory(theory, m.alphabet)))


def _here_candidates(occurrences):
    """All proper sub-here parts of a total trace, in the documented order.

    ``occurrences`` lists the trace's atom occurrences ``(position, atom)``
    position-major with atoms sorted, or their indices; each candidate is
    the tuple of the occurrences it removes.
    """
    for removed in range(1, len(occurrences) + 1):
        yield from combinations(occurrences, removed)


def _minimality(total: LaneBatch, compiled, models: int) -> list:
    """The minimality search for every model lane of a total batch.

    The r-th candidate is the same tuple of occurrence indices for every
    lane with the same number n of occurrences.  So a prefix count over the
    columns gives, per (i, a), ``ranks[i, a][j]``: the lanes where (i, a) is
    occurrence j; the final counters group the lanes by n.  Round r draws
    one candidate per open group and evaluates all of them in one here batch
    over the same lanes, with ``total`` as its twin; the lanes that are
    models there are blocked, and a group whose candidates run out is
    equilibria.  A round is one pass however many groups it serves, and
    most models are blocked by their first candidates.  But a group that is
    not takes up to 2^n - 1 rounds, where :func:`_candidate_lanes` takes one
    pass per model and ``LANE_LIMIT`` candidates, and a pass there evaluates
    the theory in a here batch and its twin, a round in one batch.  So, as
    in renting before buying, a group leaves the rounds for candidate lanes
    once both the rounds run and its candidates left outnumber twice those
    passes.  Returns ``(lanes, witnesses_checked, removed)`` triples,
    ``removed`` being the first blocker's occurrence indices or None.
    """
    counts, ranks = [models], {}  # counts[j]: lanes with j occurrences so far
    for i in range(total.lam):
        for a in sorted(total.columns):
            col = total.columns[a][i] & models
            if col:
                ranks[i, a] = rank = [c & col for c in counts]
                counts = [(c & ~col) | r for c, r in zip(counts + [0], [0] + rank)]
    groups = {n: g for n, g in enumerate(counts) if g}  # n -> lanes still open
    candidates = {n: _here_candidates(range(n)) for n in groups}
    verdicts, witnesses = [], 0
    while groups:
        for n, live in list(groups.items()):
            left = 2 ** n - 1 - witnesses  # candidates not yet drawn
            passes = live.bit_count() * -(-left // lanes.LANE_LIMIT)
            if min(witnesses, left) > 2 * passes:  # a pass evaluates two batches
                verdicts += _candidate_lanes(total, compiled, groups.pop(n),
                                             candidates[n], witnesses)
        witnesses += 1
        chosen, active, combos = [0] * len(counts), 0, {}  # chosen[j]: lanes removing j
        for n, live in list(groups.items()):
            combos[n] = combo = next(candidates[n], None)
            if combo is None:  # 2^n - 1 candidates, none a model
                verdicts.append((groups.pop(n), witnesses - 1, None))
                continue
            active |= live
            for j in combo:
                chosen[j] |= live
        if not active:
            break
        # the ranks of one (i, a) are disjoint, so their sum is their union
        columns = {a: [x & ~sum(r & c for r, c in zip(ranks.get((i, a), ()), chosen))
                       for i, x in enumerate(col)]
                   for a, col in total.columns.items()}
        here = LaneBatch(total.times, columns, total.full, twin=total)
        blocked = here.models(compiled, active)
        for n, live in groups.items():
            if live & blocked:
                verdicts.append((live & blocked, witnesses, combos[n]))
        groups = {n: live & ~blocked for n, live in groups.items() if live & ~blocked}
    return verdicts


def _candidate_lanes(total: LaneBatch, compiled, live: int, candidates, drawn: int) -> list:
    """The minimality search of the model lanes ``live`` of a total batch,
    which share their number of occurrences, with candidates as lanes.

    ``candidates`` is the group's rank order, of which ``drawn`` are
    decided.  The next ``LANE_LIMIT`` candidates are the lanes of one batch
    per model: lane k keeps occurrence j unless the candidate of rank
    ``drawn + k`` removes it, and the twin repeats the model in every lane.
    The masks of which lanes remove j serve every model of the group.  A
    model's first blocker is its lowest blocked lane; a model with none
    takes the next candidates, until they run out.  Returns the same
    triples as :func:`_minimality`, one per lane.
    """
    open_models = []  # (lane, tau, occurrences (i, a))
    for lane in iter_lanes(live):
        tau = next(tau for tau, block in total.times if block >> lane & 1)
        open_models.append((lane, tau, [(i, a) for i in range(total.lam)
                                        for a in sorted(total.columns)
                                        if total.columns[a][i] >> lane & 1]))
    verdicts = []
    while open_models:
        combos = list(islice(candidates, lanes.LANE_LIMIT))
        if not combos:
            return verdicts + [(1 << lane, drawn, None) for lane, _, _ in open_models]
        width = len(combos)
        removes = [bytearray(b"0" * width) for _ in open_models[0][2]]  # high bit first
        for k, combo in enumerate(combos):
            for j in combo:
                removes[j][width - 1 - k] = 49  # ord("1")
        full = (1 << width) - 1
        keeps = [full ^ int(row, 2) for row in removes]
        still_open = []
        for lane, tau, occurrences in open_models:
            times = ((tau, full),)
            there: dict = {}
            here: dict = {}
            for j, (i, a) in enumerate(occurrences):
                there.setdefault(a, [0] * total.lam)[i] = full
                here.setdefault(a, [0] * total.lam)[i] = keeps[j]
            twin = LaneBatch(times, there, full, shared=total.shared)
            blocked = LaneBatch(times, here, full, twin=twin).models(compiled)
            if blocked:
                k = low_bit(blocked)
                verdicts.append((1 << lane, drawn + k + 1, combos[k]))
            else:
                still_open.append((lane, tau, occurrences))
        open_models = still_open
        drawn += width
    return verdicts


def is_equilibrium(t: TimedHTTrace, theory: Theory) -> EquilibriumVerdict:
    """Check a total trace: model first, then exhaustive search for a blocker."""
    if not t.is_total:
        raise ValueError("equilibrium checking is defined on total traces only")
    compiled = _compile_theory(theory, t.alphabet)
    total = trace_batch(t)
    if not total.models(compiled):
        return EquilibriumVerdict("not-model", None, 0)
    [(_, witnesses, removed)] = _minimality(total, compiled, 1)
    if removed is None:
        return EquilibriumVerdict("equilibrium", None, witnesses)
    occurrences = [(i, a) for i, state in enumerate(t.there) for a in sorted(state)]
    removed = [occurrences[j] for j in removed]
    here = tuple(s - {a for j, a in removed if j == i} for i, s in enumerate(t.there))
    return EquilibriumVerdict("blocked", TimedHTTrace(t.alphabet, here, t.there, t.tau),
                              witnesses)


def enumerate_equilibrium(theory: Theory, bounds: Space) -> Iterator[EquilibriumResult]:
    """All equilibrium models of a space's total traces, in enumeration order
    (grouped by ascending length for ``TraceBounds``)."""
    compiled = _compile_theory(theory, bounds.alphabet)
    for grid in grid_batches(bounds, total_only=True):
        total = grid.batch
        models = total.models(compiled)
        if not models:
            continue
        equilibria = {lane: witnesses
                      for lanes, witnesses, removed in _minimality(total, compiled, models)
                      if removed is None for lane in iter_lanes(lanes)}
        for lane in sorted(equilibria):  # only equilibria become trace objects
            yield EquilibriumResult(grid.trace(lane), total.lam, equilibria[lane])


def iter_models(theory: Theory, bounds: Space) -> Iterator[TimedHTTrace]:
    """All HT-traces within bounds that model the theory (not just total ones)."""
    compiled = _compile_theory(theory, bounds.alphabet)
    for grid in grid_batches(bounds):
        for lane in iter_lanes(grid.batch.models(compiled)):
            yield grid.trace(lane)
