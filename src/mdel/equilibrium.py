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
evaluates every total trace of one (lambda, tau) in one pass, and the
minimality search runs in rounds, round r evaluating the r-th candidate of
every model still open in one here batch whose there twin is that pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator, Optional

from .formulas import Theory, compile_to_core
from .lanes import LaneBatch, grid_batches, iter_lanes, trace_columns
from .traces import Space, TimedHTTrace, _state_table, trace_to_dict


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


def _compile_theory(theory: Theory):
    return tuple(compile_to_core(f) for f in theory.formulas)


def is_model(m: TimedHTTrace, theory: Theory) -> bool:
    """Modelhood: satisfaction of every theory formula at position 0.

    The empty trace has no position 0, so it models only the empty theory.
    """
    twin = None if m.is_total else LaneBatch(m.tau, trace_columns(m.there), 1)
    batch = LaneBatch(m.tau, trace_columns(m.here), 1, twin=twin)
    return bool(batch.models(_compile_theory(theory)))


def _here_candidates(occurrences):
    """All proper sub-here parts of a total trace, in the documented order.

    ``occurrences`` lists the trace's atom occurrences ``(position, atom)``
    position-major with atoms sorted; each candidate is the tuple of the
    occurrences it removes.
    """
    for removed in range(1, len(occurrences) + 1):
        yield from combinations(occurrences, removed)


def _minimality(total: LaneBatch, compiled, models: int,
                occurrences: Callable[[int], list]) -> dict:
    """The minimality search for every model lane of a total batch.

    Round r evaluates, in one here batch over the same lanes with ``total``
    as its twin, the r-th candidate of every model still open.  A lane that
    is a model blocks its trace; a model whose candidates run out is an
    equilibrium.  Returns ``{lane: (witnesses_checked, removed)}``, where
    ``removed`` gives the first blocker's removed occurrences, or None.
    """
    verdicts = {}
    pending = {lane: _here_candidates(occurrences(lane)) for lane in iter_lanes(models)}
    witnesses = 0
    while pending:
        witnesses += 1
        cleared, combos, active = {}, {}, 0  # cleared: occurrence -> lanes
        for lane, candidates in list(pending.items()):
            combo = next(candidates, None)
            if combo is None:
                del pending[lane]
                verdicts[lane] = (witnesses - 1, None)
                continue
            bit = 1 << lane
            active |= bit
            combos[lane] = combo
            for occ in combo:
                cleared[occ] = cleared.get(occ, 0) | bit
        if not active:
            break
        columns = {a: [x & ~cleared.get((i, a), 0) for i, x in enumerate(col)]
                   for a, col in total.columns.items()}
        here = LaneBatch(total.tau, columns, total.full, twin=total, shared=total.shared)
        for lane in iter_lanes(here.models(compiled, active)):
            del pending[lane]
            verdicts[lane] = (witnesses, combos[lane])
    return verdicts


def is_equilibrium(t: TimedHTTrace, theory: Theory) -> EquilibriumVerdict:
    """Check a total trace: model first, then exhaustive search for a blocker."""
    if not t.is_total:
        raise ValueError("equilibrium checking is defined on total traces only")
    compiled = _compile_theory(theory)
    total = LaneBatch(t.tau, trace_columns(t.there), 1)
    if not total.models(compiled):
        return EquilibriumVerdict("not-model", None, 0)
    occurrences = [(i, a) for i, state in enumerate(t.there) for a in sorted(state)]
    witnesses, removed = _minimality(total, compiled, 1, lambda lane: occurrences)[0]
    if removed is None:
        return EquilibriumVerdict("equilibrium", None, witnesses)
    here = tuple(s - {a for j, a in removed if j == i} for i, s in enumerate(t.there))
    return EquilibriumVerdict("blocked", TimedHTTrace(t.alphabet, here, t.there, t.tau),
                              witnesses)


def enumerate_equilibrium(theory: Theory, bounds: Space) -> Iterator[EquilibriumResult]:
    """All equilibrium models of a space's total traces, in enumeration order
    (grouped by ascending length for ``TraceBounds``)."""
    if not theory.alphabet <= bounds.alphabet:
        raise ValueError("theory alphabet must be contained in the search alphabet")
    compiled = _compile_theory(theory)
    atoms = [sorted(s) for s, _ in _state_table(bounds.alphabet, total_only=True)]
    for grid in grid_batches(bounds, total_only=True):
        def occurrences(lane, digits=grid.digits):
            return [(i, a) for i, d in enumerate(digits(lane)) for a in atoms[d]]

        total = grid.batch
        models = total.models(compiled)
        verdicts = _minimality(total, compiled, models, occurrences)
        for lane in iter_lanes(models):
            witnesses, removed = verdicts[lane]
            if removed is None:  # only equilibria become trace objects
                yield EquilibriumResult(grid.trace(lane), total.lam, witnesses)


def iter_models(theory: Theory, bounds: Space) -> Iterator[TimedHTTrace]:
    """All HT-traces within bounds that model the theory (not just total ones)."""
    compiled = _compile_theory(theory)
    for grid in grid_batches(bounds):
        for lane in iter_lanes(grid.batch.models(compiled)):
            yield grid.trace(lane)
