"""Satisfaction on timed HT-traces: the one-trace view of the lane engine,
and bounded tautology search.

Satisfaction is computed as *sets*: for each (sub)formula and world, the
bitmask of trace positions where the formula holds; a relation is a tuple of
rows of bitmasks (``rows[k]`` holds the successors of position ``k``).

The HT semantics has one implementation, :class:`mdel.lanes.LaneBatch`.
:class:`Evaluator` is its view of a single trace: a one-lane batch whose
there-world twin is the batch of the collapsed total trace.  Bounded scans
(``is_tautology_bounded`` here, the law suites in :mod:`mdel.laws`) evaluate
whole grids of traces at once instead.  The classical single-world
semantics is the classical clause family of :class:`mdel.mht.MhtEvaluator`,
which calls no evaluation code of the lane engine, so the totality law
compares two independent computations; ``Evaluator.mdl_sat_mask`` /
``mdl_rel_rows`` and :func:`satisfies_mdl` are its one-lane views.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

from .formulas import Formula, PathExpr, compile_to_core
from .lanes import (
    LaneBatch, grid_batches, iter_lanes, lane_mask, lane_rows, lanes_of, low_bit, trace_batch,
)
from .traces import TimedHTTrace, TraceBounds


class World(enum.Enum):
    HERE = "here"
    THERE = "there"


HERE = World.HERE
THERE = World.THERE


@dataclass(frozen=True)
class AccessRelation:
    """The denotation of a path expression: a set of position pairs."""

    pairs: frozenset

    def __contains__(self, pair) -> bool:
        return pair in self.pairs

    def __le__(self, other: "AccessRelation") -> bool:
        return self.pairs <= other.pairs


class Evaluator:
    """Satisfaction sets for one trace.

    ``sat_mask`` and ``rel_rows`` read the trace's one-lane batch
    (:func:`mdel.lanes.trace_batch`), built on first use, in the here world
    and its twin in the there world.  ``mdl_sat_mask`` and ``mdl_rel_rows``
    read the classical clauses of :class:`~mdel.mht.MhtEvaluator` on that
    twin, the there states: on a total trace, its only states.
    """

    def __init__(self, trace: TimedHTTrace):
        self.trace = trace

    @cached_property
    def _batch(self) -> LaneBatch:
        return trace_batch(self.trace)

    def _lanes(self, world: World) -> LaneBatch:
        return self._batch if world is HERE else self._batch.twin

    def rel_rows(self, rho: PathExpr, world: World = HERE) -> Tuple[int, ...]:
        return lane_rows(self._lanes(world).rel(rho), 0)

    def sat_mask(self, f: Formula, world: World = HERE) -> int:
        """Bitmask of positions where the core formula holds in the world."""
        return lane_mask(self._lanes(world).sat(f), 0)

    @cached_property
    def _classical(self):
        from .mht import MhtEvaluator  # mht imports this module

        return MhtEvaluator(self._batch.twin)

    def mdl_sat_mask(self, f: Formula) -> int:
        return lane_mask(self._classical.sat(f), 0)

    def mdl_rel_rows(self, rho: PathExpr) -> Tuple[int, ...]:
        return tuple(lane_mask(row, 0) for row in self._classical.sat(rho))


# -- public operations -----------------------------------------------------------


def _check_position(m: TimedHTTrace, k: int):
    if not 0 <= k < m.length:
        raise IndexError(f"position {k} out of range for a trace of length {m.length}")


def accessibility(rho: PathExpr, m: TimedHTTrace, world: World = HERE) -> AccessRelation:
    """The relation a path expression denotes on the trace in the given world."""
    from .formulas import compile_path

    ev = Evaluator(m)
    rows = ev.rel_rows(compile_path(rho), world)
    pairs = frozenset((k, i) for k, row in enumerate(rows) for i in iter_lanes(row))
    return AccessRelation(pairs)


def satisfies(m: TimedHTTrace, k: int, f: Formula, world: World = HERE) -> bool:
    """MDHT satisfaction at position k; surface formulas are compiled first."""
    _check_position(m, k)
    core = compile_to_core(f)
    return bool(Evaluator(m).sat_mask(core, world) >> k & 1)


def satisfies_mdl(m: TimedHTTrace, k: int, f: Formula) -> bool:
    """Classical satisfaction (box as the dual of diamond); total traces only."""
    if not m.is_total:
        raise ValueError("classical satisfaction is defined on total traces only")
    _check_position(m, k)
    core = compile_to_core(f)
    return bool(Evaluator(m).mdl_sat_mask(core) >> k & 1)


# -- bounded tautology and equivalence checking ------------------------------------


@dataclass(frozen=True)
class Verdict:
    valid: bool
    counterexample: Optional[tuple]  # (trace, position)
    traces_checked: int
    positions_checked: int

    def to_dict(self) -> dict:
        from .traces import trace_to_dict

        if self.valid:
            return {"verdict": "valid-up-to-bounds",
                    "traces": self.traces_checked,
                    "positions": self.positions_checked}
        trace, k = self.counterexample
        return {"verdict": "counterexample",
                "trace": trace_to_dict(trace),
                "position": k}


def is_tautology_bounded(f: Formula, bounds: TraceBounds) -> Verdict:
    """Exhaustively check f at every position of every trace within bounds.

    Returns the first counterexample in enumeration order (trace order, then
    position), or the bounded-validity verdict.
    """
    core = compile_to_core(f)
    traces = 0
    positions = 0
    for grid in grid_batches(bounds):
        batch = grid.batch
        missing = [batch.full ^ x for x in batch.sat(core)]
        lanes = lanes_of(missing)
        if lanes:  # the first failing lane, at its first failing position
            lane = low_bit(lanes)
            return Verdict(False, (grid.trace(lane), low_bit(lane_mask(missing, lane))),
                           traces + lane + 1, positions + batch.lam * (lane + 1))
        traces += grid.size
        positions += batch.lam * grid.size
    return Verdict(True, None, traces, positions)


def iff(f: Formula, g: Formula) -> Formula:
    from .formulas import And, Implies

    return And(Implies(f, g), Implies(g, f))


def equiv_bounded(f: Formula, g: Formula, bounds: TraceBounds) -> Verdict:
    """Bounded equivalence: tautology check of the biconditional."""
    return is_tautology_bounded(iff(f, g), bounds)
