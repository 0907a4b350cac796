"""Satisfaction on one timed HT-trace: the one-trace view of the lane engine.

Satisfaction is computed as *sets*: for each (sub)formula and world, the
bitmask of trace positions where the formula holds; a relation is a tuple of
rows of bitmasks (``rows[k]`` holds the successors of position ``k``).

The HT semantics has one implementation, :class:`mdel.lanes.LaneBatch`.
:class:`Evaluator` is its view of a single trace: a one-lane batch whose
there-world twin is the batch of the collapsed total trace.  Bounded scans,
the tautology search behind ``mdel equiv`` among them, evaluate whole grids
of traces at once and live in :mod:`mdel.laws`.  The classical
single-world semantics is the classical clause family of
:class:`mdel.mht.MhtEvaluator`, which calls no evaluation code of the lane
engine, so the totality law compares two independent computations;
``Evaluator.mdl_sat_mask`` / ``mdl_rel_rows`` and :func:`satisfies_mdl` are
its one-lane views.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

from .formulas import Formula, PathExpr, compile_path, compile_to_core
from .lanes import LaneBatch, iter_lanes, lane_mask, lane_rows, trace_batch
# the tautology search and the worlds keep their old import path here
from .laws import Verdict, equiv_bounded, iff, is_tautology_bounded
from .mht import MhtEvaluator
from .traces import HERE, THERE, TimedHTTrace, World, _check_position


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
    def _classical(self) -> MhtEvaluator:
        return MhtEvaluator(self._batch.twin)

    def mdl_sat_mask(self, f: Formula) -> int:
        return lane_mask(self._classical.sat(f), 0)

    def mdl_rel_rows(self, rho: PathExpr) -> Tuple[int, ...]:
        return tuple(lane_mask(row, 0) for row in self._classical.sat(rho))


# -- public operations -----------------------------------------------------------


def accessibility(rho: PathExpr, m: TimedHTTrace, world: World = HERE) -> AccessRelation:
    """The relation a path expression denotes on the trace in the given world."""
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
