"""Satisfaction on timed HT-traces: the one-trace view of the lane engine,
the classical evaluator of total traces, and bounded tautology search.

Satisfaction is computed as *sets*: for each (sub)formula and world, the
bitmask of trace positions where the formula holds; a relation is a tuple of
rows of bitmasks (``rows[k]`` holds the successors of position ``k``).

The HT semantics has one implementation, :class:`mdel.lanes.LaneBatch`.
:class:`Evaluator` is its view of a single trace: a one-lane batch whose
there-world twin is the batch of the collapsed total trace.  Bounded scans
(``is_tautology_bounded`` here, the law suites in :mod:`mdel.laws`) evaluate
whole grids of traces at once instead.  The classical single-world
semantics has its own evaluator, :class:`ClassicalEvaluator`, built from a
lane batch's there world (its ``twin``), of which it reads the time blocks
and atom columns only: dense relations, Box as the dual of Diamond, star
as a squaring fixpoint, and its own windows (dense matrices of lane masks)
and memo.  It calls no evaluation code of the lane engine, so the totality
law compares two independent computations; ``Evaluator.mdl_sat_mask`` /
``mdl_rel_rows`` and :func:`satisfies_mdl` are its one-lane views.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_
from typing import Optional, Tuple

from .formulas import (
    Atom, Bot, Box, Choice, Converse, Diamond, Formula, PathExpr, Seq, Star,
    Step, Test, compile_to_core,
)
from .intervals import Interval
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
    read the :class:`ClassicalEvaluator` of the same batch, which reads the
    there states: on a total trace, its only states.
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
    def _classical(self) -> "ClassicalEvaluator":
        return ClassicalEvaluator(self._batch)

    def mdl_sat_mask(self, f: Formula) -> int:
        return lane_mask(self._classical.value(f), 0)

    def mdl_rel_rows(self, rho: PathExpr) -> Tuple[int, ...]:
        return tuple(lane_mask(row, 0) for row in self._classical.value(rho))


class ClassicalEvaluator:
    """Classical (single-world) satisfaction for the lanes of a batch.

    It reads the there world of a :class:`~mdel.lanes.LaneBatch`, its
    ``twin``: the time stamps ``times`` (``(tau, lanes)`` blocks: the time
    grid of each set of lanes), the atom columns (``columns[a][k]`` is the
    lane mask of the lanes with atom ``a`` at position ``k``) and ``full``,
    the mask of all lanes.  On a total lane those are the lane's own
    states.  A formula's value is a list of ``lambda`` lane masks; a path's
    value is a dense ``lambda x lambda`` list of lane masks (``rel[k][i]``:
    the lanes where ``i`` is reachable from ``k``).  Box is the complement
    of Diamond of the complement, and star is grown as the fixpoint of
    ``R | R;R``.  The time windows (``window[k][i]``: the lanes whose
    tau(i) - tau(k) lies in the interval) and the memo are its own: it
    calls no evaluation code of the lane engine.
    """

    def __init__(self, batch: LaneBatch):
        there = batch.twin
        self.times = there.times
        self.lam = there.lam
        self.columns = there.columns
        self.full = there.full
        # keyed by node identity, with the nodes pinned (see MhtEvaluator)
        self._memo: dict = {}
        self._pin: list = []
        self._windows: dict = {}

    def value(self, node) -> list:
        """The value of a core formula or the relation of a core path."""
        v = self._memo.get(id(node))
        if v is None:
            v = self._memo[id(node)] = self._compute(node)
            self._pin.append(node)
        return v

    def _compute(self, node) -> list:
        t, lam, full, value = type(node), self.lam, self.full, self.value
        if t is Atom:
            return self.columns.get(node.name) or [0] * lam
        if t is Bot:
            return [0] * lam
        if t is Diamond:
            return self._diamond(node, value(node.body))
        if t is Box:
            return self._complement(self._diamond(node, self._complement(value(node.body))))
        if t is Step:
            return [[full if i == k + 1 else 0 for i in range(lam)] for k in range(lam)]
        if t is Test:
            body = value(node.body)
            return [[body[k] if i == k else 0 for i in range(lam)] for k in range(lam)]
        if t is Choice:
            return [[x | y for x, y in zip(a, b)]
                    for a, b in zip(value(node.left), value(node.right))]
        if t is Seq:
            return _compose(value(node.left), value(node.right))
        if t is Star:
            # from the reflexive relation, add R;R until nothing changes
            rel = [[x | full if i == k else x for i, x in enumerate(row)]
                   for k, row in enumerate(value(node.body))]
            while True:
                grown = [[x | y for x, y in zip(a, b)] for a, b in zip(rel, _compose(rel, rel))]
                if grown == rel:
                    return rel
                rel = grown
        if t is Converse:
            return [list(column) for column in zip(*value(node.body))]
        raise TypeError(f"core formula or path expected, found {t.__name__}")

    def _complement(self, value: list) -> list:
        return [self.full & ~x for x in value]

    def _diamond(self, f, body: list) -> list:
        """The lanes with a reachable position in the window where body holds."""
        out = []
        for row, inside in zip(self.value(f.path), self._window(f.interval)):
            acc = 0
            for x, y, w in zip(row, body, inside):
                acc |= x & y & w
            out.append(acc)
        return out

    def _window(self, iv: Interval) -> list:
        """``window[k][i]``: the lanes whose tau(i) - tau(k) lies in the interval."""
        key = (iv.lo, iv.hi)
        window = self._windows.get(key)
        if window is None:
            window = self._windows[key] = [
                [reduce(or_, (lanes for tau, lanes in self.times if tau[i] - tau[k] in iv), 0)
                 for i in range(self.lam)]
                for k in range(self.lam)]
        return window


def _compose(a: list, b: list) -> list:
    """The relation a;b of two dense relations."""
    out = []
    for row in a:
        acc = [0] * len(b)
        for j, x in enumerate(row):
            if x:
                for i, y in enumerate(b[j]):
                    acc[i] |= x & y
        out.append(acc)
    return out


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
