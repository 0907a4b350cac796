"""Satisfaction on timed HT-traces: the one-trace view of the lane engine,
the classical evaluator on total traces, and bounded tautology search.

Satisfaction is computed as *sets*: for each (sub)formula and world, the
bitmask of trace positions where the formula holds; a relation is a tuple of
rows of bitmasks (``rows[k]`` holds the successors of position ``k``).

The HT semantics has one implementation, :class:`mdel.lanes.LaneBatch`.
:class:`Evaluator` is its view of a single trace: a one-lane batch whose
there-world twin is the batch of the collapsed total trace.  Bounded scans
(``is_tautology_bounded`` here, the law suites in :mod:`mdel.laws`) evaluate
whole grids of traces at once instead.  The classical single-world
evaluator (``mdl_sat_mask``/``mdl_rel_rows``) is a separate recursion that
shares no code with the lane engine, so the totality law compares two
independent computations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from .formulas import (
    Atom, Bot, Box, Choice, Converse, Diamond, Formula, PathExpr, Seq, Star,
    Step, Test, compile_to_core,
)
from .intervals import Interval
from .lanes import LaneBatch, grid_batches, lane_mask, lane_rows, trace_columns
from .traces import TimedHTTrace, TraceBounds, total_of


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


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Evaluator:
    """Satisfaction sets for one trace.

    ``sat_mask`` and ``rel_rows`` read a one-lane :class:`LaneBatch` built on
    first use; the there world is the twin view of the collapsed total trace,
    and the two views share their lane-independent tables.
    """

    def __init__(self, trace: TimedHTTrace):
        self.trace = trace
        self.lam = trace.length
        self.full = (1 << self.lam) - 1
        self.twin = self if trace.is_total else Evaluator(total_of(trace))
        self._batch: Optional[LaneBatch] = None
        self._mdl_sat = {}
        self._mdl_rel = {}
        self._pin = []

    def _lanes(self) -> LaneBatch:
        if self._batch is None:
            twin = None if self.twin is self else self.twin._lanes()
            self._batch = LaneBatch(self.trace.tau, trace_columns(self.trace.here), 1,
                                    twin=twin, shared=None if twin is None else twin.shared)
        return self._batch

    def rel_rows(self, rho: PathExpr, world: World = HERE) -> Tuple[int, ...]:
        if world is THERE:
            return self.twin.rel_rows(rho, HERE)
        return lane_rows(self._lanes().rel(rho), 0)

    def sat_mask(self, f: Formula, world: World = HERE) -> int:
        """Bitmask of positions where the core formula holds in the world."""
        if world is THERE:
            return self.twin.sat_mask(f, HERE)
        return lane_mask(self._lanes().sat(f), 0)

    # -- classical (single-world) satisfaction on total traces --------------------
    #
    # A recursion of its own, independent of the lane engine.

    def mdl_sat_mask(self, f: Formula) -> int:
        key = id(f)
        m = self._mdl_sat.get(key)
        if m is None:
            m = self._mdl_compute(f)
            self._mdl_sat[key] = m
            self._pin.append(f)
        return m

    def _mdl_compute(self, f: Formula) -> int:
        t = type(f)
        if t is Atom:
            m = 0
            for i, state in enumerate(self.trace.here):
                if f.name in state:
                    m |= 1 << i
            return m
        if t is Bot:
            return 0
        rows = self.mdl_rel_rows(f.path)
        times = _time_rows(self.trace.tau, f.interval)
        body = self.mdl_sat_mask(f.body)
        m = 0
        if t is Diamond:
            for k in range(self.lam):
                if rows[k] & times[k] & body:
                    m |= 1 << k
            return m
        if t is Box:
            # the classical dual: no reachable in-window position refutes body
            for k in range(self.lam):
                if rows[k] & times[k] & ~body == 0:
                    m |= 1 << k
            return m
        raise TypeError(f"core formula expected, found {type(f).__name__}")

    def mdl_rel_rows(self, rho: PathExpr) -> Tuple[int, ...]:
        key = id(rho)
        rows = self._mdl_rel.get(key)
        if rows is None:
            t = type(rho)
            if t is Step:
                rows = tuple(1 << (k + 1) if k + 1 < self.lam else 0 for k in range(self.lam))
            elif t is Test:
                m = self.mdl_sat_mask(rho.body)
                rows = tuple((m >> k & 1) << k for k in range(self.lam))
            elif t is Choice:
                a, b = self.mdl_rel_rows(rho.left), self.mdl_rel_rows(rho.right)
                rows = tuple(x | y for x, y in zip(a, b))
            elif t is Seq:
                a, b = self.mdl_rel_rows(rho.left), self.mdl_rel_rows(rho.right)
                rows = tuple(_image(b, row) for row in a)
            elif t is Star:
                rows = _closure(self.mdl_rel_rows(rho.body))
            elif t is Converse:
                a = self.mdl_rel_rows(rho.body)
                out = [0] * self.lam
                for k, row in enumerate(a):
                    for i in _iter_bits(row):
                        out[i] |= 1 << k
                rows = tuple(out)
            else:
                raise TypeError(f"not a path expression: {rho!r}")
            self._mdl_rel[key] = rows
            self._pin.append(rho)
        return rows


def _time_rows(tau: tuple, iv: Interval) -> Tuple[int, ...]:
    """rows[k] = positions i with tau(i) - tau(k) in the interval."""
    return tuple(sum(1 << i for i, ti in enumerate(tau) if iv.lo < ti - tk < iv.hi)
                 for tk in tau)


def _image(rows: Tuple[int, ...], sources: int) -> int:
    out = 0
    for j in _iter_bits(sources):
        out |= rows[j]
    return out


def _closure(rows: Tuple[int, ...]) -> Tuple[int, ...]:
    # reflexive-transitive closure; equals the union of all finite powers
    out = [row | (1 << k) for k, row in enumerate(rows)]
    changed = True
    while changed:
        changed = False
        for k in range(len(out)):
            acc = out[k]
            for j in _iter_bits(acc):
                acc |= out[j]
            if acc != out[k]:
                out[k] = acc
                changed = True
    return tuple(out)


# -- public operations -----------------------------------------------------------


def _check_position(m: TimedHTTrace, k: int):
    if not 0 <= k < m.length:
        raise IndexError(f"position {k} out of range for a trace of length {m.length}")


def accessibility(rho: PathExpr, m: TimedHTTrace, world: World = HERE) -> AccessRelation:
    """The relation a path expression denotes on the trace in the given world."""
    from .formulas import compile_path

    ev = Evaluator(m)
    rows = ev.rel_rows(compile_path(rho), world)
    pairs = frozenset((k, i) for k, row in enumerate(rows) for i in _iter_bits(row))
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


def is_tautology_bounded(f: Formula, bounds: TraceBounds,
                         shared: Optional[dict] = None) -> Verdict:
    """Exhaustively check f at every position of every trace within bounds.

    Returns the first counterexample in enumeration order (trace order, then
    position), or the bounded-validity verdict.
    """
    core = compile_to_core(f)
    traces = 0
    positions = 0
    for grid in grid_batches(bounds, shared=shared):
        lam = grid.batch.lam
        value = grid.batch.sat(core)
        for lane in range(grid.size):
            traces += 1
            if lam == 0:
                continue
            positions += lam
            missing = ~lane_mask(value, lane) & ((1 << lam) - 1)
            if missing:
                k = (missing & -missing).bit_length() - 1
                return Verdict(False, (grid.trace(lane), k), traces, positions)
    return Verdict(True, None, traces, positions)


def iff(f: Formula, g: Formula) -> Formula:
    from .formulas import And, Implies

    return And(Implies(f, g), Implies(g, f))


def equiv_bounded(f: Formula, g: Formula, bounds: TraceBounds,
                  shared: Optional[dict] = None) -> Verdict:
    """Bounded equivalence: tautology check of the biconditional."""
    return is_tautology_bounded(iff(f, g), bounds, shared=shared)
