"""Lane-batched HT evaluation: one pass over many traces of one length.

A lane is one trace.  A formula's value is a list of lambda lane masks
(``value[k]`` has bit ``l`` set when the formula holds at position ``k`` of
lane ``l``).  Every lambda x lambda matrix of lane masks has one shape: a
list of rows, each a dict of its nonzero entries.  A relation is one
(``rel[k][i]``: the lanes where position ``i`` is reachable from ``k``), and
so is a time window (``window[k][i]``: the lanes whose tau(i) - tau(k) lies
in the interval), since the lanes of a batch may have different time grids:
``times`` lists ``(tau, lanes)`` blocks.  Each bitwise operation thus
evaluates all lanes at once, as in the bit-parallel simulation of logic
synthesis; the case split on the time stamps is moved into the masks.

Grids number the lanes of one length as the mixed-radix number (time grid
index, state-table index of position 0, ..., of position lambda - 1), the
time grid most significant, so ascending lane order is the order in which
``enumerate_traces`` yields the same traces.  :func:`grid_columns` lays
out the columns of every batch; one trace is the chunk that fixes every
position (:func:`trace_batch`).

This is the only HT evaluator.  ``semantics.Evaluator`` reads one-lane
batches, and every bounded scan (the scans of :mod:`mdel.laws`, the
tautology search among them, and the equilibrium search) walks the grids of
:func:`grid_batches`: it evaluates its formulas once per batch, finds the
lanes that may fail a check by whole-batch bit operations, reads only those
lanes' positions with :func:`lane_mask` / :func:`lane_rows`, and builds a
lane's trace (:meth:`Grid.trace`) only for a counterexample.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import groupby, islice, product
from operator import or_
from typing import Iterable, Iterator, List, Optional, Sequence

from .formulas import (
    Atom, Bot, Box, Choice, Converse, Diamond, Formula, PathExpr, Seq, Star,
    Step, Test,
)
from .traces import Space, TimedHTTrace, _state_table

# A chunk holds as many whole time grids of one length as fit in this many
# lanes; a time grid wider than this is split into chunks that fix the states
# of the first positions.  It bounds the size of every lane mask.
LANE_LIMIT = 1 << 12


def iter_lanes(mask: int) -> Iterator[int]:
    """The set bits of a lane mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def low_bit(mask: int) -> int:
    """The lowest set bit of a lane or position mask."""
    return (mask & -mask).bit_length() - 1


def lanes_of(value: Iterable[int]) -> int:
    """The lanes where a batch value is set at some position."""
    return reduce(or_, value, 0)


def lane_mask(value: List[int], lane: int) -> int:
    """The positions where a formula with this batch value holds in one lane."""
    return sum((x >> lane & 1) << k for k, x in enumerate(value))


def lane_rows(rel: List[dict], lane: int) -> tuple:
    """``rows[k]`` = the positions reachable from k in one lane of a relation."""
    return tuple(sum(1 << i for i, x in row.items() if x >> lane & 1) for row in rel)


class LaneBatch:
    """Here-world satisfaction for the lanes of one length.

    ``times`` lists ``(tau, lanes)`` blocks that partition the lanes: the
    time grid of each set of lanes, all of one length lambda.  ``columns`` maps each atom to its
    lambda here-world lane masks and ``full`` is the mask of all lanes.
    ``twin`` is the batch of the lanes' total there-components over the same
    lanes; a batch of total traces is its own twin.  ``shared`` caches what
    does not depend on the lanes' states (time windows, relations of
    test-free paths) and may be shared between batches; a batch with a
    twin shares the twin's by default.
    """

    def __init__(self, times: tuple, columns: dict, full: int,
                 twin: Optional["LaneBatch"] = None, shared: Optional[dict] = None):
        self.times = times
        self.lam = len(times[0][0])
        self.columns = columns
        self.full = full
        self._twin = twin
        self.shared = ({} if twin is None else twin.shared) if shared is None else shared
        # the caches are keyed by node identity; pinning the nodes keeps an
        # id from being reused by a new node while its entry is live
        self._sat: dict = {}
        self._rel: dict = {}
        self._pin: list = []

    @property
    def twin(self) -> "LaneBatch":
        return self._twin or self

    def models(self, compiled: Sequence[Formula], lanes: Optional[int] = None) -> int:
        """Lanes (within ``lanes``) satisfying every formula at position 0."""
        out = self.full if lanes is None else lanes
        if self.lam == 0:
            return 0 if compiled else out
        for f in compiled:
            out &= self.sat(f)[0]
            if not out:
                break
        return out

    def window(self, lo, hi) -> List[dict]:
        """``window[k][i]``: the lanes with tau(i) - tau(k) strictly between lo
        and hi, kept as the rows of ``rel`` are (no zero entry)."""
        key = (self.times, lo, hi)
        table = self.shared.get(key)
        if table is None:
            table = self.shared[key] = [{} for _ in range(self.lam)]
            for tau, lanes in self.times:
                for row, tk in zip(table, tau):
                    for i, ti in enumerate(tau):
                        if lo < ti - tk < hi:
                            row[i] = row.get(i, 0) | lanes
        return table

    # -- satisfaction ------------------------------------------------------------

    def sat(self, f: Formula) -> List[int]:
        value = self._sat.get(id(f))
        if value is None:
            value = self._sat_compute(f)
            self._sat[id(f)] = value
            self._pin.append(f)
        return value

    def _sat_compute(self, f: Formula) -> List[int]:
        t = type(f)
        lam = self.lam
        if t is Atom:
            return self.columns.get(f.name) or [0] * lam
        if t is Bot:
            return [0] * lam
        if t is Diamond or t is Box:
            rel = self.rel(f.path)
            window = self.window(f.interval.lo, f.interval.hi)
            body = self.sat(f.body)
            diamond, full = t is Diamond, self.full
            out = []
            for row, inside in zip(rel, window):
                acc = 0
                for i, x in row.items():
                    w = inside.get(i)
                    if w:  # diamond: a witness; box: a counterexample
                        acc |= x & w & body[i] if diamond else x & w & ~body[i]
                out.append(acc if diamond else full ^ acc)
            if not diamond and self._twin is not None:
                # the universal condition must also hold in the there world
                out = [x & y for x, y in zip(out, self._twin.sat(f))]
            return out
        raise TypeError(f"core formula expected, found {type(f).__name__}")

    # -- accessibility relations -----------------------------------------------------

    def rel(self, rho: PathExpr) -> List[dict]:
        value = self._rel.get(id(rho))
        if value is None:
            key = _test_free_key(rho)
            if key is None:
                value = self._rel_compute(rho)
            else:  # the same in every lane: share it between batches
                key = (key, self.lam, self.full)
                value = self.shared.get(key)
                if value is None:
                    value = self.shared[key] = self._rel_compute(rho)
            self._rel[id(rho)] = value
            self._pin.append(rho)
        return value

    def _rel_compute(self, rho: PathExpr) -> List[dict]:
        t = type(rho)
        lam = self.lam
        if t is Step:
            return [{k + 1: self.full} for k in range(lam - 1)] + [{}] if lam else []
        if t is Test:
            return [{k: x} if x else {} for k, x in enumerate(self.sat(rho.body))]
        if t is Choice:
            out = [dict(row) for row in self.rel(rho.left)]
            for row, other in zip(out, self.rel(rho.right)):
                for i, y in other.items():
                    row[i] = row.get(i, 0) | y
            return out
        if t is Seq:
            b = self.rel(rho.right)
            out = []
            for ra in self.rel(rho.left):
                row: dict = {}
                for j, x in ra.items():
                    for i, y in b[j].items():
                        z = x & y
                        if z:
                            row[i] = row.get(i, 0) | z
                out.append(row)
            return out
        if t is Star:
            # Warshall's algorithm on the reflexive relation, lane by lane
            out = [dict(row) for row in self.rel(rho.body)]
            for k, row in enumerate(out):
                row[k] = self.full
            for j in range(lam):
                through = list(out[j].items())
                for row in out:
                    x = row.get(j)
                    if x:
                        for i, y in through:
                            z = x & y
                            if z:
                                row[i] = row.get(i, 0) | z
            return out
        if t is Converse:
            out = [{} for _ in range(lam)]
            for k, row in enumerate(self.rel(rho.body)):
                for i, x in row.items():
                    out[i][k] = x
            return out
        raise TypeError(f"not a path expression: {rho!r}")


def _test_free_key(rho: PathExpr):
    """A structural key for a path without tests, else None."""
    t = type(rho)
    if t is Step:
        return "step"
    if t is Star or t is Converse:
        body = _test_free_key(rho.body)
        return None if body is None else (t.__name__, body)
    if t is Choice or t is Seq:
        left, right = _test_free_key(rho.left), _test_free_key(rho.right)
        return None if left is None or right is None else (t.__name__, left, right)
    return None


# -- lane numbering ----------------------------------------------------------------


def grid_columns(states: Sequence[frozenset], prefix: tuple, suffix: int,
                 blocks: int = 1) -> tuple:
    """``(columns, full)`` of one chunk; ``states`` lists the state of each index.

    The first positions have the states ``states[d]`` of the indices ``d``
    in ``prefix``; the last ``suffix`` positions take every index, lane by
    lane, as the base-``len(states)`` digits of the lane number.  The chunk
    repeats those lanes ``blocks`` times, once per time grid it holds.  A
    single state sequence is the chunk that fixes every position:
    ``grid_columns(states, tuple(range(len(states))), 0)``."""
    size, lam = len(states), len(prefix) + suffix
    full = (1 << blocks * size ** suffix) - 1
    columns: dict = {}
    for i, d in enumerate(prefix):
        for a in states[d]:
            columns.setdefault(a, [0] * lam)[i] = full
    for q in range(suffix):
        block = size ** (suffix - 1 - q)  # lanes per digit value at this position
        unit = {}
        for d, state in enumerate(states):
            for a in state:
                unit[a] = unit.get(a, 0) | ((1 << block) - 1) << (d * block)
        period = block * size
        repeat = full // ((1 << period) - 1)  # one bit at the start of each period
        for a, bits in unit.items():
            columns.setdefault(a, [0] * lam)[len(prefix) + q] = bits * repeat
    return columns, full


def trace_batch(trace: TimedHTTrace) -> LaneBatch:
    """The one-lane batch of a trace; its twin is the batch of the there states."""
    times = ((trace.tau, 1),)
    prefix = tuple(range(trace.length))
    total = LaneBatch(times, *grid_columns(trace.there, prefix, 0))
    if trace.is_total:
        return total
    return LaneBatch(times, *grid_columns(trace.here, prefix, 0), twin=total)


# -- grids: every trace of a bounded space, batch by batch -------------------------


class Grid:
    """One lane chunk of a length: its batch and the traces of its lanes.

    The chunk holds whole time grids, ``block`` lanes each, or a part of one
    time grid that fixes the states of its first positions (``prefix``
    holds their state-table indices).  Lane ``l`` has the time grid of
    ``batch.times[l // block]`` and gives the remaining ``suffix`` positions
    the base-``len(table)`` digits of ``l % block``.  ``size`` is the number
    of lanes and ``total`` (computed on first use) the mask of the lanes
    whose trace is total.
    """

    def __init__(self, batch: LaneBatch, table: list, alphabet: frozenset,
                 prefix: tuple, suffix: int):
        self.batch = batch
        self.size = batch.full.bit_length()
        self.block = len(table) ** suffix
        self._table = table
        self._alphabet = alphabet
        self._prefix = prefix
        self._suffix = suffix

    @cached_property
    def total(self) -> int:
        batch = self.batch
        if batch.twin is batch:
            return batch.full
        differ = 0  # lanes whose here and there states differ somewhere
        for a, column in batch.twin.columns.items():
            here = batch.columns.get(a) or [0] * batch.lam
            for x, y in zip(here, column):
                differ |= x ^ y
        return batch.full & ~differ

    def digits(self, lane: int) -> tuple:
        """The state-table index of every position of a lane."""
        lane %= self.block
        digits = [0] * self._suffix
        for q in range(self._suffix - 1, -1, -1):
            lane, digits[q] = divmod(lane, len(self._table))
        return self._prefix + tuple(digits)

    def trace(self, lane: int) -> TimedHTTrace:
        states = [self._table[d] for d in self.digits(lane)]
        return TimedHTTrace(self._alphabet, tuple(h for h, _ in states),
                            tuple(t for _, t in states), self.batch.times[lane // self.block][0])


def grid_batches(space: Space, total_only: Optional[bool] = None) -> Iterator[Grid]:
    """One grid per lane chunk of a space, in enumeration order.

    ``space`` is a ``TraceBounds`` or a ``TimeGrids``; ``total_only`` defaults
    to the space's own.  A chunk holds consecutive time grids of one length,
    as many as fit in ``LANE_LIMIT`` lanes, or a part of one that is wider.
    The batches of one call share their lane-independent tables.
    """
    total_only = space.total_only if total_only is None else total_only
    table = _state_table(space.alphabet, total_only)
    here = [h for h, _ in table]
    there = [t for _, t in table]
    shared: dict = {}
    for lam, run in groupby(space.time_grids(), len):
        suffix = lam  # positions given by the lane digits
        while suffix and len(table) ** suffix > LANE_LIMIT:
            suffix -= 1
        block = len(table) ** suffix
        per = LANE_LIMIT // block if suffix == lam else 1  # time grids per chunk
        chunks: dict = {}  # number of time grids -> (prefix, columns, full, there columns)
        while taus := list(islice(run, per)):
            times = tuple((tau, ((1 << block) - 1) << j * block) for j, tau in enumerate(taus))
            if len(taus) not in chunks:  # the columns depend on the length only
                chunks[len(taus)] = [
                    (prefix, *grid_columns(here, prefix, suffix, len(taus)),
                     None if total_only else grid_columns(there, prefix, suffix, len(taus))[0])
                    for prefix in product(range(len(table)), repeat=lam - suffix)]
            for prefix, columns, full, there_columns in chunks[len(taus)]:
                twin = (None if there_columns is None
                        else LaneBatch(times, there_columns, full, shared=shared))
                batch = LaneBatch(times, columns, full, twin=twin, shared=shared)
                yield Grid(batch, table, space.alphabet, prefix, suffix)
