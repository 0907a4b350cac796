"""Lane-batched HT evaluation: one pass over many traces that share (lambda, tau).

A lane is one trace.  A formula's value is a list of lambda lane masks
(``value[k]`` has bit ``l`` set when the formula holds at position ``k`` of
lane ``l``), and a relation is a lambda x lambda matrix of lane masks, kept
as one dict of nonzero entries per row (``rel[k][i]`` has bit ``l`` set when
position ``i`` is reachable from ``k`` in lane ``l``).  Time windows depend
on tau alone, so they are one position mask per position, shared by every
lane.  Each bitwise operation thus evaluates all lanes at once, as in the
bit-parallel simulation of logic synthesis.

Grids number their lanes by state-table index digits, the first position
most significant, so ascending lane order is the order in which
``enumerate_traces`` yields the same traces.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, List, Optional, Sequence

from .formulas import (
    Atom, Bot, Box, Choice, Converse, Diamond, Formula, PathExpr, Seq, Star,
    Step, Test,
)
from .semantics import _iter_bits as iter_lanes  # set bits, ascending

# A length whose lane space is wider than this is split into chunks that fix
# the states of the first positions; it bounds the size of every lane mask.
LANE_LIMIT = 1 << 10


class LaneBatch:
    """Here-world satisfaction for the lanes of one (lambda, tau).

    ``columns`` maps each atom to its lambda here-world lane masks and
    ``full`` is the mask of all lanes.  ``twin`` is the batch of the lanes'
    total there-components over the same lanes; a batch of total traces is
    its own twin.  ``shared`` caches what does not depend on the lanes' states
    (time windows, relations of test-free paths) and may be shared between
    batches.
    """

    def __init__(self, tau: tuple, columns: dict, full: int,
                 twin: Optional["LaneBatch"] = None, shared: Optional[dict] = None):
        self.tau = tau
        self.lam = len(tau)
        self.columns = columns
        self.full = full
        self.twin = self if twin is None else twin
        self.shared = {} if shared is None else shared
        self._sat: dict = {}
        self._rel: dict = {}

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

    def time_rows(self, lo, hi) -> tuple:
        """rows[k] = positions i with tau(i) - tau(k) strictly between lo and hi."""
        key = (self.tau, lo, hi)
        rows = self.shared.get(key)
        if rows is None:
            tau = self.tau
            rows = tuple(sum(1 << i for i, ti in enumerate(tau) if lo < ti - tk < hi)
                         for tk in tau)
            self.shared[key] = rows
        return rows

    # -- satisfaction ------------------------------------------------------------

    def sat(self, f: Formula) -> List[int]:
        value = self._sat.get(id(f))
        if value is None:
            value = self._sat_compute(f)
            self._sat[id(f)] = value
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
            times = self.time_rows(f.interval.lo, f.interval.hi)
            body = self.sat(f.body)
            diamond = t is Diamond
            out = []
            for row, window in zip(rel, times):
                acc = 0
                for i, x in row.items():
                    if window >> i & 1:
                        # diamond: a witness; box: a counterexample
                        acc |= x & body[i] if diamond else x & ~body[i]
                out.append(acc if diamond else self.full ^ acc)
            if not diamond and self.twin is not self:
                # the universal condition must also hold in the there world
                out = [x & y for x, y in zip(out, self.twin.sat(f))]
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
        return value

    def _rel_compute(self, rho: PathExpr) -> List[dict]:
        t = type(rho)
        lam = self.lam
        if t is Step:
            return [{k + 1: self.full} for k in range(lam - 1)] + [{}]
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


def trace_columns(states: Sequence[frozenset]) -> dict:
    """One-lane columns for a single state sequence."""
    columns: dict = {}
    for i, state in enumerate(states):
        for a in state:
            columns.setdefault(a, [0] * len(states))[i] = 1
    return columns


def grid_chunks(size: int, lam: int) -> Iterator[tuple]:
    """Split the ``size ** lam`` state sequences of a length into lane chunks.

    Yields ``(prefix, suffix)`` in enumeration order: ``prefix`` holds the
    state indices of the first positions, fixed for the chunk, and the
    ``suffix`` remaining positions vary over ``size ** suffix`` lanes, lane
    ``l`` holding the base-``size`` digits of ``l``.
    """
    suffix = lam
    while suffix and size ** suffix > LANE_LIMIT:
        suffix -= 1
    for prefix in product(range(size), repeat=lam - suffix):
        yield prefix, suffix


def grid_columns(states: Sequence[frozenset], prefix: tuple, suffix: int) -> tuple:
    """``(columns, full)`` of one chunk; ``states`` lists the state of each index."""
    size, lam = len(states), len(prefix) + suffix
    full = (1 << size ** suffix) - 1
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


def lane_digits(prefix: tuple, suffix: int, size: int, lane: int) -> tuple:
    """The state index of every position of a grid lane."""
    digits = [0] * suffix
    for q in range(suffix - 1, -1, -1):
        lane, digits[q] = divmod(lane, size)
    return prefix + tuple(digits)
