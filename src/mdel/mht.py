"""Direct evaluation of metric temporal formulas on timed HT-traces.

This evaluator implements each metric operator's satisfaction condition
literally, as position arithmetic on the time stamps, and never touches
path expressions, accessibility relations or the compiled core, so it
serves as an independent oracle for the compiled core semantics.  Boolean
connectives follow the here-and-there readings: implication is checked in
both worlds, negation is dissatisfaction in the collapsed total trace.

It evaluates the lanes of a :class:`~mdel.lanes.LaneBatch` (many traces of
one length) at once, and reads only the batch's data: its ``(tau, lanes)``
time blocks, its atom columns (``columns[a][k]`` is the lane mask of the
lanes with atom ``a`` at position ``k``), ``full``, and its there-world
``twin`` for the total evaluator.  A formula's value is a list of
``lambda`` lane masks, and every clause is its position loop with the
Boolean operations applied to lane masks instead of truth values; an
interval test is the lane mask ``window[k][i]`` of the lanes whose
tau(i) - tau(k) lies in the interval.  The clauses, the time windows and
the memo are its own; it calls no evaluation code of the lane engine.
:func:`mht_satisfies` is the view of a single trace's one-lane batch.
"""

from __future__ import annotations

from typing import List

from .formulas import (
    Always, AlwPast, And, Atom, Bot, Eventually, EvPast, Final, Formula,
    Implies, Initial, Next, Not, Or, Prev, Release, Since, Top, Trigger,
    Until, WNext, WPrev,
)
from .intervals import Interval
from .lanes import LaneBatch, trace_batch
from .semantics import HERE, THERE, World, _check_position
from .traces import TimedHTTrace


class MhtEvaluator:
    """Memoizing direct evaluator for the here world of a lane batch.

    ``total`` is the evaluator of the batch's twin, the lanes' collapsed
    total traces; a batch of total traces is its own twin, and its
    evaluator its own ``total``.
    """

    def __init__(self, batch: LaneBatch):
        self.times = batch.times
        self.lam = batch.lam
        self.columns = batch.columns
        self.full = batch.full
        # keyed by node identity; pinning the nodes keeps an id from being
        # reused by a new node while its entry is live
        self._memo: dict = {}
        self._pin: list = []
        self.total = self if batch.twin is batch else MhtEvaluator(batch.twin)
        self._windows = {} if self.total is self else self.total._windows  # the same lanes

    def window(self, iv: Interval) -> List[List[int]]:
        """``window[k][i]``: the lanes whose tau(i) - tau(k) lies in the interval."""
        w = self._windows.get(iv)
        if w is None:
            lam = self.lam
            w = self._windows[iv] = [[0] * lam for _ in range(lam)]
            for tau, lanes in self.times:
                for k in range(lam):
                    for i in range(lam):
                        if tau[i] - tau[k] in iv:
                            w[k][i] |= lanes
        return w

    def sat(self, f: Formula) -> List[int]:
        """``value[k]``: the lanes where f holds at position k (here world)."""
        v = self._memo.get(id(f))
        if v is None:
            v = self._compute(f)
            self._memo[id(f)] = v
            self._pin.append(f)
        return v

    def _compute(self, f: Formula) -> List[int]:
        t = type(f)
        sat, lam, full = self.sat, self.lam, self.full
        if t is Atom:
            return self.columns.get(f.name) or [0] * lam
        if t is Bot:
            return [0] * lam
        if t is Top:
            return [full] * lam
        if t is And:
            return [x & y for x, y in zip(sat(f.left), sat(f.right))]
        if t is Or:
            return [x | y for x, y in zip(sat(f.left), sat(f.right))]
        if t is Implies:
            total = self.total
            return [(~l | r) & (~lt | rt) & full for l, r, lt, rt in zip(
                sat(f.left), sat(f.right), total.sat(f.left), total.sat(f.right))]
        if t is Not:
            return [full & ~x for x in self.total.sat(f.body)]
        if t is Initial:
            return [full if k == 0 else 0 for k in range(lam)]
        if t is Final:
            return [full if k + 1 == lam else 0 for k in range(lam)]
        w = self.window(f.interval)  # w[k][i]: tau(i) - tau(k) in the interval
        if t is Next or t is WNext:
            # the strong form needs a successor within the interval, the weak
            # form holds without one
            body, weak = sat(f.body), t is WNext
            return [(body[k + 1] & w[k][k + 1] | (full & ~w[k][k + 1] if weak else 0))
                    if k + 1 < lam else (full if weak else 0) for k in range(lam)]
        if t is Prev or t is WPrev:
            body, weak = sat(f.body), t is WPrev
            return [(body[k - 1] & w[k - 1][k] | (full & ~w[k - 1][k] if weak else 0))
                    if k > 0 else (full if weak else 0) for k in range(lam)]
        out = []
        if t is Eventually or t is Always:
            body, ev = sat(f.body), t is Eventually
            for k in range(lam):
                acc = 0 if ev else full
                for i in range(k, lam):
                    inside = w[k][i]
                    acc = acc | body[i] & inside if ev else acc & (body[i] | ~inside)
                out.append(acc)
            return out
        if t is EvPast or t is AlwPast:
            body, ev = sat(f.body), t is EvPast
            for k in range(lam):
                acc = 0 if ev else full
                for i in range(k + 1):
                    inside = w[i][k]  # tau(k) - tau(i) in the interval
                    acc = acc | body[i] & inside if ev else acc & (body[i] | ~inside)
                out.append(acc)
            return out
        if t is Until or t is Release:
            left, right, until = sat(f.left), sat(f.right), t is Until
            for k in range(lam):
                # until: some in-window j with right, left all over [k, j);
                # release: every in-window j has right or left somewhere in [k, j)
                acc, prefix = (0, full) if until else (full, 0)
                for j in range(k, lam):
                    inside = w[k][j]
                    acc = (acc | right[j] & prefix & inside if until
                           else acc & (right[j] | prefix | ~inside))
                    prefix = prefix & left[j] if until else prefix | left[j]
                out.append(acc)
            return out
        if t is Since or t is Trigger:
            left, right, since = sat(f.left), sat(f.right), t is Since
            for k in range(lam):
                # the mirror image: j runs back from k, the prefix is (j, k]
                acc, prefix = (0, full) if since else (full, 0)
                for j in range(k, -1, -1):
                    inside = w[j][k]
                    acc = (acc | right[j] & prefix & inside if since
                           else acc & (right[j] | prefix | ~inside))
                    prefix = prefix & left[j] if since else prefix | left[j]
                out.append(acc)
            return out
        raise ValueError(f"not a metric formula: {type(f).__name__}")


def mht_satisfies(m: TimedHTTrace, k: int, f: Formula, world: World = HERE) -> bool:
    """Direct metric satisfaction; f may use Boolean and metric operators only."""
    _check_position(m, k)
    ev = MhtEvaluator(trace_batch(m))
    return bool((ev.total if world is THERE else ev).sat(f)[k])
