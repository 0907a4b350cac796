"""Direct evaluation of metric temporal formulas on timed HT-traces.

This evaluator implements each metric operator's satisfaction condition
literally, as position arithmetic on the time stamps, and never touches
path expressions, accessibility relations or the compiled core, so it
serves as an independent oracle for the compiled core semantics.  Boolean
connectives follow the here-and-there readings: implication is checked in
both worlds, negation is dissatisfaction in the collapsed total trace.

It evaluates many traces of one time grid at once.  Its only inputs are the
grid's time stamps ``tau`` and its atom columns: ``columns[a][k]`` is the
lane mask of the traces (lanes) with atom ``a`` at position ``k``, in the
encoding of :func:`mdel.lanes.grid_columns` and ``trace_columns``.  A
formula's value is a list of ``lambda`` lane masks, and every clause is its
position loop with the Boolean operations applied to lane masks instead of
truth values.  The clauses, the time windows and the memo are its own; it
shares no evaluation code with the lane engine's
:class:`~mdel.lanes.LaneBatch`.  :func:`mht_satisfies` is the one-lane view
of a single trace.
"""

from __future__ import annotations

from typing import List, Optional

from .formulas import (
    Always, AlwPast, And, Atom, Bot, Eventually, EvPast, Final, Formula,
    Implies, Initial, Next, Not, Or, Prev, Release, Since, Top, Trigger,
    Until, WNext, WPrev,
)
from .lanes import trace_columns
from .semantics import HERE, THERE, World, _check_position
from .traces import TimedHTTrace


class MhtEvaluator:
    """Memoizing direct evaluator for the here world of the lanes of one grid.

    ``full`` is the mask of all lanes, and ``total`` the evaluator over the
    lanes' there-world columns (their collapsed total traces); a grid of
    total traces is its own ``total``.
    """

    def __init__(self, tau: tuple, columns: dict, full: int,
                 total: Optional["MhtEvaluator"] = None):
        self.tau = tau
        self.lam = len(tau)
        self.columns = columns
        self.full = full
        self.total = self if total is None else total
        # keyed by node identity; pinning the nodes keeps an id from being
        # reused by a new node while its entry is live
        self._memo: dict = {}
        self._pin: list = []

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
        sat, tau, lam, full = self.sat, self.tau, self.lam, self.full
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
        iv = f.interval
        if t is Next or t is WNext:
            # the strong form needs a successor within the interval, the weak
            # form holds without one
            body, default = sat(f.body), 0 if t is Next else full
            return [body[k + 1] if k + 1 < lam and tau[k + 1] - tau[k] in iv else default
                    for k in range(lam)]
        if t is Prev or t is WPrev:
            body, default = sat(f.body), 0 if t is Prev else full
            return [body[k - 1] if k > 0 and tau[k] - tau[k - 1] in iv else default
                    for k in range(lam)]
        out = []
        if t is Eventually or t is Always:
            body, ev = sat(f.body), t is Eventually
            for k in range(lam):
                acc = 0 if ev else full
                for i in range(k, lam):
                    if tau[i] - tau[k] in iv:
                        acc = acc | body[i] if ev else acc & body[i]
                out.append(acc)
            return out
        if t is EvPast or t is AlwPast:
            body, ev = sat(f.body), t is EvPast
            for k in range(lam):
                acc = 0 if ev else full
                for i in range(k + 1):
                    if tau[k] - tau[i] in iv:
                        acc = acc | body[i] if ev else acc & body[i]
                out.append(acc)
            return out
        if t is Until or t is Release:
            left, right, until = sat(f.left), sat(f.right), t is Until
            for k in range(lam):
                # until: some in-window j with right, left all over [k, j);
                # release: every in-window j has right or left somewhere in [k, j)
                acc, prefix = (0, full) if until else (full, 0)
                for j in range(k, lam):
                    if tau[j] - tau[k] in iv:
                        acc = acc | right[j] & prefix if until else acc & (right[j] | prefix)
                    prefix = prefix & left[j] if until else prefix | left[j]
                out.append(acc)
            return out
        if t is Since or t is Trigger:
            left, right, since = sat(f.left), sat(f.right), t is Since
            for k in range(lam):
                # the mirror image: j runs back from k, the prefix is (j, k]
                acc, prefix = (0, full) if since else (full, 0)
                for j in range(k, -1, -1):
                    if tau[k] - tau[j] in iv:
                        acc = acc | right[j] & prefix if since else acc & (right[j] | prefix)
                    prefix = prefix & left[j] if since else prefix | left[j]
                out.append(acc)
            return out
        raise ValueError(f"not a metric formula: {type(f).__name__}")


def mht_satisfies(m: TimedHTTrace, k: int, f: Formula, world: World = HERE) -> bool:
    """Direct metric satisfaction; f may use Boolean and metric operators only."""
    _check_position(m, k)
    total = MhtEvaluator(m.tau, trace_columns(m.there), 1)
    ev = (total if world is THERE or m.is_total
          else MhtEvaluator(m.tau, trace_columns(m.here), 1, total))
    return bool(ev.sat(f)[k])
