"""Both batch references: direct metric evaluation on timed HT-traces, and
the classical semantics of the core on total traces.

:class:`MhtEvaluator` evaluates the lanes of a :class:`~mdel.lanes.LaneBatch`
(many traces of one length) at once, and reads only the batch's data: its
``(tau, lanes)`` time blocks, its atom columns (``columns[a][k]`` is the
lane mask of the lanes with atom ``a`` at position ``k``), ``full``, and its
there-world ``twin`` (the evaluator ``total``).  A formula's value is a list
of ``lambda`` lane masks; an interval test is the lane mask ``window[k][i]``
of the lanes whose tau(i) - tau(k) lies in the interval.  The clauses, the
windows and the memo are its own: it calls no evaluation code of the lane
engine.  It has two clause families:

- Metric clauses: each Boolean and metric operator's satisfaction condition
  written literally as a position loop, in the here-and-there reading
  (implication is checked in both worlds, negation is dissatisfaction in the
  total world); a past operator is the mirror image of its future one.  They
  never touch paths or the compiled core, so they are the direct oracle for
  the compiled core semantics.
- Classical clauses, on a total batch only: the core modalities and dense
  path relations (``rel[k][i]``: the lanes where ``i`` is reachable from
  ``k``), Box as the complement of Diamond of the complement, and star as
  the fixpoint of ``R | R;R``.  ``MhtEvaluator(batch).total`` is the
  reference for the totality law.

:func:`mht_satisfies` is the direct oracle on a single trace's one-lane batch.
"""

from __future__ import annotations

from typing import List

from .formulas import (
    Always, AlwPast, And, Atom, Bot, Box, Choice, Converse, Diamond, Eventually, EvPast,
    Final, Formula, Implies, Initial, Next, Not, Or, PAST_OPS, Prev, Release, Seq, Since, Star,
    Step, Test, Top, Trigger, Until, WNext, WPrev, is_metric,
)
from .lanes import LaneBatch, trace_batch
from .traces import HERE, THERE, TimedHTTrace, World, _check_position

# the nodes of the classical clauses: core modalities and paths
_CLASSICAL = frozenset((Diamond, Box, Step, Test, Choice, Seq, Star, Converse))
_PAST = frozenset(PAST_OPS)


class MhtEvaluator:
    """Memoizing evaluator for the here world of a lane batch; ``total`` is
    the evaluator of its twin, or itself on a batch of total traces."""

    def __init__(self, batch: LaneBatch):
        self.times = batch.times
        self.lam = batch.lam
        self.columns = batch.columns
        self.full = batch.full
        # keyed by node identity; pinning the nodes keeps an id from being
        # reused by a new node while its entry is live
        self._memo: dict = {}
        self._pin: list = []
        self._total = None if batch.twin is batch else MhtEvaluator(batch.twin)
        self._windows = {} if self._total is None else self._total._windows  # the same lanes

    @property
    def total(self) -> "MhtEvaluator":
        return self._total or self

    def window(self, lo, hi) -> List[List[int]]:
        """``window[k][i]``: the lanes whose tau(i) - tau(k) lies in (lo, hi)."""
        w = self._windows.get((lo, hi))
        if w is None:
            lam = self.lam
            w = self._windows[lo, hi] = [[0] * lam for _ in range(lam)]
            for tau, lanes in self.times:
                for row, tk in zip(w, tau):
                    for i, ti in enumerate(tau):
                        if lo < ti - tk < hi:
                            row[i] |= lanes
        return w

    def sat(self, f) -> list:
        """``value[k]``: the lanes where formula f holds at position k (here
        world); for a path, ``value[k][i]``: the lanes where i is reachable
        from k."""
        v = self._memo.get(id(f))
        if v is None:
            v = self._compute(f)
            self._memo[id(f)] = v
            self._pin.append(f)
        return v

    def _compute(self, f) -> list:
        t = type(f)
        sat, lam, full = self.sat, self.lam, self.full
        if t is Atom:
            return self.columns.get(f.name) or [0] * lam
        if t is Bot:
            return [0] * lam
        if t in _CLASSICAL:
            if self._total is not None:
                raise ValueError(f"{t.__name__} is evaluated classically, on a total batch only")
            if t is Step:
                return [[full if i == k + 1 else 0 for i in range(lam)] for k in range(lam)]
            if t is Test:
                body = sat(f.body)
                return [[body[k] if i == k else 0 for i in range(lam)] for k in range(lam)]
            if t is Choice:
                return [[x | y for x, y in zip(a, b)] for a, b in zip(sat(f.left), sat(f.right))]
            if t is Seq:
                return _compose(sat(f.left), sat(f.right))
            if t is Star:
                # from the reflexive relation, add R;R until nothing changes
                rel = [[x | full if i == k else x for i, x in enumerate(row)]
                       for k, row in enumerate(sat(f.body))]
                while True:
                    grown = [[x | y for x, y in zip(a, b)] for a, b in zip(rel, _compose(rel, rel))]
                    if grown == rel:
                        return rel
                    rel = grown
            if t is Converse:
                return [list(column) for column in zip(*sat(f.body))]
            # Diamond: a reachable position in the window where the body holds;
            # Box: the complement of Diamond of the complement
            body, box = sat(f.body), t is Box
            if box:
                body = [full & ~x for x in body]
            out = []
            for row, inside in zip(sat(f.path), self.window(f.interval.lo, f.interval.hi)):
                acc = 0
                for x, y, w in zip(row, body, inside):
                    acc |= x & y & w
                out.append(full & ~acc if box else acc)
            return out
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
        # w[k][i]: the lanes where tau(i) - tau(k) lies in the interval; for a
        # past operator, the mirror image: tau(k) - tau(i), positions i <= k
        iv, past = f.interval, t in _PAST
        w = self.window(-iv.hi, -iv.lo) if past else self.window(iv.lo, iv.hi)
        if t is Next or t is WNext or t is Prev or t is WPrev:
            # the strong form needs a neighbour within the interval, the weak
            # form holds without one
            body, weak, d = sat(f.body), t is WNext or t is WPrev, -1 if past else 1
            return [(body[k + d] & w[k][k + d] | (full & ~w[k][k + d] if weak else 0))
                    if 0 <= k + d < lam else (full if weak else 0) for k in range(lam)]
        out = []
        if t is Eventually or t is Always or t is EvPast or t is AlwPast:
            body, ev = sat(f.body), t is Eventually or t is EvPast
            for k, row in enumerate(w):
                acc = 0 if ev else full
                for i in range(k, -1, -1) if past else range(k, lam):
                    inside = row[i]
                    acc = acc | body[i] & inside if ev else acc & (body[i] | ~inside)
                out.append(acc)
            return out
        if t is Until or t is Release or t is Since or t is Trigger:
            left, right, until = sat(f.left), sat(f.right), t is Until or t is Since
            for k, row in enumerate(w):
                # until: some in-window j with right, left all over [k, j);
                # release: every in-window j has right or left somewhere in
                # [k, j); since and trigger: the same over (j, k]
                acc, prefix = (0, full) if until else (full, 0)
                for j in range(k, -1, -1) if past else range(k, lam):
                    inside = row[j]
                    acc = (acc | right[j] & prefix & inside if until
                           else acc & (right[j] | prefix | ~inside))
                    prefix = prefix & left[j] if until else prefix | left[j]
                out.append(acc)
            return out
        raise TypeError(f"formula or path expected, found {t.__name__}")


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


def mht_satisfies(m: TimedHTTrace, k: int, f: Formula, world: World = HERE) -> bool:
    """Direct metric satisfaction; f may use Boolean and metric operators only."""
    if not is_metric(f):
        raise ValueError("not a metric formula: it has a raw modality")
    _check_position(m, k)
    ev = MhtEvaluator(trace_batch(m))
    return bool((ev.total if world is THERE else ev).sat(f)[k])
