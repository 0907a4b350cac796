"""The boat-rescue scenario: an accident triggers repeated SOS calls within
a time window, a rescue station that only starts operating later must reply
within a deadline.  Ships with constructors for the theory at the original
minute constants or at a uniformly rescaled desk-size variant, plus a
classifier for the shape families its equilibrium models fall into: one
table, :data:`SHAPES`, of family, regular expression over the states and
time-stamp condition.

Rescaling divides the constants by ten (the two-minute reply window maps to
one unit), which preserves every ordering and threshold relation the
scenario analysis depends on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from .formulas import (
    Always, Atom, Box, Eventually, Implies, Not, Seq, Star, Theory,
    formula_path,
)
from .intervals import Interval, UNTIMED
from .traces import TimedHTTrace, TimeGrids

ALPHABET = frozenset({"a", "s", "h"})


@dataclass(frozen=True)
class SosConstants:
    accident_time: int
    station_time: int
    sos_window: int
    reply_window: int


ORIGINAL = SosConstants(accident_time=40, station_time=50, sos_window=10, reply_window=2)
RESCALED = SosConstants(accident_time=4, station_time=5, sos_window=1, reply_window=1)


def sos_theory(constants: SosConstants = RESCALED) -> Theory:
    """The three scenario formulas.

    The existential accident constraint is listed first so that bounded
    model search rejects most candidate traces on the cheapest formula.
    """
    a, s, h = Atom("a"), Atom("s"), Atom("h")
    not_h = formula_path(Not(h))
    accident = Eventually(Interval.singleton(constants.accident_time), a)
    sos = Always(UNTIMED, Implies(
        a, Box(Seq(Star(not_h), not_h), Interval.at_most(constants.sos_window), s)))
    reply = Always(Interval.at_least(constants.station_time),
                   Implies(s, Eventually(Interval.at_most(constants.reply_window), h)))
    return Theory((accident, sos, reply), ALPHABET)


# The equilibrium-model shape families.  Each shape is a regular expression
# over one letter per state: ``0`` for {}, ``a``, ``s`` and ``h`` for a
# singleton, ``S`` for {s,h}.  Its first group marks the accident i, with
# tau(i) = accident_time in every family; the condition reads the time
# stamps of the other groups: the state after the accident, the last SOS j
# and the help reply k.
SHAPES = (
    ("accident-at-end", "0*(a)", lambda c: True),
    ("no-transition", "0*(a)(0)0*", lambda c, n: n > c.station_time),
    ("unattended", "0*(a)s*(s)0*", lambda c, j: j < c.station_time),
    ("immediate-help", "0*(a)s*(S)0*", lambda c, j: j == c.station_time),
    ("late-help", "0*(a)s*(s)0*(h)0*",
     lambda c, j, k: j == c.station_time and k <= c.station_time + c.reply_window),
)
FAMILIES = tuple(family for family, _, _ in SHAPES)
_LETTERS = {frozenset(): "0", frozenset("a"): "a", frozenset("s"): "s", frozenset("h"): "h",
            frozenset("sh"): "S"}

CURATED_GRID = (0, 40, 45, 50, 51, 52)


def curated_space(grid: Sequence[int] = CURATED_GRID) -> TimeGrids:
    """The total traces whose time stamps are drawn from the curated grid.

    The grid must start at 0; every subset containing 0 is used as a time
    function, shortest grids first.
    """
    if not grid or grid[0] != 0:
        raise ValueError("the grid must start at 0")
    return TimeGrids(ALPHABET, [(0,) + chosen for size in range(len(grid))
                                for chosen in combinations(grid[1:], size)])


def classify(model: TimedHTTrace, constants: SosConstants = RESCALED) -> Optional[str]:
    """The family of :data:`SHAPES` that a total trace matches, or None.

    The shapes match disjoint words, so at most one can hold.
    """
    word = "".join(_LETTERS.get(state, "x") for state in model.there)
    for family, shape, holds in SHAPES:
        match = re.fullmatch(shape, word)
        if match:
            i, *times = (model.tau[match.start(g)] for g in range(1, len(match.groups()) + 1))
            if i == constants.accident_time and holds(constants, *times):
                return family
    return None
