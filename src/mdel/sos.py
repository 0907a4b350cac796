"""The boat-rescue scenario: an accident triggers repeated SOS calls within
a time window, a rescue station that only starts operating later must reply
within a deadline.  Ships with constructors for the theory at the original
minute constants or at a uniformly rescaled desk-size variant, plus a
classifier for the shape families its equilibrium models fall into.

Rescaling divides the constants by ten (the two-minute reply window maps to
one unit), which preserves every ordering and threshold relation the
scenario analysis depends on.
"""

from __future__ import annotations

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


FAMILIES = ("accident-at-end", "no-transition", "unattended",
            "immediate-help", "late-help")

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
    """Match a total trace against the five equilibrium-model shape families.

    Shapes (with i the accident position, j the last SOS, k the help reply):

    - accident-at-end:  0* . {a}                    tau(i) = accident_time
    - no-transition:    0* . {a} . 0 . 0*           tau(i+1) > station_time
    - unattended:       0* . {a} . {s}* . {s} . 0*  tau(j) < station_time
    - immediate-help:   0* . {a} . {s}* . {s,h} . 0*   tau(j) = station_time
    - late-help:        0* . {a} . {s}* . {s} . 0* . {h} . 0*
                        tau(j) = station_time, tau(k) <= station_time + reply_window

    Returns the family name, or None when the trace matches no family.
    """
    states = [frozenset(x) for x in model.there]
    tau = model.tau
    lam = len(states)
    a_positions = [i for i, st in enumerate(states) if "a" in st]
    if len(a_positions) != 1:
        return None
    i = a_positions[0]
    if states[i] != {"a"} or tau[i] != constants.accident_time:
        return None
    if any(states[p] for p in range(i)):
        return None
    rest = states[i + 1:]
    if i + 1 == lam:
        return "accident-at-end"
    if all(not st for st in rest):
        return "no-transition" if tau[i + 1] > constants.station_time else None
    s_positions = [p for p in range(i + 1, lam) if "s" in states[p]]
    if not s_positions or s_positions != list(range(i + 1, s_positions[-1] + 1)):
        return None
    j = s_positions[-1]
    run_is_clean = all(states[p] == {"s"} for p in range(i + 1, j))
    if not run_is_clean:
        return None
    after = list(range(j + 1, lam))
    if states[j] == {"s", "h"}:
        if tau[j] == constants.station_time and all(not states[p] for p in after):
            return "immediate-help"
        return None
    if states[j] != {"s"}:
        return None
    h_positions = [p for p in after if states[p]]
    if not h_positions:
        return "unattended" if tau[j] < constants.station_time else None
    if (len(h_positions) == 1 and states[h_positions[0]] == {"h"}
            and tau[j] == constants.station_time
            and tau[h_positions[0]] <= constants.station_time + constants.reply_window):
        return "late-help"
    return None
