"""The rescue scenario's shape table: each family on a trace of its shape,
and one near miss per family that breaks either its shape or its times."""

import pytest

from mdel.sos import FAMILIES, SHAPES, SosConstants, classify
from mdel.traces import make_trace

# every family is realizable here: the station opens three units after the accident
C = SosConstants(accident_time=1, station_time=4, sos_window=1, reply_window=2)
_, A, S, H, SH = set(), {"a"}, {"s"}, {"h"}, {"s", "h"}

# family: (states, tau), a near miss in time, a near miss in shape
EXAMPLES = {
    "accident-at-end": (([_, A], [0, 1]), ([_, A], [0, 2]), ([_, A, A], [0, 1, 2])),
    "no-transition": (([_, A, _], [0, 1, 5]), ([_, A, _], [0, 1, 4]), ([_, A, H], [0, 1, 5])),
    "unattended": (([_, A, S, S, _], [0, 1, 2, 3, 6]), ([_, A, S, _], [0, 1, 4, 5]),
                   ([_, A, _, S], [0, 1, 2, 3])),
    "immediate-help": (([_, A, S, SH, _], [0, 1, 2, 4, 5]), ([_, A, S, SH], [0, 1, 2, 5]),
                       ([_, A, SH, H], [0, 1, 4, 5])),
    "late-help": (([_, A, S, _, H], [0, 1, 4, 5, 6]), ([_, A, S, H], [0, 1, 4, 7]),
                  ([_, A, S, H, H], [0, 1, 4, 5, 6])),
}


def _trace(states, tau):
    return make_trace({"a", "s", "h"}, states, tau)


def test_the_table_lists_the_families():
    assert FAMILIES == tuple(family for family, _, _ in SHAPES) == tuple(EXAMPLES)


@pytest.mark.parametrize("family", FAMILIES)
def test_classify_each_family_and_its_near_misses(family):
    shaped, late, misshaped = EXAMPLES[family]
    assert classify(_trace(*shaped), C) == family
    assert classify(_trace(*late), C) is None
    assert classify(_trace(*misshaped), C) is None


@pytest.mark.parametrize("states", [[A, S], [{"a", "s"}], [_, A, {"a", "s"}]])
def test_states_outside_the_shape_letters_match_no_family(states):
    assert classify(_trace(states, range(len(states))), SosConstants(0, 1, 1, 1)) is None
