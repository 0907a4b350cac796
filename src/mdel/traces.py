"""Timed here/there traces, trace I/O and bounded exhaustive generation.

A timed HT-trace is a pair of equal-length state sequences (``here`` below
``there`` pointwise) with a strictly increasing time stamp function that
starts at zero.  ``enumerate_traces`` generates every trace of a finite
space exactly once, in a fixed order: by time grid, then lexicographic by
per-position state bitmasks (position 0 most significant; general HT states
ordered by (there, here) mask pairs, atoms ordered alphabetically).  A
``TraceBounds`` space orders its time grids by length ascending, then
lexicographically by the tuple of time gaps; a ``TimeGrids`` space lists
them explicitly.  A trace is read in one of two worlds: ``HERE`` (its here
states) or ``THERE`` (its there states, the collapsed total trace).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from itertools import accumulate, product
from typing import Iterator, Sequence, Union


class TraceError(ValueError):
    """Raised for documents or constructions violating trace invariants."""


def _is_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def _check_tau(tau: tuple) -> None:
    if tau and tau[0] != 0:
        raise TraceError("tau(0) must be 0")
    if not all(_is_int(b) and b > a for a, b in zip((-1,) + tau, tau)):
        raise TraceError("tau must be strictly increasing integers")


@dataclass(frozen=True)
class TimedHTTrace:
    alphabet: frozenset
    here: tuple
    there: tuple
    tau: tuple

    def __post_init__(self):
        object.__setattr__(self, "alphabet", frozenset(self.alphabet))
        object.__setattr__(self, "here", tuple(frozenset(s) for s in self.here))
        object.__setattr__(self, "there", tuple(frozenset(s) for s in self.there))
        object.__setattr__(self, "tau", tuple(self.tau))
        lam = len(self.tau)
        if len(self.here) != lam or len(self.there) != lam:
            raise TraceError("here, there and tau must have equal length")
        for h, t in zip(self.here, self.there):
            if not (h is t or h <= t):
                raise TraceError("here state must be a subset of the there state")
            if not t <= self.alphabet:
                raise TraceError("state uses atoms outside the alphabet")
        _check_tau(self.tau)

    @property
    def length(self) -> int:
        return len(self.tau)

    @property
    def is_total(self) -> bool:
        return all(h is t or h == t for h, t in zip(self.here, self.there))


class World(enum.Enum):
    HERE = "here"
    THERE = "there"


HERE = World.HERE
THERE = World.THERE


def _check_position(m: TimedHTTrace, k: int):
    if not 0 <= k < m.length:
        raise IndexError(f"position {k} out of range for a trace of length {m.length}")


def make_trace(alphabet, there, tau, here=None) -> TimedHTTrace:
    """Convenience constructor from plain iterables; omitted here means total."""
    there = tuple(frozenset(s) for s in there)
    here = there if here is None else tuple(frozenset(s) for s in here)
    return TimedHTTrace(frozenset(alphabet), here, there, tuple(tau))


def total_of(m: TimedHTTrace) -> TimedHTTrace:
    """Collapse to the total trace <T,T,tau>; idempotent."""
    return TimedHTTrace(m.alphabet, m.there, m.there, m.tau)


def strictly_below(here: Sequence, there: Sequence) -> bool:
    """H < T: pointwise subset with a strict inclusion somewhere."""
    if len(here) != len(there):
        raise ValueError("state sequences must have equal length")
    below = all(frozenset(h) <= frozenset(t) for h, t in zip(here, there))
    return below and any(frozenset(h) != frozenset(t) for h, t in zip(here, there))


# -- I/O -----------------------------------------------------------------------


def load_trace(doc) -> TimedHTTrace:
    """Build a trace from the JSON schema (a dict or a JSON string)."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise TraceError(f"invalid JSON: {exc}") from exc
        except RecursionError as exc:
            raise TraceError("trace document nested too deeply") from exc
        except ValueError as exc:  # an integer literal longer than int() converts
            raise TraceError(f"trace document holds a number too long: {exc}") from exc
    if not isinstance(doc, dict):
        raise TraceError("trace document must be a JSON object")
    for key in ("alphabet", "lambda", "tau", "there"):
        if key not in doc:
            raise TraceError(f"trace document is missing {key!r}")
    alphabet = doc["alphabet"]
    if not isinstance(alphabet, list) or not all(isinstance(a, str) for a in alphabet):
        raise TraceError("alphabet must be a list of atom names")
    lam = doc["lambda"]
    if not _is_int(lam):
        raise TraceError(f"lambda must be an integer, got {lam!r}")
    tau, there = doc["tau"], doc["there"]
    here = doc.get("here", there)
    if not (isinstance(tau, list) and isinstance(there, list) and isinstance(here, list)):
        raise TraceError("tau, here and there must be lists")
    states = here + there
    if not (all(isinstance(s, list) for s in states)
            and all(isinstance(a, str) for s in states for a in s)):
        raise TraceError("every here and there state must be a list of atom names")
    if not all(_is_int(t) for t in tau):
        raise TraceError("tau entries must be integers")
    if not (len(tau) == len(there) == len(here) == lam):
        raise TraceError("lambda does not match the tau/here/there lengths")
    try:
        return make_trace(alphabet, there, tau, here)
    except TraceError:
        raise
    except (TypeError, ValueError) as exc:
        raise TraceError(str(exc)) from exc


def trace_to_dict(m: TimedHTTrace) -> dict:
    doc = {
        "alphabet": sorted(m.alphabet),
        "lambda": m.length,
        "tau": list(m.tau),
        "there": [sorted(s) for s in m.there],
    }
    if not m.is_total:
        doc["here"] = [sorted(s) for s in m.here]
    return doc


def dump_trace(m: TimedHTTrace) -> str:
    return json.dumps(trace_to_dict(m), sort_keys=True)


# -- bounded exhaustive generation ---------------------------------------------


@dataclass(frozen=True)
class TraceBounds:
    """Finite search space: lengths up to lambda_max, gaps in [1..max_gap]."""

    alphabet: frozenset
    lambda_max: int
    max_gap: int = 1
    total_only: bool = False

    def __post_init__(self):
        object.__setattr__(self, "alphabet", frozenset(self.alphabet))
        if self.lambda_max < 0:
            raise ValueError("lambda_max must be >= 0")
        if self.max_gap < 1:
            raise ValueError("max_gap must be >= 1")

    def describe(self) -> str:
        kind = "total" if self.total_only else "ht"
        return (
            f"|A|={len(self.alphabet)} lambda<={self.lambda_max} "
            f"gap<={self.max_gap} {kind}"
        )

    def time_grids(self) -> Iterator[tuple]:
        """Every time grid of the space: length ascending, then gaps lexicographic."""
        yield ()
        for lam in range(1, self.lambda_max + 1):
            for gaps in product(range(1, self.max_gap + 1), repeat=lam - 1):
                yield tuple(accumulate(gaps, initial=0))


@dataclass(frozen=True)
class TimeGrids:
    """Finite search space of total traces over an explicit list of time
    grids, in their order."""

    alphabet: frozenset
    taus: tuple
    total_only = True  # a class constant, not a field

    def __post_init__(self):
        object.__setattr__(self, "alphabet", frozenset(self.alphabet))
        object.__setattr__(self, "taus", tuple(map(tuple, self.taus)))
        for tau in self.taus:
            _check_tau(tau)

    def time_grids(self) -> Iterator[tuple]:
        return iter(self.taus)


Space = Union[TraceBounds, TimeGrids]


def _state_table(alphabet: frozenset, total_only: bool):
    atoms = sorted(alphabet)
    sets = [frozenset(a for j, a in enumerate(atoms) if mask >> j & 1)
            for mask in range(1 << len(atoms))]
    if total_only:
        return [(s, s) for s in sets]
    return [(sets[h], sets[t])
            for t in range(len(sets))
            for h in range(t + 1)
            if h & t == h]


def enumerate_traces(space: Space) -> Iterator[TimedHTTrace]:
    """Yield every trace of a space exactly once, in the documented order."""
    states = _state_table(space.alphabet, space.total_only)
    for tau in space.time_grids():
        for combo in product(states, repeat=len(tau)):
            here = tuple(h for h, _ in combo)
            there = tuple(t for _, t in combo)
            yield TimedHTTrace(space.alphabet, here, there, tau)
