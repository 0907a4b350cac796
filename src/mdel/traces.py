"""Timed here/there traces, trace I/O and bounded exhaustive generation.

A timed HT-trace is a pair of equal-length state sequences (``here`` below
``there`` pointwise) with a strictly increasing time stamp function that
starts at zero.  ``enumerate_traces`` generates every trace inside finite
bounds exactly once, in a fixed order: length ascending, then lexicographic
by the tuple of time gaps, then lexicographic by per-position state bitmasks
(position 0 most significant; general HT states ordered by (there, here)
mask pairs, atoms ordered alphabetically).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence


class TraceError(ValueError):
    """Raised for documents or constructions violating trace invariants."""


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
        if lam > 0:
            if self.tau[0] != 0:
                raise TraceError("tau(0) must be 0")
            for a, b in zip(self.tau, self.tau[1:]):
                if not isinstance(b, int) or b <= a:
                    raise TraceError("tau must be strictly increasing integers")

    @property
    def length(self) -> int:
        return len(self.tau)

    @property
    def is_total(self) -> bool:
        return all(h is t or h == t for h, t in zip(self.here, self.there))


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


def _is_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def load_trace(doc) -> TimedHTTrace:
    """Build a trace from the JSON schema (a dict or a JSON string)."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise TraceError(f"invalid JSON: {exc}") from exc
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


def _gap_grids(lam: int, max_gap: int) -> Iterator[tuple]:
    if lam == 0:
        yield ()
        return
    for gaps in product(range(1, max_gap + 1), repeat=lam - 1):
        tau = [0]
        for g in gaps:
            tau.append(tau[-1] + g)
        yield tuple(tau)


def enumerate_traces(bounds: TraceBounds) -> Iterator[TimedHTTrace]:
    """Yield every trace within bounds exactly once, in the documented order."""
    states = _state_table(bounds.alphabet, bounds.total_only)
    for lam in range(bounds.lambda_max + 1):
        for tau in _gap_grids(lam, bounds.max_gap):
            for combo in product(states, repeat=lam):
                here = tuple(h for h, _ in combo)
                there = tuple(t for _, t in combo)
                yield TimedHTTrace(bounds.alphabet, here, there, tau)


def enumerate_total_traces_with_tau(alphabet, tau: Sequence[int]) -> Iterator[TimedHTTrace]:
    """All total traces over a fixed time grid (used for spot-check runs)."""
    alphabet = frozenset(alphabet)
    states = _state_table(alphabet, total_only=True)
    tau = tuple(tau)
    for combo in product(states, repeat=len(tau)):
        there = tuple(t for _, t in combo)
        yield TimedHTTrace(alphabet, there, there, tau)
