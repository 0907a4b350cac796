"""Naive reference semantics for cross-checking the engine.

Everything here is re-derived literally from the satisfaction definition:
relations are sets of pairs rebuilt on every call, star is the union of
finite relation powers, the there world is a freshly built total trace, and
nothing is cached.  Deliberately slow; only for desk-size spaces.
"""

from __future__ import annotations

from itertools import combinations, product

from mdel.formulas import (
    Atom, Bot, Box, Choice, Converse, Diamond, Seq, Star, Step, Test,
)
from mdel.traces import TimedHTTrace


def naive_relation(rho, m):
    lam = m.length
    t = type(rho)
    if t is Step:
        return {(k, k + 1) for k in range(lam - 1)}
    if t is Test:
        return {(k, k) for k in range(lam) if naive_satisfies(m, k, rho.body)}
    if t is Choice:
        return naive_relation(rho.left, m) | naive_relation(rho.right, m)
    if t is Seq:
        left, right = naive_relation(rho.left, m), naive_relation(rho.right, m)
        return {(k, i) for (k, j) in left for (j2, i) in right if j == j2}
    if t is Star:
        base = naive_relation(rho.body, m)
        # union of all finite powers, grown until a fixed point
        power = {(k, k) for k in range(lam)}
        total = set(power)
        while True:
            power = {(k, i) for (k, j) in power for (j2, i) in base if j == j2}
            if power <= total:
                return total
            total |= power
    if t is Converse:
        return {(k, i) for (i, k) in naive_relation(rho.body, m)}
    raise TypeError(rho)


def naive_satisfies(m: TimedHTTrace, k: int, f, world: str = "here") -> bool:
    """Literal transcription of the satisfaction clauses for core formulas."""
    if world == "there":
        m = TimedHTTrace(m.alphabet, m.there, m.there, m.tau)
    t = type(f)
    if t is Bot:
        return False
    if t is Atom:
        return f.name in m.here[k]
    if t is Diamond:
        rel = naive_relation(f.path, m)
        return any(
            naive_satisfies(m, i, f.body)
            for (k2, i) in rel
            if k2 == k and m.tau[i] - m.tau[k] in f.interval
        )
    if t is Box:
        total = TimedHTTrace(m.alphabet, m.there, m.there, m.tau)
        for world_trace in (m, total):
            rel = naive_relation(f.path, world_trace)
            for (k2, i) in rel:
                if k2 == k and world_trace.tau[i] - world_trace.tau[k] in f.interval:
                    if not naive_satisfies(world_trace, i, f.body):
                        return False
        return True
    raise TypeError(f"naive evaluator handles core formulas only: {f!r}")


def naive_is_model(m: TimedHTTrace, core_formulas) -> bool:
    if m.length == 0:
        return len(core_formulas) == 0
    return all(naive_satisfies(m, 0, f) for f in core_formulas)


def naive_here_variants(t: TimedHTTrace):
    """Every trace with the same there/tau and a strictly smaller here part."""
    per_position = [
        [frozenset(sub) for r in range(len(state) + 1)
         for sub in combinations(sorted(state), r)]
        for state in t.there
    ]
    for here in product(*per_position):
        if any(h != full for h, full in zip(here, t.there)):
            yield TimedHTTrace(t.alphabet, here, t.there, t.tau)


def naive_equilibrium_models(core_formulas, alphabet, lambda_max, max_gap):
    """Brute-force equilibrium search straight from the definitions."""
    atoms = sorted(alphabet)
    subsets = [frozenset(c) for r in range(len(atoms) + 1)
               for c in combinations(atoms, r)]
    models = set()
    for lam in range(lambda_max + 1):
        for gaps in product(range(1, max_gap + 1), repeat=max(lam - 1, 0)):
            tau = [0]
            for g in gaps:
                tau.append(tau[-1] + g)
            tau = tuple(tau[:lam]) if lam else ()
            for states in product(subsets, repeat=lam):
                t = TimedHTTrace(frozenset(alphabet), states, states, tau)
                if not naive_is_model(t, core_formulas):
                    continue
                blocked = any(
                    naive_is_model(h, core_formulas)
                    for h in naive_here_variants(t)
                )
                if not blocked:
                    models.add((tau, states))
    return models


def naive_closure(rows, lam):
    """The reflexive-transitive closure of position rows, as sets of pairs
    joined until nothing changes."""
    pairs = {(k, i) for k, row in enumerate(rows) for i in range(lam) if row >> i & 1}
    pairs |= {(k, k) for k in range(lam)}
    while True:
        extra = {(k, j) for (k, i) in pairs for (i2, j) in pairs if i == i2} - pairs
        if not extra:
            break
        pairs |= extra
    out = [0] * lam
    for k, i in pairs:
        out[k] |= 1 << i
    return tuple(out)
