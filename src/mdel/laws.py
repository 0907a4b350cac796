"""Machine-checked law suites and the formula samplers backing them.

Each suite exhaustively (or by seeded sampling) checks one family of
semantic laws over a bounded trace space and returns :class:`LawReport`
records.  Counterexamples carry a reloadable trace document.  Note that the
``release-naive`` suite checks deliberately false equivalence claims, so its
expected outcome is a failure report exhibiting a counterexample.  The
bounded tautology search behind ``mdel equiv`` (:func:`is_tautology_bounded`)
is one more scan, with a :class:`Verdict` for its result.

The exhaustive scans walk the grids of :func:`mdel.lanes.grid_batches`.
Per lane batch they evaluate the compiled side once, and each reference
once, both from one evaluator built from the batch alone
(``MhtEvaluator(batch)``, :mod:`mdel.mht`): the direct metric oracle in
both worlds, and the classical semantics in the batch's there world
(``.total``), compared with the HT value on the total lanes
(``Grid.total``) only.  Comparing whole batch values gives, per check, the
mask of the lanes that may fail it.  Each scan lists a grid's checks in
per-lane order and hands them to one walker (:func:`_walk`), which reads
only those lanes, in enumeration order, counts the lanes between them in
bulk, and stops where the scan says.  A lane's trace is built only for a
counterexample.  Counts and first counterexamples are therefore those of a
trace-by-trace loop.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from . import formulas as F
from .formulas import (
    Atom, BOT, TOP, And, Or, Not, Implies, Final, Initial,
    WNext, Eventually, Always, EvPast, Until, Release, Diamond, Box, Test, Choice, Seq, Star,
    Converse, STEP, Formula, PathExpr, Theory, compile_to_core, invert_past,
    pretty_print, formula_path, UNARY_METRIC, BINARY_METRIC, PAST_OPS,
)
from .intervals import Interval, NEG_OMEGA, OMEGA, UNTIMED
from .lanes import (
    Grid, LaneBatch, grid_batches, grid_columns, iter_lanes, lane_mask, lanes_of, low_bit,
)
from .mht import MhtEvaluator
from .traces import TimedHTTrace, TraceBounds, load_trace, trace_to_dict


@dataclass
class LawReport:
    law_id: str
    space: str
    verdict: str  # "pass" | "fail"
    checked: int
    counterexample: Optional[dict] = None

    def to_dict(self) -> dict:
        doc = {"law": self.law_id, "space": self.space,
               "verdict": self.verdict, "checked": self.checked}
        if self.counterexample is not None:
            doc["counterexample"] = self.counterexample
        return doc


def _report(law_id: str, space: str, checked: int, violations: List[dict]) -> LawReport:
    """A law fails with its first violation, if it has one."""
    return LawReport(law_id, space, "fail" if violations else "pass", checked,
                     violations[0] if violations else None)


def _cex(trace: TimedHTTrace, position: int, **fields) -> dict:
    """A counterexample document; formulas and paths are printed."""
    doc = {"trace": trace_to_dict(trace), "position": position}
    doc.update((key, _printed(value)) for key, value in fields.items())
    return doc


def _printed(value):
    if isinstance(value, Formula):
        return pretty_print(value)
    if isinstance(value, PathExpr):
        return F.print_path(value)
    if isinstance(value, tuple):
        return [_printed(x) for x in value]
    return value


# -- interval and operator grids -------------------------------------------------


def interval_grid(values: Iterable[int]) -> Tuple[Interval, ...]:
    """Every interval the four bracket shapes generate over the given bounds,
    plus the half and fully unbounded ones, deduplicated by canonical form."""
    values = sorted(set(values))
    seen = {}
    shapes = (Interval.closed_closed, Interval.closed_open,
              Interval.open_closed, Interval.open_open)
    for m in values:
        for n in values:
            for shape in shapes:
                iv = shape(m, n)
                seen[(iv.lo, iv.hi)] = iv
    for m in values:
        for iv in (Interval.closed_open(m, OMEGA), Interval.open_open(m, OMEGA)):
            seen[(iv.lo, iv.hi)] = iv
    for n in values:
        for iv in (Interval.open_closed(NEG_OMEGA, n), Interval.open_open(NEG_OMEGA, n)):
            seen[(iv.lo, iv.hi)] = iv
    seen[(NEG_OMEGA, OMEGA)] = UNTIMED
    return tuple(iv for _, iv in sorted(seen.items()))


def nested_argument_pool(atoms: Sequence[str]) -> Tuple[Formula, ...]:
    """Depth-one argument formulas: every metric operator appears nested."""
    a = Atom(atoms[0])
    b = Atom(atoms[-1])
    ivs = (UNTIMED, Interval.closed_closed(0, 2))
    pool: List[Formula] = [a, b, TOP, BOT, Final(), Initial(),
                           Not(a), And(a, b), Or(a, b), Implies(a, b)]
    for op in UNARY_METRIC:
        for iv in ivs:
            pool.append(op(iv, a))
            if b is not a:
                pool.append(op(iv, b))
    for op in BINARY_METRIC:
        for iv in ivs:
            pool.append(op(iv, a, b))
    return tuple(pool)


def operator_space(atoms: Sequence[str],
                   future_intervals: Sequence[Interval],
                   past_intervals: Sequence[Interval],
                   unary_args: Sequence[Formula],
                   binary_pairs: Sequence[Tuple[Formula, Formula]]) -> Tuple[Formula, ...]:
    """The product space: every metric operator over every listed interval and
    argument, so each operator occurs at depth one and above every nested arg."""
    out: List[Formula] = [Final(), Initial()]
    for op in UNARY_METRIC:
        ivs = past_intervals if op in PAST_OPS else future_intervals
        for iv in ivs:
            for arg in unary_args:
                out.append(op(iv, arg))
    for op in BINARY_METRIC:
        ivs = past_intervals if op in PAST_OPS else future_intervals
        for iv in ivs:
            for l, r in binary_pairs:
                out.append(op(iv, l, r))
    return tuple(out)


# -- seeded random generation ------------------------------------------------------


def random_interval(rng: random.Random, past: bool = False) -> Interval:
    if rng.random() < 0.25:
        return UNTIMED
    lo_pool = range(-3, 4) if past else range(0, 4)
    kind = rng.randrange(8)
    if kind == 0:
        return Interval.closed_open(rng.choice(lo_pool), OMEGA)
    if kind == 1:
        return Interval.open_closed(NEG_OMEGA, rng.choice(lo_pool))
    m, n = rng.choice(lo_pool), rng.choice(lo_pool)
    shape = rng.choice((Interval.closed_closed, Interval.closed_open,
                        Interval.open_closed, Interval.open_open))
    return shape(m, n)


def random_path(rng: random.Random, atoms: Sequence[str], depth: int,
                untimed_only: bool = False) -> PathExpr:
    if depth <= 0:
        c = rng.randrange(3)
        if c == 0:
            return STEP
        if c == 1:
            return Test(Atom(rng.choice(atoms)))
        return formula_path(Atom(rng.choice(atoms)))
    c = rng.randrange(6)
    if c == 0:
        return Choice(random_path(rng, atoms, depth - 1, untimed_only),
                      random_path(rng, atoms, depth - 1, untimed_only))
    if c == 1:
        return Seq(random_path(rng, atoms, depth - 1, untimed_only),
                   random_path(rng, atoms, depth - 1, untimed_only))
    if c == 2:
        return Star(random_path(rng, atoms, depth - 1, untimed_only))
    if c == 3:
        return Converse(random_path(rng, atoms, depth - 1, untimed_only))
    if c == 4:
        return Test(random_formula(rng, atoms, depth - 1, untimed_only=untimed_only))
    return formula_path(random_formula(rng, atoms, depth - 1, untimed_only=untimed_only))


def random_formula(rng: random.Random, atoms: Sequence[str], depth: int,
                   dynamic: bool = True, untimed_only: bool = False) -> Formula:
    if depth <= 0:
        return rng.choice([Atom(rng.choice(atoms)), Atom(rng.choice(atoms)), TOP, BOT,
                           Final(), Initial()])

    def sub():
        return random_formula(rng, atoms, depth - 1, dynamic, untimed_only)

    def iv(past: bool = False):
        return UNTIMED if untimed_only else random_interval(rng, past=past)

    choices = ["not", "and", "or", "implies", "unary", "unary", "binary"]
    if dynamic:
        choices += ["diamond", "box"]
    c = rng.choice(choices)
    if c == "not":
        return Not(sub())
    if c == "and":
        return And(sub(), sub())
    if c == "or":
        return Or(sub(), sub())
    if c == "implies":
        return Implies(sub(), sub())
    if c == "unary":
        op = rng.choice(UNARY_METRIC)
        return op(iv(past=op in PAST_OPS), sub())
    if c == "binary":
        op = rng.choice(BINARY_METRIC)
        return op(iv(past=op in PAST_OPS), sub(), sub())
    path = random_path(rng, atoms, depth - 1, untimed_only)
    ctor = Diamond if c == "diamond" else Box
    return ctor(path, iv(past=True), sub())


def random_theory(rng: random.Random, atoms: Sequence[str],
                  max_formulas: int = 3, depth: int = 2) -> Theory:
    n = rng.randint(1, max_formulas)
    forms = tuple(random_formula(rng, atoms, rng.randint(1, depth)) for _ in range(n))
    return Theory(forms, frozenset(atoms))


# -- the lane walker shared by the exhaustive scans --------------------------------


@dataclass
class ScanOutcome:
    traces: int = 0
    checks: int = 0
    agreement_violations: List[dict] = field(default_factory=list)
    persistence_violations: List[dict] = field(default_factory=list)
    totality_violations: List[dict] = field(default_factory=list)

    @property
    def violations(self) -> int:
        return (len(self.agreement_violations) + len(self.persistence_violations)
                + len(self.totality_violations))

    @property
    def clean(self) -> bool:
        return not self.violations


@dataclass(eq=False, slots=True)
class _Check:
    """One check of a grid scan; a scan lists its checks in per-lane order.

    It counts ``count`` checks in every lane of ``scope``.  ``lanes`` are the
    lanes that may fail it and ``positions(lane)`` the positions where such a
    lane does (none: it passes; no ``positions``: every such lane fails at
    position 0).  A failure is recorded in ``violations`` at its first
    failing position, with the counterexample ``fields``.
    """

    violations: List[dict]
    count: int
    lanes: int
    fields: dict
    positions: Optional[Callable[[int], int]] = None
    scope: int = -1
    halts: bool = True


def _value_check(violations: List[dict], count: int, value: List[int],
                 fields: dict) -> _Check:
    """The check that fails where a batch value is set."""
    return _Check(violations, count, lanes_of(value), fields, partial(lane_mask, value))


def _walk(out: ScanOutcome, grid: Grid, checks: Sequence[_Check],
          limit: Optional[int] = None) -> bool:
    """Count and check one grid's lanes for a scan; True when the scan stops.

    Only the lanes that may fail a check are read, in enumeration order, and
    a lane's trace is built only for a failure; the lanes between them are
    counted in bulk.  With a ``limit``, the scan stops after a lane once it
    holds that many violations; without, at the first failure that ``halts``.
    """
    per_lane: dict = {}  # scope -> checks counted in each of its lanes
    for c in checks:
        per_lane[c.scope] = per_lane.get(c.scope, 0) + c.count
    suspects = [(i, c) for i, c in enumerate(checks) if c.lanes]
    done = 0  # lanes counted so far
    for lane in iter_lanes(lanes_of(c.lanes for _, c in suspects)):
        _count(out, per_lane, done, lane)
        done = lane + 1
        trace = None
        for i, c in suspects:
            if c.lanes >> lane & 1 and (where := c.positions(lane) if c.positions else 1):
                trace = trace or grid.trace(lane)
                c.violations.append(_cex(trace, low_bit(where), **c.fields))
                if c.halts and limit is None:  # the lane counts up to this check
                    out.traces += 1
                    out.checks += sum(d.count * (d.scope >> lane & 1) for d in checks[:i + 1])
                    return True
        _count(out, per_lane, lane, done)
        if limit is not None and out.violations >= limit:
            return True
    _count(out, per_lane, done, grid.size)
    return False


def _count(out: ScanOutcome, per_lane: dict, start: int, stop: int) -> None:
    """Count the lanes start..stop-1 in full, with each check in its scope."""
    span = (1 << stop) - (1 << start)
    out.traces += stop - start
    out.checks += sum(n * (scope & span).bit_count() for scope, n in per_lane.items())


# -- combined agreement / persistence / totality scan ------------------------------


def agreement_scan(formulas: Sequence[Formula], bounds: TraceBounds,
                   check_agreement: bool = True,
                   max_violations: int = 5) -> ScanOutcome:
    """One pass per lane batch checking, on every trace, for every formula:

    - oracle agreement: direct metric evaluation equals the compiled core
      semantics, in both worlds (skipped for formulas with raw modalities);
    - persistence: here-satisfaction implies there-satisfaction;
    - totality: on total traces the HT and classical verdicts coincide.
    """
    if max_violations < 1:
        raise ValueError("max_violations must be at least 1")
    pairs = [(f, compile_to_core(f), F.is_metric(f)) for f in formulas]
    out = ScanOutcome()
    for grid in grid_batches(bounds):
        batch = grid.batch
        lam = batch.lam
        checks = []
        if lam:
            oracle = MhtEvaluator(batch)
            classical, total = oracle.total, grid.total
            for surface, core, metric in pairs:
                here, there = batch.sat(core), batch.twin.sat(core)
                fields = {"formula": surface}
                checks += [
                    _value_check(out.persistence_violations, lam,
                                 [h & ~t for h, t in zip(here, there)], fields),
                    _value_check(out.totality_violations, 0,
                                 [(c ^ h) & total for c, h in zip(classical.sat(core), here)],
                                 fields)]
                if check_agreement and metric:
                    checks.append(_value_check(out.agreement_violations, 0, [
                        (o ^ h) | (ot ^ t) for o, ot, h, t in zip(
                            oracle.sat(surface), oracle.total.sat(surface), here, there)],
                        fields))
        if _walk(out, grid, checks, max_violations):
            break
    return out


def relation_scan(paths: Sequence[PathExpr], bounds: TraceBounds) -> ScanOutcome:
    """Relation-level laws: here-relation contained in the there-relation,
    and on total traces the HT relation equals the classical one."""
    out = ScanOutcome()
    paths = [F.compile_path(rho) for rho in paths]
    for grid in grid_batches(bounds):
        batch = grid.batch
        classical = MhtEvaluator(batch.twin)
        checks = []
        for rho in paths:
            here, there = batch.rel(rho), batch.twin.rel(rho)
            beyond = lanes_of(x & ~t.get(i, 0) for h, t in zip(here, there) for i, x in h.items())
            # on the total lanes, the classical relation must equal the HT one
            differ = lanes_of(x ^ h.get(i, 0) for h, row in zip(here, classical.sat(rho))
                              for i, x in enumerate(row))
            fields = {"path": rho}
            checks += [_Check(out.persistence_violations, 1, beyond, fields),
                       _Check(out.totality_violations, 0, differ & grid.total, fields)]
        if _walk(out, grid, checks, 1):
            break
    return out


# -- bounded tautology and equivalence checking ------------------------------------


@dataclass(frozen=True)
class Verdict:
    valid: bool
    counterexample: Optional[tuple]  # (trace, position)
    traces_checked: int
    positions_checked: int

    def to_dict(self) -> dict:
        if self.valid:
            return {"verdict": "valid-up-to-bounds",
                    "traces": self.traces_checked,
                    "positions": self.positions_checked}
        trace, k = self.counterexample
        return {"verdict": "counterexample",
                "trace": trace_to_dict(trace),
                "position": k}


def is_tautology_bounded(f: Formula, bounds: TraceBounds) -> Verdict:
    """Exhaustively check f at every position of every trace within bounds.

    Returns the first counterexample in enumeration order (trace order, then
    position), or the bounded-validity verdict.
    """
    core = compile_to_core(f)
    out = ScanOutcome()
    for grid in grid_batches(bounds):
        batch = grid.batch
        if _walk(out, grid, [_value_check(out.agreement_violations, batch.lam,
                                          [batch.full ^ x for x in batch.sat(core)], {})]):
            break
    bad = out.agreement_violations
    cex = (load_trace(bad[0]["trace"]), bad[0]["position"]) if bad else None
    return Verdict(not bad, cex, out.traces, out.checks)


def iff(f: Formula, g: Formula) -> Formula:
    return And(Implies(f, g), Implies(g, f))


def equiv_bounded(f: Formula, g: Formula, bounds: TraceBounds) -> Verdict:
    """Bounded equivalence: tautology check of the biconditional."""
    return is_tautology_bounded(iff(f, g), bounds)


# -- boolean connective clauses ------------------------------------------------------


def boolean_scan(argument_pairs: Sequence[Tuple[Formula, Formula]],
                 bounds: TraceBounds) -> ScanOutcome:
    """Check the direct here-and-there readings of the Boolean connectives
    against the compiled core, clause for clause."""
    out = ScanOutcome()
    # per pair: the arguments, then the and, or, implies and not of them
    compiled = [
        (l, r, [compile_to_core(g) for g in (l, r, And(l, r), Or(l, r),
                                             Implies(l, r), Not(l))])
        for l, r in argument_pairs
    ]
    top_core = compile_to_core(TOP)
    for grid in grid_batches(bounds):
        batch = grid.batch
        lam, full = batch.lam, batch.full
        checks = []
        if lam:
            # a failure of top is recorded, but neither counted nor final
            checks.append(_Check(out.agreement_violations, 0,
                                 lanes_of(full ^ x for x in batch.sat(top_core)),
                                 {"formula": pretty_print(TOP)}, halts=False))
            for l, r, cores in compiled:
                lh, rh, *got = (batch.sat(c) for c in cores)
                lt, rt = (batch.twin.sat(c) for c in cores[:2])
                wants = ([x & y for x, y in zip(lh, rh)], [x | y for x, y in zip(lh, rh)],
                         [(~x | y) & (~xt | yt) & full for x, y, xt, yt in zip(lh, rh, lt, rt)],
                         [~xt & full for xt in lt])
                # the pair's 4 * lam checks count before its first clause
                for count, name, want, have in zip((4 * lam, 0, 0, 0),
                                                   ("and", "or", "implies", "not"), wants, got):
                    checks.append(_value_check(out.agreement_violations, count,
                                               [w ^ h for w, h in zip(want, have)],
                                               {"clause": name, "left": l, "right": r}))
        if _walk(out, grid, checks):
            break
    return out


# -- release / trigger interval table --------------------------------------------------


def release_table_rows(m: int, n: int) -> List[Tuple[str, Formula, Formula]]:
    """The sixteen displayed equivalences, instantiated at bounds m > 0 and n.

    Returns (row id, timed operator form, expanded right-hand side).  For
    each interval shape I (co, cc, oo, oc: closed or open at each end), row
    ``R-I-m`` reads ``a release_I(m,n) b`` as
    ``alw_I(m,n) b | ev_J (a release (a | wnext b))``, with J = [0, m) when I
    is closed at its lower end and [0, m] when it is open there; row
    ``R-I-0`` (which ignores m) reads ``a release_I(0,n) b`` as
    ``alw_I(0,n) b | a release c``, with c = b for a closed lower end and
    ``a | wnext b`` for an open one.  The ``T`` rows are their past mirror
    images (:func:`_past_mirror`): trigger, alwp, evp and wprev.
    """
    a, b = Atom("a"), Atom("b")
    co, cc = Interval.closed_open, Interval.closed_closed
    shapes = (("co", co), ("cc", cc), ("oo", Interval.open_open), ("oc", Interval.open_closed))
    tail = Or(a, WNext(UNTIMED, b))
    rows = []
    for name, iv in shapes:
        closed = name[0] == "c"
        rows += [
            (f"R-{name}-m", Release(iv(m, n), a, b),
             Or(Always(iv(m, n), b),
                Eventually((co if closed else cc)(0, m), Release(UNTIMED, a, tail)))),
            (f"R-{name}-0", Release(iv(0, n), a, b),
             Or(Always(iv(0, n), b), Release(UNTIMED, a, b if closed else tail)))]
    return rows + [("T" + row_id[1:], _past_mirror(lhs), _past_mirror(rhs))
                   for row_id, lhs, rhs in rows]


def _past_mirror(f: Formula) -> Formula:
    """A metric formula with each future operator replaced by its past
    mirror (:data:`~mdel.formulas.PAST_OF`), intervals kept."""
    args = [_past_mirror(x) if isinstance(x, Formula) else x
            for x in (getattr(f, fld.name) for fld in fields(f))]
    return F.PAST_OF.get(type(f), type(f))(*args)


def check_equivalence_dual(lhs: Formula, rhs: Formula,
                           bounds: TraceBounds) -> Tuple[Optional[dict], int]:
    """Pointwise equivalence in both worlds, with the left side additionally
    evaluated by the direct metric oracle when possible.  Returns the first
    counterexample (or None) and the number of positions checked."""
    cores = [compile_to_core(lhs), compile_to_core(rhs)]
    metric_l = F.is_metric(lhs)
    out = ScanOutcome()
    for grid in grid_batches(bounds):
        batch = grid.batch
        lam = batch.lam
        if lam == 0:
            continue
        lh, rh = (batch.sat(c) for c in cores)
        lt, rt = (batch.twin.sat(c) for c in cores)
        checks = [_value_check(out.agreement_violations, lam,
                               [(a ^ b) | (c ^ d) for a, b, c, d in zip(lh, rh, lt, rt)],
                               {"left": lhs, "right": rhs})]
        if metric_l:
            checks.append(_value_check(
                out.agreement_violations, 0,
                [o ^ x for o, x in zip(MhtEvaluator(batch).sat(lhs), lh)],
                {"left": lhs, "note": "direct oracle disagrees with compiled form"}))
        if _walk(out, grid, checks):
            break
    bad = out.agreement_violations
    return (bad[0] if bad else None), out.checks


def _check_release_alphabet(bounds: TraceBounds) -> None:
    if not {"a", "b"} <= bounds.alphabet:
        raise ValueError("the release suites need the atoms a and b in the alphabet")


def check_release_table(bounds: TraceBounds, m_values: Sequence[int] = (1, 2, 3),
                        n_values: Sequence[int] = (0, 1, 2, 3)) -> List[LawReport]:
    """All sixteen rows, instantiated over the given bound grids.

    Both sides are compared pointwise in both worlds under the compiled core
    semantics, and the timed operator is additionally cross-checked against
    the direct metric oracle.  One pass per lane batch covers every instance.
    """
    _check_release_alphabet(bounds)
    instances: dict = {}
    for mv in m_values:
        if mv <= 0:
            raise ValueError("the general table rows require m > 0")
        for nv in n_values:
            for row_id, lhs, rhs in release_table_rows(mv, nv):
                sig = (lhs.interval.lo, lhs.interval.hi)
                row = instances.setdefault(row_id, {})
                if sig not in row:
                    row[sig] = ((mv, nv), lhs, rhs,
                                compile_to_core(lhs), compile_to_core(rhs))
    rows = {row_id: ScanOutcome() for row_id in instances}
    for grid in grid_batches(bounds):
        batch = grid.batch
        lam = batch.lam
        if lam == 0:
            continue
        oracle = MhtEvaluator(batch)
        # rows are independent: each stops at its first failing lane and case
        for row_id, cases in instances.items():
            out = rows[row_id]
            if out.agreement_violations:
                continue
            checks = []
            for tag, lhs, rhs, cl, cr in cases.values():
                values = (batch.sat(cl), batch.sat(cr), batch.twin.sat(cl), batch.twin.sat(cr),
                          oracle.sat(lhs))
                checks.append(_value_check(
                    out.agreement_violations, lam,
                    [(lh ^ rh) | (lt ^ rt) | (om ^ lh) for lh, rh, lt, rt, om in zip(*values)],
                    {"left": lhs, "right": rhs, "bounds": tag}))
            _walk(out, grid, checks)
    return [_report(row_id, bounds.describe(), rows[row_id].checks,
                    rows[row_id].agreement_violations) for row_id in sorted(instances)]


def check_release_naive(bounds: TraceBounds,
                        interval: Optional[Interval] = None) -> List[LawReport]:
    """The claims that timed release/trigger equal their naive expansions.

    These are not valid laws; the expected outcome is a counterexample,
    reported as a failure."""
    _check_release_alphabet(bounds)
    iv = Interval.closed_closed(3, 5) if interval is None else interval
    a, b = Atom("a"), Atom("b")
    release = (Release(iv, a, b), Or(Until(iv, b, And(a, b)), Always(iv, b)))
    reports = []
    for law_id, (lhs, rhs) in (("release-naive-R", release),
                               ("trigger-naive-T", tuple(map(_past_mirror, release)))):
        cex, checked = check_equivalence_dual(lhs, rhs, bounds)
        reports.append(_report(law_id, bounds.describe(), checked, [cex] if cex else []))
    return reports


# -- excluded middle collapse ----------------------------------------------------------


def em_axioms(alphabet: Iterable[str]) -> Tuple[Formula, ...]:
    """The excluded-middle schema alw(p | !p), one instance per atom."""
    return tuple(Always(UNTIMED, Or(Atom(p), Not(Atom(p)))) for p in sorted(alphabet))


def em_collapse_scan(theories: Sequence[Theory], bounds: TraceBounds) -> ScanOutcome:
    """Every bounded HT-model of a theory extended with the excluded-middle
    schema must be total."""
    out = ScanOutcome()
    em_core = [compile_to_core(f) for f in em_axioms(bounds.alphabet)]
    # the lanes that model the axioms, once per batch for every theory
    grids = [(grid, grid.batch.models(em_core)) for grid in grid_batches(bounds)]
    for theory in theories:
        compiled = [compile_to_core(f) for f in theory.formulas]
        for grid, em_models in grids:
            # one check per model lane
            models = grid.batch.models(compiled, em_models) if grid.batch.lam else 0
            if _walk(out, grid, [_Check(out.agreement_violations, 1, models & ~grid.total,
                                        {"theory": theory.formulas}, scope=models)]):
                return out
    return out


# -- untimed independence ---------------------------------------------------------------


def tau_independence_scan(formulas: Sequence[Formula], rng: random.Random,
                          bounds: TraceBounds, samples: int) -> ScanOutcome:
    """Interval-free formulas may not distinguish traces differing only in tau.

    Each sample is one batch of two lanes with the same states: lane 0 on
    one time grid, lane 1 on another.  A space without a nonempty trace
    checks nothing."""
    out = ScanOutcome()
    for f in formulas:
        if not F.is_interval_free(f):
            raise ValueError("tau independence requires interval-free formulas")
    if bounds.lambda_max < 1:
        return out
    compiled = [(f, compile_to_core(f)) for f in formulas]
    atoms = sorted(bounds.alphabet)
    for _ in range(samples):
        lam = rng.randint(1, bounds.lambda_max)
        there, here = [], []
        for _ in range(lam):
            t = frozenset(x for x in atoms if rng.random() < 0.5)
            here.append(frozenset(x for x in t if rng.random() < 0.6))
            there.append(t)

        def grid():
            tau = [0]
            for _ in range(lam - 1):
                tau.append(tau[-1] + rng.randint(1, bounds.max_gap + 2))
            return tuple(tau)

        tau1, tau2 = grid(), grid()
        times = ((tau1, 1), (tau2, 2))
        positions = tuple(range(lam))  # the same states in lanes 0 and 1
        twin = LaneBatch(times, *grid_columns(there, positions, 0, 2))
        batch = LaneBatch(times, *grid_columns(here, positions, 0, 2), twin=twin)
        f, core = compiled[rng.randrange(len(compiled))]
        out.traces += 1
        out.checks += 2 * lam
        for value in (batch.sat(core), twin.sat(core)):  # here, then there
            diff = lane_mask(value, 0) ^ lane_mask(value, 1)
            if diff:
                m1 = TimedHTTrace(bounds.alphabet, tuple(here), tuple(there), tau1)
                out.agreement_violations.append(
                    _cex(m1, low_bit(diff), formula=f, other_tau=list(tau2)))
                return out
    return out


# -- past-eventually rewriting ------------------------------------------------------------


def invert_past_scan(formulas: Sequence[Formula], bounds: TraceBounds) -> ScanOutcome:
    """The rewritten formula must have no past surface operator left and agree
    with the direct metric evaluation of the original everywhere."""
    out = ScanOutcome()
    pairs = []
    for f in formulas:
        g = invert_past(f)
        if any(type(x) in PAST_OPS for x in F.walk(g)):
            out.agreement_violations.append({"formula": pretty_print(f),
                                             "note": "past operator survived"})
            return out
        pairs.append((f, compile_to_core(g)))
    for grid in grid_batches(bounds):
        batch = grid.batch
        checks = []
        if batch.lam:
            oracle = MhtEvaluator(batch)
            checks = [_value_check(out.agreement_violations, batch.lam,
                                   [x ^ y for x, y in zip(batch.sat(core), oracle.sat(f))],
                                   {"formula": f})
                      for f, core in pairs]
        if _walk(out, grid, checks):
            break
    return out


def bkt_fragment_formulas(rng: random.Random, atoms: Sequence[str],
                          count: int) -> List[Formula]:
    """Sampled formulas in the negation/disjunction/eventually fragment with
    future and past metric eventually operators."""

    def gen(d: int) -> Formula:
        if d <= 0:
            return rng.choice([Atom(rng.choice(atoms)), TOP, BOT])
        c = rng.randrange(4)
        if c == 0:
            return Not(gen(d - 1))
        if c == 1:
            return Or(gen(d - 1), gen(d - 1))
        if c == 2:
            return Eventually(random_interval(rng), gen(d - 1))
        return EvPast(random_interval(rng, past=True), gen(d - 1))

    return [gen(rng.randint(1, 3)) for _ in range(count)]


# -- suite registry -------------------------------------------------------------------------


def _default_paths(atoms: Sequence[str]) -> Tuple[PathExpr, ...]:
    a = Atom(atoms[0])
    na = Not(a)
    return (
        STEP, Star(STEP), Converse(Star(STEP)), Converse(STEP),
        Test(a), formula_path(a), Star(formula_path(a)),
        Seq(Star(formula_path(na)), formula_path(na)),
        Choice(Test(a), Seq(STEP, STEP)),
        Star(Star(formula_path(a))), Converse(Star(Seq(STEP, Test(a)))),
    )


def _sampled_formulas(rng: random.Random, atoms: Sequence[str], count: int,
                      **kwargs) -> List[Formula]:
    return [random_formula(rng, atoms, rng.randint(1, 3), **kwargs)
            for _ in range(count)]


def run_suite(name: str, bounds: TraceBounds, seed: int = 0,
              samples: int = 100) -> List[LawReport]:
    """Run one named law suite; raises KeyError for unknown suite names and
    ValueError for an empty alphabet or fewer than one sample."""
    if not bounds.alphabet:
        raise ValueError("empty alphabet")
    if samples < 1:  # no sample means no check: a pass would be vacuous
        raise ValueError("samples must be at least 1")
    rng = random.Random(seed)
    atoms = sorted(bounds.alphabet)
    space = bounds.describe() + f" seed={seed}"

    if name == "persistence":
        formulas = _sampled_formulas(rng, atoms, samples)
        out = agreement_scan(formulas, bounds, check_agreement=False)
        rel = relation_scan(_default_paths(atoms), bounds)
        return [_report("persistence", space, out.checks + rel.checks,
                        out.persistence_violations + rel.persistence_violations)]
    if name == "totality":
        formulas = _sampled_formulas(rng, atoms, samples)
        total_bounds = TraceBounds(bounds.alphabet, bounds.lambda_max,
                                   bounds.max_gap, total_only=True)
        out = agreement_scan(formulas, total_bounds, check_agreement=False)
        rel = relation_scan(_default_paths(atoms), total_bounds)
        return [_report("totality", space, out.checks + rel.checks,
                        out.totality_violations + rel.totality_violations)]
    if name == "boolean":
        args = _sampled_formulas(rng, atoms, max(samples // 4, 8))
        pairs = [(args[i], args[(i * 7 + 3) % len(args)]) for i in range(len(args))]
        out = boolean_scan(pairs, bounds)
        return [_report("boolean-clauses", space, out.checks, out.agreement_violations)]
    if name == "mht-agreement":
        formulas = _sampled_formulas(rng, atoms, samples, dynamic=False)
        out = agreement_scan(formulas, bounds)
        return [_report("mht-agreement", space, out.checks, out.agreement_violations
                        + out.persistence_violations + out.totality_violations)]
    if name == "untimed-independence":
        formulas = _sampled_formulas(rng, atoms, max(samples // 2, 10),
                                     untimed_only=True)
        out = tau_independence_scan(formulas, rng, bounds, samples)
        return [_report("untimed-independence", space, out.checks, out.agreement_violations)]
    if name == "release-table":
        return check_release_table(bounds)
    if name == "release-naive":
        return check_release_naive(bounds)
    if name == "em-collapse":
        theories = [random_theory(rng, atoms) for _ in range(max(samples // 2, 20))]
        out = em_collapse_scan(theories, bounds)
        return [_report("em-collapse", space, out.checks, out.agreement_violations)]
    if name == "invert-past":
        formulas = bkt_fragment_formulas(rng, atoms, samples)
        past_free = [f for f in formulas if not any(type(x) is EvPast for x in F.walk(f))]
        for f in past_free:
            if invert_past(f) != f:
                return [_report("invert-past", space, 0,
                                [{"formula": pretty_print(f),
                                  "note": "not a fixed point on past-free input"}])]
        out = invert_past_scan(formulas, bounds)
        return [_report("invert-past", space, out.checks, out.agreement_violations)]
    raise KeyError(f"unknown law suite: {name}")


SUITES = ("persistence", "totality", "boolean", "mht-agreement",
          "untimed-independence", "release-table", "release-naive",
          "em-collapse", "invert-past")
