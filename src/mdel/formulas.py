"""Surface and core ASTs for metric dynamic formulas and path expressions.

The core fragment is ``Atom | Bot | Diamond | Box`` over path expressions
built from the single step constant, tests, choice, sequence, star and
converse.  Every other connective (Boolean, endpoint constants, the metric
temporal operators and timed release/trigger) is a derived surface form that
:func:`compile_to_core` expands away.

:data:`CHILDREN` lists each node class's children; :func:`walk` and
``_rebuild``, and through them every structural traversal, read only that
table.  :data:`CONSTANT_NAMES`, :data:`UNARY_NAMES` and :data:`BINARY_NAMES`
are the one spelling of each operator: the printer writes them and the
parser derives its keywords from them.  :data:`PAST_OF` maps each future
metric operator to its past mirror, and :data:`UNARY_CORE` maps each unary
metric operator to its core modality and path; the compiler reads both, so
trigger is compiled as the mirror of release.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Iterator

from .intervals import Interval, UNTIMED


class Formula:
    __slots__ = ()

    def __str__(self) -> str:
        return pretty_print(self)


class PathExpr:
    __slots__ = ()

    def __str__(self) -> str:
        return print_path(self)


# -- path expressions ---------------------------------------------------------


@dataclass(frozen=True)
class Step(PathExpr):
    """The atomic transition constant."""


@dataclass(frozen=True)
class Test(PathExpr):
    body: Formula

    __test__ = False  # not a test class, despite the name


@dataclass(frozen=True)
class Choice(PathExpr):
    left: PathExpr
    right: PathExpr


@dataclass(frozen=True)
class Seq(PathExpr):
    left: PathExpr
    right: PathExpr


@dataclass(frozen=True)
class Star(PathExpr):
    body: PathExpr


@dataclass(frozen=True)
class Converse(PathExpr):
    body: PathExpr


STEP = Step()


def formula_path(f: Formula) -> PathExpr:
    """A bare formula used in path position abbreviates ``(f? ; step)``."""
    return Seq(Test(f), STEP)


# -- core formulas ------------------------------------------------------------


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Bot(Formula):
    pass


@dataclass(frozen=True)
class Diamond(Formula):
    path: PathExpr
    interval: Interval
    body: Formula


@dataclass(frozen=True)
class Box(Formula):
    path: PathExpr
    interval: Interval
    body: Formula


# -- derived surface formulas -------------------------------------------------


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Final(Formula):
    pass


@dataclass(frozen=True)
class Initial(Formula):
    pass


@dataclass(frozen=True)
class Next(Formula):
    interval: Interval
    body: Formula


@dataclass(frozen=True)
class WNext(Formula):
    interval: Interval
    body: Formula


@dataclass(frozen=True)
class Prev(Formula):
    interval: Interval
    body: Formula


@dataclass(frozen=True)
class WPrev(Formula):
    interval: Interval
    body: Formula


@dataclass(frozen=True)
class Eventually(Formula):
    interval: Interval
    body: Formula


@dataclass(frozen=True)
class Always(Formula):
    interval: Interval
    body: Formula


@dataclass(frozen=True)
class EvPast(Formula):
    interval: Interval
    body: Formula


@dataclass(frozen=True)
class AlwPast(Formula):
    interval: Interval
    body: Formula


@dataclass(frozen=True)
class Until(Formula):
    interval: Interval
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Since(Formula):
    interval: Interval
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Release(Formula):
    interval: Interval
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Trigger(Formula):
    interval: Interval
    left: Formula
    right: Formula


BOT = Bot()
TOP = Top()

# The children of each node class: its Formula and PathExpr fields, in field
# order (``name`` and ``interval`` are data).
CHILDREN = {
    cls: tuple(f.name for f in fields(cls) if f.type in ("Formula", "PathExpr"))
    for base in (PathExpr, Formula) for cls in base.__subclasses__()
}

# The DSL spelling of each constant and metric operator.
CONSTANT_NAMES = {Bot: "bot", Top: "top", Final: "final", Initial: "initial"}
UNARY_NAMES = {Next: "next", WNext: "wnext", Prev: "prev", WPrev: "wprev",
               Eventually: "ev", Always: "alw", EvPast: "evp", AlwPast: "alwp"}
BINARY_NAMES = {Until: "until", Since: "since", Release: "release", Trigger: "trigger"}

UNARY_METRIC = tuple(UNARY_NAMES)
BINARY_METRIC = tuple(BINARY_NAMES)

# Each future metric operator's past mirror: the same definition read
# backwards along the trace, over offsets tau(k) - tau(j).
PAST_OF = {Next: Prev, WNext: WPrev, Eventually: EvPast, Always: AlwPast,
           Until: Since, Release: Trigger}
PAST_OPS = tuple(PAST_OF.values())
_FUTURE_OF = {op: op for op in PAST_OF}

# Each unary metric operator is a core modality over one shared path: the
# step or its closure, and for a past operator the converse of its future
# mirror's path (with the interval mirrored around zero).
_STAR_STEP = Star(STEP)
UNARY_CORE = {Next: (Diamond, STEP), WNext: (Box, STEP),
              Eventually: (Diamond, _STAR_STEP), Always: (Box, _STAR_STEP)}
UNARY_CORE.update({PAST_OF[op]: (core, Converse(path))
                   for op, (core, path) in UNARY_CORE.items()})
_CORE = (Atom, Bot, Diamond, Box)


def walk(node) -> Iterator[Formula]:
    """Yield every formula node, descending through paths and their tests."""
    if isinstance(node, Formula):
        yield node
    for name in CHILDREN[type(node)]:
        yield from walk(getattr(node, name))


def _rebuild(node, fn):
    """The same node with every child mapped by fn."""
    names = CHILDREN[type(node)]
    if not names:
        return node
    return replace(node, **{name: fn(getattr(node, name)) for name in names})


def is_core(f: Formula) -> bool:
    """True when f (including formulas nested in path tests) is core."""
    return all(type(g) in _CORE for g in walk(f))


def atoms_of(f: Formula) -> frozenset:
    return frozenset(g.name for g in walk(f) if type(g) is Atom)


def is_metric(f: Formula) -> bool:
    """True when f uses only Boolean and metric temporal operators."""
    return not any(type(g) in (Diamond, Box) for g in walk(f))


def is_interval_free(f: Formula) -> bool:
    """True when every interval in f is the default (-w..w)."""
    return all(getattr(g, "interval", UNTIMED).is_untimed for g in walk(f))


@dataclass(frozen=True)
class Theory:
    """A finite, ordered list of formulas over a declared alphabet."""

    formulas: tuple
    alphabet: frozenset

    def __post_init__(self):
        object.__setattr__(self, "formulas", tuple(self.formulas))
        object.__setattr__(self, "alphabet", frozenset(self.alphabet))
        for f in self.formulas:
            extra = atoms_of(f) - self.alphabet
            if extra:
                raise ValueError(f"formula uses atoms outside the alphabet: {sorted(extra)}")


# -- compilation to the core fragment -----------------------------------------


def untimed_release(left: Formula, right: Formula) -> Formula:
    """Interval-free release: (r until (l & r)) | alw r."""
    return _untimed(_FUTURE_OF, left, right)


def _untimed(op: dict, left: Formula, right: Formula) -> Formula:
    """Interval-free release, (r until (l & r)) | alw r, with each operator
    read through ``op``: :data:`PAST_OF` gives interval-free trigger."""
    return Or(op[Until](UNTIMED, right, And(left, right)), op[Always](UNTIMED, right))


def expand_release(f: Formula) -> Formula:
    """Rewrite a timed release into unary metric operators plus untimed release,
    and a timed trigger into the past mirror (:data:`PAST_OF`) of the same.

    Offsets reached by either operator are nonnegative, so a lower end
    below -1 is clamped to -1 (the canonical encoding of a closed-at-zero
    end) before choosing the expansion shape.
    """
    op = PAST_OF if type(f) is Trigger else _FUTURE_OF
    iv, l, r = f.interval, f.left, f.right
    alw, lo = op[Always](iv, r), max(iv.lo, -1)
    if lo == -1:
        # zero offset inside the interval: plain untimed release tail
        return Or(alw, _untimed(op, l, r))
    tail = _untimed(op, l, Or(l, op[WNext](UNTIMED, r)))
    return Or(alw, tail if lo == 0 else op[Eventually](Interval(-1, lo + 1), tail))


# Structurally equal inputs share one compiled object, so identity-keyed
# evaluation caches hit across formulas with common subterms.  A memo is
# emptied when it holds MEMO_CAP entries, which bounds it in a long-lived
# process; the largest scan in the tests and benchmarks (criterion 3's
# operator space) leaves about 23,000.
MEMO_CAP = 1 << 16
_CORE_MEMO: dict = {}
_PATH_MEMO: dict = {}


def _remember(memo: dict, key, out):
    """Store ``memo[key] = out``, emptying a memo at its cap first."""
    if len(memo) >= MEMO_CAP:
        memo.clear()
    memo[key] = out
    return out


def compile_path(rho: PathExpr) -> PathExpr:
    out = _PATH_MEMO.get(rho)
    return _remember(_PATH_MEMO, rho, _compile_path(rho)) if out is None else out


def _compile_path(rho: PathExpr) -> PathExpr:
    if not isinstance(rho, PathExpr):
        raise TypeError(f"not a path expression: {rho!r}")
    return _rebuild(rho, _compile_node)


def _compile_node(node):
    return compile_to_core(node) if isinstance(node, Formula) else compile_path(node)


def compile_to_core(f: Formula) -> Formula:
    """Expand every derived operator, leaving only Atom/Bot/Diamond/Box."""
    out = _CORE_MEMO.get(f)
    return _remember(_CORE_MEMO, f, _compile_formula(f)) if out is None else out


def _compile_formula(f: Formula) -> Formula:
    t = type(f)
    if t is Atom or t is Bot:
        return f
    if t is Diamond:
        return Diamond(compile_path(f.path), f.interval, compile_to_core(f.body))
    if t is Box:
        return Box(compile_path(f.path), f.interval, compile_to_core(f.body))
    if t is Top:
        return Box(Test(BOT), UNTIMED, BOT)
    if t is Not:
        return compile_to_core(Implies(f.body, BOT))
    if t is And:
        return Diamond(Test(compile_to_core(f.left)), UNTIMED, compile_to_core(f.right))
    if t is Or:
        return Diamond(
            Choice(Test(compile_to_core(f.left)), Test(compile_to_core(f.right))),
            UNTIMED,
            compile_to_core(TOP),
        )
    if t is Implies:
        return Box(Test(compile_to_core(f.left)), UNTIMED, compile_to_core(f.right))
    if t is Final:
        return Box(STEP, UNTIMED, BOT)
    if t is Initial:
        return Box(Converse(STEP), UNTIMED, BOT)
    if t in UNARY_CORE:
        core, path = UNARY_CORE[t]
        iv = f.interval.invert() if t in PAST_OPS else f.interval
        return core(path, iv, compile_to_core(f.body))
    if t is Until:
        return Diamond(
            Star(Seq(Test(compile_to_core(f.left)), STEP)),
            f.interval,
            compile_to_core(f.right),
        )
    if t is Since:
        return Diamond(
            Converse(Star(Seq(STEP, Test(compile_to_core(f.left))))),
            f.interval.invert(),
            compile_to_core(f.right),
        )
    if t is Release or t is Trigger:
        return compile_to_core(expand_release(f))
    raise TypeError(f"not a formula: {f!r}")


def invert_past(f: Formula) -> Formula:
    """Eliminate past-eventually operators via converse paths.

    Rewrites each past-eventually subformula into a diamond over the
    converse of the step closure with the mirrored interval; everything
    else is preserved.  Formulas containing other past-oriented surface
    operators are outside the supported fragment and rejected.
    """
    t = type(f)
    if t is EvPast:
        core, path = UNARY_CORE[EvPast]
        return core(path, f.interval.invert(), invert_past(f.body))
    if t in PAST_OPS:
        raise ValueError(f"{t.__name__} is outside the past-eventually fragment")
    if t not in CHILDREN:
        raise TypeError(f"not a formula: {f!r}")
    return _rebuild(f, invert_past)


# -- pretty printing -----------------------------------------------------------

_P_IMP, _P_OR, _P_AND, _P_TMP, _P_UN = range(5)


def _ival(iv: Interval) -> str:
    return "" if iv.is_untimed else iv.render()


def _wrap(text: str, level: int, ctx: int) -> str:
    return f"({text})" if level < ctx else text


def _fmt(f: Formula, ctx: int) -> str:
    t = type(f)
    if t is Atom:
        return f.name
    if t in CONSTANT_NAMES:
        return CONSTANT_NAMES[t]
    if t is Not:
        return _wrap("!" + _fmt(f.body, _P_UN), _P_UN, ctx)
    if t is And:
        text = f"{_fmt(f.left, _P_AND)} & {_fmt(f.right, _P_AND + 1)}"
        return _wrap(text, _P_AND, ctx)
    if t is Or:
        text = f"{_fmt(f.left, _P_OR)} | {_fmt(f.right, _P_OR + 1)}"
        return _wrap(text, _P_OR, ctx)
    if t is Implies:
        text = f"{_fmt(f.left, _P_IMP + 1)} -> {_fmt(f.right, _P_IMP)}"
        return _wrap(text, _P_IMP, ctx)
    if t in BINARY_NAMES:
        op = BINARY_NAMES[t] + _ival(f.interval)
        text = f"{_fmt(f.left, _P_TMP + 1)} {op} {_fmt(f.right, _P_TMP)}"
        return _wrap(text, _P_TMP, ctx)
    if t in UNARY_NAMES:
        text = f"{UNARY_NAMES[t]}{_ival(f.interval)} {_fmt(f.body, _P_UN)}"
        return _wrap(text, _P_UN, ctx)
    if t is Diamond or t is Box:
        left, right = "<>" if t is Diamond else "[]"
        text = f"{left}{print_path(f.path)}{right}{_ival(f.interval)} {_fmt(f.body, _P_UN)}"
        return _wrap(text, _P_UN, ctx)
    raise TypeError(f"not a formula: {f!r}")


_R_CHOICE, _R_SEQ, _R_POST = range(3)


def _fmt_path(rho: PathExpr, ctx: int) -> str:
    t = type(rho)
    if t is Step:
        return "step"
    if t is Test:
        return _fmt(rho.body, _P_UN) + "?"
    if t is Choice:
        text = f"{_fmt_path(rho.left, _R_CHOICE)} + {_fmt_path(rho.right, _R_CHOICE + 1)}"
        return _wrap(text, _R_CHOICE, ctx)
    if t is Seq:
        text = f"{_fmt_path(rho.left, _R_SEQ)} ; {_fmt_path(rho.right, _R_SEQ + 1)}"
        return _wrap(text, _R_SEQ, ctx)
    if t is Star:
        return _fmt_path(rho.body, _R_POST) + "*"
    if t is Converse:
        return _fmt_path(rho.body, _R_POST) + "^-"
    raise TypeError(f"not a path expression: {rho!r}")


def pretty_print(f: Formula) -> str:
    """Render a formula in the concrete DSL; inverse of the parser."""
    return _fmt(f, 0)


def print_path(rho: PathExpr) -> str:
    return _fmt_path(rho, 0)
