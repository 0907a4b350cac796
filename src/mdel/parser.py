"""Recursive-descent parser for the formula DSL.

Grammar (loosest to tightest): ``->`` (right-assoc), ``|``, ``&``, the binary
temporal operators ``until/since/release/trigger`` (right-assoc), unary
prefixes (``!``, the unary metric operators, ``<RHO>`` and ``[RHO]``), then
primaries.  Intervals after an operator are optional and default to
``(-w..w)``.  In path position a bare formula ``f`` abbreviates ``(f? ; step)``.

Nesting is limited to :data:`MAX_NESTING` levels, so that deep input is
refused with a :class:`ParseError` instead of exhausting the interpreter's
stack in the parser, the compiler or the evaluator, which all recurse.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional

from .intervals import NEG_OMEGA, OMEGA, UNTIMED, Interval, IntervalError
from . import formulas as F

_CONSTANTS = {name: cls() for cls, name in F.CONSTANT_NAMES.items()}
_UNARY_OPS = {name: cls for cls, name in F.UNARY_NAMES.items()}
_BINARY_OPS = {name: cls for cls, name in F.BINARY_NAMES.items()}
_MODAL_CALLS = {"box": F.Box, "diamond": F.Diamond}
_STEP = str(F.STEP)

# ``w`` is omega in an interval bound
KEYWORDS = frozenset([*_CONSTANTS, *_UNARY_OPS, *_BINARY_OPS, *_MODAL_CALLS, _STEP, "w"])

# Each operand of an operator, each bracketed or parenthesized part and each
# further operand of a chain such as ``a & b & c`` opens one more level.
MAX_NESTING = 100

_NAME = r"[a-z][a-zA-Z0-9_]*"

_TOKEN_RE = re.compile(
    rf"\s+|(?P<name>{_NAME})|(?P<int>\d+)|(?P<op>->|\^-|\.\.|[()\[\]<>&|!?+;*,-])"
)


def is_atom_name(text: str) -> bool:
    """True when a formula can mention an atom called ``text``."""
    return re.fullmatch(_NAME, text) is not None and text not in KEYWORDS


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


def _tokenize(text: str):
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup is not None:
            toks.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    toks.append(("eof", "", len(text)))
    return toks


class _Parser:
    def __init__(self, text: str, alphabet: Optional[frozenset]):
        self.toks = _tokenize(text)
        self.i = 0
        self.alphabet = alphabet
        self.depth = 0

    # -- token helpers -----------------------------------------------------

    def peek(self, ahead: int = 0):
        j = min(self.i + ahead, len(self.toks) - 1)
        return self.toks[j]

    def at(self, text: str) -> bool:
        return self.toks[self.i][1] == text and self.toks[self.i][0] != "eof"

    def take(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, text: str):
        kind, val, pos = self.toks[self.i]
        if kind == "eof" or val != text:
            raise ParseError(f"expected {text!r}, found {val or 'end of input'!r}", pos)
        self.i += 1

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.toks[self.i][2])

    def enter(self) -> None:
        if self.depth >= MAX_NESTING:
            raise self.error(f"formula nested deeper than {MAX_NESTING} levels")
        self.depth += 1

    def nested(self, parse):
        """Run a sub-parser one nesting level further in."""
        self.enter()
        out = parse()
        self.depth -= 1
        return out

    def chain(self, first, op: str, parse, ctor):
        """A left-associative chain ``first op x op y ...``."""
        left, levels = first, 0
        while self.at(op):
            self.take()
            self.enter()
            levels += 1
            left = ctor(left, parse())
        self.depth -= levels
        return left

    # -- intervals -----------------------------------------------------------

    def _interval_ahead(self) -> bool:
        if self.peek()[1] not in ("(", "["):
            return False
        j = 1
        if self.peek(j)[1] == "-":
            j += 1
        if self.peek(j)[0] == "int" or self.peek(j)[1] == "w":
            j += 1
        else:
            return False
        return self.peek(j)[1] == ".."

    def _bound(self, lower: bool):
        negative = False
        if self.at("-"):
            self.take()
            negative = True
        kind, val, pos = self.take()
        if kind == "int":
            try:
                value = int(val)
            except ValueError as exc:  # more digits than int() converts
                raise ParseError("interval bound has too many digits", pos) from exc
            return -value if negative else value
        if val == "w":
            if lower and not negative:
                raise ParseError("lower interval bound must be an integer or -w", pos)
            if not lower and negative:
                raise ParseError("upper interval bound must be an integer or w", pos)
            return NEG_OMEGA if negative else OMEGA
        raise ParseError("expected an interval bound", pos)

    def parse_interval(self) -> Interval:
        kind, bracket, pos = self.take()
        lo_closed = bracket == "["
        lo = self._bound(lower=True)
        self.expect("..")
        hi = self._bound(lower=False)
        k2, b2, pos2 = self.take()
        if b2 not in (")", "]"):
            raise ParseError("expected ')' or ']' closing the interval", pos2)
        hi_closed = b2 == "]"
        try:
            if lo_closed and hi_closed:
                return Interval.closed_closed(lo, hi)
            if lo_closed:
                return Interval.closed_open(lo, hi)
            if hi_closed:
                return Interval.open_closed(lo, hi)
            return Interval.open_open(lo, hi)
        except IntervalError as exc:
            raise ParseError(str(exc), pos) from exc

    def maybe_interval(self) -> Interval:
        if self._interval_ahead():
            return self.parse_interval()
        return UNTIMED

    # -- formulas --------------------------------------------------------------

    def parse_formula(self) -> F.Formula:
        left = self.parse_or()
        if self.at("->"):
            self.take()
            return F.Implies(left, self.nested(self.parse_formula))
        return left

    def parse_or(self) -> F.Formula:
        return self.chain(self.parse_and(), "|", self.parse_and, F.Or)

    def parse_and(self) -> F.Formula:
        return self.chain(self.parse_temporal(), "&", self.parse_temporal, F.And)

    def parse_temporal(self) -> F.Formula:
        left = self.parse_unary()
        kind, val, _ = self.peek()
        if kind == "name" and val in _BINARY_OPS:
            self.take()
            iv = self.maybe_interval()
            right = self.nested(self.parse_temporal)
            return _BINARY_OPS[val](iv, left, right)
        return left

    def parse_unary(self) -> F.Formula:
        kind, val, pos = self.peek()
        if val == "!":
            self.take()
            return F.Not(self.nested(self.parse_unary))
        if kind == "name" and val in _UNARY_OPS:
            self.take()
            iv = self.maybe_interval()
            return _UNARY_OPS[val](iv, self.nested(self.parse_unary))
        if val == "<":
            self.take()
            path = self.nested(self.parse_path)
            self.expect(">")
            iv = self.maybe_interval()
            return F.Diamond(path, iv, self.nested(self.parse_unary))
        if val == "[":
            if self._interval_ahead():
                self.parse_interval()  # surfaces malformed-interval errors
                raise ParseError("an interval must follow an operator", pos)
            self.take()
            path = self.nested(self.parse_path)
            self.expect("]")
            iv = self.maybe_interval()
            return F.Box(path, iv, self.nested(self.parse_unary))
        return self.parse_primary()

    def parse_primary(self) -> F.Formula:
        kind, val, pos = self.peek()
        if kind == "name":
            if val in _CONSTANTS:
                self.take()
                return _CONSTANTS[val]
            if val in _MODAL_CALLS:
                return self.parse_modal_call()
            if val in KEYWORDS:
                raise self.error(f"{val!r} is a reserved keyword")
            self.take()
            if self.alphabet is not None and val not in self.alphabet:
                raise ParseError(f"unknown atom {val!r}", pos)
            return F.Atom(val)
        if val == "(":
            self.take()
            inner = self.nested(self.parse_formula)
            self.expect(")")
            return inner
        raise self.error(f"expected a formula, found {val or 'end of input'!r}")

    def parse_modal_call(self) -> F.Formula:
        _, name, _ = self.take()
        self.expect("(")
        path = self.nested(self.parse_path)
        self.expect(",")
        iv = self.parse_interval()
        self.expect(",")
        body = self.nested(self.parse_formula)
        self.expect(")")
        return _MODAL_CALLS[name](path, iv, body)

    # -- path expressions --------------------------------------------------------

    def parse_path(self) -> F.PathExpr:
        return self.chain(self.parse_path_seq(), "+", self.parse_path_seq, F.Choice)

    def parse_path_seq(self) -> F.PathExpr:
        return self.chain(self.parse_path_postfix(), ";", self.parse_path_postfix, F.Seq)

    def parse_path_postfix(self) -> F.PathExpr:
        p = self.parse_path_atom()
        levels = 0
        while self.at("*") or self.at("^-"):
            self.enter()
            levels += 1
            p = F.Star(p) if self.take()[1] == "*" else F.Converse(p)
        self.depth -= levels
        return p

    def parse_path_atom(self) -> F.PathExpr:
        kind, val, _ = self.peek()
        if val == _STEP:
            self.take()
            return F.STEP
        # a formula here is either a test (trailing '?') or path sugar (f? ; step)
        saved = self.i, self.depth
        formula_err = None
        try:
            f = self.nested(self.parse_formula)
        except ParseError as exc:
            formula_err = exc
            self.i, self.depth = saved
        else:
            if self.at("?"):
                self.take()
                return F.Test(f)
            return F.formula_path(f)
        if self.at("("):
            self.take()
            inner = self.nested(self.parse_path)
            self.expect(")")
            return inner
        raise formula_err or self.error("expected a path expression")


def parse_formula(text: str, alphabet: Optional[Iterable[str]] = None) -> F.Formula:
    """Parse one formula; atoms must belong to ``alphabet`` when given."""
    p = _Parser(text, frozenset(alphabet) if alphabet is not None else None)
    f = p.parse_formula()
    kind, val, pos = p.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {val!r}", pos)
    return f


def parse_path(text: str, alphabet: Optional[Iterable[str]] = None) -> F.PathExpr:
    p = _Parser(text, frozenset(alphabet) if alphabet is not None else None)
    rho = p.parse_path()
    kind, val, pos = p.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {val!r}", pos)
    return rho


def parse_theory(text: str, alphabet: Iterable[str]) -> F.Theory:
    """One formula per non-blank line; '#' starts a comment."""
    alphabet = frozenset(alphabet)
    out = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            out.append(parse_formula(line, alphabet))
    return F.Theory(tuple(out), alphabet)
