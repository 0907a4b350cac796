import random

import pytest
from hypothesis import given, settings, strategies as st

from mdel.formulas import (
    Atom, BINARY_NAMES, BOT, Box, Diamond, Eventually, Not, Release, Seq, Star,
    STEP, Test, Theory, Top, UNARY_NAMES, Until, compile_to_core, formula_path, pretty_print,
    walk,
)
from mdel.intervals import Interval, UNTIMED
from mdel.laws import random_formula
from mdel.parser import (
    KEYWORDS, MAX_NESTING, ParseError, is_atom_name, parse_formula, parse_path, parse_theory,
)

AB = frozenset({"a", "b", "h"})


def test_diamond_with_interval():
    f = parse_formula("<step>[1..3] a", AB)
    assert f == Diamond(STEP, Interval.closed_closed(1, 3), Atom("a"))


def test_function_style_box_is_core_negation():
    f = parse_formula("box(a?, (-w..w), bot)", AB)
    assert f == Box(Test(Atom("a")), UNTIMED, BOT)
    assert f == compile_to_core(Not(Atom("a")))


def test_metric_eventually_with_singleton_interval():
    f = parse_formula("ev[40..40] a", AB)
    assert f == Eventually(Interval.singleton(40), Atom("a"))


def test_formula_in_path_position_desugars():
    rho = parse_path("(!h)* ; !h", AB)
    step_of = formula_path(Not(Atom("h")))
    assert rho == Seq(Star(step_of), step_of)


def test_path_precedence_postfix_seq_choice():
    assert parse_path("step ; step* + a?", AB) == parse_path("(step ; (step*)) + (a?)", AB)
    assert parse_path("step*^-", AB) == parse_path("(step*)^-", AB)


def test_formula_precedence():
    assert parse_formula("a -> b | h & a", AB) == parse_formula("a -> (b | (h & a))", AB)
    assert parse_formula("a | b until h", AB) == parse_formula("a | (b until h)", AB)
    assert parse_formula("!a until b", AB) == Until(UNTIMED, Not(Atom("a")), Atom("b"))
    assert parse_formula("a -> b -> h", AB) == parse_formula("a -> (b -> h)", AB)


def test_omitted_interval_is_untimed():
    f = parse_formula("a until b", AB)
    assert f == Until(UNTIMED, Atom("a"), Atom("b"))


def test_unknown_atom_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_formula("a & zebra", AB)
    assert "zebra" in str(exc.value)


def test_syntax_error_reports_position():
    with pytest.raises(ParseError):
        parse_formula("a &", AB)
    with pytest.raises(ParseError):
        parse_formula("(a", AB)
    with pytest.raises(ParseError):
        parse_formula("a b", AB)


def test_closed_interval_at_omega_rejected():
    with pytest.raises(ParseError) as exc:
        parse_formula("ev [3..w] a", AB)
    assert "omega" in str(exc.value)
    with pytest.raises(ParseError):
        parse_formula("alw [-w..3) a", AB)


RESERVED = """bot top final initial next wnext prev wprev ev alw evp alwp
              until since release trigger step box diamond w""".split()


def test_keywords_are_the_reserved_words():
    assert KEYWORDS == frozenset(RESERVED) and len(RESERVED) == 20


@pytest.mark.parametrize("word", RESERVED)
def test_reserved_words_are_not_atoms(word):
    # a constant parses as itself; any other keyword alone is a syntax error
    assert not is_atom_name(word)
    for text in (word, f"a & {word}"):
        if word in ("bot", "top", "final", "initial"):
            assert Atom(word) not in set(walk(parse_formula(text, AB | {word})))
        else:
            with pytest.raises(ParseError):
                parse_formula(text, AB | {word})


@pytest.mark.parametrize("op, name", [*UNARY_NAMES.items(), *BINARY_NAMES.items()],
                         ids=[*UNARY_NAMES.values(), *BINARY_NAMES.values()])
def test_each_operator_name_round_trips(op, name):
    iv = Interval.closed_open(1, 4)
    args = (Atom("a"),) if op in UNARY_NAMES else (Atom("a"), Atom("b"))
    f = op(iv, *args)
    assert pretty_print(f).split()[int(op in BINARY_NAMES)] == name + "[1..3]"
    assert parse_formula(pretty_print(f), AB) == f
    assert parse_formula(pretty_print(op(UNTIMED, *args)), AB) == op(UNTIMED, *args)


def test_release_round_trips():
    f = Release(Interval.closed_closed(3, 5), Atom("a"), Atom("b"))
    assert parse_formula(pretty_print(f), AB) == f


def test_default_interval_elided_in_printing():
    f = Diamond(STEP, UNTIMED, Atom("a"))
    assert pretty_print(f) == "<step> a"
    assert parse_formula("<step> a", AB) == f


def test_parse_theory_lines_and_comments():
    th = parse_theory("# comment\na -> b\n\nev a  # trailing\n", AB)
    assert len(th.formulas) == 2
    assert th.alphabet == AB


def test_theory_rejects_foreign_atoms():
    with pytest.raises(ParseError):
        parse_theory("a & q", AB)
    with pytest.raises(ValueError, match="outside the alphabet"):
        Theory((Diamond(Test(Atom("q")), UNTIMED, Top()),), {"a"})


@pytest.mark.parametrize("nest", [
    lambda d: "!" * d + "a",
    lambda d: "(" * d + "a" + ")" * d,
    lambda d: " & ".join(["a"] * (d + 1)),
    lambda d: " until ".join(["a"] * (d + 1)),
    lambda d: "<" + ";".join(["step"] * d) + ">a",  # the brackets open a level
    lambda d: "<step" + "*" * (d - 1) + ">a",
])
def test_nesting_limit(nest):
    parse_formula(nest(MAX_NESTING), AB)
    with pytest.raises(ParseError, match="nested deeper"):
        parse_formula(nest(MAX_NESTING + 1), AB)


@st.composite
def formulas(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    depth = draw(st.integers(min_value=0, max_value=3))
    rng = random.Random(seed)
    return random_formula(rng, ["a", "b", "h"], depth)


@settings(max_examples=300, deadline=None)
@given(formulas())
def test_parse_is_inverse_of_pretty_print(f):
    assert parse_formula(pretty_print(f), AB) == f


@pytest.mark.parametrize("text, message", [
    ("ev[w..3] a", "lower interval bound must be an integer or -w"),
    ("ev[0..-w] a", "upper interval bound must be an integer or w"),
    ("ev[0..x] a", "expected an interval bound"),
    ("ev[0..3 a", "expected '\\)' or '\\]' closing the interval"),
    ("[0..3] a", "an interval must follow an operator"),
])
def test_malformed_intervals_rejected(text, message):
    with pytest.raises(ParseError, match=message):
        parse_formula(text, AB)


def test_path_trailing_input_rejected():
    with pytest.raises(ParseError, match="trailing input 'step'"):
        parse_path("step step")
