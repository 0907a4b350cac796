import contextlib
import io
import json
import os
import random
import sys
import tempfile

import pytest
from hypothesis import event, given, settings, strategies as st

import mdel.cli
import mdel.parser
from mdel.cli import main
from mdel.formulas import pretty_print
from mdel.laws import random_formula
from mdel.sos import RESCALED, sos_theory

TRACE_43 = json.dumps({"alphabet": ["a", "b"], "lambda": 3, "tau": [0, 1, 4],
                       "there": [["a"], [], []]})


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_sat(files, capsys):
    trace = files("t.json", TRACE_43)
    formula = files("f.mdel", "a release [3..5] b\n")
    code, out, err = run(capsys, "check", formula, trace)
    assert code == 0
    assert out.splitlines() == ["SAT", "here=SAT there=SAT"]


def test_check_unsat_exit_one(files, capsys):
    trace = files("t.json", TRACE_43)
    formula = files("f.mdel", "alw [3..5] b\n")
    code, out, _ = run(capsys, "check", formula, trace)
    assert code == 1
    assert out.startswith("UNSAT")


def test_check_json_mode(files, capsys):
    trace = files("t.json", TRACE_43)
    formula = files("f.mdel", "# comment\nb until [3..5] (a & b)\n")
    code, out, _ = run(capsys, "check", formula, trace, "--json")
    assert code == 1
    assert json.loads(out) == {"verdict": "UNSAT", "position": 0,
                               "here": False, "there": False}


def test_check_bad_interval_exit_two(files, capsys):
    trace = files("t.json", TRACE_43)
    formula = files("f.mdel", "ev [3..w] a\n")
    code, _, err = run(capsys, "check", formula, trace)
    assert code == 2
    assert "omega" in err


def test_check_position_flag(files, capsys):
    trace = files("t.json", TRACE_43)
    formula = files("f.mdel", "final\n")
    code, out, _ = run(capsys, "check", formula, trace, "--position", "2")
    assert code == 0
    code, _, err = run(capsys, "check", formula, trace, "--position", "7")
    assert code == 2


def test_models_listing_and_counts(files, capsys):
    theory = files("th.mdel", "ev a\n")
    code, out, _ = run(capsys, "models", theory, "--alphabet", "a",
                       "--lambda-max", "2", "--max-gap", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# lambda=1 (1 models)"
    assert lines[-1] == "total: 5"
    code, out, _ = run(capsys, "models", theory, "--alphabet", "a",
                       "--lambda-max", "2", "--max-gap", "2", "--count-only")
    assert code == 0
    assert out.splitlines() == ["lambda=1: 1", "lambda=2: 4", "total: 5"]


def test_models_json_schema(files, capsys):
    theory = files("th.mdel", "ev a\n")
    code, out, _ = run(capsys, "models", theory, "--alphabet", "a",
                       "--lambda-max", "1", "--json")
    doc = json.loads(out)
    assert doc["total"] == 1
    assert doc["models"][0]["status"] == "equilibrium"
    assert doc["models"][0]["there"] == [["a"]]


def test_models_empty_for_bot(files, capsys):
    theory = files("th.mdel", "bot\n")
    code, out, _ = run(capsys, "models", theory, "--alphabet", "a",
                       "--lambda-max", "2", "--count-only")
    assert code == 0
    assert out.splitlines() == ["total: 0"]


def test_equiv_valid(files, capsys):
    fa = files("fa.mdel", "ev [0..2] a\n")
    fb = files("fb.mdel", "<step*>[0..2] a\n")
    code, out, _ = run(capsys, "equiv", fa, fb, "--lambda-max", "3", "--max-gap", "2")
    assert code == 0
    assert out.startswith("EQUIVALENT")


def test_equiv_counterexample(files, capsys):
    fa = files("fa.mdel", "a release [3..5] b\n")
    fb = files("fb.mdel", "(b until [3..5] (a & b)) | alw [3..5] b\n")
    code, out, _ = run(capsys, "equiv", fa, fb, "--lambda-max", "3", "--max-gap", "4")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "NOT EQUIVALENT"
    reloaded = json.loads(lines[2])
    assert reloaded["lambda"] >= 2


def test_laws_pass_and_fail_exits(files, capsys):
    code, out, _ = run(capsys, "laws", "boolean", "--lambda-max", "2", "--samples", "10")
    assert code == 0
    code, out, _ = run(capsys, "laws", "release-naive", "--lambda-max", "3",
                       "--max-gap", "4")
    assert code == 1
    assert "release-naive-R: fail" in out


def test_laws_unknown_suite(files, capsys):
    code, _, err = run(capsys, "laws", "nosuch")
    assert code == 2
    assert "unknown suite" in err


def test_laws_json_deterministic(files, capsys):
    code1, out1, _ = run(capsys, "laws", "release-naive", "--lambda-max", "3",
                         "--max-gap", "4", "--json")
    code2, out2, _ = run(capsys, "laws", "release-naive", "--lambda-max", "3",
                         "--max-gap", "4", "--json")
    assert (code1, out1) == (code2, out2)
    doc = json.loads(out1)
    assert [r["law"] for r in doc] == ["release-naive-R", "trigger-naive-T"]


def test_missing_file_exit_two(capsys):
    code, _, err = run(capsys, "check", "/nonexistent.mdel", "/nonexistent.json")
    assert code == 2


def test_check_deep_nesting_exit_two(files, capsys):
    trace = files("t.json", TRACE_43)
    formula = files("f.mdel", "!" * 300 + "a\n")
    code, out, err = run(capsys, "check", formula, trace)
    assert (code, out) == (2, "")
    assert "nested deeper" in err and "Traceback" not in err


def test_check_deeply_nested_trace_is_a_trace_error(files, capsys):
    trace = files("deep.json", "[" * 100_000)
    formula = files("f.mdel", "a\n")
    code, out, err = run(capsys, "check", formula, trace)
    assert (code, out, err) == (2, "", "error: trace document nested too deeply\n")


def test_recursion_error_exit_two(files, capsys, monkeypatch):
    import mdel.cli

    def too_deep(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(mdel.cli, "compile_to_core", too_deep)
    trace = files("t.json", TRACE_43)
    formula = files("f.mdel", "a\n")
    code, out, err = run(capsys, "check", formula, trace)
    assert (code, out, err) == (2, "", "error: formula nested too deeply\n")


@pytest.mark.parametrize("lam, tau", [(True, [0]), (2, [0.0, True])])
def test_check_rejects_non_integer_trace_fields(files, capsys, lam, tau):
    doc = {"alphabet": ["a", "b"], "lambda": lam, "tau": tau, "there": [["a"]] * len(tau)}
    trace = files("t.json", json.dumps(doc))
    formula = files("f.mdel", "a\n")
    code, out, err = run(capsys, "check", formula, trace)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no limit on integer string conversion")
@pytest.mark.parametrize("formula, trace, message", [
    ("a", TRACE_43.replace("[0, 1, 4]", "[0, 1, " + "1" * 5000 + "]"),
     "error: trace document holds a number too long: "),
    ("ev[1.." + "9" * 5000 + "] a", TRACE_43,
     "error: interval bound has too many digits (at offset 6)\n"),
], ids=["tau", "interval-bound"])
def test_check_over_long_integer_literals_exit_two(files, capsys, formula, trace, message):
    # past the interpreter's digit limit, a number is an input error with a place
    code, out, err = run(capsys, "check", files("f.mdel", formula + "\n"), files("t.json", trace))
    assert (code, out) == (2, "")
    assert err.startswith(message)


@pytest.mark.parametrize("there", [["ab", ""], [{"a": 5}, []]])
def test_check_rejects_states_that_are_not_lists(files, capsys, there):
    doc = {"alphabet": ["a", "b"], "lambda": 2, "tau": [0, 1], "there": there}
    trace = files("t.json", json.dumps(doc))
    formula = files("f.mdel", "a\n")
    code, out, err = run(capsys, "check", formula, trace)
    assert (code, out) == (2, "")
    assert err == "error: every here and there state must be a list of atom names\n"


@pytest.mark.parametrize("suite, samples", [("mht-agreement", "0"), ("mht-agreement", "-1"),
                                            ("untimed-independence", "-5")])
def test_laws_rejects_vacuous_sample_counts(capsys, suite, samples):
    # no sample means no check: a pass would be vacuous
    code, out, err = run(capsys, "laws", suite, "--lambda-max", "1", "--samples", samples)
    assert (code, out) == (2, "")
    assert err == "error: --samples must be at least 1\n"


@pytest.mark.parametrize("alphabet", ["a b", "ev", "a,w", "a,B", "a,1x", "a,b-c"])
def test_alphabet_rejects_names_no_formula_can_mention(files, capsys, alphabet):
    formula = files("f.mdel", "a\n")
    for argv in (("equiv", formula, formula), ("laws", "boolean", "--samples", "1")):
        code, out, err = run(capsys, *argv, "--alphabet", alphabet, "--lambda-max", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "not an atom name" in err
    code, out, _ = run(capsys, "equiv", formula, formula, "--alphabet", "a, x_1,bB",
                       "--lambda-max", "1")
    assert code == 0 and out.startswith("EQUIVALENT")


@pytest.mark.parametrize("alphabet", ["", ",,"])
def test_empty_alphabet_exit_two(files, capsys, alphabet):
    # an empty --alphabet is refused, not replaced by the command's fallback
    formula = files("f.mdel", "a\n")
    for argv in (("models", formula), ("equiv", formula, formula),
                 ("laws", "boolean", "--samples", "1")):
        code, out, err = run(capsys, *argv, "--alphabet", alphabet, "--lambda-max", "1")
        assert (code, out, err) == (2, "", "error: empty alphabet\n"), argv


@pytest.mark.parametrize("suite", ["release-table", "release-naive"])
@pytest.mark.parametrize("alphabet", ["c", "a"])
def test_release_suites_need_atoms_a_and_b(capsys, suite, alphabet):
    # the release rows are written over a and b: over c they would pass
    # vacuously, and over a a counterexample would mention b, which its
    # trace document's alphabet lacks
    code, out, err = run(capsys, "laws", suite, "--alphabet", alphabet, "--lambda-max", "2",
                         "--max-gap", "1")
    assert (code, out) == (2, "")
    assert err == "error: the release suites need the atoms a and b in the alphabet\n"


# -- fuzzing: every input gets exit 0, 1 or 2 and no traceback ---------------------

_TOKENS = ["a", "b", "c", "x1", "ev", "alw", "evp", "alwp", "next", "wnext", "prev",
           "wprev", "until", "since", "release", "trigger", "final", "initial", "top",
           "bot", "step", "diamond", "box", "w", "!", "&", "|", "->", "(", ")", "[", "]",
           "<", ">", "..", "-", "0", "1", "3", "*", "?", ";", "+", "^-", ",", "#"]
_printed_formula = st.integers(0, 10 ** 6).map(
    lambda seed: pretty_print(random_formula(random.Random(seed), ["a", "b"], 3)))
_formula_text = st.sampled_from((
    _printed_formula, _printed_formula,
    st.lists(st.sampled_from(_TOKENS), max_size=24).map(" ".join),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=24))).flatmap(lambda s: s)


@st.composite
def _valid_trace_doc(draw):
    lam = draw(st.integers(1, 4))
    tau = [0]
    for _ in range(lam - 1):
        tau.append(tau[-1] + draw(st.integers(1, 3)))
    there = [sorted(draw(st.sets(st.sampled_from("ab")))) for _ in range(lam)]
    here = [[a for a in t if draw(st.booleans())] for t in there]
    return {"alphabet": ["a", "b"], "lambda": lam, "tau": tau, "here": here, "there": there}


_scalar = st.one_of(st.none(), st.booleans(), st.integers(-2, 6),
                    st.floats(allow_nan=False), st.text(max_size=3))
# a state may come as a list, a string, an object or any other scalar
_state = st.one_of(_scalar, st.lists(st.sampled_from(["a", "b", "z", "", 1, None]), max_size=3),
                   st.dictionaries(st.sampled_from(["a", "b", "z"]), _scalar, max_size=2))
_field = st.one_of(_scalar, st.lists(_state, max_size=4))
_messy_trace_doc = st.dictionaries(
    st.sampled_from(["alphabet", "lambda", "tau", "here", "there"]), _field)
# one_of would weigh every branch of the nested strategies alike; half of
# the formulas and traces are well-formed, so that evaluation is reached
_trace_text = st.sampled_from((
    _valid_trace_doc().map(json.dumps), _valid_trace_doc().map(json.dumps),
    st.one_of(_messy_trace_doc, _field).map(json.dumps),
    st.text(max_size=16))).flatmap(lambda s: s)


@settings(max_examples=300, deadline=None)
@given(_formula_text, _trace_text, st.integers(-1, 3))
def test_check_fuzz_exit_codes(formula, trace, position):
    with tempfile.TemporaryDirectory() as d:
        paths = [os.path.join(d, name) for name in ("f.mdel", "t.json")]
        for path, text in zip(paths, (formula, trace)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", *paths, "--position", str(position)])
    event(f"exit {code}")
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert (code == 2) == err.getvalue().startswith("error: ")


# -- usage errors: argparse refusals exit 2, never a traceback ------------------------


@pytest.mark.parametrize("argv, message", [
    (["bogus"], "invalid choice: 'bogus'"),
    (["models"], "the following arguments are required: theory"),
    (["models", "th.mdel", "--lambda-max", "x"], "argument --lambda-max: invalid int value"),
    (["check", "f.mdel", "t.json", "--position", "1.5"], "argument --position: invalid int value"),
])
def test_usage_errors_exit_two(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: mdel") and message in err


@pytest.mark.parametrize("flags, message", [
    (["--max-gap", "0"], "error: max_gap must be >= 1\n"),
    (["--lambda-max", "-1"], "error: lambda_max must be >= 0\n"),
])
def test_bounds_out_of_range_exit_two(files, capsys, flags, message):
    theory = files("th.mdel", "ev a\n")
    code, out, err = run(capsys, "models", theory, *flags)
    assert (code, out, err) == (2, "", message)


def test_help_exits_zero(capsys):
    code, out, err = run(capsys, "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: mdel")


def test_models_listing_shows_the_empty_trace(files, capsys):
    # the empty trace models only the empty theory: no position 0 to hold at
    theory = files("th.mdel", "# no formulas\n")
    code, out, _ = run(capsys, "models", theory, "--alphabet", "a", "--lambda-max", "1")
    assert code == 0
    assert out.splitlines() == ["# lambda=0 (1 models)", "<empty>",
                                "# lambda=1 (1 models)", "{} @ tau=[0]", "total: 2"]


@pytest.mark.parametrize("doc", [
    {"alphabet": ["a"], "lambda": 1, "tau": [0], "there": [["b"]]},
    {"alphabet": ["a"], "lambda": 1, "tau": [0], "there": [["a"]], "here": [["b"]]},
])
def test_check_atom_outside_the_alphabet_exit_two(files, capsys, doc):
    trace = files("t.json", json.dumps(doc))
    code, out, err = run(capsys, "check", files("f.mdel", "a\n"), trace)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


# -- each input is read once, and an atomless input is read over {a} ----------------


@pytest.fixture
def parse_calls(monkeypatch):
    """Count the formulas parsed, wherever parse_formula is bound by name."""
    calls = []
    original = mdel.parser.parse_formula

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for module in (mdel.parser, mdel.cli):
        monkeypatch.setattr(module, "parse_formula", counting)
    return calls


def test_models_and_equiv_parse_each_formula_once(files, capsys, parse_calls):
    lines = [pretty_print(f) for f in sos_theory(RESCALED).formulas]
    theory = files("sos.mdel", "\n".join(lines) + "\n")
    code, out, _ = run(capsys, "models", theory, "--lambda-max", "2", "--count-only")
    assert (code, out.splitlines()[-1]) == (0, "total: 0")
    assert parse_calls == lines
    del parse_calls[:]
    fa = files("fa.mdel", "ev [0..2] a\n")
    fb = files("fb.mdel", "<step*>[0..2] a\n")
    code, _, _ = run(capsys, "equiv", fa, fb, "--lambda-max", "2")
    assert code == 0 and len(parse_calls) == 2


@pytest.mark.parametrize("text", ["# nothing\n", "top\nev top\n", "ev[1..2] top\n"])
def test_models_on_an_atomless_theory_run_over_a(files, capsys, text):
    theory = files("th.mdel", text)
    flags = ("--lambda-max", "3", "--max-gap", "2")
    code, out, err = run(capsys, "models", theory, *flags)
    assert (code, err) == (0, "")
    assert run(capsys, "models", theory, *flags, "--alphabet", "a") == (code, out, err)
    code, out, _ = run(capsys, "models", theory, *flags, "--json")
    doc = json.loads(out)
    assert code == 0 and doc["total"] > 0
    assert {tuple(m["alphabet"]) for m in doc["models"]} == {("a",)}
    assert all(state == [] for m in doc["models"] for state in m["there"])


def test_equiv_on_atomless_formulas_runs_over_a(files, capsys):
    fa = files("fa.mdel", "top\n")
    fb = files("fb.mdel", "# a comment\n!bot\n")
    code, out, _ = run(capsys, "equiv", fa, fb, "--lambda-max", "2", "--max-gap", "1",
                       "--json")
    assert code == 0
    over_a = run(capsys, "equiv", fa, fb, "--lambda-max", "2", "--max-gap", "1", "--json",
                 "--alphabet", "a")
    assert over_a == (0, out, "")
    code, out, _ = run(capsys, "equiv", fa, files("fc.mdel", "final\n"), "--lambda-max", "2",
                       "--max-gap", "1")
    assert code == 1
    assert json.loads(out.splitlines()[2])["alphabet"] == ["a"]


@pytest.mark.parametrize("command", ["check", "equiv"])
def test_formula_file_of_only_comments_exit_two(files, capsys, command):
    formula = files("f.mdel", "# only\n\n   # comments\n")
    other = files("t.json", TRACE_43) if command == "check" else files("g.mdel", "a\n")
    code, out, err = run(capsys, command, formula, other)
    assert (code, out) == (2, "")
    assert err == f"error: {formula} contains no formula\n"
