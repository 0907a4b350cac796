"""Command-line front end: satisfaction checks, equilibrium enumeration,
bounded equivalence testing and the law suites.

Exit codes: 0 for success or pass, 1 for a semantic negative (UNSAT, a
failing law, a counterexample), 2 for usage or input errors.  All output is
deterministic for fixed inputs; ``--json`` switches to the documented
machine-readable schemas.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .equilibrium import enumerate_equilibrium, result_to_dict
from .formulas import atoms_of, compile_to_core
from .intervals import IntervalError
from .laws import SUITES, equiv_bounded, run_suite
from .parser import ParseError, is_atom_name, parse_formula, parse_theory
from .semantics import Evaluator
from .traces import HERE, THERE, TraceBounds, TraceError, load_trace, trace_to_dict


class CliError(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _read_formula_text(path: str) -> str:
    lines = [line.split("#", 1)[0] for line in _read(path).splitlines()]
    text = " ".join(line.strip() for line in lines if line.strip())
    if not text:
        raise CliError(f"{path} contains no formula")
    return text


def _alphabet(args, fallback):
    if args.alphabet is None:
        return frozenset(fallback)
    atoms = [a.strip() for a in args.alphabet.split(",") if a.strip()]
    if not atoms:
        raise CliError("empty alphabet")
    for a in atoms:
        if not is_atom_name(a):
            raise CliError(f"{a!r} is not an atom name a formula can mention")
    return frozenset(atoms)


def _bounds(args, alphabet) -> TraceBounds:
    return TraceBounds(alphabet, args.lambda_max, args.max_gap,
                       getattr(args, "total_only", False))


def _emit(doc) -> None:
    print(json.dumps(doc, sort_keys=True))


def _render_state(state) -> str:
    return "{" + ",".join(sorted(state)) + "}"


def _render_model(m) -> str:
    if m.length == 0:
        return "<empty>"
    states = ".".join(_render_state(s) for s in m.there)
    return f"{states} @ tau={list(m.tau)}"


# -- subcommands ------------------------------------------------------------------


def cmd_check(args) -> int:
    trace = load_trace(_read(args.trace))
    formula = parse_formula(_read_formula_text(args.formula), trace.alphabet)
    k = args.position
    if not 0 <= k < trace.length:
        raise CliError(f"position {k} out of range for lambda={trace.length}")
    # one view answers both worlds: the here world's boxes read its there twin
    ev = Evaluator(trace)
    core = compile_to_core(formula)
    here = bool(ev.sat_mask(core, HERE) >> k & 1)
    there = bool(ev.sat_mask(core, THERE) >> k & 1)
    verdict = "SAT" if here else "UNSAT"
    if args.json:
        _emit({"verdict": verdict, "position": k, "here": here, "there": there})
    else:
        print(verdict)
        print(f"here={'SAT' if here else 'UNSAT'} there={'SAT' if there else 'UNSAT'}")
    return 0 if here else 1


def cmd_models(args) -> int:
    text = _read(args.theory)
    alphabet = _alphabet(args, fallback=_theory_atoms(text))
    theory = parse_theory(text, alphabet)
    bounds = _bounds(args, alphabet)
    results = list(enumerate_equilibrium(theory, bounds))
    counts: dict = {}
    for r in results:
        counts[r.lam] = counts.get(r.lam, 0) + 1
    if args.json:
        doc = {"counts": {str(k): v for k, v in sorted(counts.items())},
               "total": len(results)}
        if not args.count_only:
            doc["models"] = [result_to_dict(r) for r in results]
        _emit(doc)
        return 0
    if args.count_only:
        for lam in sorted(counts):
            print(f"lambda={lam}: {counts[lam]}")
        print(f"total: {len(results)}")
        return 0
    current = None
    for r in results:
        if r.lam != current:
            current = r.lam
            print(f"# lambda={current} ({counts[current]} models)")
        print(_render_model(r.model))
    print(f"total: {len(results)}")
    return 0


def _theory_atoms(text: str):
    atoms = set()
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            atoms |= atoms_of(parse_formula(line))
    return atoms


def cmd_equiv(args) -> int:
    text_a = _read_formula_text(args.formula_a)
    text_b = _read_formula_text(args.formula_b)
    fallback = atoms_of(parse_formula(text_a)) | atoms_of(parse_formula(text_b))
    alphabet = _alphabet(args, fallback=fallback or {"a"})
    f = parse_formula(text_a, alphabet)
    g = parse_formula(text_b, alphabet)
    verdict = equiv_bounded(f, g, _bounds(args, alphabet))
    if args.json:
        _emit(verdict.to_dict())
    elif verdict.valid:
        print(f"EQUIVALENT up to bounds ({verdict.traces_checked} traces, "
              f"{verdict.positions_checked} positions)")
    else:
        trace, k = verdict.counterexample
        print("NOT EQUIVALENT")
        print(f"position: {k}")
        print(json.dumps(trace_to_dict(trace), sort_keys=True))
    return 0 if verdict.valid else 1


def cmd_laws(args) -> int:
    if args.suite not in SUITES:
        raise CliError(f"unknown suite {args.suite!r}; available: {', '.join(SUITES)}")
    if args.samples < 1:
        raise CliError("--samples must be at least 1")
    alphabet = _alphabet(args, fallback={"a", "b"})
    bounds = _bounds(args, alphabet)
    reports = run_suite(args.suite, bounds, seed=args.seed, samples=args.samples)
    if args.json:
        _emit([r.to_dict() for r in reports])
    else:
        for r in reports:
            print(f"{r.law_id}: {r.verdict} (checked={r.checked}; {r.space})")
            if r.counterexample is not None:
                print("  counterexample: " + json.dumps(r.counterexample, sort_keys=True))
    return 0 if all(r.verdict == "pass" for r in reports) else 1


# -- argument parsing -----------------------------------------------------------------


def _add_bounds_flags(p: argparse.ArgumentParser, total_only: bool = True) -> None:
    p.add_argument("--alphabet", help="comma-separated atom names")
    p.add_argument("--lambda-max", type=int, default=3, dest="lambda_max",
                   help="maximum trace length (default 3)")
    p.add_argument("--max-gap", type=int, default=2, dest="max_gap",
                   help="maximum time gap between states (default 2)")
    if total_only:
        p.add_argument("--total-only", action="store_true", dest="total_only",
                       help="search total traces only")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mdel",
                                 description="metric dynamic equilibrium logic toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate a formula on a trace")
    p.add_argument("formula", help="formula file (DSL text)")
    p.add_argument("trace", help="trace file (JSON schema)")
    p.add_argument("--position", type=int, default=0, help="evaluation position (default 0)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("models", help="enumerate equilibrium models of a theory")
    p.add_argument("theory", help="theory file (one formula per line)")
    _add_bounds_flags(p, total_only=False)
    p.add_argument("--count-only", action="store_true", dest="count_only")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_models)

    p = sub.add_parser("equiv", help="bounded equivalence of two formulas")
    p.add_argument("formula_a")
    p.add_argument("formula_b")
    _add_bounds_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("laws", help="run a machine-checked law suite")
    p.add_argument("suite", help="one of: " + ", ".join(SUITES))
    _add_bounds_flags(p)
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_laws)

    return ap


def main(argv: Optional[list] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (CliError, ParseError, TraceError, IntervalError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # a formula within the parser's nesting limit can still expand into
        # a core formula too deep for the recursive compiler and evaluator
        print("error: formula nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
