"""Metric dynamic here-and-there logic on timed finite traces.

Parse formulas and timed HT-traces, evaluate satisfaction under the
three-valued here/there semantics, enumerate equilibrium (stable) models
over bounded trace spaces, and machine-check the operator laws.
"""

from .intervals import Interval, IntervalError, NEG_OMEGA, OMEGA, UNTIMED
from .formulas import (
    Always, AlwPast, And, Atom, BOT, Bot, Box, Choice, Converse, Diamond,
    EvPast, Eventually, Final, Formula, Implies, Initial, Next, Not, Or,
    PathExpr, Prev, Release, Seq, Since, Star, STEP, Step, Test, Theory,
    TOP, Top, Trigger, Until, WNext, WPrev, atoms_of, compile_to_core,
    formula_path, invert_past, is_core, is_interval_free, is_metric,
    pretty_print, print_path,
)
from .parser import ParseError, parse_formula, parse_path, parse_theory
from .traces import (
    HERE, THERE, TimedHTTrace, TimeGrids, TraceBounds, TraceError, World, dump_trace,
    enumerate_traces, load_trace, make_trace, strictly_below, total_of, trace_to_dict,
)
from .semantics import AccessRelation, Evaluator, accessibility, satisfies, satisfies_mdl
from .laws import Verdict, equiv_bounded, is_tautology_bounded
from .mht import MhtEvaluator, mht_satisfies
from .equilibrium import (
    EquilibriumResult, EquilibriumVerdict, enumerate_equilibrium,
    is_equilibrium, is_model, iter_models, result_to_dict,
)

__all__ = [name for name in dir() if not name.startswith("_")]
