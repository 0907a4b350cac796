"""Per-layer tracing of mdel from outside the package.

:class:`Tracer` wraps the public entry points of each layer (class methods,
and module functions in every ``mdel`` module that bound them by name) and
keeps, per layer key, the number of calls and the self time: a wrapped call's
duration minus the part of it spent in nested wrapped calls, kept with a
layer stack.  Hot methods re-enter each other millions of times, so they are
only aggregated; span objects are recorded only for the coarse boundaries
listed in ``SPAN_KEYS``.  ``uninstall`` puts every original object back.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute path, layer key, kind).  Kinds: "call" times a call,
# "scan" times a call and adds the returned ScanOutcome's checks to
# "laws.checks", "gen" times each resumption of a generator and counts what
# it yields, "count" only counts calls and "count-gen" only counts yielded
# items; the time of a counted entry point falls to the layer that called it.
TARGETS = (
    ("mdel.cli", "main", "cli", "call"),
    ("mdel.cli", "build_parser", "cli.build_parser", "call"),
    ("mdel.parser", "parse_formula", "parser.parse", "call"),
    ("mdel.parser", "parse_theory", "parser.parse", "call"),
    ("mdel.traces", "load_trace", "traces.load", "call"),
    ("mdel.traces", "enumerate_traces", "traces.enumerate", "gen"),
    ("mdel.traces", "TimedHTTrace.__post_init__", "traces.constructed", "count"),
    ("mdel.formulas", "compile_to_core", "formulas.compile", "call"),
    ("mdel.semantics", "Evaluator.__init__", "semantics.evaluator_init", "call"),
    ("mdel.semantics", "Evaluator.sat_mask", "semantics.sat_mask", "call"),
    ("mdel.semantics", "Evaluator.rel_rows", "semantics.rel_rows", "call"),
    ("mdel.semantics", "Evaluator.mdl_sat_mask", "semantics.mdl", "call"),
    ("mdel.semantics", "Evaluator.mdl_rel_rows", "semantics.mdl", "call"),
    ("mdel.mht", "MhtEvaluator.__init__", "mht.evaluators", "count"),
    ("mdel.mht", "MhtEvaluator.sat", "mht.sat", "call"),
    ("mdel.equilibrium", "enumerate_equilibrium", "equilibrium", "gen"),
    ("mdel.equilibrium", "_here_candidates", "equilibrium.candidates", "count-gen"),
    ("mdel.laws", "agreement_scan", "laws", "scan"),
)

SPAN_KEYS = frozenset({"cli", "laws", "equilibrium", "cli.build_parser",
                       "parser.parse", "traces.load"})


class Tracer:
    def __init__(self):
        self.self_s: dict = {}
        self.calls: dict = {}
        self.yields: dict = {}
        self.spans: list = []  # (key, start, end, parent span index or -1)
        self._stack: list = []  # per open call: [time in nested calls, span index]
        self._patches: list = []  # (owner, attribute name, original)

    # -- bookkeeping shared by the wrappers --------------------------------------

    def _enter(self, key: str):
        span = -1
        if key in SPAN_KEYS:
            parent = next((f[1] for f in reversed(self._stack) if f[1] >= 0), -1)
            span = len(self.spans)
            self.spans.append([key, 0.0, 0.0, parent])
        frame = [0.0, span]
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _leave(self, key: str, frame, start: float) -> None:
        end = time.perf_counter()
        elapsed = end - start
        self._stack.pop()
        self.self_s[key] = self.self_s.get(key, 0.0) + elapsed - frame[0]
        if self._stack:
            self._stack[-1][0] += elapsed
        if frame[1] >= 0:
            self.spans[frame[1]][1:3] = [start, end]

    # -- wrappers ----------------------------------------------------------------------

    def _wrap(self, fn, key: str, kind: str):
        calls, yields = self.calls, self.yields

        if kind == "count":
            def wrapper(*args, **kwargs):
                calls[key] = calls.get(key, 0) + 1
                return fn(*args, **kwargs)
        elif kind == "count-gen":
            def wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    yields[key] = yields.get(key, 0) + 1
                    yield item
        elif kind in ("call", "scan"):
            enter, leave = self._enter, self._leave

            def wrapper(*args, **kwargs):
                calls[key] = calls.get(key, 0) + 1
                frame, start = enter(key)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(key, frame, start)
                if kind == "scan":
                    calls["laws.checks"] = calls.get("laws.checks", 0) + result.checks
                return result
        else:  # "gen": time each resumption, never the consumer's work
            enter, leave = self._enter, self._leave

            def wrapper(*args, **kwargs):
                calls[key] = calls.get(key, 0) + 1
                it = fn(*args, **kwargs)
                while True:
                    frame, start = enter(key)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        leave(key, frame, start)
                    yields[key] = yields.get(key, 0) + 1
                    yield item
        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "mdel" or name.startswith("mdel."))]
        for module_name, path, key, kind in TARGETS:
            owner = sys.modules[module_name]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                original = owner.__dict__[attr]
                owners = [owner]
            else:
                original = getattr(owner, attr)
                # every module that imported the function by name
                owners = [m for m in modules if m.__dict__.get(attr) is original]
            wrapper = self._wrap(original, key, kind)
            for target in owners:
                self._patches.append((target, attr, original))
                setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @property
    def patched(self) -> list:
        return list(self._patches)

    # -- report ----------------------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics by the names BENCHMARK.json lists; layers that did
        not run report 0."""
        s, c, y = self.self_s.get, self.calls.get, self.yields.get
        traces_in = y("traces.enumerate", 0) + c("traces.load", 0)
        evaluators = c("semantics.evaluator_init", 0)
        return {
            "cli.self_s": s("cli", 0.0),
            "cli.build_parser_s": s("cli.build_parser", 0.0),
            "parser.parse_s": s("parser.parse", 0.0),
            "traces.load_s": s("traces.load", 0.0),
            "traces.enumerate_s": s("traces.enumerate", 0.0),
            "traces.enumerated": y("traces.enumerate", 0),
            "traces.constructed": c("traces.constructed", 0),
            "formulas.compile_s": s("formulas.compile", 0.0),
            "formulas.compile_calls": c("formulas.compile", 0),
            "semantics.evaluator_init_s": s("semantics.evaluator_init", 0.0),
            "semantics.evaluators": evaluators,
            "semantics.evaluators_per_trace": evaluators / traces_in if traces_in else 0.0,
            "semantics.sat_mask_s": s("semantics.sat_mask", 0.0),
            "semantics.sat_mask_calls": c("semantics.sat_mask", 0),
            "semantics.rel_rows_s": s("semantics.rel_rows", 0.0),
            "semantics.rel_rows_calls": c("semantics.rel_rows", 0),
            "semantics.mdl_s": s("semantics.mdl", 0.0),
            "mht.sat_s": s("mht.sat", 0.0),
            "mht.evaluators": c("mht.evaluators", 0),
            "equilibrium.self_s": s("equilibrium", 0.0),
            "equilibrium.candidates": y("equilibrium.candidates", 0),
            "equilibrium.equilibria": y("equilibrium", 0),
            "laws.self_s": s("laws", 0.0),
            "laws.checks": c("laws.checks", 0),
        }
