"""Golden outcomes of the bounded law scans, clean and with injected faults.

Each case runs one scan (or one law suite) over a small bounded space and
compares its counts (traces, checks), its number of violations of each kind,
its first counterexample of each kind and a digest of everything it
reported with ``golden_scans.json``.  The faults make one computation wrong
on a set of lanes defined by the lanes' states, so early exits and
first-failing-lane bookkeeping are pinned as well as clean passes:

- ``diamond`` / ``box``: the lane engine (``LaneBatch``), on Diamond / Box;
- ``classical``: the classical reference on total traces;
- ``oracle``: the direct metric oracle (``MhtEvaluator``).

Lane chunking must not change any outcome, so the HT cases are also run
with a small ``LANE_LIMIT``.

To re-record: ``PYTHONPATH=src python tests/test_golden_scans.py``.
"""

import hashlib
import json
import os
import random

import pytest

from mdel import lanes
from mdel.formulas import (
    Always, Atom, Box, Choice, Converse, Diamond, Eventually, Or, Not, Implies, Release, STEP, Seq,
    Since, Star, Test, formula_path,
)
from mdel.intervals import Interval, UNTIMED
from mdel.lanes import LaneBatch
from mdel.laws import (
    SUITES, agreement_scan, bkt_fragment_formulas, boolean_scan, check_equivalence_dual,
    check_release_naive, check_release_table, em_collapse_scan, invert_past_scan,
    random_formula, random_theory, relation_scan, release_table_rows, run_suite,
)
from mdel.mht import MhtEvaluator
from mdel.semantics import Evaluator, iff, is_tautology_bounded
from mdel.traces import TraceBounds, trace_to_dict

PATH = os.path.join(os.path.dirname(__file__), "golden_scans.json")
AB = frozenset("ab")
BOUNDS = {"ht": TraceBounds(AB, 2, 2), "total": TraceBounds(AB, 3, 2, total_only=True)}
ATOMS = ["a", "b"]


# -- faults, each defined by the states of a lane --------------------------------


def _column(columns, atom, k):
    return (columns.get(atom) or [0] * (k + 1))[k]


def _fault_lane_engine(monkeypatch, kind):
    """Every Diamond holds at position 0, or every Box is flipped at the last
    position, in each lane with a at position 0 and b at the last position."""
    correct = LaneBatch._sat_compute

    def faulty(self, f):
        value = list(correct(self, f))
        if type(f) is kind and self.lam >= 2:
            lanes = _column(self.columns, "a", 0) & _column(self.columns, "b", self.lam - 1)
            if kind is Diamond:
                value[0] |= lanes
            else:
                value[-1] ^= lanes
        return value

    monkeypatch.setattr(LaneBatch, "_sat_compute", faulty)


def _fault_classical(monkeypatch):
    """Box is wrong at position 0 on traces with a at position 1, and every
    star relation gains the edge from the last position back to 0 on traces
    with b at position 0."""
    sat_mask, rel_rows = Evaluator.mdl_sat_mask, Evaluator.mdl_rel_rows

    def faulty_sat(self, f):
        m = sat_mask(self, f)
        return m ^ 1 if type(f) is Box and self.lam >= 2 and "a" in self.trace.there[1] else m

    def faulty_rel(self, rho):
        rows = rel_rows(self, rho)
        if type(rho) is Star and self.lam >= 2 and "b" in self.trace.there[0]:
            rows = rows[:-1] + (rows[-1] | 1,)
        return rows

    monkeypatch.setattr(Evaluator, "mdl_sat_mask", faulty_sat)
    monkeypatch.setattr(Evaluator, "mdl_rel_rows", faulty_rel)


def _fault_oracle(monkeypatch):
    """Eventually, release and since are wrong at position 0 in every lane
    with b at the last position and not a at position 0."""
    correct = MhtEvaluator._compute

    def faulty(self, f):
        value = list(correct(self, f))
        if type(f) in (Eventually, Release, Since) and self.lam >= 2:
            value[0] ^= (_column(self.columns, "b", self.lam - 1)
                         & ~_column(self.columns, "a", 0) & self.full)
        return value

    monkeypatch.setattr(MhtEvaluator, "_compute", faulty)


FAULTS = {
    "clean": lambda monkeypatch: None,
    "diamond": lambda monkeypatch: _fault_lane_engine(monkeypatch, Diamond),
    "box": lambda monkeypatch: _fault_lane_engine(monkeypatch, Box),
    "classical": _fault_classical,
    "oracle": _fault_oracle,
}


# -- the scans and their inputs ---------------------------------------------------


def _formulas(seed, count, **kwargs):
    rng = random.Random(seed)
    return [random_formula(rng, ATOMS, rng.randint(1, 3), **kwargs) for _ in range(count)]


def _paths():
    a, b = Atom("a"), Atom("b")
    ev_b = Eventually(Interval.closed_closed(0, 2), b)
    return (STEP, Star(STEP), Converse(STEP), Converse(Star(STEP)), Test(a),
            formula_path(a), Star(formula_path(a)), Choice(Test(a), Seq(STEP, STEP)),
            Test(ev_b), Star(Seq(Test(ev_b), STEP)), Star(Seq(STEP, Test(Not(a)))))


def _equivalences():
    """Two valid table rows, and release against its always half, which a
    trace of length two refutes."""
    rows = release_table_rows(1, 2)
    claims = [(lhs, rhs) for row_id, lhs, rhs in rows if row_id in ("R-co-m", "T-oc-0")]
    iv = Interval.closed_closed(1, 2)
    claims.append((Release(iv, Atom("a"), Atom("b")), Always(iv, Atom("b"))))
    return claims


def _tautologies():
    a = Atom("a")
    claims = [iff(lhs, rhs) for lhs, rhs in _equivalences()]
    return claims + [Or(a, Not(a)), Implies(Eventually(Interval.closed_closed(0, 2), a),
                                            Eventually(UNTIMED, a))]


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def _outcome(out) -> dict:
    kinds = {"agreement": out.agreement_violations, "persistence": out.persistence_violations,
             "totality": out.totality_violations}
    return {"traces": out.traces, "checks": out.checks,
            "violations": {k: len(v) for k, v in kinds.items()},
            "first": {k: v[0] for k, v in kinds.items() if v},
            "digest": _digest(list(kinds.values()))}


def _reports(reports) -> dict:
    docs = [r.to_dict() for r in reports]
    failing = [d["counterexample"] for d in docs if "counterexample" in d]
    return {"rows": [[d["law"], d["verdict"], d["checked"]] for d in docs],
            "first": failing[0] if failing else None, "digest": _digest(docs)}


def _equivalence_dual(bounds):
    out = []
    for lhs, rhs in _equivalences():
        cex, checked = check_equivalence_dual(lhs, rhs, bounds)
        out.append({"checks": checked, "first": cex})
    return out


def _tautology(bounds):
    out = []
    for f in _tautologies():
        v = is_tautology_bounded(f, bounds)
        first = None if v.valid else {"trace": trace_to_dict(v.counterexample[0]),
                                      "position": v.counterexample[1]}
        out.append({"traces": v.traces_checked, "checks": v.positions_checked, "first": first})
    return out


def _theories():
    rng = random.Random(4)
    return [random_theory(rng, ATOMS) for _ in range(20)]


def _boolean_pairs():
    args = _formulas(5, 10)
    return [(args[i], args[(i * 7 + 3) % len(args)]) for i in range(len(args))]


SCANS = {
    "agreement-1": lambda b: _outcome(agreement_scan(_formulas(1, 16), b, max_violations=1)),
    "agreement-5": lambda b: _outcome(agreement_scan(_formulas(1, 16), b, max_violations=5)),
    "persistence": lambda b: _outcome(
        agreement_scan(_formulas(2, 12), b, check_agreement=False)),
    "relation": lambda b: _outcome(relation_scan(_paths(), b)),
    "boolean": lambda b: _outcome(boolean_scan(_boolean_pairs(), b)),
    "em-collapse": lambda b: _outcome(em_collapse_scan(_theories(), b)),
    "invert-past": lambda b: _outcome(
        invert_past_scan(bkt_fragment_formulas(random.Random(6), ATOMS, 20), b)),
    "release-table": lambda b: _reports(check_release_table(b, (1, 2), (0, 2))),
    "release-naive": lambda b: _reports(check_release_naive(b, Interval.closed_closed(1, 2))),
    "equivalence-dual": _equivalence_dual,
    "tautology": _tautology,
}


def _suite(name):
    return lambda b: _reports(run_suite(name, b, seed=3, samples=12))


SCANS.update({f"suite-{name}": _suite(name) for name in SUITES})


def _cases():
    for space in BOUNDS:
        for fault in FAULTS:
            for scan in SCANS:
                if space == "ht" or not scan.startswith("suite-"):
                    yield f"{space}/{fault}/{scan}"


def _run(case, monkeypatch):
    space, fault, scan = case.split("/")
    FAULTS[fault](monkeypatch)
    return json.loads(json.dumps(SCANS[scan](BOUNDS[space])))


# -- the tests --------------------------------------------------------------------


GOLDEN = json.load(open(PATH, encoding="utf-8")) if os.path.exists(PATH) else {}


def test_every_case_is_recorded():
    assert sorted(GOLDEN) == sorted(_cases())


@pytest.mark.parametrize("case", sorted(_cases()))
def test_scan_outcome_unchanged(case, monkeypatch):
    assert _run(case, monkeypatch) == GOLDEN[case]


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_scan_outcomes_do_not_depend_on_lane_chunks(fault, monkeypatch):
    monkeypatch.setattr(lanes, "LANE_LIMIT", 8)
    for case in _cases():
        if case.startswith(f"ht/{fault}/") and "/suite-" not in case:
            with monkeypatch.context() as patch:
                assert _run(case, patch) == GOLDEN[case], case


if __name__ == "__main__":
    record = {}
    for case in _cases():
        with pytest.MonkeyPatch.context() as patch:
            record[case] = _run(case, patch)
    with open(PATH, "w", encoding="utf-8") as fh:  # one case per line
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(case)}: {json.dumps(record[case], sort_keys=True)}"
            for case in sorted(record)) + "\n}\n")
