"""problem file -> decider -> JSON report -> verify, on Example 5.8."""

import json

import pytest

from dircq import cq
from dircq.cli import run_check
from dircq.problemfile import ProblemFormatError, parse_problem
from dircq.report import dumps, verdict_row, verify_report

EX58 = {
    "version": 1,
    "name": "ex58",
    "constraint": {
        "n": 1,
        "g": ["x0", "-x0^2"],
        "D": {"dim": 2, "pieces": [{"a": [[-1, 0]], "b": [0]}, {"a": [[0, -1]], "b": [0]}]},
    },
    "points": {"xbar": [0]},
    "directions": {"plus": [1], "minus": [-1]},
    "objective": "x0",
}

DIRECTIONAL = (
    cq.foscms,
    cq.soscms,
    cq.check_thm_polyhedral_I,
    cq.check_thm_polyhedral_II,
    cq.check_thm_nonpolyhedral,
)


@pytest.fixture(scope="module")
def ex58_report():
    pr = parse_problem(EX58)
    sys = pr.system
    rows = [verdict_row(cq.mordukhovich(sys), "xbar"), verdict_row(cq.mstationarity(sys, pr.objective), "xbar")]
    for dname in ("plus", "minus"):
        u = pr.direction(dname)
        rows += [verdict_row(f(sys, u), "xbar", dname) for f in DIRECTIONAL]
        for mode in ("pseudo", "quasi"):
            v = cq.pseudo_quasi_verdict(sys, u, mode=mode)
            rows.append(verdict_row(v, "xbar", dname, {"normality_mode": mode}))
    return pr, json.loads(dumps({"problem": "ex58", "rows": rows}))


def test_ex58_report_verifies(ex58_report):
    pr, report = ex58_report
    statuses = {(r["check"], r["direction"]): r["status"] for r in report["rows"]}
    assert statuses[("mordukhovich", None)] == "FAILS"
    assert statuses[("foscms", "plus")] == "HOLDS" and statuses[("foscms", "minus")] == "FAILS"
    assert statuses[("pseudo-normality", "minus")] == "FAILS"
    assert verify_report(report, pr) == []


def test_flipped_status_is_reported(ex58_report):
    pr, report = ex58_report
    rows = [dict(r) for r in report["rows"]]
    i = next(i for i, r in enumerate(rows) if (r["check"], r["direction"]) == ("foscms", "minus"))
    rows[i]["status"] = "HOLDS"
    errors = verify_report({"rows": rows}, pr)
    assert len(errors) == 1
    assert errors[0].startswith(f"row {i} (foscms/xbar/minus): recomputed status FAILS != reported HOLDS")


def test_run_check_rejects_bad_input():
    pr = parse_problem(EX58)
    for check, kwargs in (
        ("no-such-check", {"direction": "plus"}),
        ("check_thm_polyhedral_I", {"direction": "plus"}),
        ("foscms", {}),
        ("foscms", {"direction": "sideways"}),
        ("mordukhovich", {"point": "ybar"}),
    ):
        with pytest.raises(ProblemFormatError):
            run_check(pr, check, **kwargs)
    without_objective = parse_problem({k: v for k, v in EX58.items() if k != "objective"})
    with pytest.raises(ProblemFormatError):
        run_check(without_objective, "mstationarity")
