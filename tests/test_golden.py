"""Golden reports: the full check suite on each shipped fixture, byte for byte.

Each fixture under ``dircq/fixtures`` is run through every check that applies
to it, and the stamp-free ``report.dumps`` of the rows must equal the file of
the same name under ``tests/golden``.  The golden files pin verdicts,
certificates, piece orders and Farkas vectors, so a refactor that changes any
of them shows here.  After an intended change of reports, rewrite them with

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import sys
from importlib import resources
from pathlib import Path

import pytest

from dircq import cq, oracle
from dircq.problemfile import load_problem
from dircq.report import build_report, dumps, verdict_row

FIXTURES = ("ex58", "ex58sq", "ex47")
GOLDEN = Path(__file__).parent / "golden"

DIRECTIONAL = (
    cq.foscms,
    cq.soscms,
    cq.check_thm_polyhedral_I,
    cq.check_thm_polyhedral_II,
    cq.check_thm_nonpolyhedral,
)


def fixture_path(name: str) -> Path:
    return Path(str(resources.files("dircq") / "fixtures" / f"{name}.json"))


def suite_rows(pr) -> list[dict]:
    """Report rows of every check that applies to the problem, in a fixed order."""
    rows = []
    if pr.kind == "constraint":
        sys_ = pr.system
        rows.append(verdict_row(cq.mordukhovich(sys_), "xbar"))
        if pr.objective is not None:
            rows.append(verdict_row(cq.mstationarity(sys_, pr.objective), "xbar"))
        for dname in sorted(pr.directions):
            u = pr.direction(dname)
            rows += [verdict_row(f(sys_, u), "xbar", dname) for f in DIRECTIONAL]
    elif pr.kind == "mpec":
        mp = oracle.MpecProblem(pr.mpec_omega, pr.mpec_s, pr.point("xbar"))
        for dname in sorted(pr.directions):
            for mode in ("pseudo", "quasi"):
                v = cq.mpec_pseudo_quasi_verdict(mp, pr.direction(dname), mode=mode)
                rows.append(verdict_row(v, "xbar", dname, {"normality_mode": mode}))
    else:  # pragma: no cover - every fixture is one of the two kinds above
        raise ValueError(f"no check suite for {pr.kind!r} problems")
    return rows


def suite_report(name: str) -> str:
    path = fixture_path(name)
    report = build_report("check", str(path), {}, suite_rows(load_problem(str(path))), stamp=False)
    report["problem"]["path"] = f"fixtures/{name}.json"
    return dumps(report)


@pytest.mark.parametrize("name", FIXTURES)
def test_report_matches_golden(name):
    assert suite_report(name) == (GOLDEN / f"{name}.json").read_text()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN.mkdir(exist_ok=True)
    for fixture in FIXTURES:
        (GOLDEN / f"{fixture}.json").write_text(suite_report(fixture))
