"""Golden reports: the full check suite on each shipped fixture, byte for byte.

Each fixture under ``dircq/fixtures`` is run through every check that applies
to it, and the stamp-free ``report.dumps`` of the rows must equal the file of
the same name under ``tests/golden``.  The ``-strong`` files pin the theorem
checkers in strong mode, and on ex58 also at explicit targets x*; the
``-normality`` files pin directional pseudo- and quasi-normality, whose
witness sequences come from the oracle's face projections.  The golden files
pin verdicts, certificates, piece orders and Farkas vectors, so a refactor
that changes any of them shows here; the LP counts of the theorem checkers
are pinned too.  After an intended change of reports, rewrite them with

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import pkgutil
import sys
from importlib import resources
from pathlib import Path

import pytest

from test_caches import THEOREMS, clear_caches

import dircq
from dircq import cq, oracle, simplex
from dircq.linalg import vec
from dircq.problemfile import load_problem
from dircq.report import build_report, dumps, verdict_row

FIXTURES = ("ex58", "ex58sq", "ex47", "staircase", "comb")
# fixtures whose theorem checkers are also pinned in strong mode, in
# ``tests/golden/<name>-strong.json``, and whose pseudo-/quasi-normality
# verdicts are pinned in ``tests/golden/<name>-normality.json``
STRONG_FIXTURES = ("ex58", "ex58sq")
NORMALITY_FIXTURES = ("ex58", "ex58sq")
GOLDEN = Path(__file__).parent / "golden"

DIRECTIONAL = (cq.foscms, cq.soscms) + THEOREMS
# explicit targets x* in R^1, each checked on its own row for ex58
EX58_TARGETS = (-1, 0, 1)
# schedule steps of the directional normal samples on a graph set
SAMPLE_STEPS = 8
# x-direction of the first-order condition on a graph set
GRAPH_U = (1,)
# solve_lp calls of each theorem checker (I, II, nonpolyhedral) over all
# directions of a fixture, from cleared caches
LP_COUNTS = {
    ("ex58", "asym"): (5, 5, 12),
    ("ex58", "strong"): (6, 6, 13),
    ("ex58sq", "asym"): (33, 53, 85),
    ("ex58sq", "strong"): (44, 64, 96),
}
# sha256 of the same solve_lp inputs, in call order and with the type of
# every entry (``typed``): a change that keeps the counts but reorders,
# rescales or retypes a row of some LP shows here
LP_INPUTS_SHA256 = {
    ("ex58", "asym"): "b28f57076b38836472d885e705b9dad8e561808a253f8b77b95662cef75c6d34",
    ("ex58", "strong"): "4305e5612f7be24898e2ea392f62e7a695ba67d102ba90c8277732e5f3463a51",
    ("ex58sq", "asym"): "9d297a5978af8a9a29c011951a869dc240fad3497ae065fa47b19e060ae4042f",
    ("ex58sq", "strong"): "004cea5fe5185b429249da57a5bac54c42c787ece67ea0dfd121e931c276a601",
}


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
    elif pr.kind == "graphset":
        base = pr.point("base")
        for dname in sorted(pr.directions):
            res = oracle.sample_directional_normals(
                pr.graph_set, base, pr.direction(dname), oracle.Schedule(k_max=SAMPLE_STEPS)
            )
            v = cq.Verdict("directional-normal-sample", "SAMPLED", {"kind": "normal_samples", "result": res})
            rows.append(verdict_row(v, "base", dname))
        v = cq.graph_foscms(pr.graph_set, base, vec(GRAPH_U), pr.graph_nx, pr.graph_ny)
        rows.append(verdict_row(v, "base", None, {"u": vec(GRAPH_U)}))
    elif pr.kind == "patch":
        if pr.objective is not None:
            v = cq.patch_mstationarity(pr.patch_map, pr.objective, pr.point("xbar"), pr.point("ybar"))
            rows.append(verdict_row(v, "xbar"))
    else:  # pragma: no cover - every fixture is one of the kinds above
        raise ValueError(f"no check suite for {pr.kind!r} problems")
    return rows


def strong_rows(pr) -> list[dict]:
    """The theorem checkers in strong mode at every direction; on a problem
    with n = 1 also every checker and mode at each explicit target x*."""
    rows = []
    sys_ = pr.system
    for dname in sorted(pr.directions):
        u = pr.direction(dname)
        rows += [verdict_row(f(sys_, u, mode="strong"), "xbar", dname, {"mode": "strong"}) for f in THEOREMS]
    if sys_.n != 1:
        return rows
    for dname in sorted(pr.directions):
        u = pr.direction(dname)
        for f in THEOREMS:
            for mode in ("asym", "strong"):
                for t in EX58_TARGETS:
                    v = f(sys_, u, mode=mode, targets=[vec([t])])
                    rows.append(verdict_row(v, "xbar", dname, {"mode": mode, "target": t}))
    return rows


def normality_rows(pr) -> list[dict]:
    """Directional pseudo- and quasi-normality at every direction."""
    rows = []
    for dname in sorted(pr.directions):
        for mode in ("pseudo", "quasi"):
            v = cq.pseudo_quasi_verdict(pr.system, pr.direction(dname), basis=pr.basis, mode=mode)
            rows.append(verdict_row(v, "xbar", dname, {"normality_mode": mode}))
    return rows


def suite_report(name: str, rows_of=suite_rows, config=None) -> str:
    path = fixture_path(name)
    report = build_report("check", str(path), config or {}, rows_of(load_problem(str(path))), stamp=False)
    report["problem"]["path"] = f"fixtures/{name}.json"
    return dumps(report)


def strong_report(name: str) -> str:
    return suite_report(name, strong_rows, {"mode": "strong"})


def normality_report(name: str) -> str:
    return suite_report(name, normality_rows, {"checks": "normality"})


@pytest.mark.parametrize("name", FIXTURES)
def test_report_matches_golden(name):
    assert suite_report(name) == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("name", STRONG_FIXTURES)
def test_strong_report_matches_golden(name):
    assert strong_report(name) == (GOLDEN / f"{name}-strong.json").read_text()


@pytest.mark.parametrize("name", NORMALITY_FIXTURES)
def test_normality_report_matches_golden(name):
    assert normality_report(name) == (GOLDEN / f"{name}-normality.json").read_text()


def frozen(x):
    """Lists and tuples, nested, as tuples: a hashable copy of LP input."""
    return tuple(map(frozen, x)) if isinstance(x, (list, tuple)) else x


def typed(x) -> str:
    """Recorded LP input as text that names the type of every entry, so that
    1, Fraction(1) and True differ."""
    if isinstance(x, (list, tuple)):
        return "(" + ",".join(map(typed, x)) + ")"
    return f"{type(x).__name__}:{x}"


def record_solve_lp(monkeypatch) -> list:
    """The inputs of every ``solve_lp`` call from now on, one entry per call."""
    calls = []
    original = simplex.solve_lp

    def recorded(*args, **kwargs):
        calls.append(frozen((args, sorted(kwargs.items()))))
        return original(*args, **kwargs)

    # every module that imported solve_lp by name holds its own binding
    for info in pkgutil.iter_modules(dircq.__path__):
        mod = importlib.import_module(f"dircq.{info.name}")
        for attr, val in list(vars(mod).items()):
            if val is original:
                monkeypatch.setattr(mod, attr, recorded)
    return calls


@pytest.mark.parametrize("name, mode", sorted(LP_COUNTS))
def test_checker_lp_counts(name, mode, monkeypatch):
    calls = record_solve_lp(monkeypatch)
    pr = load_problem(str(fixture_path(name)))
    counts = []
    digest = hashlib.sha256()
    for f in THEOREMS:
        clear_caches()
        calls.clear()
        for dname in sorted(pr.directions):
            f(pr.system, pr.direction(dname), mode=mode)
        counts.append(len(calls))
        digest.update(typed(calls).encode())
    assert tuple(counts) == LP_COUNTS[name, mode]
    assert digest.hexdigest() == LP_INPUTS_SHA256[name, mode]


@pytest.mark.parametrize("name, mode", sorted(LP_COUNTS))
def test_checker_call_solves_each_lp_once(name, mode, monkeypatch):
    """Within one theorem-checker call no LP input repeats, from cleared
    caches (the first direction) or warm ones (the others), and on ex58
    with explicit targets too."""
    calls = record_solve_lp(monkeypatch)
    pr = load_problem(str(fixture_path(name)))
    targets = [None, [vec([t]) for t in EX58_TARGETS]] if pr.system.n == 1 else [None]
    for f in THEOREMS:
        clear_caches()
        for dname, xs in itertools.product(sorted(pr.directions), targets):
            calls.clear()
            f(pr.system, pr.direction(dname), mode=mode, targets=xs)
            assert calls and len(set(calls)) == len(calls), (f.__name__, dname, xs)


@pytest.mark.parametrize("f", THEOREMS, ids=lambda f: f.__name__)
def test_checker_call_keeps_no_state(f, monkeypatch):
    """Two calls in a row on warm caches make the same LPs and the same row:
    the record of solved systems lives for one call only."""
    calls = record_solve_lp(monkeypatch)
    pr = load_problem(str(fixture_path("ex58sq")))
    for dname in sorted(pr.directions):
        u = pr.direction(dname)
        f(pr.system, u)
        runs = []
        for _ in range(2):
            calls.clear()
            row = dumps(verdict_row(f(pr.system, u), "xbar", dname))
            runs.append((len(calls), row))
        assert runs[0] == runs[1], dname
        assert runs[0][0] > 0, dname


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN.mkdir(exist_ok=True)
    for fixture in FIXTURES:
        (GOLDEN / f"{fixture}.json").write_text(suite_report(fixture))
    for fixture in STRONG_FIXTURES:
        (GOLDEN / f"{fixture}-strong.json").write_text(strong_report(fixture))
    for fixture in NORMALITY_FIXTURES:
        (GOLDEN / f"{fixture}-normality.json").write_text(normality_report(fixture))
