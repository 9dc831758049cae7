"""Check dispatch for constraint, MPEC, graph-set and patch problems.

``run_check`` maps a check name, as a report row carries it, to its decider
and runs it on a parsed problem.  ``report.verify_report`` recomputes every
row through it.
"""

from __future__ import annotations

from dircq import cq, oracle
from dircq.cq import Verdict
from dircq.linalg import Vec
from dircq.problemfile import Problem, ProblemFormatError

# row name -> decider of each check that needs a direction
_DIRECTIONAL = {
    "foscms": "foscms",
    "soscms": "soscms",
    "thm-tangent-normals": "check_thm_polyhedral_I",
    "thm-doubled-tangent": "check_thm_polyhedral_II",
    "thm-normal-graph": "check_thm_nonpolyhedral",
    "pseudo-normality": "pseudo_quasi_verdict",
    "quasi-normality": "pseudo_quasi_verdict",
}


def run_check(
    problem: Problem,
    check: str,
    point: str | None = None,
    direction: str | None = None,
    mode: str = "asym",
    u: Vec | None = None,
    target: Vec | None = None,
) -> Verdict:
    """Run the check a report row names on a parsed problem.

    Constraint and MPEC checks run at xbar; ``direction`` names one of the
    problem's directions, and the theorem checkers also take ``mode`` and an
    explicit ``target`` x* (else the full range).  A graph set takes
    ``foscms`` at its point ``base`` in the x-direction ``u``, and a patch
    map ``mstationarity`` at (xbar, ybar).
    """
    if target is not None and not check.startswith("thm-"):
        raise ProblemFormatError(f"check {check!r} takes no target")
    if problem.kind == "graphset":
        return _run_graph_check(problem, check, point, u)
    if problem.kind == "patch":
        return _run_patch_check(problem, check, point)
    if point not in (None, "xbar"):
        raise ProblemFormatError(f"{problem.kind} checks run at xbar, not at {point!r}")
    if problem.kind == "mpec":
        return _run_mpec_check(problem, check, direction)
    sys = problem.system
    if check == "mordukhovich":
        return cq.mordukhovich(sys)
    if check == "mstationarity":
        if problem.objective is None:
            raise ProblemFormatError("mstationarity needs the problem's objective")
        return cq.mstationarity(sys, problem.objective)
    if check not in _DIRECTIONAL:
        raise ProblemFormatError(f"unknown check {check!r}")
    if direction is None:
        raise ProblemFormatError(f"check {check!r} needs a direction")
    u = problem.direction(direction)
    decider = getattr(cq, _DIRECTIONAL[check])
    if check.endswith("-normality"):
        return decider(sys, u, basis=problem.basis, mode=check.split("-")[0])
    if check.startswith("thm-"):
        return decider(sys, u, mode=mode, targets=None if target is None else [target])
    return decider(sys, u)


def _run_mpec_check(problem: Problem, check: str, direction: str | None) -> Verdict:
    """Directional pseudo-/quasi-normality of the equilibrium assembly at xbar."""
    if check not in ("pseudo-normality", "quasi-normality"):
        raise ProblemFormatError(f"unknown check {check!r} for mpec problems")
    if direction is None:
        raise ProblemFormatError(f"check {check!r} needs a direction")
    u = problem.direction(direction)
    mp = oracle.MpecProblem(problem.mpec_omega, problem.mpec_s, problem.point("xbar"))
    return cq.mpec_pseudo_quasi_verdict(mp, u, basis=problem.basis, mode=check.split("-")[0])


def _run_graph_check(problem: Problem, check: str, point: str | None, u: Vec | None) -> Verdict:
    """First-order condition of a graph-set map at its base point in direction u."""
    if check != "foscms":
        raise ProblemFormatError(f"unknown check {check!r} for graphset problems")
    if point not in (None, "base"):
        raise ProblemFormatError(f"graphset checks run at base, not at {point!r}")
    if u is None:
        raise ProblemFormatError("graphset foscms needs an x-direction u")
    base = problem.point("base")
    return cq.graph_foscms(problem.graph_set, base, u, problem.graph_nx, problem.graph_ny)


def _run_patch_check(problem: Problem, check: str, point: str | None) -> Verdict:
    """M-stationarity of a patch map at (xbar, ybar)."""
    if check != "mstationarity":
        raise ProblemFormatError(f"unknown check {check!r} for patch problems")
    if point not in (None, "xbar"):
        raise ProblemFormatError(f"patch checks run at xbar, not at {point!r}")
    if problem.objective is None:
        raise ProblemFormatError("mstationarity needs the problem's objective")
    return cq.patch_mstationarity(
        problem.patch_map, problem.objective, problem.point("xbar"), problem.point("ybar")
    )
