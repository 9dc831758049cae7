"""Report assembly, canonical serialization, and certificate verification.

The structured JSON report is the interface of record.  ``verify_report``
recomputes every verdict row through ``cli.run_check`` and re-checks its
certificate in exact arithmetic; a sample row is checked sample by sample,
and its fitted cone is fitted again from its samples.  The certificates
checked beyond the recomputed status are:

- ``multiplier`` (HOLDS): a zero residual, and lambda in the recomputed
  limiting normal cone; ``multiplier_graph``: (-grad, -lambda) in the
  recomputed upper graph-normal bound;
- ``kernel_witness`` (FAILS) of a constraint problem and of a graph set:
  y* != 0 lies in the recomputed kernel;
- ``farkas_chain`` (FAILS) of a constraint problem and ``farkas_chain_graph``
  of a patch map: the chain is at the objective's gradient, and one Farkas
  vector per piece verifies against the multiplier system that the decider
  poses (``cq.multiplier_systems``, ``cq.graph_multiplier_systems``);
- ``witness_sequence`` (FAILS): every record is replayed; the limit is not
  checked.

The other kinds (``trivial_kernel``, ``condition_suite``, ``vacuous``,
``elimination_traces``) are checked only through the recomputed status.
A certificate that cannot be decoded is an error line for its row.

Both the recomputation and the cone lookups of the certificate checks read
the same ``lru_cache``s that the deciders fill in the same process (the cone
queries of ``unions``, ``cone_union_subset`` among them), and the lists of
pieces and cells a verdict rests on are recomputed, not certified.
Rational scalars serialize as "p/q" strings; identical inputs and flags
produce byte-identical reports apart from the ``generated_at`` field.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields, is_dataclass
from datetime import datetime, timezone
from fractions import Fraction

from dircq import __version__
from dircq.cq import FAILS, HOLDS, UNDECIDED, Verdict, graph_multiplier_systems, multiplier_systems
from dircq.linalg import Vec, dot, is_zero, mat_t_vec, neg, unit, vec, zeros
from dircq.simplex import verify_farkas

REPORT_VERSION = 1
# status of a row that records oracle samples rather than a verdict
SAMPLED = "SAMPLED"


def _encode(obj, typed: bool = True):
    """JSON-ready copy of obj; Fractions become "p/q" strings.

    A dataclass becomes the dict of its fields, and only the outermost one
    on each path carries ``__type__``.
    """
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _encode(v, typed) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v, typed) for v in obj]
    if is_dataclass(obj) and not isinstance(obj, type):
        d = {f.name: _encode(getattr(obj, f.name), False) for f in fields(obj)}
        if typed:
            d["__type__"] = type(obj).__name__
        return d
    return obj


def verdict_row(
    verdict: Verdict, point: str | None = None, direction: str | None = None, extra: dict | None = None
) -> dict:
    row = {
        "check": verdict.name,
        "status": verdict.status,
        "qualifier": verdict.qualifier,
        "point": point,
        "direction": direction,
        "certificate": _encode(verdict.certificate),
        "conditions": [
            {
                "name": c.name,
                "status": c.status,
                "detail": c.detail,
                "witness": _encode(c.witness),
            }
            for c in verdict.conditions
        ],
    }
    if extra:
        row.update(_encode(extra))
    return row


def build_report(command: str, problem_path: str, config: dict, rows: list[dict], stamp: bool = True) -> dict:
    try:
        with open(problem_path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        digest = None
    return {
        "tool": "dircq",
        "version": __version__,
        "report_version": REPORT_VERSION,
        "command": command,
        "problem": {"path": problem_path, "sha256": digest},
        "config": _encode(config),
        "generated_at": datetime.now(timezone.utc).isoformat() if stamp else None,
        "rows": rows,
        "cones": [],
    }


def dumps(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def exit_code(rows: list[dict]) -> int:
    statuses = {r["status"] for r in rows}
    if FAILS in statuses:
        return 1
    if UNDECIDED in statuses:
        return 2
    return 0


# ---------------------------------------------------------------------------
# verification (recomputation and exact certificate checks)


def _decode_vec(xs) -> Vec:
    return vec(Fraction(x) for x in xs)


def _recompute_row(problem, row) -> Verdict:
    from dircq import cli

    u, target = row.get("u"), row.get("target")
    return cli.run_check(
        problem,
        row["check"],
        row.get("point"),
        row.get("direction"),
        row.get("mode", "asym"),
        None if u is None else _decode_vec(u),
        None if target is None else _decode_vec(target if isinstance(target, list) else [target]),
    )


def verify_report(report: dict, problem) -> list[str]:
    """Re-check every certificate; returns a list of human-readable failures."""
    errors: list[str] = []
    for idx, row in enumerate(report.get("rows", [])):
        label = f"row {idx} ({row.get('check')}/{row.get('point')}/{row.get('direction')})"
        status = row.get("status")
        cert = row.get("certificate")
        if status in (HOLDS, FAILS) and cert is None:
            errors.append(f"{label}: {status} without a certificate")
            continue
        if status == SAMPLED:
            err = _check_normal_samples(problem, cert)
            if err:
                errors.append(f"{label}: {err}")
            continue
        try:
            fresh = _recompute_row(problem, row)
        except Exception as exc:
            errors.append(f"{label}: recomputation failed: {exc}")
            continue
        if fresh.status != status:
            errors.append(
                f"{label}: recomputed status {fresh.status} != reported {status}"
            )
            continue
        if status == HOLDS and cert.get("kind") in ("multiplier", "multiplier_graph"):
            err = _check_multiplier(problem, row, cert)
            if err:
                errors.append(f"{label}: {err}")
        elif status == FAILS and cert.get("kind") == "kernel_witness":
            err = _check_kernel_witness(problem, row, cert)
            if err:
                errors.append(f"{label}: {err}")
        elif status == FAILS and cert.get("kind") in ("farkas_chain", "farkas_chain_graph"):
            err = _check_farkas_chain(problem, row, cert)
            if err:
                errors.append(f"{label}: {err}")
        elif status == FAILS and cert.get("kind") == "witness_sequence":
            err = _check_witness_sequence(problem, row, cert)
            if err:
                errors.append(f"{label}: {err}")
    return errors


def _check_normal_samples(problem, cert) -> str | None:
    """Each sample point lies in the graph set, its rays and lineality
    generate the regular normal cone there, and the row's fitted rays and
    lineality are those that ``oracle.fitted_normals`` fits to the samples.

    The limit is not checked: that the sample points tend to the base point
    along the row's direction waits for the curve certificates of ROADMAP
    item 3.
    """
    from dircq.oracle import NormalSample, fitted_normals
    from dircq.polyhedra import PolyhedralCone, polar_cone
    from dircq.unions import regular_normal_cone

    if problem.kind != "graphset":
        return f"normal samples need a graphset problem, not {problem.kind!r}"
    graph = problem.graph_set
    samples = []
    try:
        for sample in cert["result"]["samples"]:
            point = _decode_vec(sample["point"])
            if not graph.contains(point):
                return f"sample point left the graph set at k={sample['k']}"
            rays = tuple(_decode_vec(r) for r in sample["rays"])
            lin = tuple(_decode_vec(l) for l in sample["lineality"])
            sampled = polar_cone(PolyhedralCone.make(a=rays, e=lin, dim=graph.dim))
            if not sampled.equals(regular_normal_cone(graph, point)):
                return f"sampled normals differ from the regular normal cone at k={sample['k']}"
            samples.append(NormalSample(int(sample["k"]), point, rays, lin))
        fit_rays, fit_lin = fitted_normals(samples)
        if tuple(map(_decode_vec, cert["result"]["fitted_rays"])) != fit_rays:
            return "fitted rays differ from the fit of the samples"
        if tuple(map(_decode_vec, cert["result"]["fitted_lineality"])) != fit_lin:
            return "fitted lineality differs from the fit of the samples"
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"normal sample cannot be read: {exc}"
    return None


def _problem_context(problem, row):
    from dircq.unions import directional_limiting_normal_cone, limiting_normal_cone

    sys = problem.system
    gx = sys.g.eval(sys.xbar)
    jac = sys.g.jacobian(sys.xbar)
    if row.get("direction"):
        u = problem.direction(row["direction"])
        ju = tuple(dot(r, u) for r in jac)
        n_dir = directional_limiting_normal_cone(sys.d, gx, ju)
        return sys, gx, jac, u, n_dir
    return sys, gx, jac, None, limiting_normal_cone(sys.d, gx)


def _check_kernel_witness(problem, row, cert) -> str | None:
    """A nonzero y* in the recomputed kernel.

    For a constraint problem: J^T y* = 0 and y* in the (directional) limiting
    normal cone, with <h, y*> >= 0 for a SOSCMS row.  For a graph set:
    (0, -y*) in the directional limiting normal cone of the graph at the
    base point in the direction (u, 0).
    """
    try:
        y = _decode_vec(cert["ystar"])
        if is_zero(y):
            return "kernel witness is zero"
        if problem.kind == "graphset":
            from dircq.unions import directional_limiting_normal_cone

            nx, ny = problem.graph_nx, problem.graph_ny
            gdir = vec((*_decode_vec(row["u"]), *zeros(ny)))
            n_dir = directional_limiting_normal_cone(problem.graph_set, problem.point("base"), gdir)
            if not n_dir.contains(vec((*zeros(nx), *neg(y)))):
                return "(0, -y*) lies outside the recomputed graph normal cone"
            return None
        if problem.kind != "constraint":
            return f"a kernel witness needs a constraint or graphset problem, not {problem.kind!r}"
        sys, gx, jac, u, cone_union = _problem_context(problem, row)
        if not is_zero(mat_t_vec(jac, y)):
            return "kernel witness fails the adjoint condition"
        if not cone_union.contains(y):
            return "kernel witness lies outside the recomputed cone"
        if row["check"] == "soscms":
            h = sys.g.second_order_vector(sys.xbar, problem.direction(row["direction"]))
            if dot(h, y) < 0:
                return "kernel witness violates the curvature sign"
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"kernel witness cannot be read: {exc}"
    return None


def _check_multiplier(problem, row, cert) -> str | None:
    try:
        lam = _decode_vec(cert["lam"])
        if problem.kind == "constraint":
            from dircq.unions import limiting_normal_cone

            sys = problem.system
            gx = sys.g.eval(sys.xbar)
            grad = problem.objective.gradient(sys.xbar)
            residual = tuple(
                a + b for a, b in zip(grad, mat_t_vec(sys.g.jacobian(sys.xbar), lam))
            )
            if not is_zero(residual):
                return "multiplier residual is nonzero"
            if not limiting_normal_cone(sys.d, gx).contains(lam):
                return "multiplier lies outside the recomputed normal cone"
            return None
        if problem.kind == "patch":
            from dircq.setmaps import patch_limiting_normals

            m = problem.patch_map
            xbar = problem.point("xbar")
            ybar = problem.point("ybar")
            base = vec(tuple(xbar) + tuple(ybar))
            grad = problem.objective.gradient(xbar)
            bounds = patch_limiting_normals(m, base)
            w = vec(tuple(-c for c in grad) + tuple(-c for c in lam))
            if not bounds.upper.contains(w):
                return "graph multiplier pair is outside the recomputed normal bound"
            return None
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"multiplier cannot be read: {exc}"
    return None


def _check_farkas_chain(problem, row, cert) -> str | None:
    """One verified Farkas vector per piece of the multiplier systems that
    M-stationarity poses (``cq.multiplier_systems`` for a constraint problem,
    ``cq.graph_multiplier_systems`` over the upper graph-normal bound of a
    patch map), at the objective's gradient."""
    try:
        if problem.kind == "constraint":
            from dircq.unions import limiting_normal_cone

            sys = problem.system
            target = neg(problem.objective.gradient(sys.xbar))
            if _decode_vec(cert["target"]) != target:
                return "Farkas target is not minus the objective gradient"
            n_lim = limiting_normal_cone(sys.d, sys.g.eval(sys.xbar))
            systems = list(multiplier_systems(n_lim, sys.g.jacobian(sys.xbar), target))
        elif problem.kind == "patch":
            from dircq.setmaps import patch_limiting_normals

            m = problem.patch_map
            xbar = problem.point("xbar")
            grad = problem.objective.gradient(xbar)
            if _decode_vec(cert["grad"]) != grad:
                return "Farkas gradient differs from the objective gradient"
            bounds = patch_limiting_normals(m, vec((*xbar, *problem.point("ybar"))))
            systems = list(graph_multiplier_systems(bounds.upper, grad, m.nx))
        else:
            return f"a Farkas chain needs a constraint or patch problem, not {problem.kind!r}"
        entries = cert["pieces"]
        if [entry["piece"] for entry in entries] != list(range(len(systems))):
            return f"Farkas chain needs one entry per piece, in order, for {len(systems)} pieces"
        for i, ((a, b, e, d, _), entry) in enumerate(zip(systems, entries)):
            if not verify_farkas(a, b, e, d, _decode_vec(entry["farkas_ineq"]), _decode_vec(entry["farkas_eq"])):
                return f"Farkas vector for piece {i} does not verify"
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"Farkas chain cannot be read: {exc}"
    return None


def _check_witness_sequence(problem, row, cert) -> str | None:
    """Replays every record of a witness sequence in plain Fractions.

    For a constraint problem: z_k in D, lambda normal at z_k and
    <lambda, g(x_k) - z_k> > 0.  For an MPEC problem: the first-block point
    x1_k + y1_k lies in Omega and the offset y1_k satisfies the sign condition
    of the row's mode, <lambda, y1_k> > 0 for pseudo-normality.  A
    quasi-normality row needs <lambda, e> <gap, e> > 0 for every basis vector
    e with <lambda, e> != 0 (the problem's basis, else the unit vectors),
    where gap is g(x_k) - z_k, resp. y1_k.  A record that cannot be replayed
    is an error.
    """
    seq = cert.get("sequence", {})
    records = seq.get("records", [])
    if not records:
        return "empty witness sequence"
    try:
        lam = _decode_vec(cert["candidate"])
        quasi_basis = ()
        if row["check"] == "quasi-normality":
            quasi_basis = problem.basis or tuple(unit(len(lam), i) for i in range(len(lam)))
        replay = _replay_constraint_record if problem.kind == "constraint" else _replay_mpec_record
        for rec in records:
            err = replay(problem, lam, quasi_basis, _decode_vec(rec["x"]), _decode_vec(rec["y"]))
            if err:
                return f"{err} at k={rec['k']}"
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"witness record cannot be replayed: {exc}"
    return None


def _replay_constraint_record(problem, lam: Vec, quasi_basis, x: Vec, z: Vec) -> str | None:
    from dircq.unions import regular_normal_cone

    sys = problem.system
    if not sys.d.contains(z):
        return "witness point left the set"
    ncone = regular_normal_cone(sys.d, z)
    if ncone is None or not ncone.contains(lam):
        return "multiplier not normal"
    gap = tuple(a - b for a, b in zip(sys.g.eval(x), z, strict=True))
    if dot(lam, gap) <= 0:
        return "sign condition fails"
    return _quasi_sign_error(lam, gap, quasi_basis)


def _replay_mpec_record(problem, lam: Vec, quasi_basis, x: Vec, y: Vec) -> str | None:
    n1 = problem.mpec_omega.dim
    y1 = y[:n1]
    if not problem.mpec_omega.contains(tuple(a + b for a, b in zip(x[:n1], y1, strict=True))):
        return "first-block point left Omega"
    if not quasi_basis and dot(lam, y1) <= 0:
        return "sign condition fails"
    return _quasi_sign_error(lam, y1, quasi_basis)


def _quasi_sign_error(lam: Vec, gap: Vec, basis) -> str | None:
    for i, e in enumerate(basis):
        le = dot(lam, e)
        if le != 0 and le * dot(gap, e) <= 0:
            return f"quasi sign condition fails on basis vector {i}"
    return None
