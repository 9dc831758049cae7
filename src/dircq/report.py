"""Report assembly, canonical serialization, and certificate verification.

The structured JSON report is the interface of record.  ``verify_report``
recomputes every verdict row through ``cli.run_check`` (a sample row is not
a verdict and is not recomputed), and then runs the check that one table,
``_CHECKS``, maps the row's status and certificate kind to.  Each check
works in exact arithmetic and reads only the fields named here:

- ``multiplier``, ``multiplier_graph`` (HOLDS; ``lam``, ``piece`` and, for
  a patch map, ``bound``): lambda solves, in plain Fractions, the
  multiplier system of the piece the certificate names, as M-stationarity
  poses it: ``cq.multiplier_systems`` over N_D(g(xbar)), for a patch map
  ``cq.graph_multiplier_systems`` over the certified graph-normal bound,
  the one the decider searches;
- ``farkas_chain``, ``farkas_chain_graph`` (FAILS; ``target``, resp.
  ``grad``, and each entry's ``piece``, ``farkas_ineq`` and ``farkas_eq``):
  the chain is at the objective's gradient, and one Farkas vector per piece
  verifies against the same systems, over the upper bound for a patch map;
- ``kernel_witness`` (FAILS; ``ystar``, and of a constraint problem
  ``piece`` and a SOSCMS row's ``curvature``) of a constraint problem and
  of a graph set: y* != 0 lies in the recomputed kernel, on a constraint
  problem in the named piece of the recomputed (directional) limiting
  normal cone, and the curvature is the recomputed h;
- ``witness_sequence`` (FAILS; ``candidate`` and each record's ``k``, ``x``
  and ``y``) of a constraint problem, the only one whose search builds
  witnesses: every record (k, x_k, z_k), z_k in ``y``, is replayed; the
  limit is not checked;
- ``normal_samples`` (SAMPLED; each sample's ``k``, ``point``, ``rays`` and
  ``lineality``, and ``fitted_rays`` and ``fitted_lineality``): each sample
  is checked against the regular normal cone at its point, and the fitted
  cone is fitted again from them.

The table also lists the kinds checked only through the recomputed status
(``trivial_kernel``, ``condition_suite``, ``elimination_traces``); a kind
it does not list is an error.  Every other field is a trace that nothing
checks: all fields of those kinds, a kernel witness's ``cone``, and on a
graph set its ``piece`` (an index into the pruned preimage union that the
decider builds and verify does not), and a sequence's ``kind`` and
``converged``.  A report that is not an object with a list of rows, a row
or certificate that is not an object, and a certificate that its check
cannot decode (a missing key, a vector of the wrong length, a non-numeric
entry) are one error line each, not an exception.

Both the recomputation and the cone lookups of the certificate checks read
the same ``lru_cache``s that the deciders fill in the same process (the cone
queries of ``unions``, ``cone_union_subset`` among them), and the lists of
pieces and cells a verdict rests on are recomputed, not certified.

``dumps`` is the one place that knows the JSON form.  A row holds the
verdict's own objects, not a copy, and ``dumps`` writes a Fraction as its
"p/q" string and a dataclass as the dict of its fields, with no type tag.
It is a direct writer of the JSON format of ``json.dumps`` with
``indent=2`` and ``sort_keys=True`` (strings through the C escaper of
``json.encoder``): it writes the same text without the pure-Python encoder
that an indent otherwise needs.  Identical inputs and flags produce
byte-identical reports apart from the ``generated_at`` field.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields, is_dataclass
from datetime import datetime, timezone
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite

from dircq import __version__, cli
from dircq.cq import FAILS, HOLDS, UNDECIDED, Verdict, graph_multiplier_systems, multiplier_systems
from dircq.linalg import Vec, dot, is_zero, mat_t_vec, mat_vec, neg, unit, vec, zeros
from dircq.oracle import NormalSample, fitted_normals
from dircq.polyhedra import PolyhedralCone, polar_cone
from dircq.setmaps import patch_limiting_normals
from dircq.simplex import verify_farkas
from dircq.unions import directional_limiting_normal_cone, limiting_normal_cone, regular_normal_cone

REPORT_VERSION = 1
# status of a row that records oracle samples rather than a verdict
SAMPLED = "SAMPLED"


def verdict_row(
    verdict: Verdict, point: str | None = None, direction: str | None = None, extra: dict | None = None
) -> dict:
    """The report row of a verdict.  It holds the verdict's own certificate,
    condition reports and ``extra``, not a copy: write it with ``dumps``, not
    ``json.dumps``, and do not mutate it."""
    return {
        "check": verdict.name,
        "status": verdict.status,
        "qualifier": verdict.qualifier,
        "point": point,
        "direction": direction,
        "certificate": verdict.certificate,
        "conditions": verdict.conditions,
        **(extra or {}),
    }


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
        "config": config,
        "generated_at": datetime.now(timezone.utc).isoformat() if stamp else None,
        "rows": rows,
        "cones": [],
    }


_CONSTANTS = {None: "null", True: "true", False: "false"}


def dumps(report: dict) -> str:
    """``json.dumps(report, indent=2, sort_keys=True) + "\\n"``, written directly.

    A Fraction is written as its "p/q" string and a dataclass as the dict of
    its fields.  A key that is not a str raises TypeError, and so does any
    other value whose exact type is not str, int, float, bool, None, list,
    tuple or dict.
    """
    out: list[str] = []
    _write(report, out, "\n")
    out.append("\n")
    return "".join(out)


def _write(obj, out: list[str], nl: str) -> None:
    """Append the JSON text of obj to out; nl is the newline and indent of
    the line obj starts on."""
    t = type(obj)
    if t is str:
        out.append(_quote(obj))
    elif t is Fraction:
        out.append(f'"{obj!s}"')
    elif t is dict:
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep)
            out.append(_quote(key))
            out.append(": ")
            _write(obj[key], out, inner)
            sep = "," + inner
        out.append(nl + "}")
    elif t is list or t is tuple:
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write(item, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    elif t is int:
        out.append(int.__repr__(obj))
    elif t is float:
        out.append(_float(obj))
    elif t is bool or obj is None:
        out.append(_CONSTANTS[obj])
    elif is_dataclass(t):
        _write({f.name: getattr(obj, f.name) for f in fields(obj)}, out, nl)
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _float(x: float) -> str:
    if isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


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
    if isinstance(xs, str):
        raise TypeError(f"{xs!r} is not a list of scalars")
    return vec(Fraction(x) for x in xs)


def _recompute_row(problem, row) -> Verdict:
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
    """Re-check every row; returns one human-readable failure per failing row."""
    rows = report.get("rows") if isinstance(report, dict) else None
    if not isinstance(rows, list):
        return ["report is not an object with a list of rows"]
    errors: list[str] = []
    for idx, row in enumerate(rows):
        if not isinstance(row, dict):
            errors.append(f"row {idx}: row is not an object")
            continue
        err = _verify_row(problem, row)
        if err:
            errors.append(f"row {idx} ({row.get('check')}/{row.get('point')}/{row.get('direction')}): {err}")
    return errors


def _verify_row(problem, row) -> str | None:
    status, cert = row.get("status"), row.get("certificate")
    if cert is not None and not isinstance(cert, dict):
        return "certificate is not an object"
    if status != SAMPLED:
        try:
            fresh = _recompute_row(problem, row)
        except Exception as exc:
            return f"recomputation failed: {exc}"
        if fresh.status != status:
            return f"recomputed status {fresh.status} != reported {status}"
    if cert is None:
        return f"{status} without a certificate" if status in (HOLDS, FAILS, SAMPLED) else None
    return _check_certificate(problem, row, cert)


def _check_certificate(problem, row, cert: dict) -> str | None:
    """The check that ``_CHECKS`` names for the row's status and certificate
    kind; a certificate it cannot decode is an error, not an exception."""
    status, kind = row.get("status"), cert.get("kind")
    if not isinstance(kind, str) or (status, kind) not in _CHECKS:
        return f"no check for a {status} certificate of kind {kind!r}"
    entry = _CHECKS[status, kind]
    if entry is None:
        return None
    check, unreadable = entry
    try:
        return check(problem, row, cert)
    except (AttributeError, KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"{unreadable}: {exc}"


def _check_normal_samples(problem, row, cert) -> str | None:
    """Each sample point lies in the graph set, its rays and lineality
    generate the regular normal cone there, and the row's fitted rays and
    lineality are those that ``oracle.fitted_normals`` fits to the samples.

    The limit is not checked: that the sample points tend to the base point
    along the row's direction waits for the curve certificates of ROADMAP
    item 3.
    """
    if problem.kind != "graphset":
        return f"normal samples need a graphset problem, not {problem.kind!r}"
    graph = problem.graph_set
    samples = []
    for sample in cert["result"]["samples"]:
        k = int(sample["k"])
        point = _decode_vec(sample["point"])
        if not graph.contains(point):
            return f"sample point left the graph set at k={k}"
        rays = tuple(_decode_vec(r) for r in sample["rays"])
        lin = tuple(_decode_vec(l) for l in sample["lineality"])
        sampled = polar_cone(PolyhedralCone.make(a=rays, e=lin, dim=graph.dim))
        if not sampled.equals(regular_normal_cone(graph, point)):
            return f"sampled normals differ from the regular normal cone at k={k}"
        samples.append(NormalSample(k, point, rays, lin))
    fit_rays, fit_lin = fitted_normals(samples)
    if tuple(map(_decode_vec, cert["result"]["fitted_rays"])) != fit_rays:
        return "fitted rays differ from the fit of the samples"
    if tuple(map(_decode_vec, cert["result"]["fitted_lineality"])) != fit_lin:
        return "fitted lineality differs from the fit of the samples"
    return None


def _check_kernel_witness(problem, row, cert) -> str | None:
    """A nonzero y* in the recomputed kernel.

    For a constraint problem: J^T y* = 0 and y* in the piece ``piece`` of the
    (directional) limiting normal cone, with ``curvature`` equal to h and
    <h, y*> >= 0 for a SOSCMS row.  For a graph set:
    (0, -y*) in the directional limiting normal cone of the graph at the
    base point in the direction (u, 0).
    """
    y = _decode_vec(cert["ystar"])
    if is_zero(y):
        return "kernel witness is zero"
    if problem.kind == "graphset":
        nx, ny = problem.graph_nx, problem.graph_ny
        gdir = vec((*_decode_vec(row["u"]), *zeros(ny)))
        n_dir = directional_limiting_normal_cone(problem.graph_set, problem.point("base"), gdir)
        if not n_dir.contains(vec((*zeros(nx), *neg(y)))):
            return "(0, -y*) lies outside the recomputed graph normal cone"
        return None
    if problem.kind != "constraint":
        return f"a kernel witness needs a constraint or graphset problem, not {problem.kind!r}"
    sys = problem.system
    gx = sys.g.eval(sys.xbar)
    jac = sys.g.jacobian(sys.xbar)
    u = problem.direction(row["direction"]) if row.get("direction") else None
    if u is None:
        cone = limiting_normal_cone(sys.d, gx)
    else:
        cone = directional_limiting_normal_cone(sys.d, gx, mat_vec(jac, u))
    if not is_zero(mat_t_vec(jac, y)):
        return "kernel witness fails the adjoint condition"
    if not cone.contains(y):
        return "kernel witness lies outside the recomputed cone"
    piece = cert["piece"]
    if type(piece) is not int or piece not in range(len(cone.pieces)) or not cone.pieces[piece].contains(y):
        return f"kernel witness piece {piece!r} is not a piece of the recomputed cone that holds y*"
    if row["check"] != "soscms":
        return None
    h = sys.g.second_order(sys.xbar, u)[1]
    if _decode_vec(cert["curvature"]) != h:
        return "kernel witness curvature differs from the recomputed h"
    if dot(h, y) < 0:
        return "kernel witness violates the curvature sign"
    return None


def _multiplier_systems(problem, certified: bool) -> tuple[Vec, list]:
    """(grad, systems): the objective's gradient at xbar and the multiplier
    systems that M-stationarity poses there, one per piece, as
    (a, b, e, d, n).  Over N_D(g(xbar)) (``cq.multiplier_systems``) for a
    constraint problem; over the certified or the upper graph-normal bound
    (``cq.graph_multiplier_systems``) for a patch map."""
    if problem.kind == "constraint":
        sys = problem.system
        grad = problem.objective.gradient(sys.xbar)
        n_lim = limiting_normal_cone(sys.d, sys.g.eval(sys.xbar))
        return grad, list(multiplier_systems(n_lim, sys.g.jacobian(sys.xbar), neg(grad)))
    if problem.kind == "patch":
        xbar = problem.point("xbar")
        grad = problem.objective.gradient(xbar)
        bounds = patch_limiting_normals(problem.patch_map, vec((*xbar, *problem.point("ybar"))))
        union = bounds.certain if certified else bounds.upper
        return grad, list(graph_multiplier_systems(union, grad, problem.patch_map.nx))
    raise ValueError(f"M-stationarity needs a constraint or patch problem, not {problem.kind!r}")


def _check_multiplier(problem, row, cert) -> str | None:
    """lambda solves, in plain Fractions, the multiplier system of the piece
    the certificate names; for a patch map that is a piece of the certified
    bound, the one the decider searches."""
    if problem.kind == "patch" and cert["bound"] != "certified":
        return f"graph multiplier names the bound {cert['bound']!r}, not the certified one"
    _, systems = _multiplier_systems(problem, certified=True)
    piece = cert["piece"]
    if type(piece) is not int or piece not in range(len(systems)):
        return f"multiplier piece {piece!r} is not one of the {len(systems)} pieces"
    a, b, e, d, n = systems[piece]
    lam = _decode_vec(cert["lam"])
    if len(lam) != n:
        raise ValueError(f"lambda has length {len(lam)}, not {n}")
    if any(dot(r, lam) > c for r, c in zip(a, b)) or any(dot(r, lam) != c for r, c in zip(e, d)):
        return f"multiplier does not solve the system of piece {piece}"
    return None


def _check_farkas_chain(problem, row, cert) -> str | None:
    """One verified Farkas vector per piece of the multiplier systems, over
    the upper bound for a patch map, at the objective's gradient."""
    grad, systems = _multiplier_systems(problem, certified=False)
    if problem.kind == "constraint":
        if _decode_vec(cert["target"]) != neg(grad):
            return "Farkas target is not minus the objective gradient"
    elif _decode_vec(cert["grad"]) != grad:
        return "Farkas gradient differs from the objective gradient"
    entries = cert["pieces"]
    if [entry["piece"] for entry in entries] != list(range(len(systems))):
        return f"Farkas chain needs one entry per piece, in order, for {len(systems)} pieces"
    for i, ((a, b, e, d, _), entry) in enumerate(zip(systems, entries)):
        if not verify_farkas(a, b, e, d, _decode_vec(entry["farkas_ineq"]), _decode_vec(entry["farkas_eq"])):
            return f"Farkas vector for piece {i} does not verify"
    return None


def _check_witness_sequence(problem, row, cert) -> str | None:
    """Replays every record of a witness sequence in plain Fractions.

    Only the constraint search builds witnesses: z_k in D, lambda normal at
    z_k and <lambda, gap> > 0 for gap = g(x_k) - z_k.  A quasi-normality row
    needs <lambda, e> <gap, e> > 0 for every basis vector e with
    <lambda, e> != 0 (the problem's basis, else the unit vectors).
    """
    if problem.kind != "constraint":
        return f"a witness sequence needs a constraint problem, not {problem.kind!r}"
    records = cert["sequence"]["records"]
    if not records:
        return "empty witness sequence"
    lam = _decode_vec(cert["candidate"])
    quasi_basis = ()
    if row["check"] == "quasi-normality":
        quasi_basis = problem.basis or tuple(unit(len(lam), i) for i in range(len(lam)))
    for rec in records:
        k = int(rec["k"])
        err = _replay_constraint_record(problem, lam, quasi_basis, _decode_vec(rec["x"]), _decode_vec(rec["y"]))
        if err:
            return f"{err} at k={k}"
    return None


def _replay_constraint_record(problem, lam: Vec, quasi_basis, x: Vec, z: Vec) -> str | None:
    sys = problem.system
    if not sys.d.contains(z):
        return "witness point left the set"
    ncone = regular_normal_cone(sys.d, z)
    if ncone is None or not ncone.contains(lam):
        return "multiplier not normal"
    gap = tuple(a - b for a, b in zip(sys.g.eval(x), z, strict=True))
    if dot(lam, gap) <= 0:
        return "sign condition fails"
    for i, e in enumerate(quasi_basis):
        le = dot(lam, e)
        if le != 0 and le * dot(gap, e) <= 0:
            return f"quasi sign condition fails on basis vector {i}"
    return None


# (status, certificate kind) -> (check, its error text for a certificate it
# cannot decode), or None for a kind checked through the recomputed status
# alone
_CHECKS = {
    (HOLDS, "multiplier"): (_check_multiplier, "multiplier cannot be read"),
    (HOLDS, "multiplier_graph"): (_check_multiplier, "multiplier cannot be read"),
    (FAILS, "kernel_witness"): (_check_kernel_witness, "kernel witness cannot be read"),
    (FAILS, "farkas_chain"): (_check_farkas_chain, "Farkas chain cannot be read"),
    (FAILS, "farkas_chain_graph"): (_check_farkas_chain, "Farkas chain cannot be read"),
    (FAILS, "witness_sequence"): (_check_witness_sequence, "witness record cannot be replayed"),
    (SAMPLED, "normal_samples"): (_check_normal_samples, "normal sample cannot be read"),
    (HOLDS, "trivial_kernel"): None,
    (HOLDS, "condition_suite"): None,
    (HOLDS, "elimination_traces"): None,
}
