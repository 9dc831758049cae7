"""Constraint-qualification deciders with exact certificates.

Every decider returns a three-valued Verdict.  HOLDS and FAILS always carry
exactly verifiable data (a nonzero kernel witness, a multiplier, a Farkas
chain, or a replayable sequence trace); UNDECIDED lists the sub-conditions
that blocked a decision.

Every directional decider starts from ``_directional``, which rejects u = 0
and returns the data along u with the directional limiting normal cone
N_D(g(xbar); grad g(xbar) u).  That cone is empty exactly when
grad g(xbar) u is not tangent to D, the one tangency test; in strong mode
it is also the theorem checkers' multiplier union (``_lambda_condition``).

The quantified condition systems of the second-order checkers are decided by
cell enumeration: on the relative interior of an arrangement cell every cone
membership in the system is a fixed polyhedral constraint, so each cell
system is one exact LP.  The rows of ker J^T (and the curvature row h) need
none: the checkers add them to their arrangements as extra hyperplanes, so
on a cell's relative interior each is identically 0 or of one fixed sign,
and the cell's witness decides whether the cell meets them (``_meets``).

The three theorem checkers share one cell-system driver.  Each describes its
systems as cell groups: iterables of (shift, hyperplanes, cell, tangent
pieces), where the cell fixes the sign pattern of y*, each tangent piece is a
cone for z*, and a shift (hyperplanes, cell) adds the variables s with
J s + h/2 in that cell.  The groups of the doubled-tangent checker are
generators, so that a kernel witness stops them before later arrangements
are built.  One lazy loop (``_cell_pieces``) reads the groups for the kernel
system, the source cones and the graph-section conditions alike: a cell
whose witness misses the extra-hyperplane rows is skipped before any of its
systems is built.  Every system is a plain row tuple
(strict_a, strict_b, a, b, e, d, n), exactly as it goes to the LP, in the
fixed columns (s, y, z) (``_cell_system``); a witness is read by slicing.

Each checker call solves each distinct cell system once.  The checkers pose
many systems more than once: pieces that share their rows tight at a cell
give equal tangent cones, cells sigma that share N(sigma) give equal source
groups and may share a shift probe, and the derivative-at-zero and
subderivative conditions share graph sections.  A table that the call
creates and passes down maps the row tuple of a system to its answers and
is dropped when the call returns.  This preserves every report: the LP is
deterministic, so a repeated system has the answer of its first occurrence,
and that answer either was "empty", skipped again, or already ended the loop
that posed it.  A feasibility question on a cone (no strict rows, zero right
sides) needs no LP at all: 0 is a point.

What the checkers build from the context alone is kept with the context, in
its ``memo``: each checker's cell groups (the cells with their tangent
pieces or graph sections), each cell's meet decision (``_meets``), each cell
system's row tuple and shift probe, each closed source cone, and the source
images and multiplier targets of the lambda hypothesis.  The split is
deliberate.  LP answers stay in the per-call table, so every call still
solves its cell systems; rows, cones and meet decisions (read off cell
witnesses, with no LP), which depend only on (g, D, xbar, u) and the cached
arrangements, are built once per context and live and die with its
``_context`` cache entry.  The memo is keyed on int data (hyperplanes, sign
vectors, int-row cones), never on cells, whose witnesses are Fractions.  A
system with a nonzero target x* (``achievable``) is never kept: its target
comes from the caller, so keeping it would let the memo grow without bound.

Directional pseudo- and quasi-normality share one candidate driver.  The
constraint-map and equilibrium deciders each build their own kernel
candidates and trivial-kernel certificate, then hand the nonzero candidates
and their oracle search to ``_candidate_verdict``: FAILS on the first
converged witness sequence, HOLDS by oracle exhaustion when every candidate
is eliminated, else UNDECIDED with the survivors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from dircq.linalg import (
    Mat,
    Vec,
    add,
    canon_ray,
    coprime_ints,
    dot,
    half_step,
    is_orthogonal_basis,
    is_zero,
    mat_t_vec,
    neg,
    null_direction,
    rref_reduce,
    rref_span,
    scale,
    transpose,
    vec,
)
from dircq.polyhedra import (
    IntMat,
    IntVec,
    PolyhedralCone,
    generators,
    image_cone,
    nonzero_element,
    preimage_cone,
)
from dircq.polymaps import Poly
from dircq.setmaps import ConstraintSystem, InfeasiblePoint, patch_limiting_normals
from dircq.simplex import OPTIMAL, feasible_point, relative_interior, strict_feasible_point
from dircq.unions import (
    Cell,
    ConeUnion,
    PolyUnion,
    arrangement,
    cell_tangent_pieces,
    cone_union_subset,
    directional_limiting_normal_cone,
    hyperplanes_of,
    limiting_normal_cone,
    limiting_normal_cone_of_union,
    normal_graph,
    sign_rows,
    tangent_cone,
    tangent_cone_of_union,
)

HOLDS = "HOLDS"
FAILS = "FAILS"
UNDECIDED = "UNDECIDED"

# (system, direction) pairs whose first- and second-order data ``_context``
# keeps, each with its memo of rows and cones: one entry per direction, plus
# one undirected, per system.  A pass of five checkers over ex58^2 in its
# eight directions asks 40 times for 8, so 16 keeps a warm pass whole; a cold
# pass over fresh problems only fills it with memos it never reads again.
CONTEXT_CACHE_SIZE = 16

# a table entry not yet solved (None is an answer: no nonzero-block point)
_MISSING = object()


@dataclass(frozen=True)
class ConditionReport:
    name: str
    status: str  # "holds" | "fails" | "vacuous" | "skipped"
    detail: str = ""
    witness: dict | None = None


@dataclass(frozen=True)
class Verdict:
    name: str
    status: str
    certificate: dict | None = None
    conditions: tuple[ConditionReport, ...] = ()
    qualifier: str = ""

    def condition(self, name: str) -> ConditionReport | None:
        return next((c for c in self.conditions if c.name == name), None)


# The data of g at xbar (and along u) that every decider reads.  ``_context``
# keeps it in an lru_cache keyed on (system, vec(u)), CONTEXT_CACHE_SIZE
# entries; an infeasible base point raises on every call and is not kept.
# The context hashes by identity, and its ``memo`` (see the module docstring)
# is dropped with it.
@dataclass(frozen=True, eq=False)
class _Ctx:
    sys: ConstraintSystem
    gx: Vec
    jac: Mat  # m x n
    ker_rows: Mat  # rows of J^T, integral entries as ints; {y : J^T y = 0}
    u: Vec | None = None
    ju: Vec | None = None
    bu: Mat | None = None  # n x m curvature matrix, B y* = Hess<y*, g>(xbar) u
    h: Vec | None = None  # second-order vector Hess g(xbar)[u, u]
    # coprime_ints(r, line=True) of each nonzero ker row, which ``_meets`` looks up
    ker_keys: tuple[IntVec, ...] = field(init=False)
    memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        keys = tuple(coprime_ints(r, line=True) for r in self.ker_rows if not is_zero(r))
        object.__setattr__(self, "ker_keys", keys)


def _context(sys: ConstraintSystem, u: Vec | None = None) -> _Ctx:
    return _cached_context(sys, None if u is None else vec(u))


@lru_cache(maxsize=CONTEXT_CACHE_SIZE)
def _cached_context(sys: ConstraintSystem, u: Vec | None) -> _Ctx:
    gx = sys.g.eval(sys.xbar)
    if not sys.d.contains(gx):
        raise InfeasiblePoint("base point is not feasible")
    jac = sys.g.jacobian(sys.xbar)
    ker_rows = tuple(map(_exact_row, transpose(jac)))
    if u is None:
        return _Ctx(sys, gx, jac, ker_rows)
    bu, h = sys.g.second_order(sys.xbar, u)
    return _Ctx(sys, gx, jac, ker_rows, u=u, ju=tuple(dot(row, u) for row in jac), bu=bu, h=h)


def _memo(ctx: _Ctx, key: tuple, build):
    """``ctx.memo[key]``, built by ``build()`` on the first request."""
    got = ctx.memo.get(key, _MISSING)
    if got is _MISSING:
        got = ctx.memo[key] = build()
    return got


def _kernel_verdict(name: str, pieces: Sequence[PolyhedralCone], extra: dict) -> Verdict:
    for i, piece in enumerate(pieces):
        w = nonzero_element(piece)
        if w is not None:
            cert = {"kind": "kernel_witness", "ystar": w, "piece": i, **extra}
            return Verdict(name, FAILS, cert)
    cert = {"kind": "trivial_kernel", "pieces_checked": len(pieces), **extra}
    return Verdict(name, HOLDS, cert)


def _kernel_pieces(ctx: _Ctx, union: ConeUnion, a_extra: Mat = ()) -> list[PolyhedralCone]:
    """Each piece of the union cut by ker J^T and the extra rows <r, y*> <= 0."""
    return [
        PolyhedralCone.make(a=p.ia + a_extra, e=p.ie + ctx.ker_rows, dim=ctx.sys.m)
        for p in union.pieces
    ]


def mordukhovich(sys: ConstraintSystem) -> Verdict:
    """Metric-regularity criterion: N_D(g(xbar)) meets ker grad g(xbar)^* only at 0."""
    ctx = _context(sys)
    pieces = _kernel_pieces(ctx, limiting_normal_cone(sys.d, ctx.gx))
    return _kernel_verdict("mordukhovich", pieces, {"cone": "limiting"})


def _directional(sys: ConstraintSystem, u: Vec) -> tuple[_Ctx, ConeUnion]:
    """The data along u and the directional limiting normal cone
    N_D(g(xbar); grad g(xbar) u), which is empty exactly when grad g(xbar) u
    is not tangent to D."""
    if is_zero(u):
        raise ValueError("direction u must be nonzero")
    ctx = _context(sys, u)
    return ctx, directional_limiting_normal_cone(sys.d, ctx.gx, ctx.ju)


def _not_tangent(name: str, **extra) -> Verdict:
    """HOLDS with an empty kernel: the direction is not tangent, so no
    directional normal exists."""
    cert = {"kind": "trivial_kernel", "pieces_checked": 0, **extra}
    return Verdict(name, HOLDS, cert, qualifier="direction-not-tangent")


def _directional_kernel_verdict(name: str, sys: ConstraintSystem, u: Vec, curvature: bool) -> Verdict:
    """The kernel check on the directional limiting normal cone; with
    ``curvature`` each piece also keeps the row <h, y*> >= 0."""
    ctx, n_dir = _directional(sys, u)
    if n_dir.is_empty:
        return _not_tangent(name, cone="directional")
    if not curvature:
        return _kernel_verdict(name, _kernel_pieces(ctx, n_dir), {"cone": "directional"})
    pieces = _kernel_pieces(ctx, n_dir, (tuple(-x for x in ctx.h),))
    return _kernel_verdict(name, pieces, {"cone": "directional", "curvature": ctx.h})


def foscms(sys: ConstraintSystem, u: Vec) -> Verdict:
    """First-order sufficient condition for metric subregularity in direction u."""
    return _directional_kernel_verdict("foscms", sys, u, curvature=False)


def soscms(sys: ConstraintSystem, u: Vec) -> Verdict:
    """Second-order refinement: adds the curvature sign <h, y*> >= 0."""
    return _directional_kernel_verdict("soscms", sys, u, curvature=True)


# ---------------------------------------------------------------------------
# mixed strict/closed systems with a nonzero-block requirement


def _mixed_nonzero_solution(
    strict_a: Mat,
    strict_b: Vec,
    a: Mat,
    b: Vec,
    e: Mat,
    d: Vec,
    nvars: int,
    block: Sequence[int],
) -> Vec | None:
    """A point of {strict rows < , closed rows <= , eq rows =} whose block != 0.

    One relative-interior LP (``relative_interior``) on the closure, with the
    strict rows closed, gives a point p and the implicit rows, those that
    hold with equality on the whole closure.  The strict system is empty iff
    a strict row is implicit; otherwise p meets every non-implicit row
    strictly, strict rows included.  The strict set is dense in its closure
    and "block != 0" is open, so the question is whether the block vanishes
    on the closure.  It does iff each block unit vector lies in the span of
    the equality and implicit rows (int RREF), as the block is then constant
    on the affine hull and 0 at p.  Otherwise some block coordinate i is not
    constant there: a null-space direction v of those rows with v_i != 0
    moves p to p + eps v, with eps half the largest step that keeps every
    non-implicit row strict, and there the block is nonzero.
    """
    a_all = tuple(strict_a) + tuple(a)
    b_all = tuple(strict_b) + tuple(b)
    rel = relative_interior(a_all, b_all, e, d, n=nvars)
    if rel is None:
        return None
    p, implicit = rel
    if implicit and implicit[0] < len(strict_a):
        return None
    if any(p[i] != 0 for i in block):
        return p
    eqs = rref_span((*e, *(a_all[i] for i in implicit)))
    for i in block:
        hr = rref_reduce(eqs, [int(j == i) for j in range(nvars)])
        if hr is not None:
            v = null_direction(eqs, hr)
            free = [j for j in range(len(a_all)) if j not in implicit]
            eps = half_step([a_all[j] for j in free], p, v, [b_all[j] for j in free])
            return tuple(x + eps * y for x, y in zip(p, v))
    return None


# ---------------------------------------------------------------------------
# cell systems as row tuples: (strict_a, strict_b, a, b, e, d, n)


def _exact(x):
    """x as an int when it is integral, else as a Fraction (equal values)."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _exact_row(r) -> tuple:
    return tuple(map(_exact, r))


def _system(lt: list, le: list, eq: list, size: int) -> tuple:
    """(strict_a, strict_b, a, b, e, d, n) from lists of (row, rhs) pairs,
    for rows < rhs, <= rhs and = rhs: the system exactly as it goes to the LP.

    Each row is padded with zeros to ``size`` columns and each rhs made
    exact.  The rows come exact, every integral entry an int, so that the
    cone layer's int rows reach ``solve_lp`` without a Fraction: the
    hyperplanes and tangent pieces are int rows already, and only the rows
    built from J, B and h/2 go through ``_exact``, where they are built.
    """

    def pack(rows: list) -> tuple:
        return (
            tuple((*r, *(0,) * (size - len(r))) for r, _ in rows),
            tuple(_exact(rhs) for _, rhs in rows),
        )

    return (*pack(lt), *pack(le), *pack(eq), size)


def _solve_nonzero(rows: tuple, off: int, size: int, table: dict) -> Vec | None:
    """A point of the system whose columns off .. off + size - 1 are not all
    0, or None; the ``table`` keeps the answer under (rows, off, size)."""
    key = (rows, off, size)
    sol = table.get(key, _MISSING)
    if sol is _MISSING:
        sol = table[key] = _mixed_nonzero_solution(*rows, range(off, off + size))
    return sol


def _feasible(rows: tuple, table: dict) -> bool:
    """Whether the system (strict rows included) has a point; the ``table``
    keeps the answer under the rows."""
    if not rows[0] and not any(rows[3]) and not any(rows[5]):
        return True  # a cone: 0 is a point
    ok = table.get(rows)
    if ok is None:
        ok = table[rows] = strict_feasible_point(*rows[:6], n=rows[6]) is not None
    return ok


# ---------------------------------------------------------------------------
# the cell-system driver shared by the theorem checkers


def _meets(ctx: _Ctx, hyper: tuple[Vec, ...], cell: Cell, y_rows: Mat = ()) -> bool:
    """Whether the cell's relative interior meets J^T y* = 0 and <r, y*> <= 0
    for each r in ``y_rows``, decided by the cell's witness with no LP.

    Each nonzero such row must be, up to scale, one of the hyperplanes
    ``hyper`` of the cell's arrangement.  On the relative interior it is then
    identically 0 or of one fixed sign, its sign at the witness, which also
    meets every row that the relative interior can meet.  A nonzero row
    outside ``hyper`` raises ValueError, as the witness would not decide it.
    """
    keys = (*ctx.ker_keys, *(coprime_ints(r, line=True) for r in y_rows if not is_zero(r)))
    for key in keys:
        if key not in hyper:
            raise ValueError(f"row {key} is not, up to scale, a hyperplane of the cell's arrangement")
    w = cell.witness
    return all(dot(r, w) == 0 for r in ctx.ker_rows) and all(dot(r, w) <= 0 for r in y_rows)


def _cell_pieces(ctx: _Ctx, groups, y_rows: Mat = ()):
    """(shift, hyperplanes, cell, tangent piece) of each cell of the groups
    that ``_meets`` ker J^T and the y* rows, read lazily from the groups.
    The context's memo keeps each meet decision."""
    for shift, hyper, cell, pieces in groups:
        if _memo(ctx, ("meets", hyper, cell.signs, y_rows), lambda: _meets(ctx, hyper, cell, y_rows)):
            for tp in pieces:
                yield shift, hyper, cell, tp


def _shift_rows(ctx: _Ctx, shift) -> list[list]:
    """[strict rows, equality rows], as (row, rhs) over s, that put J s + h/2
    in the relative interior of the cell of ``shift`` = (hyperplanes, cell)."""
    hyper, cell = shift
    h_half = scale(Fraction(1, 2), ctx.h)
    return [
        [(_exact_row(mat_t_vec(ctx.jac, r)), -dot(r, h_half)) for r in rows]
        for rows in sign_rows(hyper, cell.signs)
    ]


def _shift_system(ctx: _Ctx, shift) -> tuple:
    """The system over s alone of J s + h/2 in the cell of ``shift``; the
    context's memo keeps it."""
    hyper, cell = shift

    def build() -> tuple:
        lt, eq = _shift_rows(ctx, shift)
        return _system(lt, [], eq, ctx.sys.n)

    return _memo(ctx, ("shift", hyper, cell.signs), build)


def _cell_system(
    ctx: _Ctx,
    hyper: tuple[Vec, ...],
    cell: Cell,
    tp: PolyhedralCone,
    shift=None,
    closed: bool = False,
    y_rows: Mat = (),
    xstar: Vec | None = None,
    z_rows: Mat = (),
) -> tuple:
    """The system of one cell in the columns (s, y, z), s only with a ``shift``.

    Rows of each kind, in order: J s + h/2 in the shift cell, y* in the cell
    (its relative interior, or its closure when ``closed``), J^T y* = 0,
    <r, y*> <= 0 for each r in ``y_rows``, z* in the tangent piece ``tp``,
    <r, z*> = 0 for each r in ``z_rows`` and, with an ``xstar``,
    B y* + J^T z* = x*.  The context's memo keeps the system, unless x* is
    a nonzero target.
    """

    def build() -> tuple:
        m = ctx.sys.m
        lt, eq = _shift_rows(ctx, shift) if shift else ([], [])
        le: list = []
        y = (0,) * (ctx.sys.n if shift else 0)
        z = y + (0,) * m
        ineq, cell_eq = sign_rows(hyper, cell.signs)
        (le if closed else lt).extend((y + r, 0) for r in ineq)
        eq += [(y + r, 0) for r in (*cell_eq, *ctx.ker_rows)]
        le += [(y + _exact_row(r), 0) for r in y_rows]
        le += [(z + r, 0) for r in tp.ia]
        eq += [(z + r, 0) for r in tp.ie]
        eq += [(z + _exact_row(r), 0) for r in z_rows]
        if xstar is not None:
            eq += [(y + _exact_row(ctx.bu[j]) + ctx.ker_rows[j], xstar[j]) for j in range(ctx.sys.n)]
        return _system(lt, le, eq, len(z) + m)

    if xstar is not None and any(xstar):
        return build()
    shift_key = shift and (shift[0], shift[1].signs)
    key = ("system", hyper, cell.signs, tp, shift_key, closed, y_rows, xstar is None, z_rows)
    return _memo(ctx, key, build)


def _kernel_report(ctx: _Ctx, groups, table: dict) -> ConditionReport:
    """The kernel system: no cell of the groups admits a nonzero y* with B y* + J^T z* = 0."""
    n, m = ctx.sys.n, ctx.sys.m
    for shift, hyper, cell, tp in _cell_pieces(ctx, groups):
        y = n if shift else 0
        sol = _solve_nonzero(_cell_system(ctx, hyper, cell, tp, shift, xstar=(0,) * n), y, m, table)
        if sol is None:
            continue
        witness = {"ystar": sol[y : y + m], "zstar": sol[y + m :]}
        if not shift:
            return ConditionReport("kernel-system", "fails", "nonzero y* solves the system", witness)
        witness["shift"] = sol[:n]
        return ConditionReport("kernel-system", "fails", "nonzero y* solves a shifted system", witness)
    return ConditionReport("kernel-system", "holds")


def _sources(ctx: _Ctx, groups, table: dict, y_rows: Mat = ()):
    """The closed source cones of (y*, z*) in R^{2m}, and the test ``achievable(x*)``.

    A cell contributes only when its relative interior meets ker J^T and the
    y* rows, which its witness decides (``_meets``); x* is achievable when
    the relative-interior system of some (cell, piece) admits
    B y* + J^T z* = x*.  Source groups carry no shift.  The context's memo
    keeps each cone.
    """

    def cone(hyper, cell, tp) -> PolyhedralCone:
        rows = _cell_system(ctx, hyper, cell, tp, closed=True, y_rows=y_rows)
        return PolyhedralCone.make(a=rows[2], e=rows[4], dim=rows[6])

    cones: list[PolyhedralCone] = []
    members = []
    for _, hyper, cell, tp in _cell_pieces(ctx, groups, y_rows):
        cones.append(_memo(ctx, ("source", hyper, cell.signs, tp, y_rows), lambda: cone(hyper, cell, tp)))
        members.append((hyper, cell, tp))

    def achievable(xstar: Vec) -> bool:
        return any(
            _feasible(_cell_system(ctx, hyper, cell, tp, y_rows=y_rows, xstar=xstar), table)
            for hyper, cell, tp in members
        )

    return cones, achievable


# ---------------------------------------------------------------------------
# the lambda-representation hypothesis shared by the theorem checkers


def _source_image(ctx: _Ctx, cone: PolyhedralCone) -> PolyhedralCone:
    """x* = B y* + J^T z* over a source cone of (y*, z*) pairs; the context's
    memo keeps it."""
    m = ctx.sys.m

    def image(w: Vec) -> Vec:
        return add(tuple(dot(row, w[:m]) for row in ctx.bu), mat_t_vec(ctx.jac, w[m:]))

    return _memo(ctx, ("image", cone), lambda: image_cone(cone, image, ctx.sys.n))


def _lambda_targets(ctx: _Ctx, lam_union: ConeUnion) -> ConeUnion:
    """J^T lambda over the multiplier union; the context's memo keeps it."""

    def build() -> ConeUnion:
        pieces = [image_cone(p, lambda r: mat_t_vec(ctx.jac, r), ctx.sys.n) for p in lam_union.pieces]
        return ConeUnion.make(pieces, ctx.sys.n)

    return _memo(ctx, ("targets", lam_union), build)


def _piecewise_point(systems) -> tuple[Vec | None, int, list[dict]]:
    """(x, i, []) for the first piece i whose system {a x <= b, e x = d}
    has a point x, else (None, -1, one Farkas entry per piece).

    ``systems`` yields (a, b, e, d, n) per piece and is read lazily, so the
    pieces after the first feasible one are never built.
    """
    farkas = []
    for i, (a, b, e, d, n) in enumerate(systems):
        res = feasible_point(a, b, e, d, n=n)
        if res.status == OPTIMAL:
            return res.x, i, []
        farkas.append({"piece": i, "farkas_ineq": res.farkas_ineq, "farkas_eq": res.farkas_eq})
    return None, -1, farkas


def multiplier_systems(lam_union: ConeUnion, jac: Mat, xstar: Vec):
    """The system {lambda in the piece, J^T lambda = x*} of each piece of the
    union, as (a, b, e, d, n); the deciders and ``verify`` pose the same ones."""
    ker_rows = transpose(jac)
    for p in lam_union.pieces:
        yield p.ia, (0,) * len(p.ia), p.ie + ker_rows, (0,) * len(p.ie) + tuple(xstar), lam_union.dim


def _lambda_condition(
    ctx: _Ctx,
    cones: list[PolyhedralCone],
    n_dir: ConeUnion,
    mode: str,
    targets: list[Vec] | None,
    achievable,
) -> ConditionReport:
    """The representation hypothesis: every achievable x* equals J^T lambda,
    with lambda in N_D(g(xbar)) in "asym" mode and else in ``n_dir``."""
    name = "lambda-representation"
    lam_union = limiting_normal_cone(ctx.sys.d, ctx.gx) if mode == "asym" else n_dir
    if targets is None:
        if not cones:
            return ConditionReport(name, "vacuous", "no achievable x*")
        xstar_union = ConeUnion.make([_source_image(ctx, c) for c in cones], ctx.sys.n)
        ok, witness = cone_union_subset(xstar_union, _lambda_targets(ctx, lam_union))
        if ok:
            return ConditionReport(name, "holds", "full achievable range covered")
        _, _, farkas = _piecewise_point(multiplier_systems(lam_union, ctx.jac, witness))
        return ConditionReport(
            name,
            "fails",
            "achievable x* without a multiplier",
            witness={"xstar": witness, "farkas": farkas},
        )
    # explicit target mode
    details = []
    for xstar in targets:
        if not achievable(xstar):
            details.append({"xstar": xstar, "status": "not-achievable"})
            continue
        lam, piece, farkas = _piecewise_point(multiplier_systems(lam_union, ctx.jac, xstar))
        if lam is None:
            return ConditionReport(
                name,
                "fails",
                "target x* admits no multiplier",
                witness={"xstar": xstar, "farkas": farkas},
            )
        details.append({"xstar": xstar, "status": "ok", "lam": lam, "piece": piece})
    return ConditionReport(name, "holds", "all targets covered", witness={"targets": details})


def _vacuous_verdict(name: str) -> Verdict:
    """HOLDS without a system: grad g(xbar) u is not tangent to D."""
    rep = ConditionReport("direction", "vacuous", "grad g(xbar) u not tangent to D")
    return Verdict(name, HOLDS, {"kind": "vacuous", "reason": "direction"}, (rep,))


def _assemble_theorem_verdict(
    name: str, reports: list[ConditionReport], holds: bool | None = None, **cert_extra
) -> Verdict:
    """HOLDS when ``holds`` (by default: no condition fails), else UNDECIDED."""
    failed = [r.name for r in reports if r.status == "fails"]
    if holds is None:
        holds = not failed
    if holds:
        cert = {"kind": "condition_suite", "conditions": [r.name for r in reports], **cert_extra}
        return Verdict(name, HOLDS, cert, conditions=tuple(reports))
    return Verdict(
        name,
        UNDECIDED,
        None,
        conditions=tuple(reports),
        qualifier="assumption-failed:" + ",".join(failed),
    )


# ---------------------------------------------------------------------------
# theorem checker on the tangent-cone system (first polyhedral refinement)


def check_thm_polyhedral_I(
    sys: ConstraintSystem,
    u: Vec,
    mode: str = "asym",
    targets: list[Vec] | None = None,
) -> Verdict:
    """Sufficient conditions via normals of the tangent union in direction u.

    HOLDS certifies (strong, per mode) directional asymptotic regularity of
    the constraint map at (xbar, 0) in direction u.
    """
    ctx, n_dir = _directional(sys, u)
    if n_dir.is_empty:
        return _vacuous_verdict("thm-tangent-normals")

    def build() -> list:
        """Each cell with its tangent pieces; the context's memo keeps them."""
        arr = arrangement(n_dir, extra=ctx.ker_rows)
        return [(None, arr.hyperplanes, cell, cell_tangent_pieces(n_dir, cell)) for cell in arr.cells]

    groups = _memo(ctx, ("tangent-normals",), build)
    table: dict = {}
    reports = [_kernel_report(ctx, groups, table)]
    cones, achievable = _sources(ctx, groups, table)
    reports.append(_lambda_condition(ctx, cones, n_dir, mode, targets, achievable))
    return _assemble_theorem_verdict("thm-tangent-normals", reports)


# ---------------------------------------------------------------------------
# theorem checker on the second-order tangent system (second refinement)


def check_thm_polyhedral_II(
    sys: ConstraintSystem,
    u: Vec,
    mode: str = "asym",
    targets: list[Vec] | None = None,
) -> Verdict:
    """Sufficient conditions via the doubled tangent cone T(u) and shifts w_s.

    The sign coupling <y*, v> >= 0 reduces to the linear curvature row
    <h, y*> >= 0: any y* normal to the doubled tangent union at w is
    orthogonal to w, and with y* in ker J^T the pairing <y*, v> equals
    <y*, h/2>-scaled curvature, so the reduction is exact.
    """
    ctx, n_dir = _directional(sys, u)
    if n_dir.is_empty:
        return _vacuous_verdict("thm-doubled-tangent")
    arr_t = arrangement(tangent_cone_of_union(tangent_cone(sys.d, ctx.gx), ctx.ju))
    table: dict = {}

    def groups(extra: Mat, shifted: bool):
        """The cells of N(sigma) over the cells sigma of T(u); with ``shifted``,
        only the sigma that some shift w_s(u, 0) = J s + h/2 reaches.  The
        context's memo keeps the cells of each sigma."""
        for sigma in arr_t.cells:
            shift = (arr_t.hyperplanes, sigma) if shifted else None
            if shifted and not _feasible(_shift_system(ctx, shift), table):
                continue
            key = ("doubled-tangent", sigma.signs, shifted)
            yield from _memo(ctx, key, lambda: sigma_groups(sigma, shift, extra))

    def sigma_groups(sigma: Cell, shift, extra: Mat) -> list:
        n_sigma = limiting_normal_cone_of_union(arr_t.union, sigma.witness)
        arr_n = arrangement(n_sigma, extra=extra)
        return [(shift, arr_n.hyperplanes, rho, cell_tangent_pieces(n_sigma, rho)) for rho in arr_n.cells]

    reports = [_kernel_report(ctx, groups(ctx.ker_rows, True), table)]
    # lambda hypothesis over the full (s, v) range: v absorbs the shift, so
    # every arrangement cell of T(u) is reachable and y* only keeps the
    # curvature sign row, in int form as it keys the context's memo
    neg_h = _exact_row(-x for x in ctx.h)
    cones, achievable = _sources(ctx, groups(ctx.ker_rows + (vec(ctx.h),), False), table, (neg_h,))
    reports.append(_lambda_condition(ctx, cones, n_dir, mode, targets, achievable))
    return _assemble_theorem_verdict("thm-doubled-tangent", reports)


# ---------------------------------------------------------------------------
# theorem checker on the normal-cone-graph system (general form)


def check_thm_nonpolyhedral(
    sys: ConstraintSystem,
    u: Vec,
    mode: str = "asym",
    targets: list[Vec] | None = None,
) -> Verdict:
    """Sufficient conditions via the graphical (sub)derivative of N_D.

    Decidable here for polyhedral-union D; the graph of the normal-cone map
    is modeled cell-wise, and the graphical derivative and subderivative
    sections become per-cell polyhedral constraints.
    """
    ctx, n_dir = _directional(sys, u)
    m = sys.m
    name = "thm-normal-graph"
    if n_dir.is_empty:
        return _vacuous_verdict(name)

    def groups(v: Vec | None) -> list:
        """Each cell with the graph section at its witness (in direction v);
        the context's memo keeps them."""

        def build() -> list:
            model = normal_graph(sys.d, ctx.gx)
            dual_hyper = tuple(h for _, nc in model.cells for h in hyperplanes_of(ConeUnion.make([nc], m)))
            arr = arrangement(n_dir, extra=dual_hyper + ctx.ker_rows)
            return [(None, arr.hyperplanes, rho, model.section(rho.witness, v)) for rho in arr.cells]

        return _memo(ctx, ("normal-graph", v), build)

    # condition "derivative-at-zero" (Ia) and "subderivative" (Ib): no nonzero
    # zhat in ker J^T in the graph section; the two sections of a cell share
    # pieces, whose systems the table solves once
    table: dict = {}

    def zhat_condition(cell_groups: list, cname: str) -> ConditionReport:
        for _, hyper, rho, tp in _cell_pieces(ctx, cell_groups):
            sol = _solve_nonzero(_cell_system(ctx, hyper, rho, tp, z_rows=ctx.ker_rows), m, m, table)
            if sol is not None:
                witness = {"ystar": sol[:m], "zhat": sol[m:]}
                detail = "nonzero kernel element in the graph section"
                return ConditionReport(cname, "fails", detail, witness)
        return ConditionReport(cname, "holds")

    ju_groups = groups(ctx.ju)
    reports = [_kernel_report(ctx, ju_groups, table)]
    rep_ia = zhat_condition(groups(None), "derivative-at-zero")
    rep_ib = (
        zhat_condition(ju_groups, "subderivative")
        if not is_zero(ctx.ju)
        else ConditionReport("subderivative", "skipped", "grad g(xbar) u = 0; zero-direction branch uses derivative-at-zero")
    )
    reports += [rep_ia, rep_ib]
    cones, achievable = _sources(ctx, ju_groups, table)
    reports.append(_lambda_condition(ctx, cones, n_dir, mode, targets, achievable))
    # the kernel system and lambda hypothesis plus one of the two section conditions
    section = rep_ia if rep_ia.status == "holds" else rep_ib
    holds = all(r.status == "holds" for r in (reports[0], section, reports[-1]))
    return _assemble_theorem_verdict(name, reports, holds, section_condition=section.name)


# ---------------------------------------------------------------------------
# M-stationarity


def mstationarity(sys: ConstraintSystem, phi: Poly) -> Verdict:
    """Multiplier certificate search over the pieces of N_D(g(xbar))."""
    ctx = _context(sys)
    grad = phi.gradient(sys.xbar)
    target = tuple(-x for x in grad)
    n_lim = limiting_normal_cone(sys.d, ctx.gx)
    lam, i, farkas = _piecewise_point(multiplier_systems(n_lim, ctx.jac, target))
    if lam is not None:
        residual = add(grad, mat_t_vec(ctx.jac, lam))
        cert = {"kind": "multiplier", "lam": lam, "piece": i, "residual": residual}
        return Verdict("mstationarity", HOLDS, cert)
    return Verdict(
        "mstationarity",
        FAILS,
        {"kind": "farkas_chain", "target": target, "pieces": farkas},
    )


# ---------------------------------------------------------------------------
# directional pseudo-/quasi-normality (three-valued, oracle-assisted)


def _candidate_rays(u: ConeUnion) -> list[Vec]:
    out: dict[Vec, None] = {}
    for p in u.pieces:
        rays, lin = generators(p)
        for r in rays:
            out.setdefault(canon_ray(r), None)
        for l in lin:
            out.setdefault(canon_ray(l), None)
            out.setdefault(canon_ray(neg(l)), None)
    return list(out)


def _validate_basis(basis, m: int):
    if basis is None:
        return None
    basis = tuple(vec(b) for b in basis)
    if not is_orthogonal_basis(basis, m):
        raise ValueError("basis must be pairwise orthogonal nonzero rational vectors")
    return basis


def _candidate_verdict(name: str, candidates: list[Vec], search, detail: str, **cert_extra) -> Verdict:
    """The oracle verdict on the nonzero kernel candidates.

    FAILS on the first candidate whose ``search`` returns a converged witness
    sequence; HOLDS by oracle exhaustion, with the contradiction traces
    (and ``cert_extra``), when every candidate is eliminated; else UNDECIDED
    with the survivors, reported under ``detail``.
    """
    from dircq import oracle

    traces = []
    survivors = []
    for cand in candidates:
        res = search(cand)
        if isinstance(res, oracle.WitnessSequence) and res.converged:
            return Verdict(name, FAILS, {"kind": "witness_sequence", "candidate": cand, "sequence": res})
        if isinstance(res, oracle.EliminationTrace) and res.eliminated:
            traces.append(res)
        else:
            survivors.append(cand)
    if not survivors:
        return Verdict(
            name,
            HOLDS,
            {"kind": "elimination_traces", "traces": tuple(traces), **cert_extra},
            qualifier="oracle-exhaustion",
        )
    report = ConditionReport("kernel-candidates", "fails", detail, {"candidates": tuple(survivors)})
    return Verdict(name, UNDECIDED, None, conditions=(report,), qualifier="surviving-candidates")


def pseudo_quasi_verdict(
    sys: ConstraintSystem,
    u: Vec,
    basis=None,
    mode: str = "pseudo",
) -> Verdict:
    """Directional pseudo-/quasi-normality of the constraint map at (xbar, 0).

    HOLDS when the kernel candidate set is trivial (the first-order condition
    then subsumes normality); FAILS carries a replayable sequence witness;
    surviving candidates are reported as UNDECIDED, never as HOLDS (the
    constraint search finds witnesses and never eliminates a candidate).
    """
    from dircq import oracle

    ctx, n_dir = _directional(sys, u)
    basis = _validate_basis(basis, sys.m)
    name = f"{mode}-normality"
    if n_dir.is_empty:
        return _not_tangent(name)
    kernel = ConeUnion.make(_kernel_pieces(ctx, n_dir), sys.m)
    candidates = _candidate_rays(kernel)
    if not candidates:
        return Verdict(name, HOLDS, {"kind": "trivial_kernel", "pieces_checked": len(kernel.pieces)})

    def search(cand: Vec):
        return oracle.search_normality_violation(sys, vec(u), cand, basis=basis, mode=mode)

    return _candidate_verdict(name, candidates, search, "nonzero candidates survived the search")


def mpec_pseudo_quasi_verdict(
    mp,
    u: Vec,
    basis=None,
    mode: str = "pseudo",
) -> Verdict:
    """Pseudo-/quasi-normality for the equilibrium-constraint assembly.

    The kernel candidates pair coderivative directions of the solution map
    with outward normals of the feasible region; candidates are then either
    realized by a sequence witness (FAILS) or eliminated by the exact
    alignment bounds collapsing to zero (HOLDS by oracle exhaustion, with the
    contradiction trace attached).  A step with no admissible graph point
    contributes bound 0, so a candidate whose steps all have none is
    eliminated without a single alignment LP.
    """
    from dircq import oracle

    if is_zero(u):
        raise ValueError("direction u must be nonzero")
    name = f"{mode}-normality"
    basis = _validate_basis(basis, mp.n1)
    cands_union, exact = oracle.mpec_normality_candidates(mp, vec(u))
    if cands_union.is_empty or cands_union.is_trivial():
        return Verdict(name, HOLDS, {"kind": "trivial_kernel", "exact_candidates": exact})

    def search(cand: Vec):
        return oracle.search_mpec_normality(mp, vec(u), cand, mode=mode, basis=basis)

    return _candidate_verdict(
        name,
        _candidate_rays(cands_union),
        search,
        "candidates survived both search and elimination",
        exact_candidates=exact,
    )


# ---------------------------------------------------------------------------
# graph-described maps (graphset blocks and patch maps)


def graph_foscms(
    graph: PolyUnion,
    base: Vec,
    u: Vec,
    nx: int,
    ny: int,
) -> Verdict:
    """First-order condition for a graph-described map in direction u.

    The kernel is the set of ystar with (0, -ystar) in the directional
    limiting normal cone of the graph at (base; (u, 0)).
    """
    if is_zero(u):
        raise ValueError("direction u must be nonzero")
    gdir = vec(tuple(u) + tuple(Fraction(0) for _ in range(ny)))
    n_dir = directional_limiting_normal_cone(graph, base, gdir)
    if n_dir.is_empty:
        return _not_tangent("foscms", cone="graph-directional")
    # the preimage of each piece under y* -> (0, -y*)
    kernel = ConeUnion.make([preimage_cone(p, lambda r: neg(r[nx:]), ny) for p in n_dir.pieces], ny)
    return _kernel_verdict("foscms", kernel.pieces, {"cone": "graph-directional"})


def graph_multiplier_systems(n_union: ConeUnion, grad: Vec, nx: int):
    """The system {lambda : (-grad, -lambda) in the piece} of each piece of a
    graph normal union in R^{nx+ny}, as (a, b, e, d, ny); the decider and
    ``verify`` pose the same ones."""

    def rows(piece_rows: IntMat) -> tuple[Mat, Vec]:
        return tuple(neg(r[nx:]) for r in piece_rows), vec(dot(r[:nx], grad) for r in piece_rows)

    for p in n_union.pieces:
        yield (*rows(p.ia), *rows(p.ie), n_union.dim - nx)


def patch_mstationarity(m, phi: Poly, xbar: Vec, ybar: Vec) -> Verdict:
    """M-stationarity through the certified graph-normal bounds of a patch map.

    A multiplier found inside the certified lower bound is sound; failure is
    claimed only when even the upper bound excludes every multiplier.
    """
    base = vec(tuple(xbar) + tuple(ybar))
    grad = phi.gradient(xbar)
    bounds = patch_limiting_normals(m, base)

    def search(union: ConeUnion):
        return _piecewise_point(graph_multiplier_systems(union, grad, m.nx))

    lam, piece, _ = search(bounds.certain)
    if lam is not None:
        return Verdict(
            "mstationarity",
            HOLDS,
            {"kind": "multiplier_graph", "lam": lam, "piece": piece, "grad": grad,
             "bound": "certified"},
        )
    lam_u, piece_u, farkas = search(bounds.upper)
    if lam_u is None:
        return Verdict(
            "mstationarity",
            FAILS,
            {"kind": "farkas_chain_graph", "grad": grad, "pieces": farkas},
        )
    return Verdict(
        "mstationarity",
        UNDECIDED,
        None,
        conditions=(
            ConditionReport(
                "graph-normal-bounds",
                "fails",
                "multiplier exists only in the unverified upper bound",
                {"lam": lam_u, "piece": piece_u},
            ),
        ),
        qualifier="bounds-not-exact",
    )
