"""Floating-point sequence oracle for cross-validation and witness search.

The exact layer decides cone identities; this module approaches the same
objects through their defining sequences.  It samples normals along
directional schedules and searches for the sequence witnesses that falsify
asymptotic regularity or the pseudo-/quasi-normality of a constraint
system.  A failed search is always reported as NOT_FOUND and never
interpreted as evidence that a property holds; witnesses are rationalized
and re-verified exactly whenever they lie on rational patches.  The graph
points of a patch with a one-dimensional range are exact:
``_rational_roots`` gives the distinct rational roots of its defining
polynomial in y, at any degree, in ints.

The equilibrium normality search builds no witness: it only eliminates a
kernel candidate, when its exact alignment bound is 0 on each of the last
five steps of its schedule, and otherwise leaves the candidate standing.

A witness sequence carries what a checker reads: records (k, x_k, z_k),
with z_k in the field ``y``, plus (x*_k, lam_k) for asymptotic regularity,
whose sequence also carries x* and its image checks.  The float residuals
that decide convergence stay in the search.

The schedule loops of the normality search and of the directional sampler
run on int numerators over a common denominator: membership, sign
conditions and nearest-point comparisons are int dot products, each float
residual is one correctly rounded int division (the float of the same
Fraction), and Fractions are built only for the records that are kept.

Four bounded caches serve the searches, which revisit the same pieces and
points on every schedule step, every candidate multiplier and every call:
``_piece_hulls`` keeps the face projections of one piece, keyed on the
``HPolyhedron`` (its canonical int rows); ``_normal_candidates`` keeps
the distinct face projections of a point that lie in a union, as int
numerators over a denominator, keyed on the ``PolyUnion`` and the point
(each candidate builds its regular normal cone on first use, so the
sampler, which reads only the nearest, builds only that one);
``_graph_point_cone`` keeps the regular normal cone of a patch map at a
graph point, or None when an active patch fails the regularity gate, keyed
on the ``PatchMap`` and the point; and ``_image_cones`` keeps the x-images
of the pieces of the upper bound of the graph normals, or None on the same
gate, keyed on the ``PatchMap``, the base point and the direction.  Every
search that needs a patch normal cone (asymptotic regularity and the
equilibrium normality search) reads it there.  All four hold exact data
derived from their key alone.  ``report.verify_report`` checks witnesses
without reading any of them.

``_normal_candidates`` is the one projection onto a union: the normality
searches read every candidate, and the directional sampler its nearest.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, sqrt
from operator import mul
from typing import Sequence

from dircq.linalg import (
    Vec,
    add,
    canon_ray,
    dot,
    int_row,
    is_zero,
    mat_vec,
    neg,
    rref,
    scale,
    sub,
    unit,
    vec,
    zeros,
)
from dircq.polyhedra import (
    DimensionMismatch,
    HPolyhedron,
    IntMat,
    IntVec,
    PolyhedralCone,
    generators,
    image_cone,
    polyhedron_faces,
    preimage_cone,
)
from dircq.setmaps import (
    ConstraintSystem,
    GraphPatch,
    PatchMap,
    PatchRegularityError,
    patch_limiting_normals,
    patch_regular_normal_cone,
)
from dircq.simplex import solve_lp
from dircq.unions import ConeUnion, PolyUnion, directional_limiting_normal_cone, regular_normal_cone

NOT_FOUND = "NOT_FOUND"

# Pieces whose face projections ``_piece_hulls`` keeps: a pass of the
# sequence workload meets 28 distinct pieces.
FACE_CACHE_SIZE = 128
# (union, point) pairs whose normal candidates ``_normal_candidates`` keeps:
# one per schedule step of a search or of the sampler; the same pass asks
# for 145 of them.
CANDIDATE_CACHE_SIZE = 1024
# (patch map, graph point) pairs whose regular normal cone
# ``_graph_point_cone`` keeps: a pass of the sequence workload meets 86
# distinct graph points.
GRAPH_POINT_CACHE_SIZE = 512
# (patch map, base point, direction) triples whose image cones
# ``_image_cones`` keeps: a pass of the sequence workload makes 8 image
# checks at 4 distinct triples.
IMAGE_CACHE_SIZE = 64

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Schedule:
    """Deterministic decreasing scales t_k."""

    kind: str = "geometric"  # t_k = 2^-k; "harmonic" gives 1/k
    k_max: int = 60

    def steps(self) -> range:
        return range(1, self.k_max + 1)

    def t(self, k: int) -> Fraction:
        if self.kind == "harmonic":
            return Fraction(1, k)
        return Fraction(1, 2**k)


@dataclass(frozen=True)
class WitnessRecord:
    k: int
    x: Vec
    y: Vec


@dataclass(frozen=True)
class AsymWitnessRecord(WitnessRecord):
    xstar: Vec
    lam: Vec


@dataclass(frozen=True)
class WitnessSequence:
    kind: str
    records: tuple[WitnessRecord, ...]
    converged: bool = False


@dataclass(frozen=True)
class AsymWitnessSequence(WitnessSequence):
    limit_xstar: Vec | None = None
    outside_image: bool | None = None
    outside_directional_image: bool | None = None


@dataclass(frozen=True)
class EliminationTrace:
    """Per-step upper bounds forcing the candidate multiplier to zero."""

    candidate: Vec
    rows: tuple[dict, ...]
    eliminated: bool
    reason: str = ""


def _norm(v: Vec) -> float:
    return sqrt(sum(float(c) * float(c) for c in v))


# ---------------------------------------------------------------------------
# exact projections used by the deterministic searches


@dataclass(frozen=True)
class _FaceHull:
    """Projection onto the affine hull of one face of ``piece``.

    The projection of p is (P p + c) / den with P and c integral, so a point
    q / dq with q integral projects to (P q + dq c) / (dq den) in integers.
    """

    piece: HPolyhedron
    mat: IntMat  # P
    shift: IntVec  # c
    den: int

    def project_ints(self, q: list[int], dq: int) -> IntVec:
        """Numerators of the projection of q / dq, over dq * den."""
        return tuple(sum(map(mul, row, q)) + dq * c for row, c in zip(self.mat, self.shift))


def _face_hull(piece: HPolyhedron, active: tuple[int, ...]) -> _FaceHull:
    """The hull {x : R x = s} of the face where ``active`` is tight.

    R is reduced by rref, so its Gram matrix G is invertible; the projection
    is x - R^T G^-1 (R x - s), that is P = I - R^T G^-1 R and c = R^T G^-1 s.
    """
    n = piece.dim
    # a face has a relint point, so no reduced row reads 0 = s != 0
    red, _ = rref(piece.ied + tuple(piece.iab[i] for i in active))
    rows, rhs = tuple(r[:-1] for r in red), tuple(r[-1] for r in red)
    k = len(rows)
    # rref of [G | I] is [I | G^-1]
    gram_id = tuple(tuple(dot(a, b) for b in rows) + unit(k, i) for i, a in enumerate(rows))
    gram_inv = tuple(r[k:] for r in rref(gram_id)[0])
    cols = [tuple(r[i] for r in rows) for i in range(n)]
    # G^-1 is symmetric, so row i of R^T G^-1 is G^-1 applied to column i of R
    rt_ginv = tuple(mat_vec(gram_inv, col) for col in cols)
    entries = [int(i == j) - dot(w, cols[j]) for i, w in enumerate(rt_ginv) for j in range(n)]
    ints, den = int_row(entries + [dot(w, rhs) for w in rt_ginv])
    return _FaceHull(piece, tuple(tuple(ints[i * n : (i + 1) * n]) for i in range(n)), tuple(ints[n * n :]), den)


@lru_cache(maxsize=FACE_CACHE_SIZE)
def _piece_hulls(piece: HPolyhedron) -> tuple[_FaceHull, ...]:
    """One hull per nonempty face of the piece, in face order.

    Cached on the piece (its canonical int rows), FACE_CACHE_SIZE entries.
    """
    return tuple(_face_hull(piece, active) for active, _ in polyhedron_faces(piece))


def _face_hulls(pieces) -> tuple[_FaceHull, ...]:
    """One hull per nonempty face, in piece order and then face order."""
    return tuple(hull for piece in pieces for hull in _piece_hulls(piece))


class _Candidate:
    """A point z = zs / den of the union d (zs and den coprime, den > 0),
    with the regular normal cone of d at z, built on first use."""

    __slots__ = ("d", "zs", "den", "_cone")

    def __init__(self, d: PolyUnion, zs: IntVec, den: int):
        self.d = d
        self.zs = zs
        self.den = den
        self._cone: PolyhedralCone | None = None

    @property
    def point(self) -> Vec:
        return tuple(Fraction(c, self.den) for c in self.zs)

    def cone(self) -> PolyhedralCone:
        if self._cone is None:
            self._cone = regular_normal_cone(self.d, self.point)
        return self._cone


@lru_cache(maxsize=CANDIDATE_CACHE_SIZE)
def _normal_candidates(d: PolyUnion, p: Vec) -> tuple[_Candidate, ...]:
    """The distinct face projections of p that lie in d, in hull order.

    Cached on (d, p), CANDIDATE_CACHE_SIZE entries: every candidate
    multiplier and both normality modes search the same points, and the
    directional sampler the same schedule points on every call.
    """
    q, dq = int_row(p)
    out: dict[tuple[IntVec, int], _Candidate] = {}
    for hull in _face_hulls(d.pieces):
        zs = hull.project_ints(q, dq)
        den = dq * hull.den
        if any(piece.holds(zs, den) for piece in d.pieces):
            g = gcd(den, *zs)
            key = (tuple(c // g for c in zs), den // g)
            if key not in out:
                out[key] = _Candidate(d, *key)
    return tuple(out.values())


# ---------------------------------------------------------------------------
# directional normal sampling


@dataclass(frozen=True)
class NormalSample:
    k: int
    point: Vec
    rays: tuple[Vec, ...]
    lineality: tuple[Vec, ...]


@dataclass(frozen=True)
class SampleResult:
    samples: tuple[NormalSample, ...]
    fitted_rays: tuple[Vec, ...]
    fitted_lineality: tuple[Vec, ...]


def fitted_normals(samples: Sequence[NormalSample]) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """(rays, lineality) of the cone fitted to a run of normal samples.

    The fit keeps the generator directions that persist along the tail, the
    samples with k >= (last k) - 5: each ray (as ``canon_ray``) and each
    lineality vector that at least two tail samples list.  It reads the
    samples alone, so ``report.verify_report`` re-fits a sample row with it.
    """
    tail = [s for s in samples if s.k >= samples[-1].k - 5] if samples else []
    rays = Counter(canon_ray(r) for s in tail for r in s.rays)
    lin = Counter(l for s in tail for l in s.lineality)
    return (
        tuple(sorted(r for r, c in rays.items() if c >= 2)),
        tuple(sorted(l for l, c in lin.items() if c >= 2)),
    )


def sample_directional_normals(
    d: PolyUnion, base: Vec, direction: Vec, schedule: Schedule
) -> SampleResult:
    """Regular normals at exact projections of base + t_k * direction.

    Each step takes the nearest of the point's ``_normal_candidates``, the
    first in hull order on a tie, and builds the regular normal cone of that
    one alone.  The projection and the normal generators are exact; the
    fitted cone is the set of generator directions that persist along the
    tail of the samples (``fitted_normals``).
    """
    samples = []
    ks = list(schedule.steps())[: min(schedule.k_max, 25)]
    for k in ks:
        pt = add(base, scale(schedule.t(k), direction))
        p, dp = int_row(pt)
        # |z - pt|^2 = num / den^2 over the common factor dp^2; a strict < of
        # the cross products keeps the first nearest candidate
        best, best_num, best_den = None, 0, 1
        for cand in _normal_candidates(d, pt):
            zs, dz = cand.zs, cand.den
            num = sum((a * dp - b * dz) ** 2 for a, b in zip(zs, p))
            den = dz * dz
            if best is None or num * best_den < best_num * den:
                best, best_num, best_den = cand, num, den
        if best is None:
            continue
        rays, lin = generators(best.cone())
        samples.append(NormalSample(k, best.point, rays, lin))
    return SampleResult(tuple(samples), *fitted_normals(samples))


# ---------------------------------------------------------------------------
# graph-point solving on patches (one-dimensional range: the rational roots
# of the defining polynomial in y, exact at every degree)


def _int_value(p: list[int], z: int) -> int:
    """p(z) for the int coefficients p by ascending power."""
    return reduce(lambda v, c: v * z + c, reversed(p), 0)


def _root_floors(p: list[int]) -> set[int]:
    """Integers holding floor(r) for each real root r of the int polynomial p
    (coefficients by ascending power), and perhaps others: p is monotone
    between the real roots of p', bracketed alike, so one integer bisection
    finds its root on each such interval; the Cauchy bound caps the ends."""
    if len(p) == 1:
        return set()
    crit = _root_floors([i * c for i, c in enumerate(p)][1:])
    bound = 1 - (-max(map(abs, p[:-1])) // abs(p[-1]))
    ends = sorted({-bound, bound}.union(z for k in crit for z in (k, k + 1) if -bound < z < bound))
    floors = set(crit)
    for a, b in zip(ends, ends[1:]):
        fa, fb = _int_value(p, a), _int_value(p, b)
        while fa * fb < 0 and b - a > 1:
            m = (a + b) // 2
            fm = _int_value(p, m)
            a, b, fb = (m, b, fb) if fm * fa > 0 else (a, m, fm)
        if fa * fb < 0 or fb == 0:
            floors.add(b if fb == 0 else a)
    return floors


def _rational_roots(coeffs: dict[int, int]) -> list[Fraction]:
    """The distinct rational roots, ascending, of the polynomial in y with
    these nonzero int coefficients by power.  Past the zero roots, z = c y
    (c the leading coefficient) makes c^(d-1) p(z / c) a monic int
    polynomial, whose rational roots are integers: floors of its real roots."""
    deg = max(coeffs, default=0)
    if deg == 0:
        return []
    if deg == 1:
        return [Fraction(-coeffs.get(0, 0), coeffs[1])]
    low = min(coeffs)
    a = [coeffs.get(e, 0) for e in range(low, deg + 1)]
    c, d = a[-1], deg - low
    monic = [ai * c ** (d - 1 - i) for i, ai in enumerate(a[:-1])] + [1]
    roots = [Fraction(z, c) for z in _root_floors(monic) if _int_value(monic, z) == 0]
    return sorted(roots + [Fraction(0)] * (low > 0))


def _patch_graph_points(patch: GraphPatch, x: Vec) -> list[Vec]:
    """Graph points (x, y) on the patch: equality solutions and boundary arcs.

    The arcs are the equalities that still involve y at this x; when none
    does (x already satisfies them or misses them), the inequality
    boundaries are the arcs, and every equality is checked on each point.
    """
    if patch.ny != 1:
        return []
    eq_arcs = [cs for cs in (p.y_coeffs(x) for p in patch.eqs) if max(cs, default=0) > 0]
    arcs = eq_arcs or [q.y_coeffs(x) for q in patch.ineqs]
    pts: list[Vec] = []
    for arc in arcs:
        for y0 in _rational_roots(arc):
            w = vec(tuple(x) + (y0,))
            if patch.contains(w):
                pts.append(w)
    return pts


def graph_points_near(m: PatchMap, x: Vec) -> list[Vec]:
    """Distinct graph points over x on every patch, in patch order."""
    return list(dict.fromkeys(w for patch in m.patches for w in _patch_graph_points(patch, x)))


@lru_cache(maxsize=GRAPH_POINT_CACHE_SIZE)
def _graph_point_cone(m: PatchMap, w: Vec) -> PolyhedralCone | None:
    """The regular normal cone of m at the graph point w, or None when an
    active patch fails the regularity gate.

    Cached on (m, w), GRAPH_POINT_CACHE_SIZE entries: every schedule step
    and every call of a search solves the same graph points.  A caller that
    skips a point on None logs the skip itself, so it shows on every call.
    """
    try:
        return patch_regular_normal_cone(m, w)
    except PatchRegularityError:
        return None


@lru_cache(maxsize=IMAGE_CACHE_SIZE)
def _image_cones(m: PatchMap, base: Vec, gdir: Vec | None) -> tuple[PolyhedralCone, ...] | None:
    """The x-parts of the pieces of the upper bound of the graph normals of
    m at base (in the graph direction gdir), or None when an active patch
    fails the regularity gate.

    Cached on (m, base, gdir), IMAGE_CACHE_SIZE entries: every converged
    asymptotic-regularity search checks its limit at the same base point.
    A caller that gets None logs it itself, so it shows on every call.
    """
    try:
        upper = patch_limiting_normals(m, base, gdir).upper
    except PatchRegularityError:
        return None
    return tuple(image_cone(c, lambda v: v[: m.nx], m.nx) for c in upper.pieces)


def _outside_image(m: PatchMap, base: Vec, xstar: Vec, gdir: Vec | None = None) -> bool | None:
    """Whether x* lies outside Im D*m at base (in the graph direction gdir),
    or None when the exact analysis is rejected: the image, the x-part of the
    graph normals, lies in the x-parts of the pieces of their upper bound."""
    cones = _image_cones(m, base, gdir)
    if cones is None:
        _log.debug("no image check at %s in direction %s: an active patch fails the regularity gate", base, gdir)
        return None
    return not any(c.contains(xstar) for c in cones)


# ---------------------------------------------------------------------------
# asymptotic-regularity violation search


def search_asym_reg_violation(
    m: PatchMap,
    xbar: Vec,
    ybar: Vec,
    u: Vec,
    schedule: Schedule | None = None,
) -> AsymWitnessSequence | str:
    """Sequences along direction u whose coderivative outputs escape the image.

    Deterministic: graph points are solved on the schedule x_k = xbar + t_k u,
    the multiplier scale is normalized so the primal output has unit largest
    entry, and the candidate is admitted only if every sequence residual
    decreases over the tail while the multipliers grow.  The limit x* is
    then checked against the coderivative image at the base point, plain and
    in the graph direction (u, 0), through the exact upper bound of the
    graph normals: x* outside that bound is outside the image
    (``_outside_image``).

    x_k need not lie in the preimage of ybar: maps whose preimage is
    everything still carry the classical blow-up witnesses.
    """
    schedule = schedule or Schedule()
    nx, ny = m.nx, m.ny
    records: list[AsymWitnessRecord] = []
    residuals: list[dict] = []
    for k in schedule.steps():
        t = schedule.t(k)
        x = add(xbar, scale(t, u))
        best: tuple | None = None
        for w in graph_points_near(m, x):
            y = w[nx:]
            if y == ybar:
                continue
            ncone = _graph_point_cone(m, w)
            if ncone is None:
                _log.debug("skipping graph point %s: an active patch fails the regularity gate", w)
                continue
            rays, lin = generators(ncone)
            for gen in rays + lin + tuple(neg(l) for l in lin):
                gx, gy = gen[:nx], gen[nx:]
                if is_zero(gx) or is_zero(gy):
                    continue
                s = _inv_norm(gx)
                xstar = scale(s, gx)
                lam = scale(-s, gy)
                res = _asym_residuals(x, y, xstar, lam, xbar, ybar, u)
                if res is None:
                    continue
                score = max(res.values())
                if best is None or score < best[0]:
                    best = (score, w, xstar, lam, res)
        if best is not None:
            _, w, xstar, lam, res = best
            records.append(AsymWitnessRecord(k, x, w[nx:], xstar, lam))
            residuals.append(res)
    if not _residuals_settle(residuals):
        return NOT_FOUND
    tail = records[-5:]
    lam_norms = [_norm(r.lam) for r in tail]
    if any(b <= a for a, b in zip(lam_norms, lam_norms[1:])):
        return NOT_FOUND
    xstar = records[-1].xstar
    # exact image checks at the base point (plain and in graph direction (u, 0))
    base = vec(tuple(xbar) + tuple(ybar))
    gdir = vec(tuple(u) + tuple(Fraction(0) for _ in range(ny)))
    return AsymWitnessSequence(
        kind="asymptotic-regularity-violation",
        records=tuple(records),
        converged=True,
        limit_xstar=xstar,
        outside_image=_outside_image(m, base, xstar),
        outside_directional_image=_outside_image(m, base, xstar, gdir),
    )


def _residuals_settle(residuals: list[dict]) -> bool:
    """At least 6 steps, and no residual grows over the last 5."""
    if len(residuals) < 6:
        return False
    tail = residuals[-5:]
    for key in tail[0]:
        vals = [float(r[key]) for r in tail]
        if any(b > a * 1.0000001 + 1e-14 for a, b in zip(vals, vals[1:])):
            return False
    return True


def _inv_norm(v: Vec) -> Fraction:
    """1 / (largest |entry|) of v != 0, exactly."""
    return Fraction(1, max(map(abs, v)))


def _asym_residuals(x, y, xstar, lam, xbar, ybar, u) -> dict | None:
    dx = [float(c) for c in sub(x, xbar)]
    dy = [float(c) for c in sub(y, ybar)]
    ndx = sqrt(sum(c * c for c in dx))
    ndy = sqrt(sum(c * c for c in dy))
    nlam = _norm(lam)
    if ndx == 0 or ndy == 0 or nlam == 0:
        return None
    dir_res = sqrt(sum((c / ndx - float(ui)) ** 2 for c, ui in zip(dx, u)))
    align = sqrt(
        sum((a / ndy - float(b) / nlam) ** 2 for a, b in zip(dy, lam))
    )
    return {
        "x_to_base": ndx,
        "y_to_base": ndy,
        "primal_direction": dir_res,
        "range_ratio": ndy / ndx,
        "multiplier_alignment": align,
    }


# ---------------------------------------------------------------------------
# pseudo-/quasi-normality violation search for constraint systems


def search_normality_violation(
    sys: ConstraintSystem,
    u: Vec,
    lam: Vec,
    basis: tuple[Vec, ...] | None = None,
    schedule: Schedule | None = None,
    mode: str = "pseudo",
) -> WitnessSequence | str:
    """Sequence witness for the failure of directional pseudo-/quasi-normality.

    Candidate points z_k are the distinct exact face projections of g(x_k)
    that lie in D (``_normal_candidates``; a repeated projection scores the
    same, so the first best is kept); the candidate multiplier is kept
    constant, so membership and the sign conditions verify exactly on replay.

    The residuals are x_to_base = |x_k - xbar|, z_to_image_point =
    |z_k - g(xbar)| and z_direction = |(z_k - g(xbar)) / |x_k - xbar| -
    g'(xbar) u|, in floats; the score of a candidate is their max.
    """
    if len(lam) != sys.d.dim:
        raise DimensionMismatch("multiplier has wrong dimension")
    schedule = schedule or Schedule()
    xbar = sys.xbar
    gbar, gden = int_row(sys.g.eval(xbar))
    ju = [float(dot(row, u)) for row in sys.g.jacobian(xbar)]
    lam_ints = int_row(lam)[0]
    signs = _sign_rows(lam, basis, mode)
    records: list[WitnessRecord] = []
    residuals: list[dict] = []
    for k in schedule.steps():
        x = add(xbar, scale(schedule.t(k), u))
        gx = sys.g.eval(x)
        q, dq = int_row(gx)
        ndx = _norm(sub(x, xbar))
        best = None
        for cand in _normal_candidates(sys.d, gx):
            if not cand.cone()._holds(lam_ints):
                continue
            zs, den = cand.zs, cand.den
            # g(x_k) - z_k, over dq * den
            if not _signs_hold(signs, [a * den - b * dq for a, b in zip(q, zs)]):
                continue
            # z_k - g(xbar), each entry the float of its Fraction
            zden = den * gden
            dz = [(a * gden - b * den) / zden for a, b in zip(zs, gbar)]
            ndz = sqrt(sum(c * c for c in dz))
            slope = [c / ndx - j for c, j in zip(dz, ju)]
            ndir = sqrt(sum(c * c for c in slope))
            score = max(ndx, ndz, ndir)
            if best is None or score < best[0]:
                best = (score, cand, ndz, ndir)
        if best is not None:
            _, cand, ndz, ndir = best
            records.append(WitnessRecord(k, x, cand.point))
            residuals.append({"x_to_base": ndx, "z_to_image_point": ndz, "z_direction": ndir})
    if not _residuals_settle(residuals):
        return NOT_FOUND
    return WitnessSequence(f"{mode}-normality-violation", tuple(records), converged=True)


def _sign_rows(lam: Vec, basis, mode: str) -> list[tuple[list[int], int]]:
    """(row e as ints, sign s) pairs such that a gap meets the sign
    conditions of the mode iff s <e, gap> > 0 for every pair.

    Pseudo: <lam, gap> > 0.  Quasi: <lam, e> <gap, e> > 0 for every basis
    vector e (the unit vectors when basis is None) with <lam, e> != 0.  A
    positive scaling of e or of the gap keeps every sign, so the gap may be
    given by its int numerators.
    """
    if mode == "pseudo":
        return [(int_row(lam)[0], 1)]
    if basis is None:
        basis = tuple(unit(len(lam), i) for i in range(len(lam)))
    return [(int_row(e)[0], 1 if le > 0 else -1) for e in basis if (le := dot(lam, e)) != 0]


def _signs_hold(signs: list[tuple[list[int], int]], gap: list[int]) -> bool:
    return all(s * sum(map(mul, e, gap)) > 0 for e, s in signs)


# ---------------------------------------------------------------------------
# equilibrium-constraint route: candidates and normality elimination


@dataclass(frozen=True)
class MpecProblem:
    """min-style feasibility x1 in Omega, x2 in S(x1), base point (x1, x2)."""

    omega: PolyUnion
    s: PatchMap
    xbar: Vec

    @property
    def n1(self) -> int:
        return self.omega.dim

    @property
    def n2(self) -> int:
        return self.s.ny


def mpec_normality_candidates(mp: MpecProblem, u: Vec) -> tuple[ConeUnion, bool]:
    """Upper estimate of the kernel candidates: coderivative directions of S
    paired with outward normals of Omega; (candidates, exact flag)."""
    n1 = mp.n1
    bounds = patch_limiting_normals(mp.s, mp.xbar, vec(u))
    # the preimages of the pieces under w -> (w, 0) and x -> -x
    s_side = ConeUnion.make([preimage_cone(p, lambda r: r[:n1], n1) for p in bounds.upper.pieces], n1)
    u1 = vec(u[:n1])
    omega_dir = directional_limiting_normal_cone(mp.omega, vec(mp.xbar[:n1]), u1)
    omega_side = ConeUnion.make([preimage_cone(p, neg, n1) for p in omega_dir.pieces], n1)
    if s_side.is_empty or omega_side.is_empty:
        return ConeUnion.empty(n1), bounds.exact
    pieces = []
    for a in s_side.pieces:
        for b in omega_side.pieces:
            pieces.append(a.intersect(b))
    return ConeUnion.make(pieces, n1), bounds.exact


def _eps(k: int) -> Fraction:
    return Fraction(1, 2 ** max(1, (k + 1) // 2))


def search_mpec_normality(
    mp: MpecProblem,
    u: Vec,
    lam: Vec,
    schedule: Schedule | None = None,
    mode: str = "pseudo",
    basis: tuple[Vec, ...] | None = None,
) -> EliminationTrace:
    """Elimination of one kernel candidate of the assembly.

    At each scale the admissible graph points are enumerated (face
    projections on Omega for the first block, patch solutions of S for the
    second), the sign conditions filter them, and one exact LP per point
    maximizes the candidate alignment <lam, lambda> subject to the
    coderivative relation with vanishing slack envelopes.  The candidate is
    eliminated when the step bound, the largest over the step's points, is
    exactly 0 on each of the last five steps; the per-step rows form the
    contradiction trace.  A step with no admissible point (``points`` 0)
    contributes bound 0: it solves no LP and still counts toward the
    elimination.  The search never builds a witness: a candidate that is not
    eliminated survives.
    """
    schedule = schedule or Schedule(k_max=30)
    n1, n2 = mp.n1, mp.n2
    signs = _sign_rows(lam, basis, mode)
    rows = []
    for k in schedule.steps():
        t = schedule.t(k)
        eps = _eps(k)
        x1 = vec(add(mp.xbar, scale(t, u))[:n1])
        bound = Fraction(0)
        npts = 0
        # first-block offsets from the face projections of x1 onto Omega;
        # x1 itself is among them when it lies in Omega (the face with x1 in
        # its relative interior projects it onto itself)
        for cand in _normal_candidates(mp.omega, x1):
            if not _signs_hold(signs, int_row(sub(cand.point, x1))[0]):
                continue
            for patch in mp.s.patches:
                for spt in _patch_graph_points(patch, x1):
                    n_s = _graph_point_cone(mp.s, spt)
                    if n_s is None:
                        _log.debug("skipping graph point %s: an active patch fails the regularity gate", spt)
                        continue
                    bound = max(bound, _mpec_alignment_lp(lam, n_s, cand.cone(), n1, n2, eps))
                    npts += 1
        rows.append({"k": k, "t": t, "eps": eps, "points": npts, "alignment_bound": bound})
    eliminated = bool(rows) and all(r["alignment_bound"] == 0 for r in rows[-5:])
    return EliminationTrace(
        candidate=lam,
        rows=tuple(rows),
        eliminated=eliminated,
        reason="coderivative relation forces the candidate multiplier to 0"
        if eliminated
        else "bounds did not collapse within the schedule",
    )


def _mpec_alignment_lp(
    lam: Vec,
    n_s: PolyhedralCone,
    n_omega: PolyhedralCone,
    n1: int,
    n2: int,
    eps: Fraction,
) -> Fraction:
    """max <lam, l> over (l, mu, eta) with (eta + l, -mu) in N_S,
    -l in N_Omega, |eta|, |mu| <= eps componentwise, |l| capped.  The LP
    always has an optimum: 0 is feasible and every variable is bounded."""
    nvars = n1 + n2 + n1  # l, mu, eta

    def s_row(row: Vec) -> Vec:  # row . (eta + l, -mu)
        return row[:n1] + neg(row[n1:]) + row[:n1]

    def omega_row(row: Vec) -> Vec:  # row . (-l)
        return neg(row) + zeros(n2 + n1)

    a_rows = [s_row(r) for r in n_s.a] + [omega_row(r) for r in n_omega.a]
    e_rows = [s_row(r) for r in n_s.e] + [omega_row(r) for r in n_omega.e]
    b_rhs = [Fraction(0)] * len(a_rows)
    cap = sum(abs(c) for c in lam) + 1
    # |mu|, |eta| <= eps and |l| <= cap, componentwise
    for start, size, lim in ((n1, n2, eps), (n1 + n2, n1, eps), (0, n1, cap)):
        for j in range(start, start + size):
            a_rows += [unit(nvars, j), neg(unit(nvars, j))]
            b_rhs += [lim, lim]
    obj = tuple(lam) + zeros(n2 + n1)
    return solve_lp(vec(obj), tuple(a_rows), vec(b_rhs), tuple(e_rows), zeros(len(e_rows)), n=nvars).objective
