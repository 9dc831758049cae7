"""Set-valued map layer: constraint maps g(x) - D and piecewise graph patches.

A constraint map carries its data (g, D, xbar); its cones come from the
union layer.  Graph patches carry exact regular normal cones at regular
points, and first-order pattern enumeration produces certified sandwich
bounds (certain subset, upper superset) for limiting and directional
limiting normal cones of patch unions; consumers must check the ``exact``
flag before treating the bounds as equalities.  Every cone is computed from
the patches themselves.

Every patch cone passes one regularity gate, ``_gated_gradients``; regular
normal cones, of a point and of an activity pattern, are built only by
``polyhedra.intersect_generated``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from dircq.linalg import Mat, Vec, dot, is_zero, rank, zeros
from dircq.polyhedra import PolyhedralCone, intersect_generated
from dircq.polymaps import Poly, PolyMap, read_point
from dircq.simplex import strict_feasible_point
from dircq.unions import ConeUnion, PolyUnion, cone_union_equal


class InfeasiblePoint(ValueError):
    pass


class PatchRegularityError(ValueError):
    """Raised when exact patch analysis is rejected; use the oracle instead."""


@dataclass(frozen=True)
class ConstraintSystem:
    """Constraint map x |-> g(x) - D with base point xbar and ybar = 0."""

    g: PolyMap
    d: PolyUnion
    xbar: Vec

    def __post_init__(self):
        if self.g.m != self.d.dim:
            raise ValueError("range of g and ambient space of D differ")
        if len(self.xbar) != self.g.n:
            raise ValueError("base point has wrong dimension")

    @property
    def n(self) -> int:
        return self.g.n

    @property
    def m(self) -> int:
        return self.g.m


# ---------------------------------------------------------------------------
# graph patches


@dataclass(frozen=True)
class GraphPatch:
    """One closed piece {p(x, y) = 0, q(x, y) <= 0} of a set-valued graph."""

    eqs: tuple[Poly, ...]
    ineqs: tuple[Poly, ...]
    nx: int
    ny: int

    @property
    def dim(self) -> int:
        return self.nx + self.ny

    def contains(self, w: Vec) -> bool:
        xs, den = read_point(w, self.dim)
        return all(p.int_value(xs, den) == 0 for p in self.eqs) and all(
            q.int_value(xs, den) <= 0 for q in self.ineqs
        )

    def active_ineqs(self, w: Vec) -> tuple[int, ...]:
        xs, den = read_point(w, self.dim)
        return tuple(i for i, q in enumerate(self.ineqs) if q.int_value(xs, den) == 0)

    def gradients(self, w: Vec) -> tuple[Mat, Mat]:
        """(equality gradients, all inequality gradients) at w."""
        xs, den = read_point(w, self.dim)
        return (
            tuple(p.gradient_ints(xs, den) for p in self.eqs),
            tuple(q.gradient_ints(xs, den) for q in self.ineqs),
        )


@dataclass(frozen=True)
class PatchMap:
    """Set-valued map given by a finite union of closed graph patches."""

    patches: tuple[GraphPatch, ...]
    nx: int
    ny: int

    @property
    def dim(self) -> int:
        return self.nx + self.ny

    def patches_at(self, w: Vec) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.patches) if p.contains(w))


def _gated_gradients(m: PatchMap, i: int, w: Vec) -> tuple[Mat, Mat, tuple[int, ...]]:
    """(equality gradients, inequality gradients, active set) of patch i at w.

    Raises PatchRegularityError unless the patch passes the regularity gate:
    the active gradients are linearly independent.
    """
    p = m.patches[i]
    eg, qg = p.gradients(w)
    act = p.active_ineqs(w)
    rows = eg + tuple(qg[j] for j in act)
    if rows and rank(rows) != len(rows):
        raise PatchRegularityError(f"patch {i} fails the regularity gate at {w}; use the oracle")
    return eg, qg, act


def patch_regular_normal_cone(m: PatchMap, w: Vec) -> PolyhedralCone | None:
    """Intersection over active patches of their multiplier cones."""
    idx = m.patches_at(w)
    if not idx:
        return None
    gated = (_gated_gradients(m, i, w) for i in idx)
    return intersect_generated(((tuple(qg[j] for j in act), eg) for eg, qg, act in gated), m.dim)


@dataclass(frozen=True)
class PatternBounds:
    """Sandwich bounds for a limiting normal cone of a patch union."""

    certain: ConeUnion
    upper: ConeUnion
    exact: bool


def patch_limiting_normals(
    m: PatchMap, w: Vec, direction: Vec | None = None
) -> PatternBounds:
    """First-order activity-pattern bounds for (directional) limiting normals.

    A pattern is the subset of active inequalities kept active along the
    approach.  First-order admissibility is necessary, so the union over all
    admissible patterns is an upper bound; a pattern is certified when its
    kept gradients are linearly independent, every dropped active constraint
    decreases strictly to first order, and (at multi-patch points) the
    approach exits every other active patch strictly.  The bounds coincide
    as sets on all shipped fixtures; the ``exact`` flag reports it.
    """
    dim = m.dim
    idx = m.patches_at(w)
    if not idx:
        return PatternBounds(ConeUnion.empty(dim), ConeUnion.empty(dim), True)
    if direction is not None and is_zero(direction):
        direction = None
    certain: list[PolyhedralCone] = []
    upper: list[PolyhedralCone] = []

    # a directional call gates the same patches in the same order below
    if direction is None:
        base_reg = patch_regular_normal_cone(m, w)
        certain.append(base_reg)
        upper.append(base_reg)

    for i in idx:
        eg, qg, act = _gated_gradients(m, i, w)
        others = [m.patches[k] for k in idx if k != i]
        for r in range(len(act) + 1):
            for chosen in combinations(act, r):
                dropped = [j for j in act if j not in chosen]
                ok, certain_flag = _pattern_admissible(
                    eg, qg, chosen, dropped, direction, dim, others, w
                )
                if not ok:
                    continue
                cone = intersect_generated([(tuple(qg[j] for j in chosen), eg)], dim)
                upper.append(cone)
                if certain_flag:
                    certain.append(cone)
    cu, uu = ConeUnion.make(certain, dim), ConeUnion.make(upper, dim)
    return PatternBounds(cu, uu, cone_union_equal(cu, uu))


def _pattern_admissible(
    eg: Mat,
    qg: Mat,
    chosen: tuple[int, ...],
    dropped: list[int],
    direction: Vec | None,
    dim: int,
    others: list[GraphPatch],
    w: Vec,
) -> tuple[bool, bool]:
    """(first-order admissible, certified) for one activity pattern."""
    keep_rows = tuple(eg) + tuple(qg[j] for j in chosen)
    if direction is not None:
        if any(dot(row, direction) != 0 for row in keep_rows):
            return False, False
        if any(dot(qg[j], direction) > 0 for j in dropped):
            return False, False
        strict_drop = all(dot(qg[j], direction) < 0 for j in dropped)
        licq = not keep_rows or rank(keep_rows) == len(keep_rows)
        exits = all(_exits_strictly(o, w, direction) for o in others)
        return True, (strict_drop and licq and exits)
    # existential direction: v != 0 with keep rows = 0, dropped rows <= 0
    eq_rows = keep_rows
    le_rows = tuple(qg[j] for j in dropped)
    cone = PolyhedralCone.make(a=le_rows, e=eq_rows, dim=dim)
    if cone.is_trivial():
        # only v = 0; the pattern contributes at most the base regular cone
        return not dropped and not others, not dropped and not others
    licq = not keep_rows or rank(keep_rows) == len(keep_rows)
    if not dropped and not others:
        return True, licq
    # certified if some v also satisfies all drops and exits strictly
    strict_rows: list[Vec] = [qg[j] for j in dropped]
    v = strict_feasible_point(
        tuple(strict_rows),
        zeros(len(strict_rows)),
        e=eq_rows,
        d=zeros(len(eq_rows)),
        n=dim,
    )
    if v is None:
        return True, False
    exits = all(_exits_strictly(o, w, v) for o in others)
    return True, licq and exits


def _exits_strictly(patch: GraphPatch, w: Vec, v: Vec) -> bool:
    """Direction v leaves the patch at first order from w."""
    if not patch.contains(w):
        return True
    eg, qg = patch.gradients(w)
    for row in eg:
        if dot(row, v) != 0:
            return True
    for j in patch.active_ineqs(w):
        if dot(qg[j], v) > 0:
            return True
    return False


# ---------------------------------------------------------------------------
# constraint maps as patch maps


def _affine_polys(rows: Mat, rhs: Vec, images: list[Poly], dim: int) -> tuple[Poly, ...]:
    """The polynomials sum_k row[k] images[k] - rhs, one per row."""
    out = []
    for row, bi in zip(rows, rhs):
        expr = Poly.constant(-bi, dim)
        for k, coef in enumerate(row):
            if coef:
                expr = expr + images[k].scale(coef)
        out.append(expr)
    return tuple(out)


def constraint_graph_patches(sys: ConstraintSystem) -> PatchMap:
    """gph Phi = {(x, y) : g(x) - y in piece} as polynomial patches."""
    n, mdim = sys.n, sys.m
    dim = n + mdim
    xs = [Poly.variable(i, dim) for i in range(n)]
    images = [sys.g.components[k].substitute_linear(xs) - Poly.variable(n + k, dim) for k in range(mdim)]
    patches = [
        GraphPatch(
            _affine_polys(piece.e, piece.d, images, dim), _affine_polys(piece.a, piece.b, images, dim), n, mdim
        )
        for piece in sys.d.pieces
    ]
    return PatchMap(tuple(patches), n, mdim)
