"""Exact polyhedral kernels: H/V conversion, faces, polars, projections.

H-forms are {x : A x <= b, E x = d}; cones are the homogeneous case with
cached generator data.  All comparisons go through canonical integer-coprime
row scaling; dimensions stay at desk scale (n <= 8), so the generator and
face enumerations may be exponential in the number of rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import mul

from dircq.linalg import (
    Mat,
    Vec,
    canon_line,
    canon_ray,
    coprime_ints,
    dot,
    int_row,
    is_zero,
    mat,
    nullspace,
    rank,
    rref,
    unit,
    vec,
    zeros,
)
from dircq.simplex import (
    INFEASIBLE,
    OPTIMAL,
    feasible_point,
    solve_lp,
    strict_feasible_point,
)

# Cones whose V-representation is kept; the cell duals of one analysis share
# about 300 of them, and evicting shared entries makes later calls redo LPs.
GENERATORS_CACHE_SIZE = 512


class DimensionMismatch(ValueError):
    pass


def _canon_rows(rows: Mat, rhs: Vec, line: bool) -> tuple[Mat, Vec]:
    """Scale (row, rhs) pairs to coprime integers and drop duplicates/zeros."""
    seen = set()
    out_rows: list[Vec] = []
    out_rhs: list[Fraction] = []
    for row, r in zip(rows, rhs, strict=True):
        key = coprime_ints(tuple(row) + (r,), line)
        if key in seen or not any(key):
            continue
        seen.add(key)
        cj = vec(key)
        out_rows.append(cj[:-1])
        out_rhs.append(cj[-1])
    return tuple(out_rows), tuple(out_rhs)


@dataclass(frozen=True)
class HPolyhedron:
    """{x in R^dim : a x <= b, e x = d}, possibly empty."""

    a: Mat
    b: Vec
    e: Mat
    d: Vec
    dim: int

    @staticmethod
    def make(a=(), b=(), e=(), d=(), dim: int | None = None) -> "HPolyhedron":
        a, b, e, d = mat(a), vec(b), mat(e), vec(d)
        if dim is None:
            if a:
                dim = len(a[0])
            elif e:
                dim = len(e[0])
            else:
                raise DimensionMismatch("empty system needs explicit dimension")
        for row in itertools.chain(a, e):
            if len(row) != dim:
                raise DimensionMismatch(f"row length {len(row)} != dim {dim}")
        if len(a) != len(b) or len(e) != len(d):
            raise DimensionMismatch("rhs length does not match row count")
        a, b = _canon_rows(a, b, line=False)
        e, d = _canon_rows(e, d, line=True)
        return HPolyhedron(a, b, e, d, dim)

    def contains(self, x: Vec) -> bool:
        if len(x) != self.dim:
            raise DimensionMismatch("point has wrong dimension")
        return all(dot(r, x) <= bi for r, bi in zip(self.a, self.b)) and all(
            dot(r, x) == di for r, di in zip(self.e, self.d)
        )

    def translate(self, y: Vec) -> "HPolyhedron":
        """The set self + y."""
        return HPolyhedron.make(
            self.a,
            tuple(bi + dot(r, y) for r, bi in zip(self.a, self.b)),
            self.e,
            tuple(di + dot(r, y) for r, di in zip(self.e, self.d)),
            dim=self.dim,
        )

    def active_rows(self, x: Vec) -> tuple[int, ...]:
        return tuple(i for i, (r, bi) in enumerate(zip(self.a, self.b)) if dot(r, x) == bi)


def lp_feasibility(p: HPolyhedron):
    """Feasible(witness) or Infeasible(farkas) for an H-polyhedron.

    Returns the raw LPResult; callers use .status/.x/.farkas_*.
    """
    return feasible_point(p.a, p.b, p.e, p.d, n=p.dim)


def is_empty(p: HPolyhedron) -> bool:
    return lp_feasibility(p).status == INFEASIBLE


@dataclass(frozen=True)
class PolyhedralCone:
    """{x : a x <= 0, e x = 0}; always contains 0."""

    a: Mat
    e: Mat
    dim: int

    @staticmethod
    def make(a=(), e=(), dim: int | None = None) -> "PolyhedralCone":
        a, e = mat(a), mat(e)
        if dim is None:
            if a:
                dim = len(a[0])
            elif e:
                dim = len(e[0])
            else:
                raise DimensionMismatch("empty system needs explicit dimension")
        for row in itertools.chain(a, e):
            if len(row) != dim:
                raise DimensionMismatch(f"row length {len(row)} != dim {dim}")
        a, _ = _canon_rows(a, zeros(len(a)), line=False)
        e, _ = _canon_rows(e, zeros(len(e)), line=True)
        return PolyhedralCone(a, e, dim)

    @staticmethod
    def full(dim: int) -> "PolyhedralCone":
        return PolyhedralCone.make(dim=dim)

    @staticmethod
    def origin(dim: int) -> "PolyhedralCone":
        return PolyhedralCone.make(e=[unit(dim, i) for i in range(dim)], dim=dim)

    def contains(self, x: Vec) -> bool:
        if len(x) != self.dim:
            raise DimensionMismatch("point has wrong dimension")
        return all(dot(r, x) <= 0 for r in self.a) and all(dot(r, x) == 0 for r in self.e)

    def as_polyhedron(self) -> HPolyhedron:
        return HPolyhedron(self.a, zeros(len(self.a)), self.e, zeros(len(self.e)), self.dim)

    def is_trivial(self) -> bool:
        """True iff the cone is exactly {0}."""
        rays, lin = generators(self)
        return not rays and not lin

    def subset_of(self, other: "PolyhedralCone") -> bool:
        rays, lin = generators(self)
        return all(other.contains(r) for r in rays) and all(
            other.contains(l) and other.contains(tuple(-x for x in l)) for l in lin
        )

    def equals(self, other: "PolyhedralCone") -> bool:
        return self.subset_of(other) and other.subset_of(self)

    def intersect(self, other: "PolyhedralCone") -> "PolyhedralCone":
        if self.dim != other.dim:
            raise DimensionMismatch("cone dimensions differ")
        return PolyhedralCone.make(self.a + other.a, self.e + other.e, dim=self.dim)


@lru_cache(maxsize=GENERATORS_CACHE_SIZE)
def generators(c: PolyhedralCone) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """(rays, lineality) with canonical scaling, exact double description.

    The lineality space is the null space of all rows.  On the coordinates
    outside the pivots of its rref the cone is pointed, and there every
    feasible ray with a rank-(k-1) active set is extreme, so the rays are
    found by rank-(k-1) activity sets (fine at desk scale) and deduplicated
    by their canonical scaling.
    """
    n = c.dim
    all_rows = c.a + c.e
    lin = nullspace(all_rows, dim=n)
    lin = tuple(sorted(canon_line(v) for v in lin))
    if not all_rows:
        return (), lin
    # complement coordinates: x = Q z with Q the unit columns off the pivots
    pivots = rref(lin)[1] if lin else ()
    comp = [j for j in range(n) if j not in pivots]
    k = len(comp)
    if k == 0:
        return (), lin
    # the rows on those coordinates, as ints (positive row scaling keeps signs
    # and null spaces)
    ineq_rows = [r for r in (_int_cols(row, comp) for row in c.a) if any(r)]
    eq_rows = tuple(r for r in (_int_cols(row, comp) for row in c.e) if any(r))
    # a rank-(k-1) active set contains one of exactly k-1-rank(eq) inequality
    # rows with the same span, hence the same null space
    size = k - 1 - rank(eq_rows)
    rays: set[tuple[int, ...]] = set()
    for subset in itertools.combinations(ineq_rows, size) if size >= 0 else ():
        ns = nullspace(eq_rows + subset, dim=k)
        if len(ns) != 1:
            continue
        z = coprime_ints(ns[0])
        for cand in (z, tuple(-x for x in z)):
            if all(sum(map(mul, r, cand)) <= 0 for r in ineq_rows) and all(
                sum(map(mul, r, cand)) == 0 for r in eq_rows
            ):
                x = [0] * n
                for j, cj in zip(comp, cand):
                    x[j] = cj
                rays.add(tuple(x))
    return tuple(vec(r) for r in sorted(rays)), lin


def nonzero_element(c: PolyhedralCone) -> Vec | None:
    """c's first extreme ray, else its first lineality generator; None iff c = {0}."""
    rays, lin = generators(c)
    if rays:
        return rays[0]
    if lin:
        return lin[0]
    return None


def _int_cols(row: Vec, cols: list[int]) -> tuple[int, ...]:
    """The entries of row in the given columns, times a positive int."""
    return tuple(int_row([row[j] for j in cols])[0])


def cone_from_generators(rays, lin, dim: int) -> PolyhedralCone:
    """H-form of cone(rays) + span(lin) via one polar round trip."""
    rays = [vec(r) for r in rays]
    lin = [vec(l) for l in lin]
    polar = PolyhedralCone.make(a=rays, e=lin, dim=dim) if (rays or lin) else PolyhedralCone.full(dim)
    prays, plin = generators(polar)
    return PolyhedralCone.make(a=prays, e=plin, dim=dim)


def polar_cone(c: PolyhedralCone) -> PolyhedralCone:
    """{y : <y, x> <= 0 for all x in c}."""
    rays, lin = generators(c)
    return PolyhedralCone.make(a=rays, e=lin, dim=c.dim)


def enumerate_faces(c: PolyhedralCone) -> list[tuple[PolyhedralCone, Vec]]:
    """All faces with a relative-interior witness each.

    Faces are identified by their exact activity set among the inequality
    rows; each feasible activity pattern appears once.
    """
    m = len(c.a)
    out = []
    seen: set[tuple[Mat, Mat]] = set()
    for size in range(m + 1):
        for subset in itertools.combinations(range(m), size):
            active = tuple(c.a[i] for i in subset)
            inactive = tuple(c.a[i] for i in range(m) if i not in subset)
            w = strict_feasible_point(
                a_strict=inactive,
                b_strict=zeros(len(inactive)),
                e=c.e + active,
                d=zeros(len(c.e) + len(active)),
                n=c.dim,
            )
            if w is None:
                continue
            face = PolyhedralCone.make(a=inactive, e=c.e + active, dim=c.dim)
            key = (face.a, face.e)
            if key in seen:
                continue
            seen.add(key)
            out.append((face, w))
    return out


def project_polyhedron(p: HPolyhedron, coords: tuple[int, ...]) -> HPolyhedron:
    """Exact shadow of p onto the given coordinates (Fourier-Motzkin)."""
    coords = tuple(coords)
    if any(c < 0 or c >= p.dim for c in coords):
        raise DimensionMismatch("projection index out of range")
    # work with inequality rows only: equalities become two inequalities
    rows = [(tuple(r), bi) for r, bi in zip(p.a, p.b)]
    for r, di in zip(p.e, p.d):
        rows.append((tuple(r), di))
        rows.append((tuple(-x for x in r), -di))
    keep = list(coords)
    elim = [j for j in range(p.dim) if j not in coords]
    for j in elim:
        pos = [rw for rw in rows if rw[0][j] > 0]
        negs = [rw for rw in rows if rw[0][j] < 0]
        zero = [rw for rw in rows if rw[0][j] == 0]
        new_rows = list(zero)
        for (rp, bp) in pos:
            for (rn, bn) in negs:
                cp, cn = rp[j], -rn[j]
                row = tuple(cn * x + cp * y for x, y in zip(rp, rn))
                rhs = cn * bp + cp * bn
                if is_zero(row):
                    if rhs < 0:
                        # empty projection: keep the contradiction row
                        new_rows.append((row, rhs))
                    continue
                new_rows.append((row, rhs))
        rows = _prune_rows(new_rows, p.dim)
    a = tuple(tuple(r[j] for j in keep) for r, _ in rows)
    b = tuple(rhs for _, rhs in rows)
    return HPolyhedron.make(a, b, dim=len(keep))


def _prune_rows(rows: list[tuple[Vec, Fraction]], dim: int) -> list[tuple[Vec, Fraction]]:
    """Drop duplicate and (when the count grows) LP-redundant rows."""
    seen = set()
    dedup = []
    for row, rhs in rows:
        key = canon_ray(tuple(row) + (rhs,))
        if key in seen:
            continue
        seen.add(key)
        dedup.append((tuple(row), rhs))
    if len(dedup) <= 12:
        return dedup
    kept: list[tuple[Vec, Fraction]] = []
    for i, (row, rhs) in enumerate(dedup):
        others = kept + dedup[i + 1 :]
        a = tuple(r for r, _ in others)
        b = tuple(x for _, x in others)
        res = solve_lp(row, a, b, n=dim)
        if res.status == OPTIMAL and res.objective <= rhs:
            continue
        kept.append((row, rhs))
    return kept


def relint_point(p: HPolyhedron) -> Vec | None:
    """A point satisfying all inequality rows strictly, if one exists."""
    return strict_feasible_point(p.a, p.b, e=p.e, d=p.d, n=p.dim)
