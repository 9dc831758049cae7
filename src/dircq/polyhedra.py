"""Exact polyhedral kernels: H/V conversion, faces, polars, and the images
and preimages of cones under linear maps.

``polyhedron_faces`` is the one face enumerator, ``polar_cone`` the one
polar builder, and ``intersect_generated`` the one builder of regular normal
cones, which the union and patch layers call with their active rows.
``tangent_rows``, a method of both classes, is the one rule that finds the
rows tight at a point: with the equality rows, right-hand sides dropped,
they are the tangent cone's H-form and the regular normal cone's generators.
``image_cone`` is the one image rule: it maps a cone's generators and
returns the cone they generate, through ``polar_cone``.  ``preimage_cone``
is the one preimage rule: it maps a cone's rows.

H-forms are {x : A x <= b, E x = d}; cones are the homogeneous case with
cached generator data.  Dimensions stay at desk scale (n <= 8), so the
generator and face enumerations may be exponential in the number of rows.

The stored form is integer.  ``make`` scales every row to coprime Python
ints (an equality row also to a first nonzero entry > 0) and drops zero and
duplicate rows; an ``HPolyhedron`` row carries its right-hand side as its
last entry.  These int rows (``ia``/``ie`` of a cone, ``iab``/``ied`` of a
polyhedron) are the only copy of the data: equality compares them, the hash
is computed from them once per object, and ``contains``, ``tangent_rows``,
``subset_of``, ``is_trivial`` and the generator enumeration run in int
arithmetic on them, scaling a point to ints once per test.  Inside ``dircq``
the int rows and ``int_generators`` feed the LPs directly.

Fractions are built only at the boundary of the layer: the ``a``, ``b``,
``e`` and ``d`` accessors and ``generators`` return the same Fraction tuples
as a Fraction-stored layer would, because those values reach reports and
certificates.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from operator import mul

from dircq.linalg import (
    Mat,
    Vec,
    coprime_ints,
    int_nullspace,
    int_row,
    pivot_columns,
    rank,
)
from dircq.simplex import strict_feasible_point

# Cones whose V-representation is kept; the cell duals of one analysis share
# about 300 of them, and evicting shared entries makes later calls redo work.
GENERATORS_CACHE_SIZE = 512

IntVec = tuple[int, ...]
IntMat = tuple[IntVec, ...]


class DimensionMismatch(ValueError):
    pass


def _canon_rows(rows, line: bool) -> IntMat:
    """The rows as ``coprime_ints`` keys, without zero rows and duplicates."""
    out: dict[IntVec, None] = {}
    for row in rows:
        key = coprime_ints(row, line)
        if any(key):
            out[key] = None
    return tuple(out)


def _system_dim(dim: int | None, *mats) -> int:
    """dim, or the row length of the first row; every row must have it."""
    if dim is None:
        first = next((m[0] for m in mats if m), None)
        if first is None:
            raise DimensionMismatch("empty system needs explicit dimension")
        dim = len(first)
    for row in itertools.chain(*mats):
        if len(row) != dim:
            raise DimensionMismatch(f"row length {len(row)} != dim {dim}")
    return dim


def _split(rows: IntMat) -> tuple[IntMat, IntVec]:
    """Coefficient rows and right-hand sides of rows stored with rhs last."""
    return tuple(r[:-1] for r in rows), tuple(r[-1] for r in rows)


def _fractions(rows: IntMat) -> Mat:
    return tuple(tuple(map(Fraction, r)) for r in rows)


class HPolyhedron:
    """{x in R^dim : a x <= b, e x = d}, possibly empty.

    ``iab`` and ``ied`` are the canonical int rows of [a | b] and [e | d];
    build instances with ``make``.
    """

    __slots__ = ("iab", "ied", "dim", "_hash")

    def __init__(self, iab: IntMat, ied: IntMat, dim: int):
        self.iab = iab
        self.ied = ied
        self.dim = dim
        self._hash = hash((iab, ied, dim))

    @staticmethod
    def make(a=(), b=(), e=(), d=(), dim: int | None = None) -> "HPolyhedron":
        a, e = [tuple(r) for r in a], [tuple(r) for r in e]
        b, d = tuple(b), tuple(d)
        dim = _system_dim(dim, a, e)
        if len(a) != len(b) or len(e) != len(d):
            raise DimensionMismatch("rhs length does not match row count")
        return HPolyhedron(
            _canon_rows([(*r, bi) for r, bi in zip(a, b)], line=False),
            _canon_rows([(*r, di) for r, di in zip(e, d)], line=True),
            dim,
        )

    def __eq__(self, other) -> bool:
        if type(other) is not HPolyhedron:
            return NotImplemented
        return (
            self._hash == other._hash
            and self.iab == other.iab
            and self.ied == other.ied
            and self.dim == other.dim
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"HPolyhedron(iab={self.iab}, ied={self.ied}, dim={self.dim})"

    @property
    def a(self) -> Mat:
        return _fractions(r[:-1] for r in self.iab)

    @property
    def b(self) -> Vec:
        return tuple(Fraction(r[-1]) for r in self.iab)

    @property
    def e(self) -> Mat:
        return _fractions(r[:-1] for r in self.ied)

    @property
    def d(self) -> Vec:
        return tuple(Fraction(r[-1]) for r in self.ied)

    def sort_key(self) -> tuple:
        """(a, b, e, d) as ints, which orders like their Fraction values."""
        return (*_split(self.iab), *_split(self.ied))

    def contains(self, x: Vec) -> bool:
        if len(x) != self.dim:
            raise DimensionMismatch("point has wrong dimension")
        return self.holds(*int_row(x))

    def holds(self, xs, den: int) -> bool:
        """The point xs / den (xs integral, den > 0) lies in the polyhedron."""
        # map(mul, r, xs) stops at the end of xs, before r's rhs entry
        return all(sum(map(mul, r, xs)) <= r[-1] * den for r in self.iab) and all(
            sum(map(mul, r, xs)) == r[-1] * den for r in self.ied
        )

    def tangent_rows(self, y: Vec) -> tuple[IntMat, IntMat]:
        """(inequality rows tight at y, equality rows), right-hand sides
        dropped: the rows of the tangent cone at y, a point of the polyhedron."""
        ys, den = int_row(y)
        tight = tuple(r[:-1] for r in self.iab if sum(map(mul, r, ys)) == r[-1] * den)
        return tight, tuple(r[:-1] for r in self.ied)


class PolyhedralCone:
    """{x : a x <= 0, e x = 0}; always contains 0.

    ``ia`` and ``ie`` are the canonical int rows of a and e; build instances
    with ``make``.
    """

    __slots__ = ("ia", "ie", "dim", "_hash")

    def __init__(self, ia: IntMat, ie: IntMat, dim: int):
        self.ia = ia
        self.ie = ie
        self.dim = dim
        self._hash = hash((ia, ie, dim))

    @staticmethod
    def make(a=(), e=(), dim: int | None = None) -> "PolyhedralCone":
        a, e = [tuple(r) for r in a], [tuple(r) for r in e]
        dim = _system_dim(dim, a, e)
        return PolyhedralCone(_canon_rows(a, line=False), _canon_rows(e, line=True), dim)

    def __eq__(self, other) -> bool:
        if type(other) is not PolyhedralCone:
            return NotImplemented
        return (
            self._hash == other._hash
            and self.ia == other.ia
            and self.ie == other.ie
            and self.dim == other.dim
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"PolyhedralCone(ia={self.ia}, ie={self.ie}, dim={self.dim})"

    @property
    def a(self) -> Mat:
        return _fractions(self.ia)

    @property
    def e(self) -> Mat:
        return _fractions(self.ie)

    def sort_key(self) -> tuple:
        """(a, e) as ints, which orders like their Fraction values."""
        return self.ia, self.ie

    def contains(self, x: Vec) -> bool:
        if len(x) != self.dim:
            raise DimensionMismatch("point has wrong dimension")
        return self._holds(int_row(x)[0])

    def tangent_rows(self, y: Vec) -> tuple[IntMat, IntMat]:
        """(inequality rows tight at y, equality rows): the rows of the
        tangent cone at y, a point of the cone."""
        ys = int_row(y)[0]
        return tuple(r for r in self.ia if sum(map(mul, r, ys)) == 0), self.ie

    def _holds(self, xs) -> bool:
        """Membership of a positive multiple of the point, given as ints."""
        return all(sum(map(mul, r, xs)) <= 0 for r in self.ia) and all(
            sum(map(mul, r, xs)) == 0 for r in self.ie
        )

    def is_trivial(self) -> bool:
        """True iff the cone is exactly {0}."""
        rays, lin = int_generators(self)
        return not rays and not lin

    def subset_of(self, other: "PolyhedralCone") -> bool:
        if self.dim != other.dim:
            raise DimensionMismatch("cone dimensions differ")
        rays, lin = int_generators(self)
        # l and -l both lie in other iff every row of other vanishes on l
        return all(other._holds(r) for r in rays) and all(
            sum(map(mul, r, l)) == 0 for l in lin for r in other.ia + other.ie
        )

    def equals(self, other: "PolyhedralCone") -> bool:
        return self.subset_of(other) and other.subset_of(self)

    def intersect(self, other: "PolyhedralCone") -> "PolyhedralCone":
        if self.dim != other.dim:
            raise DimensionMismatch("cone dimensions differ")
        return PolyhedralCone.make(self.ia + other.ia, self.ie + other.ie, dim=self.dim)


@lru_cache(maxsize=GENERATORS_CACHE_SIZE)
def int_generators(c: PolyhedralCone) -> tuple[IntMat, IntMat]:
    """(rays, lineality) as sorted coprime ints, exact double description.

    Rays are ``coprime_ints`` keys, lineality generators their line form
    ``coprime_ints(v, line=True)``.  The lineality space is the null space of all rows.  On the
    coordinates outside the pivots of its rref the cone is pointed, and there
    every feasible ray with a rank-(k-1) active set is extreme, so the rays
    are found by rank-(k-1) activity sets (fine at desk scale) and
    deduplicated by their canonical scaling.
    """
    n = c.dim
    all_rows = c.ia + c.ie
    lin = tuple(sorted(int_nullspace(all_rows, n)))
    if not all_rows:
        return (), lin
    # complement coordinates: x = Q z with Q the unit columns off the pivots
    pivots = pivot_columns(lin) if lin else ()
    comp = [j for j in range(n) if j not in pivots]
    k = len(comp)
    if k == 0:
        return (), lin
    ineq_rows = [r for r in (tuple(row[j] for j in comp) for row in c.ia) if any(r)]
    eq_rows = tuple(r for r in (tuple(row[j] for j in comp) for row in c.ie) if any(r))
    # a rank-(k-1) active set contains one of exactly k-1-rank(eq) inequality
    # rows with the same span, hence the same null space
    size = k - 1 - rank(eq_rows)
    rays: set[IntVec] = set()
    for subset in itertools.combinations(ineq_rows, size) if size >= 0 else ():
        ns = int_nullspace(eq_rows + subset, k)
        if len(ns) != 1:
            continue
        z = ns[0]
        for cand in (z, tuple(-x for x in z)):
            if all(sum(map(mul, r, cand)) <= 0 for r in ineq_rows) and all(
                sum(map(mul, r, cand)) == 0 for r in eq_rows
            ):
                x = [0] * n
                for j, cj in zip(comp, cand):
                    x[j] = cj
                rays.add(tuple(x))
    return tuple(sorted(rays)), lin


@lru_cache(maxsize=GENERATORS_CACHE_SIZE)
def generators(c: PolyhedralCone) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """``int_generators(c)`` as Fraction vectors, for reports and certificates."""
    rays, lin = int_generators(c)
    return _fractions(rays), _fractions(lin)


def nonzero_element(c: PolyhedralCone) -> Vec | None:
    """c's first extreme ray, else its first lineality generator; None iff c = {0}."""
    rays, lin = generators(c)
    if rays:
        return rays[0]
    if lin:
        return lin[0]
    return None


def polar_cone(c: PolyhedralCone) -> PolyhedralCone:
    """{y : <y, x> <= 0 for all x in c}.

    The polar of {x : a x <= 0, e x = 0} is cone(a) + span(e), so
    ``polar_cone(PolyhedralCone.make(a=rays, e=lin, dim=dim))`` is the H-form
    of a cone given by generators.
    """
    rays, lin = int_generators(c)
    return PolyhedralCone.make(a=rays, e=lin, dim=c.dim)


def image_cone(c: PolyhedralCone, image, dim: int) -> PolyhedralCone:
    """{M x : x in c} for a linear map ``image`` = M into R^dim.

    The image is generated by the images of c's rays and lineality
    generators; ``make`` drops the zero ones and ``polar_cone`` turns the
    generators into an H-form.
    """
    rays, lin = int_generators(c)
    return polar_cone(PolyhedralCone.make(a=map(image, rays), e=map(image, lin), dim=dim))


def preimage_cone(c: PolyhedralCone, pull, dim: int) -> PolyhedralCone:
    """{x in R^dim : M x in c}, given the map on rows ``pull``: a -> a M.

    A row a of c holds at M x iff the row a M holds at x.
    """
    return PolyhedralCone.make(a=map(pull, c.ia), e=map(pull, c.ie), dim=dim)


def intersect_generated(parts, dim: int) -> PolyhedralCone:
    """The intersection over (rays, lin) parts of cone(rays) + span(lin).

    This is the one builder of regular normal cones: at a point of several
    pieces each part is the ``tangent_rows`` of one piece there.
    """
    rows_a: list[IntVec] = []
    rows_e: list[IntVec] = []
    for rays, lin in parts:
        h = polar_cone(PolyhedralCone.make(a=rays, e=lin, dim=dim))
        rows_a.extend(h.ia)
        rows_e.extend(h.ie)
    return PolyhedralCone.make(a=rows_a, e=rows_e, dim=dim)


def polyhedron_faces(p: HPolyhedron) -> list[tuple[tuple[int, ...], Vec]]:
    """(active set, relint witness) for every nonempty face of p.

    Solves one strict-feasibility LP per subset of the inequality rows, so
    2^m LPs for m rows.  A witness is strict on every row outside the
    subset, so its active set is exactly the subset and no face repeats.
    """
    out = []
    rows = p.iab
    m = len(rows)
    e_rows, e_rhs = _split(p.ied)
    for size in range(m + 1):
        for subset in itertools.combinations(range(m), size):
            ins = tuple(i for i in range(m) if i not in subset)
            w = strict_feasible_point(
                tuple(rows[i][:-1] for i in ins),
                tuple(rows[i][-1] for i in ins),
                e=e_rows + tuple(rows[i][:-1] for i in subset),
                d=e_rhs + tuple(rows[i][-1] for i in subset),
                n=p.dim,
            )
            if w is not None:
                out.append((subset, w))
    return out
