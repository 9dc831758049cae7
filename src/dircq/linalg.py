"""Exact rational vectors and matrices on top of fractions.Fraction.

Vectors are tuples of Fractions, matrices tuples of row vectors.  Everything
here is immutable and hashable so that cones built from this data can be
cached and compared structurally.

Fractions in, Fractions out, ints inside: the kernels (``dot``, the coprime
scaling of ``canon_ray``/``coprime_ints``, and the row reduction) accept int
and Fraction entries, scale each row to Python ints by the lcm of its
denominators, and build a Fraction only for each value they return.  Every
result equals the one plain Fraction arithmetic gives.

The cone layer (``dircq.polyhedra``) stores its rows as coprime int tuples,
so the int-level kernels are public too: ``int_row`` reads a row into ints
over one denominator (an all-int row is taken as it is), ``coprime_ints``
gives the canonical int key of a ray or line, and ``int_nullspace`` the null
space as canonical int lines.  None of them builds a Fraction.

There is one row reduction: ``rref_reduce``, ``rref_extend`` and
``rref_span`` keep an int RREF that grows one row at a time.
``unions.sign_cells`` and the cell systems of ``cq`` carry one, and
``rref``, ``rank``, ``pivot_columns``, ``nullspace`` and ``int_nullspace``
read ``rref_span``'s rows sorted by pivot column.  RREF rows are unique up
to scale, and none of these readers depends on the scale.
``null_direction`` and ``half_step`` step off a point inside the null space
of such rows while strict rows stay strict.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter, mul
from typing import Iterable, Sequence

Q = Fraction
Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


# int.__instancecheck__(x) is isinstance(x, int); mapped over a row it tells
# an all-int row apart without a Python-level loop
_is_int = int.__instancecheck__


def int_row(xs: Sequence) -> tuple[list[int], int]:
    """(den * xs as ints, den) with den the lcm of the denominators of xs."""
    if all(map(_is_int, xs)):
        return list(xs), 1
    pairs = [x.as_integer_ratio() for x in xs]
    den = lcm(*[d for _, d in pairs])
    if den == 1:
        return [p for p, _ in pairs], 1
    return [p * (den // d) for p, d in pairs], den


def primitive(row: list[int]) -> list[int]:
    """row divided by the gcd of its entries (unchanged if that is 0 or 1)."""
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def vec(xs: Iterable) -> Vec:
    return tuple(x if type(x) is Fraction else Fraction(x) for x in xs)


def zeros(n: int) -> Vec:
    return (Fraction(0),) * n


def unit(n: int, i: int) -> Vec:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    num, den = 0, 1
    for x, y in zip(a, b, strict=True):
        xn, xd = x.as_integer_ratio()
        if xn:
            yn, yd = y.as_integer_ratio()
            if yn:
                d = xd * yd
                if d == den:
                    num += xn * yn
                elif d == 1:
                    num += xn * yn * den
                else:
                    num = num * d + xn * yn * den
                    den *= d
    return Fraction(num) if den == 1 else Fraction(num, den)


def add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def neg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def scale(t, a: Vec) -> Vec:
    t = Fraction(t)
    return tuple(t * x for x in a)


def is_zero(a: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in a)


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(dot(row, v) for row in m)


def transpose(m: Mat) -> Mat:
    if not m:
        return ()
    return tuple(zip(*m, strict=True))


def mat_t_vec(m: Mat, v: Vec) -> Vec:
    """m^T v without materializing the transpose."""
    return tuple(dot(col, v) for col in zip(*m, strict=True))


# Incremental int RREF.  ``eqs`` is a list of (row, pivot column) pairs: int
# rows, coprime, each zero at the other rows' pivot columns and positive at
# its own.  ``unions.sign_cells`` carries one down its search, and the cell
# systems of ``cq`` build one of their equality and implicit rows; both step
# off a point along a null-space direction with ``half_step``.


def rref_reduce(eqs: list[tuple[list[int], int]], h: Sequence[int]) -> list[int] | None:
    """h reduced by the RREF rows eqs (a positive multiple of h plus a
    combination of them, zero at their pivots), or None if h is in their span."""
    r = list(h)
    for row, pc in eqs:
        q = r[pc]
        if q:
            p = row[pc]
            g = gcd(p, q)
            p, q = p // g, q // g
            r = [p * x - q * y for x, y in zip(r, row)]
    return primitive(r) if any(r) else None


def rref_extend(eqs: list[tuple[list[int], int]], hr: list[int]) -> list[tuple[list[int], int]]:
    """The RREF rows eqs with the reduced row hr added; pivots stay positive."""
    pc = next(j for j, x in enumerate(hr) if x)
    if hr[pc] < 0:
        hr = [-x for x in hr]
    p = hr[pc]
    out = []
    for row, rc in eqs:
        q = row[pc]
        if q:
            g = gcd(p, q)
            row = primitive([p // g * x - q // g * y for x, y in zip(row, hr)])
        out.append((row, rc))
    out.append((hr, pc))
    return out


def rref_span(rows: Iterable[Sequence]) -> list[tuple[list[int], int]]:
    """The RREF rows of the span of ``rows`` (ints or Fractions), in the order
    their pivots were found."""
    eqs: list[tuple[list[int], int]] = []
    for row in rows:
        r = rref_reduce(eqs, int_row(row)[0])
        if r is not None:
            eqs = rref_extend(eqs, r)
    return eqs


def null_direction(eqs: list[tuple[list[int], int]], hr: list[int]) -> list[int]:
    """An int d in the null space of the RREF rows eqs with hr.d > 0.

    d is the null-space vector at hr's first nonzero column fc, which is not
    a pivot; hr is zero at every pivot, so hr.d = hr[fc] d[fc].
    """
    fc = next(j for j, x in enumerate(hr) if x)
    used = [(row, pc) for row, pc in eqs if row[fc]]
    scale_ = lcm(*[row[pc] for row, pc in used]) if used else 1
    if hr[fc] < 0:
        scale_ = -scale_
    d = [0] * len(hr)
    d[fc] = scale_
    for row, pc in used:
        d[pc] = -row[fc] * (scale_ // row[pc])
    return d


def half_step(rows: Sequence[Sequence], w: Vec, d: Sequence[int], rhs: Sequence | None = None) -> Fraction:
    """Half the largest eps with r.(w +- eps d) < rhs_r for every row r.

    Every row must hold strictly at w (r.w < rhs_r); ``rhs`` defaults to 0.
    """
    eps = None
    for i, r in enumerate(rows):
        rd = sum(map(mul, r, d))
        if rd:
            t = ((0 if rhs is None else rhs[i]) - dot(r, w)) / abs(rd)
            if eps is None or t < eps:
                eps = t
    return Fraction(1) if eps is None else eps / 2


# Batch readers of the incremental RREF: one ``rref_span`` each.


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form; returns (rows without zero rows, pivot cols).

    The rows are ``rref_span``'s, sorted by pivot column and divided by
    their pivot entries.
    """
    eqs = sorted(rref_span(m), key=itemgetter(1))
    return tuple(tuple(Fraction(x, row[c]) for x in row) for row, c in eqs), tuple(c for _, c in eqs)


def rank(m: Mat) -> int:
    return len(rref_span(m))


def pivot_columns(m: Mat) -> tuple[int, ...]:
    """The pivot columns of ``rref(m)``, without building its rows."""
    return tuple(sorted(c for _, c in rref_span(m)))


def _null_basis(m: Sequence[Sequence], dim: int) -> list[tuple[int, list[int]]]:
    """(fc, ``null_direction``'s int vector at fc) for each non-pivot column
    fc of m, in order: 0 at every other non-pivot column, positive at fc."""
    eqs = rref_span(m)
    pivots = {c for _, c in eqs}
    return [(fc, null_direction(eqs, [int(j == fc) for j in range(dim)])) for fc in range(dim) if fc not in pivots]


def nullspace(m: Mat, dim: int | None = None) -> list[Vec]:
    """Basis of {x : m x = 0}.  ``dim`` is required when m has no rows."""
    if not m:
        if dim is None:
            raise ValueError("nullspace of empty matrix needs explicit dimension")
        return [unit(dim, i) for i in range(dim)]
    return [tuple(Fraction(x, v[fc]) for x in v) for fc, v in _null_basis(m, len(m[0]))]


def int_nullspace(m: Sequence[Sequence], dim: int) -> list[tuple[int, ...]]:
    """The basis of ``nullspace(m, dim)``, each vector as its ``coprime_ints(v, line=True)``."""
    return [coprime_ints(v, line=True) for _, v in _null_basis(m, dim)]


def coprime_ints(v: Sequence[Fraction], line: bool = False) -> tuple[int, ...]:
    """Positive rescale of v to coprime ints (all 0 if v is); if ``line``,
    the rescale of v or -v whose first nonzero entry is positive."""
    ints, _ = int_row(v)
    g = gcd(*ints)
    if g == 0:
        return tuple(ints)
    if line and next(x for x in ints if x) < 0:
        g = -g
    if g == 1:
        return tuple(ints)
    return tuple([x // g for x in ints])


def canon_ray(v: Sequence[Fraction]) -> Vec:
    """Canonical representative of the ray R_+ v: its positive rescale to coprime ints."""
    return vec(coprime_ints(v))


def is_orthogonal_basis(vs: Sequence[Vec], dim: int) -> bool:
    if len(vs) != dim or any(is_zero(v) for v in vs):
        return False
    for i in range(dim):
        for j in range(i + 1, dim):
            if dot(vs[i], vs[j]) != 0:
                return False
    return True
