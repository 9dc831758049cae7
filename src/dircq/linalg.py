"""Exact rational vectors and matrices on top of fractions.Fraction.

Vectors are tuples of Fractions, matrices tuples of row vectors.  Everything
here is immutable and hashable so that cones built from this data can be
cached and compared structurally.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

Q = Fraction
Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def vec(xs: Iterable) -> Vec:
    return tuple(x if type(x) is Fraction else Fraction(x) for x in xs)


def mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(vec(r) for r in rows)


def zeros(n: int) -> Vec:
    return (Fraction(0),) * n


def unit(n: int, i: int) -> Vec:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


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
    if not m:
        return ()
    n = len(m[0])
    return tuple(
        sum((row[j] * y for row, y in zip(m, v, strict=True)), Fraction(0))
        for j in range(n)
    )


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form; returns (rows without zero rows, pivot cols)."""
    rows = [list(r) for r in m]
    if not rows:
        return (), ()
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows[:r]), tuple(pivots)


def rank(m: Mat) -> int:
    return len(rref(m)[0])


def nullspace(m: Mat, dim: int | None = None) -> list[Vec]:
    """Basis of {x : m x = 0}.  ``dim`` is required when m has no rows."""
    if not m:
        if dim is None:
            raise ValueError("nullspace of empty matrix needs explicit dimension")
        return [unit(dim, i) for i in range(dim)]
    n = len(m[0])
    red, pivots = rref(m)
    free = [c for c in range(n) if c not in pivots]
    basis: list[Vec] = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return basis


def solve_linear(a: Mat, b: Vec) -> Vec | None:
    """One exact solution of a x = b, or None if inconsistent."""
    if not a:
        return zeros(0) if is_zero(b) else None
    n = len(a[0])
    aug = tuple(row + (bi,) for row, bi in zip(a, b, strict=True))
    red, pivots = rref(aug)
    for row in red:
        if is_zero(row[:n]) and row[n] != 0:
            return None
    x = [Fraction(0)] * n
    for row, pc in zip(red, pivots):
        if pc == n:
            return None
        x[pc] = row[n]
    return tuple(x)


def integerize(v: Sequence[Fraction]) -> Vec:
    """Positive rescale to coprime integers (direction preserved)."""
    if is_zero(v):
        return tuple(Fraction(0) for _ in v)
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(Fraction(x // g) for x in ints)


def canon_ray(v: Sequence[Fraction]) -> Vec:
    """Canonical representative of the ray R_+ v."""
    return integerize(v)


def canon_line(v: Sequence[Fraction]) -> Vec:
    """Canonical representative of the line R v: coprime, first nonzero > 0."""
    w = integerize(v)
    lead = next((x for x in w if x != 0), None)
    if lead is not None and lead < 0:
        w = neg(w)
    return w


def is_orthogonal_basis(vs: Sequence[Vec], dim: int) -> bool:
    if len(vs) != dim or any(is_zero(v) for v in vs):
        return False
    for i in range(dim):
        for j in range(i + 1, dim):
            if dot(vs[i], vs[j]) != 0:
                return False
    return True
