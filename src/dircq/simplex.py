"""Exact rational simplex: max c.x s.t. A x <= b, E x = d, x free.

Two-phase tableau method with Bland's rule (guaranteed termination).
Infeasibility comes with a Farkas certificate: a vector (y, z) with y >= 0,
y^T A + z^T E = 0 and y^T b + z^T d < 0, which verifies by plain arithmetic.

The tableau is fraction-free (in the spirit of Bareiss's integer-preserving
elimination).  Each row is a list of ints, right-hand side last, that equals
the rational tableau row times an unknown positive factor; its entry in its
basic column is positive and stands for the rational 1.  A pivot combines two
rows with positive multipliers and divides the result by the gcd of its
entries.  The reduced costs are ints over one positive common denominator.
Positive factors keep every sign, and Bland's ratio test compares
h_r / g_r[j] by cross-multiplication, so every pivot is the one the rational
tableau would take and every returned value is the same.  Inputs may be ints
or Fractions; each row is read once into ints over its own denominator, and
Fractions are built only for the returned point, ray, objective and Farkas
vector, and for c.

Phase 1 depends only on the constraint system, not on the objective, and
callers often maximize several objectives over one system.  ``_phase1`` keeps
its result in a bounded ``lru_cache`` (``PHASE1_CACHE_SIZE`` entries) keyed by
the system's integer rows, one (ints..., rhs, den) tuple per row, together
with n, the number m1 of inequality rows and the bounded columns (below):
either the Farkas vector or the phase-2 start rows and basis, all tuples.
Every call still runs its own phase 2 on fresh lists, so it takes the same
Bland pivots and returns the same ``LPResult`` as without the cache, and every
returned Farkas vector is checked by ``verify_farkas`` against the caller's
data.  The cone layer passes its canonical int rows straight through: a row
whose entries are all ints is its own key over the denominator 1, without a
pass through ``int_row``, and an equal row given as Fractions reads into the
same key and shares the entry.

A sign row, an inequality -k x_j <= 0 with k > 0 and right-hand side 0, is
read as the bound x_j >= 0: the row is dropped and x_j keeps one nonnegative
column (Chvatal, *Linear Programming*, 1983, ch. 8).  Every other variable is
free and split as x = x+ - x-.  The columns are x+ for every variable, x- for
the free ones only, slacks of the remaining inequality rows, then phase-1
artificials.  That layout fixes Bland's pivot path, and with it which optimal
vertex, ray and certificate callers see; the reports derived from them
depend on it.  With no row left, only the bounds constrain x, and the ray of
an unbounded answer is c with its negative bounded entries set to 0.

A Farkas vector stays in the caller's terms.  Phase 1 of the bounded system
gives multipliers (y, z) of the remaining rows whose combination
w = y^T A + z^T E is 0 on the free columns and >= 0 on the bounded ones.  The
first sign row -k x_j <= 0 of each bounded column takes w_j / k, which clears
column j, and later sign rows on the same column take 0; the vector over all
the caller's rows then passes ``verify_farkas``, which checks it before it is
returned.

``relative_interior`` finds a relative-interior point of {a x <= b, e x = d}
together with its implicit equalities (the rows a_i x <= b_i that hold with
equality on the whole set) by the single LP of Freund, Roundy & Todd
(*Identifying the set of always-active constraints in a system of linear
inequalities by a single linear program*, MIT Sloan WP 1674-85, 1985):
max sum t subject to a x + t <= b tau, e x = d tau, 0 <= t <= 1, tau >= 1.
A homogeneous system drops tau.  It is one call of the module-level
``solve_lp``, so it is counted and cached like every other LP here, and its
rows -t_i <= 0 are sign rows, so each t_i is one bounded column.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from dircq.linalg import Mat, Vec, dot, int_row, is_zero, primitive, vec, zeros

# phase-1 results kept; 256 holds every system of a warm ex58^2 direction sweep
PHASE1_CACHE_SIZE = 256

_ZERO = Fraction(0)
_is_int = int.__instancecheck__

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LPResult:
    status: str
    x: Vec | None = None
    objective: Fraction | None = None
    ray: Vec | None = None
    farkas_ineq: Vec | None = None
    farkas_eq: Vec | None = None


def verify_farkas(a: Mat, b: Vec, e: Mat, d: Vec, y: Vec, z: Vec) -> bool:
    """Arithmetic check of an infeasibility certificate, solver-free."""
    if any(yi < 0 for yi in y):
        return False
    n = len(a[0]) if a else (len(e[0]) if e else 0)
    comb = [Fraction(0)] * n
    for yi, row in zip(y, a, strict=True):
        for j, v in enumerate(row):
            comb[j] += yi * v
    for zi, row in zip(z, e, strict=True):
        for j, v in enumerate(row):
            comb[j] += zi * v
    rhs = dot(y, b) + dot(z, d)
    return is_zero(comb) and rhs < 0


class _Tableau:
    """Fraction-free tableau over nonnegative variables for rows G w = h, h >= 0.

    Row r is the int list (G_r | h_r) times an unknown positive factor, so its
    basic entry t[r][basis[r]] is positive and stands for the rational 1.
    """

    def __init__(self, rows: list[list[int]], basis: list[int]):
        self.t = rows
        self.m = len(rows)
        self.n = len(rows[0]) - 1 if rows else 0
        self.basis = basis

    def point(self) -> dict[int, Fraction]:
        """Nonzero coordinates of the basic solution."""
        return {
            bc: Fraction(row[-1], row[bc])
            for row, bc in zip(self.t, self.basis)
            if row[-1] != 0
        }

    def ray(self, enter: int) -> dict[int, Fraction]:
        """Nonzero coordinates of the edge direction along column enter."""
        ray = {
            bc: Fraction(-row[enter], row[bc])
            for row, bc in zip(self.t, self.basis)
            if row[enter] != 0
        }
        ray[enter] = Fraction(1)
        return ray

    def pivot(self, r: int, c: int) -> None:
        pr = self.t[r]
        p = pr[c]
        if p < 0:
            pr = [-x for x in pr]
            p = -p
        self.t[r] = pr
        for i in range(self.m):
            q = self.t[i][c]
            if i != r and q != 0:
                g = gcd(p, q)
                pg, qg = p // g, q // g
                self.t[i] = primitive([pg * x - qg * y for x, y in zip(self.t[i], pr)])
        self.basis[r] = c

    def eliminate(self, red: list[int], den: int, r: int, c: int) -> tuple[list[int], int]:
        """Reduced costs (red / den) with column c cleared by row r."""
        pr = self.t[r]
        p, q = pr[c], red[c]
        g = gcd(p, q)
        pg, qg = p // g, q // g
        red = [pg * x - qg * y for x, y in zip(red, pr)]
        den *= pg
        g = gcd(den, *red)
        if g > 1:
            red = [x // g for x in red]
            den //= g
        return red, den

    def solve_max(
        self, red: list[int], den: int
    ) -> tuple[str, int | None, list[int], int]:
        """Maximize (red / den).w from the current feasible basis (Bland's rule).

        Returns (status, the entering column of an unbounded ray or None,
        final reduced costs, their positive common denominator).
        """
        n = self.n
        for r, bc in enumerate(self.basis):
            if red[bc] != 0:
                red, den = self.eliminate(red, den, r, bc)
        while True:
            enter = next((j for j in range(n) if red[j] > 0), None)
            if enter is None:
                return OPTIMAL, None, red, den
            # Bland's ratio test: least h_r / g_r[enter], ties to the least
            # basic index; ratios compared by cross-multiplication
            leave = None
            for r, row in enumerate(self.t):
                a = row[enter]
                if a <= 0:
                    continue
                if leave is not None:
                    lhs, rhs = row[-1] * div, num * a
                    if lhs > rhs or (lhs == rhs and self.basis[r] > self.basis[leave]):
                        continue
                leave, num, div = r, row[-1], a
            if leave is None:
                return UNBOUNDED, enter, red, den
            red, den = self.eliminate(red, den, leave, enter)
            self.pivot(leave, enter)


def _unconstrained(c: Vec, n: int, bounded=()) -> LPResult:
    """max c.x over {x in R^n : x_j >= 0 for j in bounded}.

    The ray is c with its negative bounded entries set to 0.
    """
    ray = tuple(_ZERO if v < 0 and j in bounded else v for j, v in enumerate(c))
    if is_zero(ray):
        return LPResult(OPTIMAL, x=zeros(n), objective=Fraction(0))
    return LPResult(UNBOUNDED, ray=ray)


def _bound_column(row: tuple[int, ...]) -> int | None:
    """j when the int row (coeffs..., rhs, den) reads -k x_j <= 0 with k > 0."""
    if row[-2] != 0:
        return None
    col = None
    for j, v in enumerate(row[:-2]):
        if v:
            if v > 0 or col is not None:
                return None
            col = j
    return col


@lru_cache(maxsize=PHASE1_CACHE_SIZE)
def _phase1(rows: tuple[tuple[int, ...], ...], n: int, m1: int, bounded: tuple[int, ...]) -> tuple:
    """Phase 1 of the system whose rows (coeffs, rhs, den) are ints over den,
    with x_j >= 0 for each column j in ``bounded``.

    The first m1 rows are inequalities, the rest equalities.  Returns
    (INFEASIBLE, farkas_ineq, farkas_eq) or (OPTIMAL, rows, basis): the
    phase-2 start tableau on the original columns, empty when every row
    reduced to 0 = 0.  The Farkas vector is one of the bounded system: its
    combination of the rows is 0 on the free columns and >= 0 on the bounded
    ones.
    """
    # columns: x+ (n), x- of the free columns, slacks (m1), artificials
    # (m1 + m2), rhs; each row is sign-flipped so that its rhs is >= 0
    free = [j for j in range(n) if j not in bounded]
    mrows = len(rows)
    nx = n + len(free)
    ncols = nx + m1
    tab: list[list[int]] = []
    flip: list[int] = []
    for i, (*ints, h, den) in enumerate(rows):
        r = ints + [-ints[j] for j in free] + [0] * (m1 + mrows) + [h]
        if i < m1:
            r[nx + i] = den
        s = -1 if h < 0 else 1
        if s < 0:
            r = [-x for x in r]
        r[ncols + i] = den
        flip.append(s)
        tab.append(r)

    # minimize the artificials (as max of their negated sum)
    t = _Tableau(tab, [ncols + i for i in range(mrows)])
    status, _, red, den = t.solve_max([0] * ncols + [-1] * mrows, 1)
    if status != OPTIMAL:  # pragma: no cover
        raise RuntimeError("internal: phase 1 objective is bounded by 0")
    # infeasible iff an artificial stays basic at a positive value
    if any(t.t[r][-1] > 0 for r, bc in enumerate(t.basis) if bc >= ncols):
        # dual y_i = -1 - red(artificial_i); w = y * flip is the certificate
        cert = [Fraction((-den - red[ncols + i]) * flip[i], den) for i in range(mrows)]
        return INFEASIBLE, tuple(cert[:m1]), tuple(cert[m1:])

    # drive remaining artificials out of the basis where possible
    for r in range(mrows):
        if t.basis[r] >= ncols:
            c_enter = next((j for j in range(ncols) if t.t[r][j] != 0), None)
            if c_enter is not None:
                t.pivot(r, c_enter)

    # phase 2 runs on the original columns (rows with stuck artificials are 0 = 0)
    keep = [r for r in range(mrows) if t.basis[r] < ncols]
    start = tuple(tuple(primitive(t.t[r][:ncols] + [t.t[r][-1]])) for r in keep)
    return OPTIMAL, start, tuple(t.basis[r] for r in keep)


def solve_lp(
    c: Vec,
    a: Mat = (),
    b: Vec = (),
    e: Mat = (),
    d: Vec = (),
    n: int | None = None,
) -> LPResult:
    """max c.x subject to a x <= b, e x = d over free x in R^n.

    Entries may be ints or Fractions.
    """
    c = vec(c)
    if n is None:
        n = len(c)
    m1 = len(a)
    rows = []
    kept = []  # the caller's index of each inequality row that stays a row
    bounds: dict[int, int] = {}  # bounded column -> the caller's index of its first sign row
    for i, (coeffs, hv) in enumerate((*zip(a, b, strict=True), *zip(e, d, strict=True))):
        row = (*coeffs, hv)
        if all(map(_is_int, row)):
            # the key int_row would give: the row itself over den 1
            row = (*row, 1)
        else:
            ints, den = int_row(row)
            ints.append(den)
            row = tuple(ints)
        if i < m1:
            j = _bound_column(row)
            if j is not None:
                bounds.setdefault(j, i)
                continue
            kept.append(i)
        rows.append(row)
    if not rows:
        return _unconstrained(c, n, bounds)
    phase1 = _phase1(tuple(rows), n, len(kept), tuple(sorted(bounds)))
    if phase1[0] == INFEASIBLE:
        _, y, z = phase1
        if bounds:
            y = _bound_multipliers(a, e, y, z, kept, bounds)
        if not verify_farkas(a, b, e, d, y, z):  # pragma: no cover
            raise AssertionError("internal: invalid Farkas certificate")
        return LPResult(INFEASIBLE, farkas_ineq=y, farkas_eq=z)
    _, start, basis = phase1
    if not start:
        # every row reduced to 0 = 0, so only the bounds constrain x
        return _unconstrained(c, n, bounds)

    # phase 2 on fresh lists; the cached start rows are never pivoted
    t = _Tableau([list(r) for r in start], list(basis))
    cints, cden = int_row(c)
    free = [j for j in range(n) if j not in bounds]
    status, enter, _, _ = t.solve_max(cints + [-cints[j] for j in free] + [0] * len(kept), cden)
    w = t.point() if status == OPTIMAL else t.ray(enter)
    # x+_j and x-_j have opposite columns, so at most one of them is in w
    point = [_ZERO] * n
    for j, v in w.items():
        if j < n:
            point[j] = v
        elif j < n + len(free):
            point[free[j - n]] = -v
    point = tuple(point)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, ray=point)
    return LPResult(OPTIMAL, x=point, objective=dot(c, point))


def _bound_multipliers(a: Mat, e: Mat, y: Vec, z: Vec, kept: list[int], bounds: dict[int, int]) -> Vec:
    """The Farkas vector of the bounded system as one over all the caller's
    inequality rows: the first sign row -k x_j <= 0 of each bounded column j
    takes (y^T A + z^T E)_j / k, which clears column j, and every later one 0."""
    full = [_ZERO] * len(a)
    for i, yi in zip(kept, y, strict=True):
        full[i] = yi
    for j, i in bounds.items():
        comb = sum((full[r] * a[r][j] for r in kept), _ZERO) + sum((zr * row[j] for zr, row in zip(z, e)), _ZERO)
        full[i] = comb / -a[i][j]
    return tuple(full)


def feasible_point(a: Mat, b: Vec, e: Mat = (), d: Vec = (), *, n: int) -> LPResult:
    """Feasibility of {a x <= b, e x = d} in R^n; witness or Farkas certificate."""
    return solve_lp(zeros(n), a, b, e, d, n=n)


def strict_feasible_point(
    a_strict: Mat,
    b_strict: Vec,
    a: Mat = (),
    b: Vec = (),
    e: Mat = (),
    d: Vec = (),
    *,
    n: int,
) -> Vec | None:
    """A point of R^n with a_strict x < b_strict, a x <= b, e x = d, or None.

    Decided exactly by maximizing the margin t of the strict rows, capped at 1.
    """
    if not a_strict:
        res = feasible_point(a, b, e, d, n=n)
        return res.x if res.status == OPTIMAL else None
    a2 = [(*row, 1) for row in a_strict]
    a2 += [(*row, 0) for row in a]
    a2.append((0,) * n + (1,))
    b2 = [*b_strict, *b, 1]
    e2 = [(*row, 0) for row in e]
    res = solve_lp((0,) * n + (1,), a2, b2, e2, d, n=n + 1)
    if res.status != OPTIMAL or res.objective is None or res.objective <= 0:
        return None
    return res.x[:n]


def relative_interior(a: Mat, b: Vec, e: Mat, d: Vec, n: int) -> tuple[Vec, tuple[int, ...]] | None:
    """(p, implicit) for P = {a x <= b, e x = d}, or None when P is empty.

    ``implicit`` lists the rows i of a with a_i x = b_i on all of P, and p is
    a point of the relative interior of P: a_i p < b_i on every other row.
    One LP (Freund, Roundy & Todd 1985): max sum t subject to
    a x + t <= b tau, e x = d tau, 0 <= t <= 1, tau >= 1.  At an optimum t_i
    is 1 on every row that is not implicit and 0 on every implicit row, and
    p = x / tau.  A homogeneous system (b = 0, d = 0) is a cone, so it
    needs no tau: x itself is the point.  The rows -t_i <= 0 are sign rows,
    which ``solve_lp`` reads as the bounds t_i >= 0 on single columns.
    """
    m = len(a)
    homogeneous = not any(b) and not any(d)
    # columns: x (n), t (m), then tau unless homogeneous
    k = n + m + (not homogeneous)
    a2 = []
    for i, (row, bi) in enumerate(zip(a, b, strict=True)):
        r = [*row] + [0] * (k - n)
        r[n + i] = 1
        if not homogeneous:
            r[-1] = -bi
        a2.append(tuple(r))
    for sgn in (1, -1):
        for i in range(m):
            r = [0] * k
            r[n + i] = sgn
            a2.append(tuple(r))
    b2 = [0] * m + [1] * m + [0] * m
    pad = (0,) * m
    if homogeneous:
        e2 = tuple((*row, *pad) for row in e)
    else:
        a2.append((0,) * (k - 1) + (-1,))
        b2.append(-1)
        e2 = tuple((*row, *pad, -di) for row, di in zip(e, d, strict=True))
    c = (0,) * n + (1,) * m + (0,) * (k - n - m)
    res = solve_lp(c, a2, b2, e2, (0,) * len(e2), n=k)
    if res.status != OPTIMAL:
        return None
    x = res.x
    p = x[:n] if homogeneous else tuple(v / x[-1] for v in x[:n])
    return p, tuple(i for i in range(m) if x[n + i] == 0)
