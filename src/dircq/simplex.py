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
tableau would take and every returned value is the same.  Fractions are built
only for the returned point, ray and Farkas vector.

Free variables are split as x = x+ - x-, and the columns are x+, x-, slacks,
then phase-1 artificials.  That layout fixes Bland's pivot path, and with it
which optimal vertex, ray and certificate callers see; the reports derived
from them depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from dircq.linalg import Mat, Vec, dot, int_row, is_zero, mat, primitive, vec, zeros

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
        self, c: list[Fraction]
    ) -> tuple[str, int | None, list[int], int]:
        """Maximize c.w from the current feasible basis (Bland's rule).

        Returns (status, the entering column of an unbounded ray or None,
        final reduced costs, their positive common denominator).
        """
        n = self.n
        red, den = int_row(c)
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


def _unconstrained(c: Vec, n: int) -> LPResult:
    """max c.x over all of R^n."""
    if is_zero(c):
        return LPResult(OPTIMAL, x=zeros(n), objective=Fraction(0))
    return LPResult(UNBOUNDED, ray=c)


def solve_lp(
    c: Vec,
    a: Mat = (),
    b: Vec = (),
    e: Mat = (),
    d: Vec = (),
    n: int | None = None,
) -> LPResult:
    """max c.x subject to a x <= b, e x = d over free x in R^n."""
    a, b, e, d, c = mat(a), vec(b), mat(e), vec(d), vec(c)
    if n is None:
        n = len(c)
    m1, m2 = len(a), len(e)
    if m1 + m2 == 0:
        return _unconstrained(c, n)

    # columns: x+ (n), x- (n), slacks (m1), artificials (m1 + m2), rhs; each
    # row is scaled to coprime ints and sign-flipped so that its rhs is >= 0
    mrows = m1 + m2
    ncols = 2 * n + m1
    rows: list[list[int]] = []
    flip: list[int] = []
    for i in range(mrows):
        coeffs = a[i] if i < m1 else e[i - m1]
        hv = b[i] if i < m1 else d[i - m1]
        (*ints, h), den = int_row((*coeffs, hv))
        r = ints + [-x for x in ints] + [0] * (m1 + mrows) + [h]
        if i < m1:
            r[2 * n + i] = den
        s = -1 if h < 0 else 1
        if s < 0:
            r = [-x for x in r]
        r[ncols + i] = den
        flip.append(s)
        rows.append(r)

    # phase 1: minimize artificials (as max of their negated sum)
    t = _Tableau(rows, [ncols + i for i in range(mrows)])
    phase1_obj = [Fraction(0)] * ncols + [Fraction(-1)] * mrows
    status, _, red, den = t.solve_max(phase1_obj)
    if status != OPTIMAL:  # pragma: no cover
        raise RuntimeError("internal: phase 1 objective is bounded by 0")
    # infeasible iff an artificial stays basic at a positive value
    if any(t.t[r][-1] > 0 for r, bc in enumerate(t.basis) if bc >= ncols):
        # dual y_i = -1 - red(artificial_i); w = y * flip is the certificate
        cert = [Fraction((-den - red[ncols + i]) * flip[i], den) for i in range(mrows)]
        farkas_ineq = vec(cert[:m1])
        farkas_eq = vec(cert[m1:])
        if not verify_farkas(a, b, e, d, farkas_ineq, farkas_eq):  # pragma: no cover
            raise AssertionError("internal: invalid Farkas certificate")
        return LPResult(INFEASIBLE, farkas_ineq=farkas_ineq, farkas_eq=farkas_eq)

    # drive remaining artificials out of the basis where possible
    for r in range(mrows):
        if t.basis[r] >= ncols:
            c_enter = next((j for j in range(ncols) if t.t[r][j] != 0), None)
            if c_enter is not None:
                t.pivot(r, c_enter)

    # phase 2 on the original columns (rows with stuck artificials are 0 = 0)
    keep = [r for r in range(mrows) if t.basis[r] < ncols]
    if not keep:
        # every row reduced to 0 = 0, so the constraints hold on all of R^n
        return _unconstrained(c, n)
    t2 = _Tableau(
        [primitive(t.t[r][:ncols] + [t.t[r][-1]]) for r in keep],
        [t.basis[r] for r in keep],
    )
    obj = list(c) + [-x for x in c] + [Fraction(0)] * m1
    status, enter, _, _ = t2.solve_max(obj)
    w = t2.point() if status == OPTIMAL else t2.ray(enter)
    point = tuple(w.get(j, Fraction(0)) - w.get(n + j, Fraction(0)) for j in range(n))
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, ray=point)
    return LPResult(OPTIMAL, x=point, objective=dot(c, point))


def feasible_point(
    a: Mat, b: Vec, e: Mat = (), d: Vec = (), n: int | None = None
) -> LPResult:
    """Feasibility of {a x <= b, e x = d}; witness or Farkas certificate."""
    if n is None:
        if a:
            n = len(a[0])
        elif e:
            n = len(e[0])
        else:
            raise ValueError("cannot infer dimension")
    return solve_lp(zeros(n), a, b, e, d, n=n)


def strict_feasible_point(
    a_strict: Mat,
    b_strict: Vec,
    a: Mat = (),
    b: Vec = (),
    e: Mat = (),
    d: Vec = (),
    n: int | None = None,
) -> Vec | None:
    """A point with a_strict x < b_strict, a x <= b, e x = d, or None.

    Decided exactly by maximizing the margin t of the strict rows, capped at 1.
    """
    if n is None:
        for m_ in (a_strict, a, e):
            if m_:
                n = len(m_[0])
                break
        else:
            raise ValueError("cannot infer dimension")
    if not a_strict:
        res = feasible_point(a, b, e, d, n=n)
        return res.x if res.status == OPTIMAL else None
    a2 = [tuple(row) + (Fraction(1),) for row in a_strict]
    b2 = list(b_strict)
    for row, bi in zip(a, b, strict=True):
        a2.append(tuple(row) + (Fraction(0),))
        b2.append(bi)
    a2.append(zeros(n) + (Fraction(1),))
    b2.append(Fraction(1))
    e2 = tuple(tuple(row) + (Fraction(0),) for row in e)
    cobj = zeros(n) + (Fraction(1),)
    res = solve_lp(cobj, mat(a2), vec(b2), e2, d, n=n + 1)
    if res.status != OPTIMAL or res.objective is None or res.objective <= 0:
        return None
    return res.x[:n]
