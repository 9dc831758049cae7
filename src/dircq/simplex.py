"""Exact rational simplex: max c.x s.t. A x <= b, E x = d, x free.

Two-phase tableau method with Bland's rule (guaranteed termination).
Infeasibility comes with a Farkas certificate: a vector (y, z) with y >= 0,
y^T A + z^T E = 0 and y^T b + z^T d < 0, which verifies by plain arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from dircq.linalg import Mat, Vec, dot, is_zero, mat, vec, zeros

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
    """Dense tableau over nonnegative variables for rows G w = h, h >= 0."""

    def __init__(self, g: list[list[Fraction]], h: list[Fraction], basis: list[int]):
        self.g = g
        self.h = h
        self.m = len(g)
        self.n = len(g[0]) if g else 0
        self.basis = basis

    def pivot(self, r: int, c: int) -> None:
        pv = self.g[r][c]
        self.g[r] = [x / pv for x in self.g[r]]
        self.h[r] /= pv
        for i in range(self.m):
            if i != r and self.g[i][c] != 0:
                f = self.g[i][c]
                self.g[i] = [x - f * y for x, y in zip(self.g[i], self.g[r])]
                self.h[i] -= f * self.h[r]
        self.basis[r] = c

    def solve_max(
        self, c: list[Fraction]
    ) -> tuple[str, list[Fraction], list[Fraction]]:
        """Maximize c.w from the current feasible basis (Bland's rule).

        Returns (status, point-or-ray, final reduced costs).
        """
        m, n = self.m, self.n
        red = list(c)
        for r, bc in enumerate(self.basis):
            if red[bc] != 0:
                f = red[bc]
                red = [x - f * y for x, y in zip(red, self.g[r])]
        while True:
            enter = next((j for j in range(n) if red[j] > 0), None)
            if enter is None:
                w = [Fraction(0)] * n
                for r, bc in enumerate(self.basis):
                    w[bc] = self.h[r]
                return OPTIMAL, w, red
            ratios = [
                (self.h[r] / self.g[r][enter], self.basis[r], r)
                for r in range(m)
                if self.g[r][enter] > 0
            ]
            if not ratios:
                ray = [Fraction(0)] * n
                ray[enter] = Fraction(1)
                for r, bc in enumerate(self.basis):
                    ray[bc] = -self.g[r][enter]
                return UNBOUNDED, ray, red
            _, _, leave = min(ratios)
            f = red[enter] / self.g[leave][enter]
            red = [x - f * y for x, y in zip(red, self.g[leave])]
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

    # columns: x+ (n), x- (n), slacks (m1); rows sign-flipped so rhs >= 0
    ncols = 2 * n + m1
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    flip: list[Fraction] = []
    for i in range(m1 + m2):
        coeffs = a[i] if i < m1 else e[i - m1]
        r = list(coeffs) + [-x for x in coeffs] + [Fraction(0)] * m1
        if i < m1:
            r[2 * n + i] = Fraction(1)
        hv = b[i] if i < m1 else d[i - m1]
        if hv < 0:
            r = [-x for x in r]
            hv = -hv
            flip.append(Fraction(-1))
        else:
            flip.append(Fraction(1))
        rows.append(r)
        rhs.append(hv)

    # phase 1: minimize artificials (as max of their negated sum)
    mrows = len(rows)
    g1 = [
        row + [Fraction(1 if j == i else 0) for j in range(mrows)]
        for i, row in enumerate(rows)
    ]
    t = _Tableau(g1, list(rhs), [ncols + i for i in range(mrows)])
    phase1_obj = [Fraction(0)] * ncols + [Fraction(-1)] * mrows
    status, w, red = t.solve_max(phase1_obj)
    if status != OPTIMAL:  # pragma: no cover
        raise RuntimeError("internal: phase 1 objective is bounded by 0")
    if sum(w[ncols:], Fraction(0)) > 0:
        # dual y_i = -1 - red(artificial_i); w = y * flip is the certificate
        cert = [(-1 - red[ncols + i]) * flip[i] for i in range(mrows)]
        farkas_ineq = vec(cert[:m1])
        farkas_eq = vec(cert[m1:])
        if not verify_farkas(a, b, e, d, farkas_ineq, farkas_eq):  # pragma: no cover
            raise AssertionError("internal: invalid Farkas certificate")
        return LPResult(INFEASIBLE, farkas_ineq=farkas_ineq, farkas_eq=farkas_eq)

    # drive remaining artificials out of the basis where possible
    for r in range(mrows):
        if t.basis[r] >= ncols:
            c_enter = next((j for j in range(ncols) if t.g[r][j] != 0), None)
            if c_enter is not None:
                t.pivot(r, c_enter)

    # phase 2 on the original columns (rows with stuck artificials are 0 = 0)
    keep = [r for r in range(mrows) if t.basis[r] < ncols]
    if not keep:
        # every row reduced to 0 = 0, so the constraints hold on all of R^n
        return _unconstrained(c, n)
    t2 = _Tableau(
        [t.g[r][:ncols] for r in keep],
        [t.h[r] for r in keep],
        [t.basis[r] for r in keep],
    )
    obj = list(c) + [-x for x in c] + [Fraction(0)] * m1
    status, w, _ = t2.solve_max(obj)
    point = vec(w[j] - w[n + j] for j in range(n))
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
