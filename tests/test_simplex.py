"""LP kernel: optimality, unboundedness, Farkas certificates and relative interiors."""

import random
from fractions import Fraction as Q

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from dircq import simplex
from dircq.linalg import dot, is_zero, vec, zeros
from dircq.simplex import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LPResult,
    feasible_point,
    relative_interior,
    solve_lp,
    strict_feasible_point,
    verify_farkas,
)


def mat(rows):
    """The rows as a matrix of Fractions."""
    return tuple(vec(r) for r in rows)


def test_simple_max():
    # max x + y, x <= 1, y <= 2, x + y <= 5/2
    res = solve_lp(
        vec([1, 1]),
        mat([[1, 0], [0, 1], [1, 1]]),
        vec([1, 2, Q(5, 2)]),
    )
    assert res.status == OPTIMAL
    assert res.objective == Q(5, 2)


def test_unbounded():
    res = solve_lp(vec([1]), mat([[-1]]), vec([0]))
    assert res.status == UNBOUNDED
    assert res.ray is not None and res.ray[0] > 0


def test_infeasible_with_farkas():
    # x <= 1, -x <= -2
    a, b = mat([[1], [-1]]), vec([1, -2])
    res = feasible_point(a, b, n=1)
    assert res.status == INFEASIBLE
    assert verify_farkas(a, b, (), (), res.farkas_ineq, res.farkas_eq)
    assert res.farkas_ineq == vec([1, 1])


def test_equality_feasible():
    # x >= 0, y >= 0, x + y = 1
    res = feasible_point(mat([[-1, 0], [0, -1]]), vec([0, 0]), mat([[1, 1]]), vec([1]), n=2)
    assert res.status == OPTIMAL
    x = res.x
    assert x[0] >= 0 and x[1] >= 0 and x[0] + x[1] == 1


def test_equality_infeasible_farkas():
    a, b = mat([[-1, 0], [0, -1]]), vec([0, 0])
    e, d = mat([[1, 1]]), vec([-1])
    res = feasible_point(a, b, e, d, n=2)
    assert res.status == INFEASIBLE
    assert verify_farkas(a, b, e, d, res.farkas_ineq, res.farkas_eq)


def test_strict_feasibility():
    # x < 0 together with x >= 0 is impossible
    assert strict_feasible_point(mat([[1]]), vec([0]), mat([[-1]]), vec([0]), n=1) is None
    p = strict_feasible_point(mat([[-1, 0], [0, -1]]), vec([0, 0]), n=2)
    assert p is not None and p[0] > 0 and p[1] > 0


def test_random_feasibility_agrees_with_float_lp():
    # spec example: 500 random 3-dim systems vs a floating LP oracle;
    # disagreements are resolved by the exact certificate.
    rng = random.Random(20240817)
    n = 3
    checked = 0
    for _ in range(500):
        m = rng.randint(1, 6)
        a = [[Q(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
        b = [Q(rng.randint(-3, 3)) for _ in range(m)]
        res = feasible_point(mat(a), vec(b), n=n)
        af = np.array([[float(x) for x in row] for row in a])
        bf = np.array([float(x) for x in b])
        lp = linprog(
            np.zeros(n), A_ub=af, b_ub=bf, bounds=[(None, None)] * n, method="highs"
        )
        if res.status == OPTIMAL:
            x = res.x
            assert all(
                sum(ai * xi for ai, xi in zip(row, x)) <= bi for row, bi in zip(a, b)
            )
            if lp.status == 2:
                continue  # float oracle is wrong; exact witness settles it
        else:
            assert verify_farkas(mat(a), vec(b), (), (), res.farkas_ineq, res.farkas_eq)
            if lp.status == 0:
                continue
        assert (res.status == OPTIMAL) == (lp.status == 0)
        checked += 1
    assert checked >= 450


def test_rows_all_zero():
    # every equality row reduces to 0 = 0: the constraints hold on all of R^2
    res = solve_lp(vec([0, 0]), e=mat([[0, 0]]), d=vec([0]))
    assert res.status == OPTIMAL
    assert res.x == vec([0, 0]) and res.objective == 0
    res = solve_lp(vec([1, -2]), e=mat([[0, 0], [0, 0]]), d=vec([0, 0]))
    assert res.status == UNBOUNDED
    assert res.ray == vec([1, -2])


# ---------------------------------------------------------------------------
# reference oracle: the rational Bland tableau that the integer one replaces


class _RationalTableau:
    """Dense Fraction tableau over nonnegative variables for G w = h, h >= 0."""

    def __init__(self, g, h, basis):
        self.g, self.h, self.basis = g, h, basis
        self.m = len(g)
        self.n = len(g[0]) if g else 0

    def pivot(self, r, c):
        pv = self.g[r][c]
        self.g[r] = [x / pv for x in self.g[r]]
        self.h[r] /= pv
        for i in range(self.m):
            if i != r and self.g[i][c] != 0:
                f = self.g[i][c]
                self.g[i] = [x - f * y for x, y in zip(self.g[i], self.g[r])]
                self.h[i] -= f * self.h[r]
        self.basis[r] = c

    def solve_max(self, c):
        m, n = self.m, self.n
        red = list(c)
        for r, bc in enumerate(self.basis):
            if red[bc] != 0:
                f = red[bc]
                red = [x - f * y for x, y in zip(red, self.g[r])]
        while True:
            enter = next((j for j in range(n) if red[j] > 0), None)
            if enter is None:
                w = [Q(0)] * n
                for r, bc in enumerate(self.basis):
                    w[bc] = self.h[r]
                return OPTIMAL, w, red
            ratios = [
                (self.h[r] / self.g[r][enter], self.basis[r], r)
                for r in range(m)
                if self.g[r][enter] > 0
            ]
            if not ratios:
                ray = [Q(0)] * n
                ray[enter] = Q(1)
                for r, bc in enumerate(self.basis):
                    ray[bc] = -self.g[r][enter]
                return UNBOUNDED, ray, red
            _, _, leave = min(ratios)
            f = red[enter] / self.g[leave][enter]
            red = [x - f * y for x, y in zip(red, self.g[leave])]
            self.pivot(leave, enter)


def _reference_unconstrained(c, n):
    if is_zero(c):
        return LPResult(OPTIMAL, x=zeros(n), objective=Q(0))
    return LPResult(UNBOUNDED, ray=c)


def reference_solve_lp(c, a=(), b=(), e=(), d=(), n=None):
    a, b, e, d, c = mat(a), vec(b), mat(e), vec(d), vec(c)
    if n is None:
        n = len(c)
    m1, m2 = len(a), len(e)
    ncols = 2 * n + m1
    rows, rhs, flip = [], [], []
    for i in range(m1 + m2):
        coeffs = a[i] if i < m1 else e[i - m1]
        r = list(coeffs) + [-x for x in coeffs] + [Q(0)] * m1
        if i < m1:
            r[2 * n + i] = Q(1)
        hv = b[i] if i < m1 else d[i - m1]
        if hv < 0:
            r, hv = [-x for x in r], -hv
            flip.append(Q(-1))
        else:
            flip.append(Q(1))
        rows.append(r)
        rhs.append(hv)
    mrows = len(rows)
    if mrows == 0:
        return _reference_unconstrained(c, n)
    g1 = [row + [Q(1 if j == i else 0) for j in range(mrows)] for i, row in enumerate(rows)]
    t = _RationalTableau(g1, list(rhs), [ncols + i for i in range(mrows)])
    _, w, red = t.solve_max([Q(0)] * ncols + [Q(-1)] * mrows)
    if sum(w[ncols:], Q(0)) > 0:
        cert = [(-1 - red[ncols + i]) * flip[i] for i in range(mrows)]
        return LPResult(INFEASIBLE, farkas_ineq=vec(cert[:m1]), farkas_eq=vec(cert[m1:]))
    for r in range(mrows):
        if t.basis[r] >= ncols:
            c_enter = next((j for j in range(ncols) if t.g[r][j] != 0), None)
            if c_enter is not None:
                t.pivot(r, c_enter)
    keep = [r for r in range(mrows) if t.basis[r] < ncols]
    if not keep:
        return _reference_unconstrained(c, n)
    t2 = _RationalTableau(
        [t.g[r][:ncols] for r in keep], [t.h[r] for r in keep], [t.basis[r] for r in keep]
    )
    status, w, _ = t2.solve_max(list(c) + [-x for x in c] + [Q(0)] * m1)
    point = vec(w[j] - w[n + j] for j in range(n))
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, ray=point)
    return LPResult(OPTIMAL, x=point, objective=dot(c, point))


def _degenerate_lp(pick):
    """A small LP (c, a, b, e, d, n) drawn by ``pick(choices)``.

    Right-hand sides may be negative; a row may be repeated, possibly
    rescaled, which ties the ratio test; all-zero rows 0 <= h and 0 = 0 occur.
    """
    vals = (Q(-2), Q(-1), Q(-1, 2), Q(0), Q(0), Q(1, 3), Q(1), Q(2))
    n = pick((1, 2, 3))

    def row():
        return [pick(vals) for _ in range(n)]

    a = [row() for _ in range(pick(range(5)))]
    b = [pick(vals) for _ in a]
    e = [row() for _ in range(pick(range(3)))]
    d = [pick(vals) for _ in e]
    for rows, rhs in ((a, b), (e, d)):
        if rows and pick((False, True)):
            i = pick(range(len(rows)))
            k = pick((Q(1), Q(2), Q(1, 2)))
            rows.append([k * x for x in rows[i]])
            rhs.append(k * rhs[i])
    for _ in range(pick((0, 0, 1, 2))):
        if pick((False, True)):
            a.append([Q(0)] * n)
            b.append(pick((Q(0), Q(1), Q(-1))))
        else:
            e.append([Q(0)] * n)
            d.append(Q(0))
    return row(), a, b, e, d, n


@st.composite
def _degenerate_lps(draw):
    return _degenerate_lp(lambda xs: draw(st.sampled_from(xs)))


@settings(max_examples=300, deadline=None)
@given(_degenerate_lps())
def test_same_result_as_rational_tableau(lp):
    c, a, b, e, d, n = lp
    assert solve_lp(c, a, b, e, d, n=n) == reference_solve_lp(c, a, b, e, d, n=n)


def test_same_result_as_rational_tableau_every_status():
    rng = random.Random(20261018)
    seen = {OPTIMAL: 0, UNBOUNDED: 0, INFEASIBLE: 0}
    for _ in range(1500):
        c, a, b, e, d, n = _degenerate_lp(rng.choice)
        res = solve_lp(c, a, b, e, d, n=n)
        assert res == reference_solve_lp(c, a, b, e, d, n=n), (c, a, b, e, d)
        seen[res.status] += 1
    assert min(seen.values()) >= 150, seen


# ---------------------------------------------------------------------------
# the phase-1 cache: one phase 1 per constraint system, one phase 2 per call


def test_many_objectives_over_one_system():
    rng = random.Random(20261019)
    for _ in range(150):
        _, a, b, e, d, n = _degenerate_lp(rng.choice)
        objectives = [[rng.choice((Q(-1), Q(0), Q(1), Q(2))) for _ in range(n)] for _ in range(4)]
        objectives += [[Q(s) if j == i else Q(0) for j in range(n)] for i in range(n) for s in (1, -1)]
        simplex._phase1.cache_clear()
        for c in rng.sample(objectives, len(objectives)):
            assert solve_lp(c, a, b, e, d, n=n) == reference_solve_lp(c, a, b, e, d, n=n), (c, a, b, e, d)


def test_cache_keys_on_split_and_dimension():
    phase1 = simplex._phase1
    phase1.cache_clear()
    rows, rhs = [[1, 0], [0, 1]], [1, 1]
    c = [1, 1]
    systems = [
        dict(a=rows, b=rhs, n=2),  # x <= 1, y <= 1
        dict(a=rows[:1], b=rhs[:1], e=rows[1:], d=rhs[1:], n=2),  # x <= 1, y = 1
        dict(e=rows, d=rhs, n=2),  # x = 1, y = 1
        dict(a=[[1]], b=[1], n=1),  # x <= 1 in R^1
        dict(a=[[1, 0]], b=[1], n=2),  # the same row in R^2
    ]
    results = []
    for k, sys in enumerate(systems):
        cc = c[: sys["n"]]
        res = solve_lp(cc, **sys)
        assert res == reference_solve_lp(cc, **sys), sys
        assert phase1.cache_info().misses == k + 1, sys
        results.append(res)
    # the second round hits every entry and still gives each system its own answer
    for sys, res in zip(systems, results):
        assert solve_lp(c[: sys["n"]], **sys) == res
    assert phase1.cache_info().misses == len(systems)
    assert [r.status for r in results] == [OPTIMAL] * 4 + [UNBOUNDED]


def test_int_and_fraction_inputs_agree():
    rng = random.Random(20261020)
    phase1 = simplex._phase1
    for _ in range(200):
        c, a, b, e, d, n = _degenerate_lp(rng.choice)
        as_int = [[[int(2 * x) for x in row] for row in m] for m in (a, e)]
        ai, ei = as_int
        bi, di, ci = ([int(2 * x) for x in v] for v in (b, d, c))
        phase1.cache_clear()
        res = solve_lp(ci, ai, bi, ei, di, n=n)
        hits = phase1.cache_info().hits
        fres = solve_lp(vec(ci), mat(ai), vec(bi), mat(ei), vec(di), n=n)
        assert res == fres == reference_solve_lp(ci, ai, bi, ei, di, n=n)
        if ai or ei:
            assert phase1.cache_info().hits == hits + 1
        for v in (res.x, res.ray, res.farkas_ineq, res.farkas_eq):
            assert v is None or all(type(x) is Q for x in v)
        if res.status == INFEASIBLE:
            assert verify_farkas(ai, bi, ei, di, res.farkas_ineq, res.farkas_eq)


# ---------------------------------------------------------------------------
# relative interior and implicit equalities: one LP


def check_relative_interior(a, b, e, d, n):
    """relative_interior against feasible_point and one slack LP per implicit row,
    with every row checked in plain Fractions."""
    res = relative_interior(a, b, e, d, n=n)
    feas = feasible_point(a, b, e, d, n=n)
    assert (res is None) == (feas.status == INFEASIBLE)
    if res is None:
        return None
    p, implicit = res
    assert len(p) == n and all(type(x) is Q for x in p)
    assert list(implicit) == sorted(set(implicit))
    for row, bi in zip(e, d):
        assert dot(row, p) == bi
    for i, (row, bi) in enumerate(zip(a, b)):
        if i in implicit:
            assert dot(row, p) == bi
            # the largest slack b_i - a_i x over the set is 0
            slack = solve_lp(vec(-x for x in row), a, b, e, d, n=n)
            assert slack.status == OPTIMAL and slack.objective == -bi
        else:
            assert dot(row, p) < bi
    return res


@st.composite
def _linear_systems(draw):
    """Small int systems {a x <= b, e x = d} with zero, duplicate, rescaled
    (also by a Fraction) and paired rows a x <= b, -a x <= -b."""
    n = draw(st.integers(1, 3))
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    homogeneous = draw(st.booleans())
    rhs = st.just(0) if homogeneous else st.integers(-2, 2)
    a = draw(st.lists(row, max_size=4))
    b = [draw(rhs) for _ in a]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("zero", "duplicate", "rescale", "pair")))
        if kind == "zero":
            a.append([0] * n)
            b.append(draw(rhs))
            continue
        if not a:
            continue
        i = draw(st.integers(0, len(a) - 1))
        k = {"duplicate": 1, "pair": -1}.get(kind) or draw(st.sampled_from((2, 3, Q(1, 2), Q(2, 3))))
        a.append([k * x for x in a[i]])
        b.append(k * b[i])
    e = draw(st.lists(row, max_size=2))
    d = [draw(rhs) for _ in e]
    order = draw(st.permutations(range(len(a))))
    return [a[i] for i in order], [b[i] for i in order], e, d, n


@settings(max_examples=300, deadline=None)
@given(_linear_systems())
def test_relative_interior_point_and_implicit_rows(system):
    check_relative_interior(*system)


def test_relative_interior_cases():
    # n = 1: an interval, a point (paired rows), an empty set, the whole line
    assert check_relative_interior([[1], [-1]], [1, 0], [], [], 1)[1] == ()
    assert check_relative_interior([[1], [-1]], [1, -1], [], [], 1) == ((Q(1),), (0, 1))
    assert check_relative_interior([[1], [-1]], [0, -1], [], [], 1) is None
    assert check_relative_interior([], [], [], [], 1) == ((Q(0),), ())
    # zero rows: 0 <= 0 is implicit, 0 <= 1 is not, 0 <= -1 empties the set
    assert check_relative_interior([[0, 0], [0, 0], [1, 1]], [0, 1, 2], [], [], 2)[1] == (0,)
    assert check_relative_interior([[0, 0], [1, 1]], [-1, 2], [], [], 2) is None
    # x + y = 2 as paired rows with a nonzero right-hand side, y <= 3 free
    assert check_relative_interior([[1, 1], [-1, -1], [0, 1]], [2, -2, 3], [], [], 2)[1] == (0, 1)
    # duplicate and rescaled rows of one implicit pair, in a homogeneous cone
    cone = [[1, 0], [-2, 0], [Q(1, 2), 0], [0, -1]]
    assert check_relative_interior(cone, [0, 0, 0, 0], [], [], 2)[1] == (0, 1, 2)
    # an unbounded set with an equality row off the origin
    p, implicit = check_relative_interior([[-1, 0, 0]], [0], [[0, 1, 1]], [1], 3)
    assert implicit == () and p[0] > 0
    # only equalities
    assert check_relative_interior([], [], [[1, 1]], [1], 2)[1] == ()


def test_relative_interior_is_one_counted_lp(monkeypatch):
    calls = []
    original = simplex.solve_lp

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(simplex, "solve_lp", counted)
    for a, b, e, d, n in (
        ([[1], [-1]], [1, 0], [], [], 1),  # bounded, tau column
        ([[1, 0], [-1, 0]], [0, 0], [[0, 1]], [0], 2),  # homogeneous, no tau
        ([[1], [-1]], [0, -1], [], [], 1),  # empty
    ):
        calls.clear()
        relative_interior(a, b, e, d, n)
        assert len(calls) == 1
