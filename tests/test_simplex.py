"""LP kernel: optimality, unboundedness, and Farkas certificates."""

import random
from fractions import Fraction as Q

import numpy as np
from scipy.optimize import linprog

from dircq.linalg import mat, vec
from dircq.simplex import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    feasible_point,
    solve_lp,
    strict_feasible_point,
    verify_farkas,
)


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
    res = feasible_point(a, b)
    assert res.status == INFEASIBLE
    assert verify_farkas(a, b, (), (), res.farkas_ineq, res.farkas_eq)
    assert res.farkas_ineq == vec([1, 1])


def test_equality_feasible():
    # x >= 0, y >= 0, x + y = 1
    res = feasible_point(mat([[-1, 0], [0, -1]]), vec([0, 0]), mat([[1, 1]]), vec([1]))
    assert res.status == OPTIMAL
    x = res.x
    assert x[0] >= 0 and x[1] >= 0 and x[0] + x[1] == 1


def test_equality_infeasible_farkas():
    a, b = mat([[-1, 0], [0, -1]]), vec([0, 0])
    e, d = mat([[1, 1]]), vec([-1])
    res = feasible_point(a, b, e, d)
    assert res.status == INFEASIBLE
    assert verify_farkas(a, b, e, d, res.farkas_ineq, res.farkas_eq)


def test_strict_feasibility():
    # x < 0 together with x >= 0 is impossible
    assert strict_feasible_point(mat([[1]]), vec([0]), mat([[-1]]), vec([0])) is None
    p = strict_feasible_point(mat([[-1, 0], [0, -1]]), vec([0, 0]))
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
        res = feasible_point(mat(a), vec(b))
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
