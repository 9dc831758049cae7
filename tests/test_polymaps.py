"""Polynomial maps: exact derivatives, scalarized Hessians, parser."""

import random
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dircq.linalg import dot, mat_t_vec, vec
from dircq.polymaps import Poly, PolyMap, parse_poly, read_point


def pm(*literals, n):
    return PolyMap.parse(list(literals), n)


def test_parser_roundtrip():
    p = parse_poly("3/2 x0^2 x1 - x2 + 1", ["x0", "x1", "x2"])
    assert p.eval(vec([2, 1, 5])) == Q(3, 2) * 4 - 5 + 1
    q = parse_poly("-x0^2", ["x0"])
    assert q.eval(vec([3])) == -9
    r = parse_poly("x0*x1 + 2", ["x0", "x1"])
    assert r.eval(vec([2, 3])) == 8
    s = parse_poly("- - x0", ["x0"])
    assert s.eval(vec([5])) == 5


def test_parser_keeps_juxtaposition():
    assert parse_poly("2 x0", ["x0"]) == parse_poly("2*x0", ["x0"])


def test_parser_rejects_double_star():
    # "x0 ** 2" once read as 2*x0, because each "*" was skipped
    with pytest.raises(ValueError, match="between two factors"):
        parse_poly("x0 ** 2", ["x0"])


@pytest.mark.parametrize("text", ["* x0", "x0 *", "x0 * - 2", "x0 +* 2"])
def test_parser_rejects_star_outside_a_product(text):
    with pytest.raises(ValueError, match="between two factors"):
        parse_poly(text, ["x0"])


@pytest.mark.parametrize("text", ["x0 +", "x0 -", "x0 - -"])
def test_parser_rejects_trailing_sign(text):
    with pytest.raises(ValueError, match="sign without a term"):
        parse_poly(text, ["x0"])


def test_jacobian_parabola():
    g = pm("x0", "-x0^2", n=1)
    assert g.jacobian(vec([0])) == ((Q(1),), (Q(0),))
    assert g.jacobian(vec([3])) == ((Q(1),), (Q(-6),))


def test_jacobian_linear_map_constant():
    g = pm("2 x0 + x1", "x0 - 3 x1", n=2)
    j0 = g.jacobian(vec([0, 0]))
    j1 = g.jacobian(vec([7, -2]))
    assert j0 == j1 == ((Q(2), Q(1)), (Q(1), Q(-3)))


def test_jacobian_matches_finite_differences():
    rng = random.Random(99)
    for _ in range(10):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        names = [f"x{i}" for i in range(n)]
        lits = []
        for _ in range(m):
            terms = []
            for _ in range(rng.randint(1, 4)):
                c = rng.randint(-3, 3)
                es = [rng.randint(0, 3) for _ in range(n)]
                if sum(es) > 3 or c == 0:
                    continue
                mono = " ".join(f"{nm}^{e}" for nm, e in zip(names, es) if e)
                terms.append(f"{c} {mono}" if mono else str(c))
            lits.append(" + ".join(terms) if terms else "0 x0" if n else "0")
        lits = [s if s.strip() else "x0" for s in lits]
        try:
            g = pm(*lits, n=n)
        except ValueError:
            continue
        x = vec([rng.randint(-2, 2) for _ in range(n)])
        jac = np.array([[float(v) for v in row] for row in g.jacobian(x)])
        h = 1e-6
        xf = np.array([float(v) for v in x])
        for j in range(n):
            ep = xf.copy()
            em = xf.copy()
            ep[j] += h
            em[j] -= h
            fp = np.array([float(p.eval(vec([Q(v).limit_denominator(10**12) for v in ep]))) for p in g.components])
            fm = np.array([float(p.eval(vec([Q(v).limit_denominator(10**12) for v in em]))) for p in g.components])
            fd = (fp - fm) / (2 * h)
            assert np.allclose(jac[:, j], fd, rtol=1e-4, atol=1e-4)


def test_hessian_scalarized_parabola():
    g = pm("x0", "-x0^2", n=1)
    h = g.hessian_scalarized(vec([0]), vec([0, Q(5)]))
    assert h == ((Q(-10),),)
    assert g.hessian_scalarized(vec([0]), vec([0, 0])) == ((Q(0),),)


def test_second_order_vector():
    g = pm("x0", "-x0^2", n=1)
    assert g.second_order(vec([0]), vec([1]))[1] == (Q(0), Q(-2))
    lin = pm("3 x0 + x1", "x0", n=2)
    assert lin.second_order(vec([1, 2]), vec([1, 1]))[1] == (Q(0), Q(0))


def test_scalarization_identity_random():
    rng = random.Random(123)
    for _ in range(20):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        comps = []
        for _ in range(m):
            terms = {}
            for _ in range(4):
                es = tuple(rng.randint(0, 2) for _ in range(n))
                if sum(es) <= 2:
                    terms[es] = Q(rng.randint(-3, 3))
            comps.append(Poly.make(terms, n))
        g = PolyMap.make(comps)
        x = vec([rng.randint(-2, 2) for _ in range(n)])
        u = vec([rng.randint(-2, 2) for _ in range(n)])
        ystar = vec([rng.randint(-2, 2) for _ in range(m)])
        lhs = dot(ystar, g.second_order(x, u)[1])
        h = g.hessian_scalarized(x, ystar)
        rhs = dot(u, tuple(dot(row, u) for row in h))
        assert lhs == rhs
        # curvature matrix agrees with the scalarized Hessian applied to u
        b = g.second_order(x, u)[0]
        bv = tuple(dot(row, ystar) for row in b)
        hv = tuple(dot(row, u) for row in h)
        assert bv == hv


def test_adjoint_duality():
    rng = random.Random(7)
    g = pm("x0^2 + x1", "x0 x1", "x1^2 - x0", n=2)
    for _ in range(10):
        x = vec([rng.randint(-2, 2), rng.randint(-2, 2)])
        u = vec([rng.randint(-3, 3), rng.randint(-3, 3)])
        y = vec([rng.randint(-3, 3) for _ in range(3)])
        j = g.jacobian(x)
        lhs = dot(tuple(dot(row, u) for row in j), y)
        rhs = dot(u, mat_t_vec(j, y))
        assert lhs == rhs


def test_substitute_linear():
    # p(x) = x0^2 with x0 -> x1 + x2 gives (x1 + x2)^2 in the new space
    p = parse_poly("x0^2", ["x0"])
    img = parse_poly("x1 + x2", ["x0", "x1", "x2"])
    q = p.substitute_linear([img])
    assert q.eval(vec([9, 1, 2])) == 9
    assert q.eval(vec([0, -1, 1])) == 0


# ---------------------------------------------------------------------------
# compiled kernels against plain Fraction arithmetic


def ref_eval(p: Poly, x) -> Q:
    """Term-by-term Fraction evaluation."""
    x = vec(x)
    if len(x) != p.nvars:
        raise ValueError("point has wrong dimension")
    total = Q(0)
    for exps, coeff in p.terms:
        v = coeff
        for xi, e in zip(x, exps):
            if e:
                v *= xi**e
        total += v
    return total


def ref_gradient(p: Poly, x):
    return tuple(ref_eval(p.diff(i), x) for i in range(p.nvars))


def ref_hessian(p: Poly, x):
    return tuple(tuple(ref_eval(p.diff(i).diff(j), x) for j in range(p.nvars)) for i in range(p.nvars))


@st.composite
def _polys(draw, n):
    """Polynomials of degree <= 3 in n variables; terms may cancel to 0."""
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        exps = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(lambda es: sum(es) <= 3))
        terms.append((tuple(exps), draw(st.fractions(-9, 9, max_denominator=12))))
    return Poly.make(terms, n)


_COORD = {
    "int": st.integers(-7, 7),
    "fraction": st.fractions(-3, 3, max_denominator=6),
    "large fraction": st.fractions(-3, 3, max_denominator=10**12),
    "float": st.floats(-4, 4, allow_nan=False, allow_infinity=False),
}


@st.composite
def _points(draw, n):
    kinds = draw(st.sampled_from([*_COORD, "mixed"]))
    coord = st.one_of(*_COORD.values()) if kinds == "mixed" else _COORD[kinds]
    return tuple(draw(coord) for _ in range(n))


def _is_exact(values) -> bool:
    return all(type(v) is Q for v in values)


def hessian(p: Poly, x):
    """The Hessian of p at the point x, through the int kernel the maps use."""
    return p.hessian_ints(*read_point(x, p.nvars))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_compiled_poly_kernels_match_fraction_arithmetic(data):
    n = data.draw(st.integers(1, 3))
    p = data.draw(_polys(n))
    x = data.draw(_points(n))
    value, grad, hess = p.eval(x), p.gradient(x), hessian(p, x)
    assert value == ref_eval(p, x) and type(value) is Q
    assert grad == ref_gradient(p, x) and _is_exact(grad)
    assert hess == ref_hessian(p, x) and all(_is_exact(row) for row in hess)
    for bad in (x + (1,), x[:-1]):
        for kernel in (p.eval, p.gradient, lambda x: hessian(p, x)):
            with pytest.raises(ValueError, match="wrong dimension"):
                kernel(bad)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_compiled_map_kernels_match_fraction_arithmetic(data):
    n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    g = PolyMap.make([data.draw(_polys(n)) for _ in range(m)])
    x, u = data.draw(_points(n)), vec(data.draw(_points(n)))
    hessians = [ref_hessian(p, x) for p in g.components]
    cols = [tuple(sum((h[i][j] * u[j] for j in range(n)), Q(0)) for i in range(n)) for h in hessians]
    assert g.eval(x) == tuple(ref_eval(p, x) for p in g.components)
    assert g.jacobian(x) == tuple(ref_gradient(p, x) for p in g.components)
    assert g.second_order(x, u)[0] == tuple(tuple(c[i] for c in cols) for i in range(n))
    assert g.second_order(x, u)[1] == tuple(
        sum((u[i] * h[i][j] * u[j] for i in range(n) for j in range(n)), Q(0)) for h in hessians
    )
    assert _is_exact(g.eval(x)) and _is_exact(g.second_order(x, u)[1])
    with pytest.raises(ValueError, match="wrong dimension"):
        g.jacobian(x + (0,))


def ref_y_coeffs(p: Poly, x) -> dict:
    """Term-by-term Fraction coefficients of p(x, .) by power of the last variable."""
    x, nx = vec(x), p.nvars - 1
    coeffs: dict[int, Q] = {}
    for exps, c in p.terms:
        xval = Q(1)
        for j in range(nx):
            xval *= x[j] ** exps[j]
        coeffs[exps[nx]] = coeffs.get(exps[nx], Q(0)) + c * xval
    return {e: c for e, c in coeffs.items() if c != 0}


def scales_to(nums: dict, ref: dict) -> bool:
    """nums holds ints that one positive factor turns into ref, key by key."""
    if nums.keys() != ref.keys() or not all(type(v) is int for v in nums.values()):
        return False
    t = Q(ref[min(ref)], nums[min(nums)]) if ref else Q(1)
    return t > 0 and all(v * t == ref[e] for e, v in nums.items())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_y_coeffs_match_fraction_arithmetic(data):
    nx = data.draw(st.integers(0, 3))
    p = data.draw(_polys(nx + 1))
    x = data.draw(_points(nx))
    assert scales_to(p.y_coeffs(x), ref_y_coeffs(p, x))
    with pytest.raises(ValueError, match="wrong dimension"):
        p.y_coeffs(x + (1,))


def test_y_coeffs_of_a_patch_arc():
    # y0 - x0^2 at x0 = 1/3, and 1/4 - y0 (no x0) at any x0
    names = ["x0", "y0"]
    assert scales_to(parse_poly("y0 - x0^2", names).y_coeffs((Q(1, 3),)), {0: Q(-1, 9), 1: 1})
    assert scales_to(parse_poly("1/4 - y0", names).y_coeffs((Q(1, 2),)), {0: Q(1, 4), 1: -1})
    assert parse_poly("x0 y0 - x0 y0", names).y_coeffs((2,)) == {}
    # the common factor is positive: -1 times the reference does not pass
    assert not scales_to({0: 1, 1: -9}, {0: Q(-1, 9), 1: 1})


def test_zero_polynomial_kernels():
    zero = Poly.make({(1, 0): Q(1), (0, 1): Q(2)}, 2) - Poly.make({(1, 0): Q(1), (0, 1): Q(2)}, 2)
    assert not zero.terms and zero == Poly.make({}, 2)
    x = (Q(1, 3), 2.5)
    assert zero.eval(x) == 0 and type(zero.eval(x)) is Q
    assert zero.gradient(x) == (Q(0), Q(0))
    assert hessian(zero, x) == ((Q(0), Q(0)), (Q(0), Q(0)))
    g = PolyMap.make([zero, zero])
    assert g.second_order(x, (1, -1)) == (((Q(0), Q(0)), (Q(0), Q(0))), (Q(0), Q(0)))


def test_derivative_table_is_built_once(monkeypatch):
    calls = []
    real = Poly.diff

    def counted(self, i):
        calls.append(i)
        return real(self, i)

    monkeypatch.setattr(Poly, "diff", counted)
    p = parse_poly("x0^3 x1 - 2 x1^2 + x0", ["x0", "x1"])
    x = vec([Q(1, 2), 3])
    grad = p.gradient(x)
    assert len(calls) == 2
    assert p.gradient(x) == grad == (Q(3 * 3, 4) + 1, Q(1, 8) - 12)
    assert len(calls) == 2
    hess = hessian(p, x)
    assert hessian(p, x) == hess and len(calls) == 2 + 4
