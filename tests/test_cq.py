"""CQ deciders on the worked fixture: the full ladder of Example-5.8-type data."""

import dataclasses
import itertools
from fractions import Fraction as Q
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dircq import cq
from dircq.cq import (
    FAILS,
    HOLDS,
    UNDECIDED,
    _cell_system,
    _feasible,
    _mixed_nonzero_solution,
    _shift_rows,
    _system,
    check_thm_nonpolyhedral,
    check_thm_polyhedral_I,
    check_thm_polyhedral_II,
    foscms,
    mordukhovich,
    mstationarity,
    soscms,
)
from dircq.linalg import add, dot, mat_t_vec, scale, vec
from dircq.polyhedra import HPolyhedron, PolyhedralCone
from dircq.polymaps import Poly, PolyMap, parse_poly
from dircq.problemfile import load_problem
from dircq.setmaps import ConstraintSystem
from dircq.simplex import OPTIMAL, UNBOUNDED, solve_lp, strict_feasible_point
from dircq.unions import PolyUnion, arrangement, directional_limiting_normal_cone
from test_caches import clear_caches
from test_golden import THEOREMS, fixture_path, record_solve_lp


def ex58():
    g = PolyMap.parse(["x0", "-x0^2"], 1)
    d = PolyUnion.make(
        [
            HPolyhedron.make(a=[[-1, 0]], b=[0]),
            HPolyhedron.make(a=[[0, -1]], b=[0]),
        ]
    )
    return ConstraintSystem(g, d, vec([0]))


def test_mordukhovich_fails_with_witness():
    v = mordukhovich(ex58())
    assert v.status == FAILS
    w = v.certificate["ystar"]
    assert w == vec([0, -1]) or (w[0] == 0 and w[1] < 0)


def test_mordukhovich_full_rank_holds():
    g = PolyMap.parse(["x0", "x1"], 2)
    d = PolyUnion.make([HPolyhedron.make(a=[[1, 0], [0, 1]], b=[0, 0])])
    sys = ConstraintSystem(g, d, vec([0, 0]))
    assert mordukhovich(sys).status == HOLDS


def test_foscms_directional_split():
    sys = ex58()
    assert foscms(sys, vec([1])).status == HOLDS
    v = foscms(sys, vec([-1]))
    assert v.status == FAILS
    w = v.certificate["ystar"]
    assert w[0] == 0 and w[1] < 0


def test_foscms_zero_direction_rejected():
    with pytest.raises(ValueError):
        foscms(ex58(), vec([0]))


def test_foscms_interior_direction_vacuous():
    g = PolyMap.parse(["x0", "x0"], 1)
    d = PolyUnion.make([HPolyhedron.make(a=[[-1, 0], [0, -1]], b=[0, 0])])
    sys = ConstraintSystem(g, d, vec([1]))  # g(1) = (1,1), interior of D
    assert foscms(sys, vec([1])).status == HOLDS


def test_direction_not_tangent_holds_without_an_lp(monkeypatch):
    # D = {y <= 0}, g(x) = x, xbar = 0: grad g(xbar) u = 1 is not tangent to
    # D, so the directional normal cone is empty and every directional
    # decider holds at once, with one verdict
    d = PolyUnion.make([HPolyhedron.make(a=[[1]], b=[0])])
    sys = ConstraintSystem(PolyMap.parse(["x0"], 1), d, vec([0]))
    u = vec([1])
    calls = record_solve_lp(monkeypatch)
    verdicts = [f(sys, u) for f in (foscms, soscms)]
    verdicts += [f(sys, u, mode=mode) for f, mode in itertools.product(THEOREMS, ("asym", "strong"))]
    verdicts += [cq.pseudo_quasi_verdict(sys, u, mode=mode) for mode in ("pseudo", "quasi")]
    for v in verdicts:
        assert (v.status, v.qualifier, v.conditions) == (HOLDS, "direction-not-tangent", ())
        assert v.certificate == {"kind": "trivial_kernel", "pieces_checked": 0, "cone": "directional"}
    assert len({v.name for v in verdicts}) == 7
    assert calls == []


def test_soscms_ladder():
    sys = ex58()
    assert soscms(sys, vec([1])).status == HOLDS
    v = soscms(sys, vec([-1]))
    assert v.status == FAILS
    w = v.certificate["ystar"]
    # curvature sign: Hess<w, g>(0)[u, u] = -2 w_2 >= 0 for w_2 <= 0
    assert w[0] == 0 and w[1] < 0
    assert dot(v.certificate["curvature"], w) >= 0


def test_foscms_implies_soscms_hierarchy():
    sys = ex58()
    # u = 1: both hold; u = -1: both fail -> no counterexample to the hierarchy
    for u in (vec([1]), vec([-1])):
        if foscms(sys, u).status == HOLDS:
            assert soscms(sys, u).status == HOLDS


def test_thm_tangent_normals_asym_holds_both_directions():
    sys = ex58()
    for u in (vec([1]), vec([-1])):
        v = check_thm_polyhedral_I(sys, u, mode="asym")
        assert v.status == HOLDS, (u, v)


def test_thm_tangent_normals_kernel_condition_u_minus():
    # at u = -1 the system forces y*_2 = 0, so the kernel condition holds
    v = check_thm_polyhedral_I(ex58(), vec([-1]), mode="asym")
    assert v.condition("kernel-system").status == "holds"


def test_thm_tangent_normals_strong_mode_gap():
    # strong mode: targets x* < 0 admit no multiplier in the directional cone
    v = check_thm_polyhedral_I(ex58(), vec([-1]), mode="strong", targets=[vec([-1])])
    assert v.status == UNDECIDED
    rep = v.condition("lambda-representation")
    assert rep.status == "fails"
    assert rep.witness["xstar"] == vec([-1])
    assert rep.witness["farkas"]
    # x* = 0 stays representable
    v0 = check_thm_polyhedral_I(ex58(), vec([-1]), mode="strong", targets=[vec([0])])
    assert v0.status == HOLDS


def test_thm_tangent_normals_u_plus_trivial():
    v = check_thm_polyhedral_I(ex58(), vec([1]), mode="strong")
    assert v.status == HOLDS


def test_thm_doubled_tangent_asym_holds():
    sys = ex58()
    for u in (vec([1]), vec([-1])):
        v = check_thm_polyhedral_II(sys, u, mode="asym")
        assert v.status == HOLDS, (u, v)


def test_thm_doubled_tangent_strong_mirrors_first_refinement():
    # the same x* < 0 gap shows up through the shifted system at u = -1
    v = check_thm_polyhedral_II(ex58(), vec([-1]), mode="strong", targets=[vec([-1])])
    assert v.status == UNDECIDED
    assert v.condition("lambda-representation").status == "fails"
    assert check_thm_polyhedral_II(ex58(), vec([1]), mode="strong").status == HOLDS


def test_thm_normal_graph_sections_too_large_at_u_minus():
    v = check_thm_nonpolyhedral(ex58(), vec([-1]), mode="asym")
    assert v.status == UNDECIDED
    assert v.condition("derivative-at-zero").status == "fails"
    assert v.condition("subderivative").status == "fails"


def test_thm_normal_graph_holds_at_u_plus():
    # the directional cone is trivial at u = 1 and the subderivative section
    # is empty, so the theorem applies
    v = check_thm_nonpolyhedral(ex58(), vec([1]), mode="asym")
    assert v.status == HOLDS
    assert v.condition("kernel-system").status == "holds"
    assert v.condition("subderivative").status == "holds"
    # the zero-direction section stays too large even at u = 1
    assert v.condition("derivative-at-zero").status == "fails"


def test_thm_checkers_linear_surjective():
    g = PolyMap.parse(["x0", "x1"], 2)
    d = PolyUnion.make([HPolyhedron.make(a=[[1, 0], [0, 1]], b=[0, 0])])
    sys = ConstraintSystem(g, d, vec([0, 0]))
    u = vec([-1, 0])
    assert check_thm_nonpolyhedral(sys, u).status == HOLDS
    assert check_thm_polyhedral_I(sys, u).status == HOLDS
    assert check_thm_polyhedral_II(sys, u).status == HOLDS


def test_mstationarity_certificate():
    sys = ex58()
    phi = parse_poly("x0", ["x0"])
    v = mstationarity(sys, phi)
    assert v.status == HOLDS
    lam = v.certificate["lam"]
    assert lam == vec([-1, 0])
    # J^T lam = -grad phi at xbar, in Fractions
    jt_lam = mat_t_vec(sys.g.jacobian(sys.xbar), lam)
    assert jt_lam == tuple(-c for c in phi.gradient(sys.xbar)) == (Q(-1),)
    assert all(type(c) is Q for c in jt_lam)


def test_mstationarity_zero_gradient():
    sys = ex58()
    v = mstationarity(sys, parse_poly("5", ["x0"]))
    assert v.status == HOLDS and v.certificate["lam"] == vec([0, 0])


def test_mstationarity_fails_with_farkas():
    # feasible set {x <= 0}; objective 2x descends into it, so x = 0 is not
    # stationary: lam1 + lam2 = -2 with lam >= 0 is impossible
    g = PolyMap.parse(["x0", "x0"], 1)
    d = PolyUnion.make([HPolyhedron.make(a=[[1, 0], [0, 1]], b=[0, 0])])
    sys = ConstraintSystem(g, d, vec([0]))
    phi = parse_poly("2 x0", ["x0"])
    v = mstationarity(sys, phi)
    assert v.status == FAILS
    assert v.certificate["pieces"]


# ---------------------------------------------------------------------------
# cell rows: one sign-vector mapping, rows in hyperplane order


def _reference_cell_rows(signs, hyper, closed=False, affine=None):
    """Rows (strict, closed, equality) of the cell, one hyperplane at a time."""
    lt, le, eq = [], [], []
    side = le if closed else lt
    for hrow, s in zip(hyper, signs):
        coef, rhs = hrow, 0
        if affine is not None:
            coef, rhs = mat_t_vec(affine[0], hrow), -dot(hrow, affine[1])
        if s == 0:
            eq.append((coef, rhs))
        elif s == 1:
            side.append((tuple(-x for x in coef), -rhs))
        else:
            side.append((coef, rhs))
    return lt, le, eq


def _affine_context(jac, c) -> cq._Ctx:
    """The context at x = 0 along u = e_0 of g_i(x) = <jac_i, x> + c_i x_0^2,
    with D = R^m: its Jacobian is ``jac`` and its curvature vector h = 2c."""
    m, n = len(jac), len(jac[0])
    linear = [{tuple(int(k == j) for k in range(n)): q for j, q in enumerate(row)} for row in jac]
    square = tuple(2 * int(k == 0) for k in range(n))
    g = PolyMap.make([Poly.make({**lin, square: ci}, n) for lin, ci in zip(linear, c)])
    sys = ConstraintSystem(g, PolyUnion.make([HPolyhedron.make(dim=m)]), vec([0] * n))
    return cq._context(sys, vec([int(k == 0) for k in range(n)]))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cell_rows_match_the_per_hyperplane_mapping(data):
    """The rows of a y* cell (``_cell_system``) and of a shift cell
    (``_shift_rows``, J s + h/2 in the cell) match the reference mapping."""
    m, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    rational = st.fractions(-4, 4, max_denominator=5)
    row = st.lists(st.integers(-3, 3), min_size=m, max_size=m).map(tuple)
    hyper = tuple(data.draw(row) for _ in range(data.draw(st.integers(0, 5))))
    signs = tuple(data.draw(st.sampled_from((-1, 0, 1))) for _ in hyper)
    cell = SimpleNamespace(signs=signs)
    jac = tuple(tuple(data.draw(rational) for _ in range(n)) for _ in range(m))
    c = tuple(data.draw(rational) for _ in range(m))
    ctx = _affine_context(jac, c)
    assert ctx.jac == jac and ctx.h == scale(2, c)
    if data.draw(st.booleans()):
        lt, eq = _shift_rows(ctx, (hyper, cell))
        new = _system(lt, [], eq, n)
        ref = _system(*_reference_cell_rows(signs, hyper, affine=(jac, c)), n)
    else:
        closed = data.draw(st.booleans())
        # without the rows of ker J^T the system is the cell's rows alone
        ctx = dataclasses.replace(ctx, ker_rows=())
        new = _cell_system(ctx, hyper, cell, PolyhedralCone.make(dim=m), closed=closed)
        ref = _system(*_reference_cell_rows(signs, hyper, closed), 2 * m)
    for i, attr in enumerate(("strict_a", "strict_b", "a", "b", "e", "d", "n")):
        assert new[i] == ref[i], attr


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_feasible_matches_strict_feasible_point(data):
    """``_feasible`` answers as ``strict_feasible_point`` does, and on a cone
    (no strict rows, zero right-hand sides) it solves no LP."""
    n = data.draw(st.integers(1, 3))
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    cone = data.draw(st.booleans())
    rhs = st.just(0) if cone else st.integers(-2, 2)
    kinds = [
        [(r, data.draw(rhs)) for r in data.draw(st.lists(row, max_size=max_size))]
        for max_size in (0 if cone else 3, 3, 2)
    ]
    rows = _system(*kinds, n)
    want = strict_feasible_point(*rows[:6], n=n) is not None
    with mock.patch.object(cq, "strict_feasible_point", wraps=strict_feasible_point) as lp:
        assert _feasible(rows, {}) == want
    assert lp.call_count == (bool(rows[0]) or any(rows[3]) or any(rows[5]))


# ---------------------------------------------------------------------------
# cell witnesses decide the kernel and curvature rows


def lp_meets(ctx, hyper, cell, y_rows=()) -> bool:
    """Whether the LP finds a point of the cell's y* system: relative
    interior, J^T y* = 0 and <r, y*> <= 0 for r in y_rows (z* is free)."""
    rows = _cell_system(ctx, hyper, cell, PolyhedralCone.make(dim=ctx.sys.m), y_rows=y_rows)
    return strict_feasible_point(*rows[:6], n=rows[6]) is not None


@pytest.mark.parametrize("name", ("ex58", "ex58sq"))
def test_cell_witness_decides_what_the_lp_decides(name, monkeypatch):
    """At every source, kernel and section cell that a theorem checker puts
    in its groups (every direction, both modes), ``_meets`` answers as the
    LP.  The groups are built, and ``_meets`` called, on cleared caches only."""
    clear_caches()
    pr = load_problem(str(fixture_path(name)))
    meets = cq._meets
    answers = []

    def checked(ctx, hyper, cell, y_rows=()):
        got = meets(ctx, hyper, cell, y_rows)
        assert got == lp_meets(ctx, hyper, cell, y_rows)
        answers.append(got)
        return got

    monkeypatch.setattr(cq, "_meets", checked)
    for f, mode, dname in itertools.product(THEOREMS, ("asym", "strong"), sorted(pr.directions)):
        f(pr.system, pr.direction(dname), mode=mode)
    # ex58's checkers visit no cell off ker J^T
    assert set(answers) == ({True} if name == "ex58" else {True, False})


def test_cell_witness_decides_the_curvature_row():
    """On every cell of ex58sq's directional arrangements cut by ker J^T and
    h, ``_meets`` with y_rows (), (h,) or (-h,) answers as the LP; the
    fixture's checkers only pose -h, which no cell there violates."""
    pr = load_problem(str(fixture_path("ex58sq")))
    decided_by_h = 0
    for dname in sorted(pr.directions):
        ctx = cq._context(pr.system, pr.direction(dname))
        n_dir = directional_limiting_normal_cone(pr.system.d, ctx.gx, ctx.ju)
        arr = arrangement(n_dir, extra=ctx.ker_rows + (ctx.h,))
        for cell, y_rows in itertools.product(arr.cells, ((), (ctx.h,), (tuple(-x for x in ctx.h),))):
            got = cq._meets(ctx, arr.hyperplanes, cell, y_rows)
            assert got == lp_meets(ctx, arr.hyperplanes, cell, y_rows), (dname, cell.signs, y_rows)
            decided_by_h += not got and cq._meets(ctx, arr.hyperplanes, cell)
    assert decided_by_h > 0


def test_meets_rejects_a_row_outside_the_arrangement():
    sys = ex58()
    ctx = cq._context(sys, vec([-1]))
    arr = arrangement(directional_limiting_normal_cone(sys.d, ctx.gx, ctx.ju), extra=ctx.ker_rows)
    cell = arr.cells[0]
    assert cq._meets(ctx, arr.hyperplanes, cell, ((0, 0),)) in (True, False)
    with pytest.raises(ValueError):
        cq._meets(ctx, arr.hyperplanes, cell, ((1, 1),))
    with pytest.raises(ValueError):
        cq._meets(dataclasses.replace(ctx, ker_rows=((1, 1),)), arr.hyperplanes, cell)


# ---------------------------------------------------------------------------
# the nonzero-block test: one relative-interior LP against the probe search


def reference_mixed_nonzero_solution(strict_a, strict_b, a, b, e, d, nvars, block):
    """One strict point, then up to two +-x_i probes of the closure per block
    coordinate, each averaged with the strict point (1 + 2|block| LPs)."""
    p0 = strict_feasible_point(strict_a, strict_b, a, b, e, d, n=nvars)
    if p0 is None:
        return None
    if any(p0[i] != 0 for i in block):
        return p0
    a_all = tuple(strict_a) + tuple(a)
    b_all = tuple(strict_b) + tuple(b)
    for i in block:
        for sgn in (1, -1):
            obj = [Q(0)] * nvars
            obj[i] = Q(sgn)
            res = solve_lp(vec(obj), a_all, b_all, e, d, n=nvars)
            if res.status == UNBOUNDED:
                cand = add(p0, res.ray)
                if any(cand[j] != 0 for j in block):
                    return cand
                continue
            if res.status == OPTIMAL and res.objective > 0:
                mid = scale(Q(1, 2), add(p0, res.x))
                if any(mid[j] != 0 for j in block):
                    return mid
    return None


def check_mixed_nonzero(strict_a, strict_b, a, b, e, d, n, block):
    """Same answer (None or a point) as the probe search; a point meets the
    strict, closed and equality rows, in plain Fractions, and is nonzero on
    the block."""
    args = (tuple(map(tuple, strict_a)), tuple(strict_b), tuple(map(tuple, a)), tuple(b),
            tuple(map(tuple, e)), tuple(d), n, block)
    got = _mixed_nonzero_solution(*args)
    want = reference_mixed_nonzero_solution(*args)
    assert (got is None) == (want is None), (got, want)
    if got is not None:
        assert all(dot(r, got) < bi for r, bi in zip(strict_a, strict_b))
        assert all(dot(r, got) <= bi for r, bi in zip(a, b))
        assert all(dot(r, got) == di for r, di in zip(e, d))
        assert any(got[i] != 0 for i in block)
    return got


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mixed_nonzero_solution_matches_the_probe_search(data):
    n = data.draw(st.integers(1, 4))
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    rhs = st.just(0) if data.draw(st.booleans()) else st.integers(-2, 2)

    def rows(max_size):
        rs = data.draw(st.lists(row, max_size=max_size))
        return rs, [data.draw(rhs) for _ in rs]

    strict_a, strict_b = rows(3)
    a, b = rows(3)
    e, d = rows(2)
    if a and data.draw(st.booleans()):
        # a closed pair a x <= b, -a x <= -b: an implicit equality
        i = data.draw(st.integers(0, len(a) - 1))
        a.append([-x for x in a[i]])
        b.append(-b[i])
    lo = data.draw(st.integers(0, n - 1))
    block = range(lo, data.draw(st.integers(lo + 1, n)))
    check_mixed_nonzero(strict_a, strict_b, a, b, e, d, n, block)


def test_mixed_nonzero_solution_cases():
    # a strict row that is implicit on the closure: x < 0 with x >= 0
    assert check_mixed_nonzero([[1]], [0], [[-1]], [0], [], [], 1, range(1)) is None
    # the block is 0 on the equality rows, or on an implicit closed pair
    assert check_mixed_nonzero([[0, -1]], [0], [], [], [[1, 0]], [0], 2, range(1)) is None
    assert check_mixed_nonzero([[0, -1]], [0], [[1, 0], [-1, 0]], [0, 0], [], [], 2, range(1)) is None
    # ... but not when one implicit row and one equality leave a coordinate free
    p = check_mixed_nonzero([[0, 0, -1]], [0], [[1, 1, 0], [-1, -1, 0]], [0, 0], [], [], 3, range(2))
    assert p[0] == -p[1] != 0
    # the relative-interior point is 0 on the block, which is free: one step off it
    p = check_mixed_nonzero([[0, -1]], [0], [], [], [], [], 2, range(1))
    assert p[0] != 0
    # the step is bounded by strict rows with right-hand sides: -1 < x < 1, y > 0
    p = check_mixed_nonzero([[1, 0], [-1, 0], [0, -1]], [1, 1, 0], [], [], [], [], 2, range(1))
    assert p is not None and -1 < p[0] < 1
    # a shifted system: x + y = 1 with y > 0 and x >= 0, block x
    assert check_mixed_nonzero([[0, -1]], [0], [[-1, 0]], [0], [[1, 1]], [1], 2, range(1)) is not None
