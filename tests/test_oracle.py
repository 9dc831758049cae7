"""Sequence oracle: sampling, witness searches, and its caches."""

import functools
import itertools
from fractions import Fraction as Q
from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_caches import ex58_squared
from test_golden import record_solve_lp

from dircq import oracle
from dircq.cq import FAILS, HOLDS, mpec_pseudo_quasi_verdict, pseudo_quasi_verdict
from dircq.linalg import add, dot, int_row, mat_t_vec, nullspace, rref, scale, sub, unit, vec, zeros
from dircq.oracle import (
    NOT_FOUND,
    EliminationTrace,
    MpecProblem,
    NormalSample,
    SampleResult,
    Schedule,
    WitnessRecord,
    WitnessSequence,
    fitted_normals,
    graph_points_near,
    mpec_normality_candidates,
    sample_directional_normals,
    search_asym_reg_violation,
    search_mpec_normality,
    search_normality_violation,
)
from dircq.polyhedra import DimensionMismatch, HPolyhedron, PolyhedralCone, generators, polar_cone
from dircq.polymaps import PolyMap, parse_poly
from dircq.problemfile import load_problem, parse_problem
from dircq.setmaps import ConstraintSystem, GraphPatch, PatchMap
from dircq.unions import (
    ConeUnion,
    PolyUnion,
    cone_union_subset,
    directional_limiting_normal_cone,
    regular_normal_cone,
)


def halfplane_union():
    return PolyUnion.make(
        [
            HPolyhedron.make(a=[[-1, 0]], b=[0]),
            HPolyhedron.make(a=[[0, -1]], b=[0]),
        ]
    )


def joint(s, nx, ny):
    names = [f"x{i}" for i in range(nx)] + [f"y{i}" for i in range(ny)]
    return parse_poly(s, names)


def graph_of_halfplane_and_parabola():
    """Graph pieces {x <= 0} and {y >= x^2, x >= 0} (the region example)."""
    p1 = GraphPatch((), (joint("x0", 1, 1),), 1, 1)
    p2 = GraphPatch((), (joint("x0^2 - y0", 1, 1), joint("-x0", 1, 1)), 1, 1)
    return PatchMap((p1, p2), 1, 1)


def graph_line_and_parabola():
    """Graph of the two-valued map {0, x^2}."""
    p1 = GraphPatch((joint("y0", 1, 1),), (), 1, 1)
    p2 = GraphPatch((joint("y0 - x0^2", 1, 1),), (), 1, 1)
    return PatchMap((p1, p2), 1, 1)


def test_sample_directional_normals_halfplane_union():
    d = halfplane_union()
    res = sample_directional_normals(d, vec([0, 0]), vec([-1, 0]), Schedule(k_max=12))
    assert res.samples
    # the fitted rays and lines, as a union of one-generator cones
    fitted = ConeUnion.make(
        [polar_cone(PolyhedralCone.make(a=[r], dim=2)) for r in res.fitted_rays]
        + [polar_cone(PolyhedralCone.make(e=[l], dim=2)) for l in res.fitted_lineality],
        2,
    )
    exact = directional_limiting_normal_cone(d, vec([0, 0]), vec([-1, 0]))
    ok, w = cone_union_subset(fitted, exact)
    assert ok, w
    # the nonzero extreme direction (0, -1) is found
    assert fitted.contains(vec([0, -1]))


def test_sample_interior_only_zero_normals():
    box = PolyUnion.make(
        [HPolyhedron.make(a=[[1, 0], [-1, 0], [0, 1], [0, -1]], b=[1, 1, 1, 1])]
    )
    res = sample_directional_normals(box, vec([0, 0]), vec([1, 0]), Schedule(k_max=10))
    assert res.fitted_rays == () and res.fitted_lineality == ()


def sampled_point(d, p):
    """The point the directional sampler takes at p itself (direction 0)."""
    res = sample_directional_normals(d, p, zeros(d.dim), Schedule(k_max=1))
    return res.samples[0].point if res.samples else None


def test_project_onto_polyunion_exact():
    d = halfplane_union()
    z = sampled_point(d, vec([-1, -1]))
    # nearest points are (0,-1) and (-1,0); exact arithmetic picks one of them
    assert z in (vec([0, -1]), vec([-1, 0]))
    assert d.contains(z)


@st.composite
def _pieces(draw, n=None):
    """Small nonempty polyhedra, some with duplicated or rescaled rows."""
    n = draw(st.integers(1, 3)) if n is None else n
    coef = st.integers(-3, 3)
    x0 = draw(st.lists(coef, min_size=n, max_size=n))
    a = draw(st.lists(st.lists(coef, min_size=n, max_size=n), min_size=1, max_size=3))
    e = draw(st.lists(st.lists(coef, min_size=n, max_size=n), max_size=1))
    for i in draw(st.lists(st.integers(0, len(a) - 1), max_size=2)):
        a.append([draw(st.integers(1, 2)) * c for c in a[i]])
    if e and draw(st.booleans()):
        e.append([-c for c in e[0]])
    slack = st.integers(0, 2)
    b = [sum(c * x for c, x in zip(row, x0)) + draw(slack) for row in a]
    d = [sum(c * x for c, x in zip(row, x0)) for row in e]
    return HPolyhedron.make(a=a, b=b, e=e or (), d=d, dim=n)


def project(hull, p):
    """The hull's exact projection of p, from its integer kernel."""
    q, dq = int_row(p)
    return tuple(Q(z, dq * hull.den) for z in hull.project_ints(q, dq))


@settings(max_examples=40, deadline=None)
@given(_pieces(), st.lists(st.fractions(-5, 5, max_denominator=7), min_size=3, max_size=3))
def test_face_hull_projection_is_exact(piece, p):
    p = vec(p[: piece.dim])
    faces = oracle.polyhedron_faces(piece)
    hulls = oracle._face_hulls([piece])
    assert len(hulls) == len(faces)
    for hull, (active, _) in zip(hulls, faces):
        rows = piece.e + tuple(piece.a[i] for i in active)
        rhs = piece.d + tuple(piece.b[i] for i in active)
        z = project(hull, p)
        assert all(dot(r, z) == s for r, s in zip(rows, rhs))
        gap = sub(p, z)
        assert all(dot(gap, v) == 0 for v in nullspace(rows, piece.dim))


def _count_faces(monkeypatch) -> list:
    calls = []
    real = oracle.polyhedron_faces

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(oracle, "polyhedron_faces", counted)
    return calls


def _gram_projection(piece, active, p):
    """p - R^T G^-1 (R p - s) for the independent rows R x = s of the face."""
    rows = piece.e + tuple(piece.a[i] for i in active)
    rhs = piece.d + tuple(piece.b[i] for i in active)
    red, _ = rref(tuple(r + (s,) for r, s in zip(rows, rhs)))
    if not red:
        return p
    rows, rhs = tuple(r[:-1] for r in red), tuple(r[-1] for r in red)
    # G c = R p - s by RREF of [G | R p - s]: G is invertible, so the
    # reduced rows are [I | c]
    gram = tuple(tuple(dot(a, b) for b in rows) + (dot(a, p) - s,) for a, s in zip(rows, rhs))
    coef = tuple(r[-1] for r in rref(gram)[0])
    return sub(p, mat_t_vec(rows, coef))


def _dist2(z, p):
    return dot(sub(z, p), sub(z, p))


def _reference_nearest(pieces, p):
    """First nearest Gram projection that lies in the union, in face order."""
    best = None
    for q in pieces:
        for active, _ in oracle.polyhedron_faces(q):
            z = _gram_projection(q, active, p)
            if any(r.contains(z) for r in pieces) and (best is None or _dist2(z, p) < _dist2(best, p)):
                best = z
    return best


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_integer_projection_matches_gram_formula(data):
    piece = data.draw(_pieces())
    d = PolyUnion.make([piece, data.draw(_pieces(piece.dim))])
    pieces = d.pieces
    p = vec(data.draw(st.lists(st.fractions(-5, 5, max_denominator=7), min_size=piece.dim, max_size=piece.dim)))
    hulls = oracle._face_hulls(pieces)
    faces = [(q, active) for q in pieces for active, _ in oracle.polyhedron_faces(q)]
    assert len(hulls) == len(faces)
    for hull, (q, active) in zip(hulls, faces):
        assert hull.piece == q and project(hull, p) == _gram_projection(q, active, p)
    assert sampled_point(d, p) == _reference_nearest(pieces, p)


def test_nearest_tie_keeps_the_first_hull():
    d = halfplane_union()
    # (0,-1) and (-1,0) are both at distance 1 from (-1,-1)
    p = vec([-1, -1])
    assert sampled_point(d, p) == _reference_nearest(d.pieces, p)


def test_nearest_tie_may_take_a_projection_into_another_piece():
    # the unit square comes first; from (1/2, 3/2) its edge x = 1 projects
    # to (1, 3/2), outside the square but in the second piece, before its
    # edge y = 1 gives (1/2, 1) in the square, at the same distance 1/2
    square = HPolyhedron.make(a=[[-1, 0], [1, 0], [0, 1], [0, -1]], b=[0, 1, 1, 0])
    d = PolyUnion.make([square, HPolyhedron.make(a=[[0, -1], [-1, 0]], b=[Q(-6, 5), -1])])
    p = vec([Q(1, 2), Q(3, 2)])
    assert d.pieces[0] == square
    assert sampled_point(d, p) == _reference_nearest(d.pieces, p) == vec([1, Q(3, 2)])
    # the int comparison keeps the tie as the Fraction sampler's min does
    schedule = Schedule(k_max=1)
    assert sample_directional_normals(d, p, zeros(2), schedule) == reference_sample(d, p, zeros(2), schedule)


# ---------------------------------------------------------------------------
# the int schedule loops against the Fraction loops they replaced


@functools.lru_cache(maxsize=4096)
def reference_candidates(d, p):
    """(z, regular normal cone of d at z) for the distinct Gram projections
    z of p that lie in d, in face order; cached, since every multiplier and
    mode of a direction asks for the same points."""
    out = {}
    for q in d.pieces:
        for active, _ in oracle.polyhedron_faces(q):
            z = _gram_projection(q, active, p)
            if d.contains(z) and z not in out:
                out[z] = regular_normal_cone(d, z)
    return tuple(out.items())


def reference_sample(d, base, direction, schedule):
    """The directional sampler in Fractions: the first nearest candidate by
    ``min`` over the squared distance."""
    samples = []
    for k in list(schedule.steps())[: min(schedule.k_max, 25)]:
        pt = add(base, scale(schedule.t(k), direction))
        cands = reference_candidates(d, pt)
        if cands:
            z, nz = min(cands, key=lambda c: _dist2(c[0], pt))
            samples.append(NormalSample(k, z, *generators(nz)))
    return SampleResult(tuple(samples), *fitted_normals(samples))


def reference_signs(lam, gap, basis, mode):
    if mode == "pseudo":
        return dot(lam, gap) > 0
    basis = basis or tuple(unit(len(lam), i) for i in range(len(lam)))
    return all(dot(lam, e) * dot(gap, e) > 0 for e in basis if dot(lam, e) != 0)


def float_norm(v):
    return (sum(float(c) * float(c) for c in v)) ** 0.5


# the residual test that the searches call, before a test replaces it
RESIDUALS_SETTLE = oracle._residuals_settle


def settled_residuals(monkeypatch) -> list:
    """The residual lists that the searches hand to ``_residuals_settle``
    from now on, one per call: the floats that decide convergence, which no
    record keeps."""
    seen = []

    def recorded(residuals):
        seen.append(residuals)
        return RESIDUALS_SETTLE(residuals)

    monkeypatch.setattr(oracle, "_residuals_settle", recorded)
    return seen


def reference_normality_search(sys, u, lam, basis, schedule, mode):
    """The normality search in Fractions, residual by residual: (its result,
    the residuals of every step with an admissible point)."""
    gxbar = sys.g.eval(sys.xbar)
    ju = tuple(dot(row, u) for row in sys.g.jacobian(sys.xbar))
    records, residuals = [], []
    for k in schedule.steps():
        x = add(sys.xbar, scale(schedule.t(k), u))
        gx = sys.g.eval(x)
        best = None
        for z, nz in reference_candidates(sys.d, gx):
            if not nz.contains(lam) or not reference_signs(lam, sub(gx, z), basis, mode):
                continue
            ndx = float_norm(sub(x, sys.xbar))
            dz = sub(z, gxbar)
            res = {
                "x_to_base": ndx,
                "z_to_image_point": float_norm(dz),
                "z_direction": float_norm([float(c) / ndx - float(j) for c, j in zip(dz, ju)]),
            }
            if best is None or max(res.values()) < max(best[1].values()):
                best = (z, res)
        if best is not None:
            records.append(WitnessRecord(k, x, best[0]))
            residuals.append(best[1])
    if not RESIDUALS_SETTLE(residuals):
        return NOT_FOUND, residuals
    return WitnessSequence(f"{mode}-normality-violation", tuple(records), converged=True), residuals


def fixture_system(name):
    from test_golden import fixture_path

    return load_problem(str(fixture_path(name))).system


def _directions(n):
    return [vec(u) for u in itertools.product((-1, 0, 1), repeat=n) if any(u)]


def normality_case(name):
    """(system, directions, candidate multipliers, a non-unit orthogonal basis)."""
    if name == "ex58":
        lams = [(0, -1), (0, 1), (-1, -1), (1, -2), (-1, 0)]
        return ex58_system(), _directions(1), [vec(l) for l in lams], (vec([1, 1]), vec([2, -2]))
    sys = ex58_squared() if name == "ex58^2" else fixture_system("ex58sq")
    lams = [(0, -1, 0, 0), (0, 0, 0, -1), (0, -1, 0, -1), (1, -1, 0, -2), (-1, 0, 1, -1)]
    basis = ((1, 1, 0, 0), (1, -1, 0, 0), (0, 0, 2, 1), (0, 0, -3, 6))
    return sys, _directions(2), [vec(l) for l in lams], tuple(map(vec, basis))


@pytest.mark.parametrize("schedule", [Schedule(k_max=14), Schedule(kind="harmonic", k_max=10)], ids=["geometric", "harmonic"])
@pytest.mark.parametrize("name", ["ex58", "ex58^2", "ex58sq"])
def test_normality_search_matches_the_fraction_search(name, schedule, monkeypatch):
    sys, directions, lams, basis = normality_case(name)
    settled = settled_residuals(monkeypatch)
    found = 0
    for u, lam, mode, b in itertools.product(directions, lams, ("pseudo", "quasi"), (None, basis)):
        got = search_normality_violation(sys, u, lam, b, schedule, mode)
        assert (got, settled.pop()) == reference_normality_search(sys, u, lam, b, schedule, mode), (u, lam, mode, b)
        found += got != NOT_FOUND
    # the comparison covers witness sequences, not only NOT_FOUND
    assert found


@pytest.mark.parametrize("mode", ["pseudo", "quasi"])
def test_normality_residuals_are_the_floats_of_their_fractions(mode, monkeypatch):
    # g(x_k) = (-t + t^2/3, -t^2): over the 60 default steps the numerators
    # and denominators of z_k - g(xbar) outgrow a double's 53 bits, so only a
    # correctly rounded division gives the float of each Fraction
    sys = ConstraintSystem(PolyMap.parse(["x0 + 1/3 x0^2", "-x0^2"], 1), halfplane_union(), vec([0]))
    u, lam = vec([-1]), vec([0, -1])
    settled = settled_residuals(monkeypatch)
    got = search_normality_violation(sys, u, lam, mode=mode)
    assert isinstance(got, WitnessSequence)
    assert (got, settled.pop()) == reference_normality_search(sys, u, lam, None, Schedule(), mode)


@pytest.mark.parametrize("k", [5, 10, 20])
def test_sampler_matches_the_fraction_sampler_on_the_staircase(k):
    pr = parse_problem(
        {"version": 1, "graphset": {"nx": 1, "ny": 1, "family": {"kind": "staircase", "K": k}}, "points": {"base": [0, 0]}}
    )
    d, base = pr.graph_set, pr.point("base")
    for direction, schedule in ((vec([1, 1]), Schedule(k_max=8)), (vec([1, -1]), Schedule(kind="harmonic", k_max=8))):
        assert sample_directional_normals(d, base, direction, schedule) == reference_sample(d, base, direction, schedule)


def test_sampler_builds_only_the_nearest_cone(monkeypatch):
    calls = []
    real = oracle.regular_normal_cone

    def counted(d, z):
        calls.append(z)
        return real(d, z)

    monkeypatch.setattr(oracle, "regular_normal_cone", counted)
    clear_oracle_caches()
    pr = parse_problem(
        {"version": 1, "graphset": {"nx": 1, "ny": 1, "family": {"kind": "staircase", "K": 20}}, "points": {"base": [0, 0]}}
    )
    res = sample_directional_normals(pr.graph_set, pr.point("base"), vec([1, 1]), Schedule(k_max=8))
    assert calls == [s.point for s in res.samples]
    # a repeated call reads the cones kept in the candidates
    sample_directional_normals(pr.graph_set, pr.point("base"), vec([1, 1]), Schedule(k_max=8))
    assert len(calls) == len(res.samples)


def clear_oracle_caches():
    oracle._piece_hulls.cache_clear()
    oracle._normal_candidates.cache_clear()
    oracle._graph_point_cone.cache_clear()
    oracle._image_cones.cache_clear()


@pytest.mark.parametrize("k_max", [12, 24])
def test_searches_build_faces_once_per_piece(monkeypatch, k_max):
    calls = _count_faces(monkeypatch)
    schedule = Schedule(k_max=k_max)
    sys, mp = ex58_system(), ex47_problem()
    searches = (
        (lambda: sample_directional_normals(sys.d, vec([0, 0]), vec([-1, 0]), schedule), sys.d.pieces),
        (lambda: search_normality_violation(sys, vec([-1]), vec([0, -1]), schedule=schedule), sys.d.pieces),
        (lambda: search_mpec_normality(mp, vec([0, 1]), vec([1]), schedule), mp.omega.pieces),
    )
    for search, pieces in searches:
        clear_oracle_caches()
        calls.clear()
        first = search()
        assert calls == list(dict.fromkeys(pieces))
        # a repeated search reads every piece's faces from the cache
        assert search() == first
        assert len(calls) == len(set(pieces))


@pytest.mark.parametrize(
    "modes", [("pseudo", "quasi"), ("quasi", "pseudo")], ids=["pseudo-first", "quasi-first"]
)
def test_verdict_candidates_and_modes_share_projections(monkeypatch, modes):
    calls = _count_faces(monkeypatch)
    sys, u, k_max = ex58_squared(), vec([0, -1]), Schedule().k_max
    clear_oracle_caches()
    # two kernel candidates: the first survives its search, the second fails;
    # one projection set per schedule point, shared by both candidates, and
    # the second mode reads the first mode's sets
    for mode in modes:
        assert pseudo_quasi_verdict(sys, u, mode=mode).status == FAILS
        assert len(calls) == len(set(sys.d.pieces))
        assert oracle._normal_candidates.cache_info().misses == k_max


def test_graph_points_on_comb_teeth():
    comb = parse_problem(
        {"version": 1, "patch": {"nx": 1, "ny": 1, "family": {"kind": "comb", "K": 4}}}
    ).patch_map
    # the tooth x0 = 1/2 has no y in its equality; its foot y0 = 1/4 is a boundary arc
    assert vec([Q(1, 2), Q(1, 4)]) in graph_points_near(comb, vec([Q(1, 2)]))


# every reduced p/q with 0 < q < 60 and |p| <= 40
SWEEP = sorted({Q(p, q) for q in range(1, 60) for p in range(-40, 41)})


def test_rational_roots_of_every_double_root_in_the_sweep():
    # (q y - p)^2, the tangent case that a float root finder splits or misses
    assert len(SWEEP) == 2917
    for r in SWEEP:
        p, q = r.numerator, r.denominator
        coeffs = {e: c for e, c in {0: p * p, 1: -2 * p * q, 2: q * q}.items() if c}
        assert oracle._rational_roots(coeffs) == [r]


def test_graph_points_on_a_tangent_arc():
    # (y0 - x0)^2 = 0 touches y0 = x0 at every x0
    tangent = PatchMap((GraphPatch((joint("y0^2 - 2 x0 y0 + x0^2", 1, 1),), (), 1, 1),), 1, 1)
    for x in SWEEP:
        assert graph_points_near(tangent, vec([x])) == [vec([x, x])]


def test_patch_graph_points_solve_a_quadratic_arc():
    # ex47's root patch x0 = y0^2, y0 >= 0: at x0 = 1/4 only y0 = 1/2 is on it
    root = ex47_problem().s.patches[1]
    assert oracle._rational_roots(root.eqs[0].y_coeffs(vec([Q(1, 4)]))) == [Q(-1, 2), Q(1, 2)]
    assert oracle._patch_graph_points(root, vec([Q(1, 4)])) == [vec([Q(1, 4), Q(1, 2)])]
    assert oracle._patch_graph_points(root, vec([Q(1, 3)])) == []


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rational_roots_are_the_distinct_rational_roots(data):
    """A product of factors (q y - p)^m, perhaps times a quadratic with no
    rational root, scaled by a rational: the roots are the p/q, once each."""
    y = joint("y0", 0, 1)
    poly, roots = joint("1", 0, 1), set()
    for _ in range(data.draw(st.integers(1, 3))):
        p, q = data.draw(st.integers(-40, 40)), data.draw(st.integers(1, 12))
        for _ in range(data.draw(st.integers(1, 3))):
            poly = poly * (y.scale(q) - joint(str(p), 0, 1))
        roots.add(Q(p, q))
    if data.draw(st.booleans()):
        # a y^2 + b y + c with a non-square discriminant: two irrational or
        # two complex roots
        a, b, c = data.draw(st.integers(1, 5)), data.draw(st.integers(-6, 6)), data.draw(st.integers(-6, 6))
        disc = b * b - 4 * a * c
        assume(disc < 0 or isqrt(disc) ** 2 != disc)
        poly = poly * (y * y).scale(a) + poly * y.scale(b) + poly.scale(c)
    t = data.draw(st.fractions(min_value=-100, max_value=100, max_denominator=50).filter(lambda t: t != 0))
    assert oracle._rational_roots(poly.scale(t).y_coeffs(())) == sorted(roots)


def test_asym_reg_skips_irregular_points(caplog):
    # duplicated equality rows: every graph point fails the regularity gate
    dup = GraphPatch((joint("y0 - x0^2", 1, 1), joint("2 y0 - 2 x0^2", 1, 1)), (), 1, 1)
    m = PatchMap((dup,), 1, 1)
    with caplog.at_level("DEBUG", logger="dircq.oracle"):
        res = search_asym_reg_violation(m, vec([0]), vec([0]), vec([1]), Schedule(k_max=12))
    assert res == NOT_FOUND
    assert sum("regularity gate" in r.getMessage() for r in caplog.records) == 12


def test_asym_reg_propagates_unrelated_errors(monkeypatch):
    def broken(m, w):
        raise DimensionMismatch("point has wrong dimension")

    monkeypatch.setattr(oracle, "patch_regular_normal_cone", broken)
    # a cached graph point would not reach the broken builder
    clear_oracle_caches()
    with pytest.raises(DimensionMismatch):
        search_asym_reg_violation(
            graph_line_and_parabola(), vec([0]), vec([0]), vec([1]), Schedule(k_max=12)
        )


def max_final_residual(seq: WitnessSequence) -> float:
    """The largest residual of the last record of a witness at xbar = ybar
    = 0 in the direction u = 1, as the search scores it."""
    rec = seq.records[-1]
    return max(oracle._asym_residuals(rec.x, rec.y, rec.xstar, rec.lam, vec([0]), vec([0]), vec([1])).values())


def test_asym_reg_violation_region_graph():
    # region graph, direction +1: the arc y = x^2 produces the witness family
    # with unit primal output and multipliers growing like 1/(2t)
    m = graph_of_halfplane_and_parabola()
    found = search_asym_reg_violation(m, vec([0]), vec([0]), vec([1]), Schedule(k_max=34))
    assert isinstance(found, WitnessSequence)
    assert found.converged
    assert found.limit_xstar == vec([1])
    # x* = 1 escapes the directional image (exactly {0})
    assert found.outside_directional_image is True
    assert max_final_residual(found) < 1e-8
    rec = found.records[-1]
    # on the arc: x = t, y = t^2, lambda = 1/(2t)
    t = rec.x[0]
    assert rec.y[0] == t * t
    assert rec.lam == vec([Q(1, 2) / t])


@pytest.mark.parametrize("k_max", [12, 34])
def test_asym_reg_builds_normal_cones_once_per_graph_point(monkeypatch, k_max):
    calls = []
    real = oracle.patch_regular_normal_cone

    def counted(m, w):
        calls.append((m, w))
        return real(m, w)

    monkeypatch.setattr(oracle, "patch_regular_normal_cone", counted)
    m, schedule = graph_of_halfplane_and_parabola(), Schedule(k_max=k_max)
    clear_oracle_caches()
    cold = search_asym_reg_violation(m, vec([0]), vec([0]), vec([1]), schedule)
    assert isinstance(cold, WitnessSequence)
    assert calls and len(calls) == len(set(calls))
    # repeated searches read every graph point's normal cone from the cache
    for _ in range(2):
        assert search_asym_reg_violation(m, vec([0]), vec([0]), vec([1]), schedule).records == cold.records
    assert len(calls) == len(set(calls)) == oracle._graph_point_cone.cache_info().misses


def test_asym_reg_builds_image_checks_once(monkeypatch, caplog):
    calls = []
    real = oracle.patch_limiting_normals

    def counted(m, w, direction=None):
        calls.append((m, w, direction))
        return real(m, w, direction)

    monkeypatch.setattr(oracle, "patch_limiting_normals", counted)
    m, schedule = graph_of_halfplane_and_parabola(), Schedule(k_max=34)
    clear_oracle_caches()
    first = search_asym_reg_violation(m, vec([0]), vec([0]), vec([1]), schedule)
    # one plain and one directional image check
    assert first.converged and len(calls) == 2
    assert search_asym_reg_violation(m, vec([0]), vec([0]), vec([1]), schedule) == first
    assert len(calls) == 2
    # a rejected image check is cached too, and logged on every call
    dup = PatchMap((GraphPatch((joint("y0 - x0^2", 1, 1), joint("2 y0 - 2 x0^2", 1, 1)), (), 1, 1),), 1, 1)
    with caplog.at_level("DEBUG", logger="dircq.oracle"):
        assert [oracle._outside_image(dup, vec([0, 0]), vec([1])) for _ in range(3)] == [None] * 3
    assert len(calls) == 3
    assert sum("no image check" in r.getMessage() for r in caplog.records) == 3


def test_asym_reg_violation_two_valued_graph():
    m = graph_line_and_parabola()
    found = search_asym_reg_violation(m, vec([0]), vec([0]), vec([1]), Schedule(k_max=34))
    assert isinstance(found, WitnessSequence)
    assert found.limit_xstar == vec([1])
    # plain image is {0} here, so the witness escapes it
    assert found.outside_image is True
    assert max_final_residual(found) < 1e-8


def test_asym_reg_violation_harmonic_schedule_matches_closed_form():
    # the classical presentation x_k = 1/k, y_k = 1/k^2, lambda_k = k/2
    m = graph_line_and_parabola()
    found = search_asym_reg_violation(
        m, vec([0]), vec([0]), vec([1]), Schedule(kind="harmonic", k_max=12)
    )
    assert isinstance(found, WitnessSequence)
    for rec in found.records:
        k = rec.k
        assert rec.x == vec([Q(1, k)])
        assert rec.y == vec([Q(1, k * k)])
        assert rec.lam == vec([Q(k, 2)])


def test_asym_reg_not_found_for_regular_graph():
    # single smooth patch: the multipliers cannot blow up
    m = PatchMap((GraphPatch((joint("y0 - x0", 1, 1),), (), 1, 1),), 1, 1)
    res = search_asym_reg_violation(m, vec([0]), vec([0]), vec([1]), Schedule(k_max=20))
    assert res == NOT_FOUND


def ex58_system():
    g = PolyMap.parse(["x0", "-x0^2"], 1)
    return ConstraintSystem(g, halfplane_union(), vec([0]))


def test_normality_violation_witness():
    sys = ex58_system()
    found = search_normality_violation(
        sys, vec([-1]), vec([0, -1]), schedule=Schedule(k_max=20), mode="pseudo"
    )
    assert isinstance(found, WitnessSequence)
    rec = found.records[-1]
    # z_k = (x_k, 0) with the sign condition <lam, g - z> = t^2 > 0
    assert rec.y == vec([rec.x[0], 0])


def test_normality_search_rejects_a_multiplier_of_the_wrong_length():
    with pytest.raises(DimensionMismatch):
        search_normality_violation(ex58_system(), vec([-1]), vec([-1]), schedule=Schedule(k_max=4))


def test_normality_search_not_found_when_sign_fails():
    sys = ex58_system()
    # candidate with flipped sign cannot satisfy the sign condition
    res = search_normality_violation(
        sys, vec([-1]), vec([0, 1]), schedule=Schedule(k_max=16), mode="pseudo"
    )
    assert res == NOT_FOUND


def test_pseudo_quasi_verdict_constraint_route():
    sys = ex58_system()
    v = pseudo_quasi_verdict(sys, vec([-1]))
    assert v.status == FAILS
    assert v.certificate["candidate"][1] < 0
    # direction +1 has a trivial kernel: vacuous normality
    assert pseudo_quasi_verdict(sys, vec([1])).status == HOLDS


def ex47_problem():
    para = GraphPatch((joint("y0 + x0^2", 1, 1),), (joint("x0", 1, 1),), 1, 1)
    root = GraphPatch((joint("x0 - y0^2", 1, 1),), (joint("-y0", 1, 1),), 1, 1)
    s = PatchMap((para, root), 1, 1)
    omega = PolyUnion.make([HPolyhedron.make(a=[[-1]], b=[0], dim=1)])
    return MpecProblem(omega, s, vec([0, 0]))


def test_mpec_candidates_ex47():
    mp = ex47_problem()
    cands, exact = mpec_normality_candidates(mp, vec([0, 1]))
    assert exact
    assert cands.contains(vec([1]))
    assert not cands.contains(vec([-1]))


def test_mpec_elimination_ex47():
    mp = ex47_problem()
    res = search_mpec_normality(mp, vec([0, 1]), vec([1]), Schedule(k_max=24))
    assert isinstance(res, EliminationTrace)
    assert res.eliminated
    assert [r["alignment_bound"] for r in res.rows[-5:]] == [0] * 5


def test_mpec_elimination_needs_exact_zero_bounds():
    # along u = (-1, 0) every step has an admissible graph point, and its
    # alignment bound shrinks with eps_k but is never 0: no schedule length
    # eliminates the candidate
    res = search_mpec_normality(ex47_problem(), vec([-1, 0]), vec([1]), Schedule(k_max=60))
    assert not res.eliminated
    assert res.reason == "bounds did not collapse within the schedule"
    assert all(r["points"] > 0 and r["alignment_bound"] > 0 for r in res.rows)


@pytest.mark.parametrize("mode", ["pseudo", "quasi"])
def test_mpec_search_solves_one_lp_per_graph_point(monkeypatch, mode):
    # a warm repeat: the graph-point and Omega normal cones are cached, so
    # every LP left is an alignment bound
    mp, schedule = ex47_problem(), Schedule(k_max=12)
    args = (mp, vec([-1, 0]), vec([1]), schedule, mode)
    first = search_mpec_normality(*args)
    calls = record_solve_lp(monkeypatch)
    assert search_mpec_normality(*args) == first
    points = sum(r["points"] for r in first.rows)
    assert len(calls) == points == 12


def test_inv_norm_scales_the_largest_entry_to_one():
    assert oracle._inv_norm((3, -4)) == Q(1, 4)
    assert oracle._inv_norm(vec([Q(-1, 3), Q(1, 6)])) == 3


@pytest.mark.parametrize("k_max", [12, 24])
def test_mpec_searches_build_normal_cones_once_per_graph_point(monkeypatch, k_max):
    calls = []
    real = oracle.patch_regular_normal_cone

    def counted(m, w):
        calls.append((m, w))
        return real(m, w)

    monkeypatch.setattr(oracle, "patch_regular_normal_cone", counted)
    mp, schedule = ex47_problem(), Schedule(k_max=k_max)
    clear_oracle_caches()
    # along u = (-1, 0) the offset y1 = t from Omega passes the sign conditions
    first = search_mpec_normality(mp, vec([-1, 0]), vec([1]), schedule)
    assert calls and len(calls) == len(set(calls))
    # a second candidate and a repeated search visit the same graph points
    search_mpec_normality(mp, vec([-1, 0]), vec([2]), schedule, mode="quasi")
    assert search_mpec_normality(mp, vec([-1, 0]), vec([1]), schedule) == first
    assert len(calls) == len(set(calls)) == oracle._graph_point_cone.cache_info().misses


def test_mpec_pseudo_quasi_verdict_ex47():
    mp = ex47_problem()
    for u in (vec([0, 1]), vec([-1, 0]), vec([1, 0]), vec([0, -1])):
        v = mpec_pseudo_quasi_verdict(mp, u)
        assert v.status == HOLDS, (u, v)
    v = mpec_pseudo_quasi_verdict(mp, vec([0, 1]))
    assert v.qualifier == "oracle-exhaustion"
    assert v.certificate["traces"]
