"""Polyhedral kernel: generators, faces, polars, images and preimages."""

import itertools
import random
from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from dircq.linalg import canon_ray, coprime_ints, dot, is_zero, nullspace, rref, unit, vec, zeros
from dircq.polyhedra import (
    HPolyhedron,
    PolyhedralCone,
    generators,
    image_cone,
    polar_cone,
    polyhedron_faces,
    preimage_cone,
)
from dircq.simplex import INFEASIBLE, OPTIMAL, feasible_point, strict_feasible_point


def cone(a=(), e=(), dim=None):
    return PolyhedralCone.make(a=a, e=e, dim=dim)


def cone_polyhedron(c: PolyhedralCone) -> HPolyhedron:
    """The cone as a polyhedron: its rows with zero right-hand sides."""
    return HPolyhedron.make(a=c.ia, b=(0,) * len(c.ia), e=c.ie, d=(0,) * len(c.ie), dim=c.dim)


def test_quadrant_generators():
    c = cone(a=[[-1, 0], [0, -1]])  # x >= 0, y >= 0
    rays, lin = generators(c)
    assert set(rays) == {vec([1, 0]), vec([0, 1])}
    assert lin == ()


def test_line_generators():
    c = cone(e=[[1, 0]], dim=2)  # x = 0
    rays, lin = generators(c)
    assert rays == ()
    assert lin == (vec([0, 1]),)


def test_halfplane_polar_ray():
    # polar of {u <= v} is the ray through (1, -1)
    c = cone(a=[[1, -1]])
    p = polar_cone(c)
    rays, lin = generators(p)
    assert rays == (vec([1, -1]),)
    assert lin == ()


def test_polar_involution_and_specials():
    assert polar_cone(PolyhedralCone.make(dim=2)).equals(cone(e=[[1, 0], [0, 1]]))
    # polar(R+ x R) = R- x {0}
    c = cone(a=[[-1, 0]])
    p = polar_cone(c)
    assert p.contains(vec([-1, 0])) and not p.contains(vec([1, 0]))
    assert not p.contains(vec([0, Q(1, 7)]))
    # polar((R+ x R) cap (R x R+)) = cone{(-1,0),(0,-1)}
    q = cone(a=[[-1, 0], [0, -1]])
    pq = polar_cone(q)
    rays, lin = generators(pq)
    assert set(rays) == {vec([-1, 0]), vec([0, -1])} and lin == ()


def _random_cone(rng, n, m):
    rows = [[Q(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
    return cone(a=rows, dim=n)


def test_double_polar_roundtrip_random():
    rng = random.Random(7)
    for _ in range(40):
        c = _random_cone(rng, rng.randint(1, 4), rng.randint(0, 5))
        assert polar_cone(polar_cone(c)).equals(c)


def test_generator_roundtrip_random():
    rng = random.Random(8)
    for _ in range(40):
        c = _random_cone(rng, rng.randint(1, 4), rng.randint(0, 5))
        rays, lin = generators(c)
        back = polar_cone(cone(a=rays, e=lin, dim=c.dim))
        assert back.equals(c)


def reference_generators(c):
    """Generators as first written: every activity set of every size, then an
    LP filter that drops rays in the cone of the others plus the lineality."""
    n = c.dim
    all_rows = c.a + c.e
    lin = tuple(sorted(vec(coprime_ints(v, line=True)) for v in nullspace(all_rows, dim=n)))
    if not all_rows:
        return (), lin
    pivots = rref(lin)[1] if lin else ()
    comp = [unit(n, j) for j in range(n) if j not in pivots]
    k = len(comp)
    if k == 0:
        return (), lin
    ineq_rows = [r for r in (tuple(dot(row, q) for q in comp) for row in c.a) if not is_zero(r)]
    eq_rows = tuple(r for r in (tuple(dot(row, q) for q in comp) for row in c.e) if not is_zero(r))
    rays = set()
    for size in range(len(ineq_rows) + 1):
        for subset in itertools.combinations(range(len(ineq_rows)), size):
            ns = nullspace(eq_rows + tuple(ineq_rows[i] for i in subset), dim=k)
            if len(ns) != 1:
                continue
            for cand in (ns[0], tuple(-x for x in ns[0])):
                if all(dot(r, cand) <= 0 for r in ineq_rows) and all(dot(r, cand) == 0 for r in eq_rows):
                    x = tuple(sum((ci * qi[j] for ci, qi in zip(cand, comp)), Q(0)) for j in range(n))
                    rays.add(canon_ray(x))
    rays_sorted = sorted(rays)
    extreme = []
    for i, r in enumerate(rays_sorted):
        others = [x for j, x in enumerate(rays_sorted) if j != i]
        if not _in_generated_cone(r, others, lin, n):
            extreme.append(r)
    return tuple(extreme), lin


def _in_generated_cone(x, rays, lin, n):
    """x in cone(rays) + span(lin), by exact LP over the coefficients."""
    cols = list(rays) + list(lin)
    if not cols:
        return is_zero(x)
    k, nr = len(cols), len(rays)
    e = tuple(tuple(col[j] for col in cols) for j in range(n))
    a = tuple(tuple(-Q(int(i == j)) for j in range(k)) for i in range(nr))
    return feasible_point(a, zeros(nr), e, x, n=k).status == OPTIMAL


@st.composite
def _drawn_cones(draw):
    """Small cones, often with lineality (equalities, or few rows) or = {0}."""
    n = draw(st.integers(1, 4))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    a = draw(st.lists(row, max_size=6))
    e = draw(st.lists(row, max_size=2))
    if draw(st.integers(0, 9)) == 0:
        e = [list(unit(n, i)) for i in range(n)]  # the origin, whatever a is
    return cone(a=a, e=e, dim=n)


@settings(max_examples=200, deadline=None)
@given(_drawn_cones())
def test_generators_match_reference_with_extreme_ray_filter(c):
    assert generators(c) == reference_generators(c)


def test_generators_match_reference_special_cones():
    for c in (
        cone(e=[[1, 0, 0], [0, 1, 0], [0, 0, 1]]),  # {0}
        PolyhedralCone.make(dim=3),
        cone(e=[[1, 1, 0]], dim=3),  # a plane: lineality only
        cone(a=[[-1, 0, 0]], e=[[0, 1, -1]], dim=3),  # half-plane with a line
        cone(a=[[-1, 0], [1, 0]], dim=2),  # x = 0 written as two inequalities
        cone(a=[[-1, -1], [1, -2], [-2, 1], [0, -1]], dim=2),  # a redundant row
    ):
        assert generators(c) == reference_generators(c)


def test_faces_quadrant():
    c = cone(a=[[-1, 0], [0, -1]])
    faces = polyhedron_faces(cone_polyhedron(c))
    assert len(faces) == 4  # whole cone, two rays, origin
    for active, w in faces:
        assert c.contains(w)
        assert all(dot(c.a[i], w) == 0 for i in active)


def test_faces_halfplane():
    c = cone(a=[[0, -1]])  # y >= 0 in the plane
    faces = polyhedron_faces(cone_polyhedron(c))
    assert len(faces) == 2  # the halfplane and the line y = 0


def test_faces_match_bruteforce_random():
    rng = random.Random(9)
    for _ in range(15):
        c = _random_cone(rng, 3, rng.randint(1, 5))
        faces = polyhedron_faces(cone_polyhedron(c))
        # brute force: distinct feasible strict activity patterns
        m = len(c.a)
        patterns = set()
        for size in range(m + 1):
            for s in itertools.combinations(range(m), size):
                ins = tuple(c.a[i] for i in range(m) if i not in s)
                w = strict_feasible_point(
                    ins,
                    zeros(len(ins)),
                    e=c.e + tuple(c.a[i] for i in s),
                    d=zeros(len(c.e) + len(s)),
                    n=c.dim,
                )
                if w is not None:
                    patterns.add(tuple(i in s or dot(c.a[i], w) == 0 for i in range(m)))
        assert len(faces) == len(patterns)


def test_face_witness_activity():
    rng = random.Random(10)
    for _ in range(10):
        c = _random_cone(rng, 3, 4)
        for active, w in polyhedron_faces(cone_polyhedron(c)):
            for row in c.e:
                assert dot(row, w) == 0
            for i, row in enumerate(c.a):
                assert (dot(row, w) == 0) if i in active else (dot(row, w) < 0)


def _random_rows(rng, count, n):
    return [[rng.randint(-2, 2) for _ in range(n)] for _ in range(count)]


def test_image_membership_vs_lp_random():
    """y lies in the image of c under M iff some x in c has M x = y (an LP);
    the cones have equality rows and lineality, and some maps send c to {0}."""
    rng = random.Random(11)
    n = 4
    grid = [vec(p) for p in itertools.product(range(-2, 3), repeat=2)]
    with_lineality = 0
    for trial in range(30):
        c = cone(a=_random_rows(rng, rng.randint(0, 4), n), e=_random_rows(rng, rng.randint(0, 1), n), dim=n)
        rows = [[0] * n] * 2 if trial % 6 == 0 else _random_rows(rng, 2, n)
        img = image_cone(c, lambda x: tuple(dot(r, x) for r in rows), 2)
        with_lineality += bool(generators(c)[1])
        for y in grid:
            has = feasible_point(c.a, zeros(len(c.a)), c.e + tuple(map(vec, rows)), zeros(len(c.e)) + y, n=n)
            assert img.contains(y) == (has.status == OPTIMAL), (c, rows, y)
        if trial % 6 == 0:
            assert img.is_trivial()
    assert with_lineality >= 10


def test_preimage_membership_random():
    """x lies in the preimage of c under M iff M x lies in c, given the map
    on rows a -> a M; checked at random points and at the preimage's own
    generators."""
    rng = random.Random(12)
    for _ in range(40):
        k, n = rng.randint(1, 4), rng.randint(1, 4)
        c = cone(a=_random_rows(rng, rng.randint(0, 4), k), e=_random_rows(rng, rng.randint(0, 1), k), dim=k)
        rows = _random_rows(rng, k, n)
        cols = list(zip(*rows))
        pre = preimage_cone(c, lambda a: tuple(dot(a, col) for col in cols), n)
        rays, lin = generators(pre)
        points = [vec(_random_rows(rng, 1, n)[0]) for _ in range(20)] + list(rays) + list(lin)
        for x in points + [tuple(-v for v in l) for l in lin]:
            assert pre.contains(x) == c.contains(tuple(dot(r, x) for r in rows)), (c, rows, x)


def test_lp_feasibility_certificates():
    # x <= 1 and x >= 2: the Farkas vector adds the two rows to 0 <= -1
    res = feasible_point(((1,), (-1,)), (1, -2), n=1)
    assert res.status == INFEASIBLE and res.farkas_ineq == vec([1, 1])
    assert feasible_point(((-1, 0), (0, -1)), (0, 0), ((1, 1),), (1,), n=2).status == OPTIMAL


def test_relint_point():
    w = strict_feasible_point(((-1, 0), (0, -1)), (0, 0), n=2)
    assert w is not None and w[0] > 0 and w[1] > 0
