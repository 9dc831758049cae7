"""Cone calculus on polyhedral unions: tangent/normal cones and graph models."""

import itertools
import random
from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from test_polyhedra import cone_polyhedron

from dircq import simplex
from dircq.linalg import coprime_ints, dot, vec
from dircq.polyhedra import HPolyhedron, PolyhedralCone, generators, intersect_generated
from dircq.simplex import strict_feasible_point
from dircq.unions import (
    ConeUnion,
    PolyUnion,
    arrangement,
    cone_union_equal,
    cone_union_subset,
    directional_limiting_normal_cone,
    limiting_normal_cone,
    normal_graph,
    regular_normal_cone,
    sign_cells,
    sign_rows,
    tangent_cone,
)

R2 = 2


def halfplane_union():
    # (R+ x R) u (R x R+)
    p1 = HPolyhedron.make(a=[[-1, 0]], b=[0])
    p2 = HPolyhedron.make(a=[[0, -1]], b=[0])
    return PolyUnion.make([p1, p2])


def union_from_cones(cones, dim):
    return ConeUnion.make(cones, dim)


def test_tangent_cone_of_halfplane_union_is_itself():
    d = halfplane_union()
    t = tangent_cone(d, vec([0, 0]))
    assert t.contains(vec([1, -5])) and t.contains(vec([-5, 1]))
    assert not t.contains(vec([-1, -1]))
    expected = union_from_cones(
        [PolyhedralCone.make(a=[[-1, 0]]), PolyhedralCone.make(a=[[0, -1]])], R2
    )
    assert cone_union_equal(t, expected)


def test_tangent_cone_interior_point_full():
    box = PolyUnion.make(
        [HPolyhedron.make(a=[[1, 0], [-1, 0], [0, 1], [0, -1]], b=[1, 0, 1, 0])]
    )
    t = tangent_cone(box, vec([Q(1, 2), Q(1, 2)]))
    assert cone_union_equal(t, union_from_cones([PolyhedralCone.make(dim=2)], R2))


def test_tangent_cone_outside_is_empty_marker():
    d = halfplane_union()
    t = tangent_cone(d, vec([-1, -1]))
    assert t.is_empty
    assert not t.contains(vec([0, 0]))


def test_regular_normal_cone_union_origin():
    d = halfplane_union()
    n = regular_normal_cone(d, vec([0, 0]))
    assert n.is_trivial()


def test_regular_normal_cone_negative_quadrant():
    d = PolyUnion.make([HPolyhedron.make(a=[[1, 0], [0, 1]], b=[0, 0])])
    n = regular_normal_cone(d, vec([0, 0]))
    assert n.equals(PolyhedralCone.make(a=[[-1, 0], [0, -1]]))


def test_regular_normal_cone_staircase_point():
    # one linear piece of the k-indexed staircase graph, at (1/k, 1/k), k = 3:
    # regular cone {(a, b): b <= 0, b <= k a}
    k = 3
    piece = HPolyhedron.make(
        a=[[-1, 0], [1, 0], [Q(-1, k), -1]],
        b=[Q(-1, k + 1), Q(1, k), -Q(1, k * k) - Q(1, k)],
    )
    d = PolyUnion.make([piece])
    n = regular_normal_cone(d, vec([Q(1, k), Q(1, k)]))
    expected = PolyhedralCone.make(a=[[0, 1], [-k, 1]])
    assert n.equals(expected)


def test_limiting_normal_cone_halfplane_union():
    d = halfplane_union()
    n = limiting_normal_cone(d, vec([0, 0]))
    expected = union_from_cones(
        [
            PolyhedralCone.make(a=[[1, 0]], e=[[0, 1]]),  # R- x {0}
            PolyhedralCone.make(a=[[0, 1]], e=[[1, 0]]),  # {0} x R-
        ],
        R2,
    )
    assert cone_union_equal(n, expected)


def test_limiting_normal_cone_line_and_diagonal():
    # D = (R x {0}) u {(t, t)}: limiting cone at 0 is ({0} x R) u (line (1,-1))
    d = PolyUnion.make(
        [
            HPolyhedron.make(e=[[0, 1]], d=[0], dim=2),
            HPolyhedron.make(e=[[1, -1]], d=[0], dim=2),
        ]
    )
    n = limiting_normal_cone(d, vec([0, 0]))
    expected = union_from_cones(
        [
            PolyhedralCone.make(e=[[1, 0]], dim=2),
            PolyhedralCone.make(e=[[1, 1]], dim=2),
        ],
        R2,
    )
    assert cone_union_equal(n, expected)


def test_limiting_equals_regular_for_convex():
    rng = random.Random(21)
    for _ in range(12):
        n = rng.randint(1, 3)
        rows = [[Q(rng.randint(-2, 2)) for _ in range(n)] for _ in range(rng.randint(1, 4))]
        d = PolyUnion.make([HPolyhedron.make(a=rows, b=[0] * len(rows), dim=n)])
        y = vec([0] * n)
        lim = limiting_normal_cone(d, y)
        reg = regular_normal_cone(d, y)
        assert cone_union_equal(lim, union_from_cones([reg], n))


def test_directional_limiting_example_cones():
    d = halfplane_union()
    y = vec([0, 0])
    n_plus = directional_limiting_normal_cone(d, y, vec([1, 0]))
    assert n_plus.is_trivial()
    n_minus = directional_limiting_normal_cone(d, y, vec([-1, 0]))
    expected = union_from_cones([PolyhedralCone.make(a=[[0, 1]], e=[[1, 0]])], R2)
    assert cone_union_equal(n_minus, expected)


def test_directional_limiting_convex_quadrant():
    d = PolyUnion.make([HPolyhedron.make(a=[[1, 0], [0, 1]], b=[0, 0])])
    n = directional_limiting_normal_cone(d, vec([0, 0]), vec([-1, 0]))
    expected = union_from_cones([PolyhedralCone.make(a=[[0, -1]], e=[[1, 0]])], R2)
    assert cone_union_equal(n, expected)


def test_directional_zero_direction_equals_limiting():
    d = halfplane_union()
    y = vec([0, 0])
    assert cone_union_equal(
        directional_limiting_normal_cone(d, y, vec([0, 0])),
        limiting_normal_cone(d, y),
    )


def test_directional_nontangent_is_empty():
    d = halfplane_union()
    n = directional_limiting_normal_cone(d, vec([0, 0]), vec([-1, -1]))
    assert n.is_empty


def _random_convex_cone_union(rng, n):
    m = rng.randint(1, 4)
    rows = [[Q(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)]
    return PolyUnion.make([HPolyhedron.make(a=rows, b=[0] * m, dim=n)])


def test_convex_identity_directional_cone():
    # for convex D: N_D(y; v) = N_D(y) cap [v]-perp on tangent directions
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(2, 3)
        d = _random_convex_cone_union(rng, n)
        y = vec([0] * n)
        t = tangent_cone(d, y)
        v = None
        for _ in range(20):
            cand = vec([rng.randint(-2, 2) for _ in range(n)])
            if t.contains(cand):
                v = cand
                break
        if v is None:
            continue
        lhs = directional_limiting_normal_cone(d, y, v)
        perp = PolyhedralCone.make(e=[v], dim=n) if not all(x == 0 for x in v) else PolyhedralCone.make(dim=n)
        rhs = union_from_cones([regular_normal_cone(d, y).intersect(perp)], n)
        assert cone_union_equal(lhs, rhs)


def test_normal_graph_halfline():
    d = PolyUnion.make([HPolyhedron.make(a=[[1]], b=[0], dim=1)])
    model = normal_graph(d, vec([0]))
    assert model is not None
    # covers exactly (R- x {0}) u ({0} x R+)
    assert model.contains(vec([-1]), vec([0]))
    assert model.contains(vec([0]), vec([5]))
    assert not model.contains(vec([-1]), vec([1]))
    assert not model.contains(vec([1]), vec([0]))


def test_normal_graph_matches_limiting_membership():
    rng = random.Random(41)
    for _ in range(8):
        n = 2
        # build 1-3 cone pieces through the origin
        pieces = []
        for _ in range(rng.randint(1, 3)):
            m = rng.randint(1, 3)
            pieces.append(
                HPolyhedron.make(
                    a=[[Q(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)],
                    b=[0] * m,
                    dim=n,
                )
            )
        d = PolyUnion.make(pieces)
        y = vec([0, 0])
        model = normal_graph(d, y)
        t = tangent_cone(d, y)
        for _ in range(25):
            q = vec([rng.randint(-2, 2) for _ in range(n)])
            z = vec([rng.randint(-2, 2) for _ in range(n)])
            if not t.contains(q):
                assert not model.contains(q, z)
                continue
            in_graph = limiting_normal_cone_via_point(d, q).contains(z)
            assert model.contains(q, z) == in_graph


def limiting_normal_cone_via_point(d, q):
    # N_{T_D(0)}(q) computed independently: shift so q is the base point of
    # the tangent union treated as a set
    t = tangent_cone(d, vec([0] * d.dim))
    return limiting_normal_cone(PolyUnion.make(map(cone_polyhedron, t.pieces)), q)


def graph_section(d, y, ystar, v, nonzero=False):
    """The section of gph N_D at (y, ystar) in direction v, as a union;
    ``nonzero`` drops its trivial pieces, leaving the subderivative values."""
    pieces = normal_graph(d, y).section(ystar, v)
    return ConeUnion.make([p for p in pieces if not (nonzero and p.is_trivial())], d.dim)


def test_graphical_derivative_halfline_cases():
    d = PolyUnion.make([HPolyhedron.make(a=[[1]], b=[0], dim=1)])
    y, ystar = vec([0]), vec([0])
    g_neg = graph_section(d, y, ystar, vec([-1]))
    assert g_neg.is_trivial()
    g_zero = graph_section(d, y, ystar, vec([0]))
    expected = union_from_cones([PolyhedralCone.make(a=[[-1]], dim=1)], 1)
    assert cone_union_equal(g_zero, expected)


def test_graphical_derivative_critical_cone_oracle():
    # convex polyhedral D: DN_D(y, y*)(v) = N_K(v), K = T_D(y) cap [y*]-perp
    rng = random.Random(51)
    done = 0
    while done < 12:
        n = 2
        m = rng.randint(1, 3)
        rows = [[Q(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)]
        d = PolyUnion.make([HPolyhedron.make(a=rows, b=[0] * m, dim=n)])
        y = vec([0, 0])
        nreg = regular_normal_cone(d, y)
        rays, lin = generators(nreg)
        cands = list(rays) + list(lin) + [vec([0, 0])]
        ystar = cands[rng.randrange(len(cands))]
        t = tangent_cone(d, y).pieces[0]
        k = t.intersect(PolyhedralCone.make(e=[ystar], dim=n)) if any(ystar) else t
        v = strict_feasible_point(k.ia, (0,) * len(k.ia), e=k.ie, d=(0,) * len(k.ie), n=n)
        if v is None:
            continue
        lhs = graph_section(d, y, ystar, v)
        rhs = union_from_cones(
            [regular_normal_cone(PolyUnion.make([cone_polyhedron(k)]), v)], n
        )
        assert cone_union_equal(lhs, rhs)
        done += 1


def test_subderivative_product_piece_rule():
    # D = {y2 <= 0}: the model cells are (line y2 = 0) x ({0} x R+) and
    # D x {0}; on a product cell F x N the admissible pairs are v in F with
    # w tangent to N at y*
    d = PolyUnion.make([HPolyhedron.make(a=[[0, 1]], b=[0])])
    y, ray = vec([0, 0]), PolyhedralCone.make(a=[[0, -1]], e=[[1, 0]], dim=2)
    sub = graph_section(d, y, vec([0, 0]), vec([1, 0]), nonzero=True)
    assert cone_union_equal(sub, union_from_cones([ray], 2))
    # at y* = (0, 1), inside the ray, its tangent is the whole line {0} x R
    sub_in = graph_section(d, y, vec([0, 1]), vec([1, 0]), nonzero=True)
    assert cone_union_equal(sub_in, union_from_cones([PolyhedralCone.make(e=[[1, 0]], dim=2)], 2))
    # v = (0, -1) enters the interior, where N = {0}: no nonzero w
    assert graph_section(d, y, vec([0, 0]), vec([0, -1]), nonzero=True).is_empty


def test_subderivative_halfplane_union_too_large():
    # at y* = 0 in direction (-1, 0) the subderivative picks up {0} x R-
    d = halfplane_union()
    sub = graph_section(d, vec([0, 0]), vec([0, 0]), vec([-1, 0]), nonzero=True)
    assert not sub.is_empty
    assert sub.contains(vec([0, -3]))
    assert not sub.contains(vec([-1, 0]))
    # direction (1, 0): no nonzero admissible values
    sub2 = graph_section(d, vec([0, 0]), vec([0, 0]), vec([1, 0]), nonzero=True)
    assert sub2.is_empty


def test_subderivative_contained_in_directional_cone():
    # sections of the normal-cone map graph stay inside the directional cone
    rng = random.Random(61)
    for _ in range(8):
        n = 2
        pieces = []
        for _ in range(rng.randint(1, 2)):
            m = rng.randint(1, 3)
            pieces.append(
                HPolyhedron.make(
                    a=[[Q(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)],
                    b=[0] * m,
                    dim=n,
                )
            )
        d = PolyUnion.make(pieces)
        y = vec([0, 0])
        t = tangent_cone(d, y)
        q = next((w for w in (vec([1, 0]), vec([0, 1]), vec([-1, 0]), vec([0, -1])) if t.contains(w)), None)
        if q is None:
            continue
        der = graph_section(d, y, vec([0, 0]), q)
        dir_cone = directional_limiting_normal_cone(d, y, q)
        ok, witness = cone_union_subset(der, dir_cone)
        assert ok, witness
        sub = graph_section(d, y, vec([0, 0]), q, nonzero=True)
        if not sub.is_empty:
            ok2, w2 = cone_union_subset(sub, dir_cone)
            assert ok2, w2


def test_cone_union_inclusion_witness():
    a = union_from_cones([PolyhedralCone.make(a=[[-1, 0]], dim=2)], 2)  # x >= 0
    b = union_from_cones(
        [
            PolyhedralCone.make(a=[[-1, 0], [0, -1]], dim=2),
            PolyhedralCone.make(a=[[-1, 0], [0, 1]], dim=2),
        ],
        2,
    )
    ok, _ = cone_union_subset(a, b)
    assert ok
    c = union_from_cones([PolyhedralCone.make(dim=2)], 2)
    ok2, w = cone_union_subset(c, b)
    assert not ok2 and w is not None and not b.contains(w)


def test_arrangement_of_coordinate_hyperplanes_solves_no_lp(monkeypatch):
    """On the ex58^2 tangent union (D = L x L in R^4, L the L-shape) every
    hyperplane is a coordinate hyperplane, so each one vanishes on the witness
    its node got from the coordinates before it (the root's is the origin):
    the 0-child reuses that witness, the two signed children step off it along
    a null-space direction, and the 64 cells cost no LP.  The
    one-LP-per-node search solved 111."""
    pieces = []
    for c0, c1 in itertools.product((0, 1), repeat=2):
        a = [[0] * 4, [0] * 4]
        a[0][c0] = -1
        a[1][2 + c1] = -1
        pieces.append(HPolyhedron.make(a=a, b=[0, 0]))
    t = tangent_cone(PolyUnion.make(pieces), vec([0, 0, 0, 0]))
    calls = []
    solve_lp = simplex.solve_lp
    monkeypatch.setattr(simplex, "solve_lp", lambda *a, **k: calls.append(1) or solve_lp(*a, **k))
    arr = arrangement.__wrapped__(t)  # bypass the cache
    assert len(arr.hyperplanes) == 4 and len(arr.cells) == 64
    assert len(calls) == 0


def reference_sign_cells(hyper, n, alive=None, a=(), e=()):
    """The one-LP-per-node search: every child solves its own cell's LP."""

    def feasible(signs):
        strict_rows, eq_rows = sign_rows(hyper, signs)
        return strict_feasible_point(
            tuple(strict_rows), (0,) * len(strict_rows), a=a, b=(0,) * len(a),
            e=tuple(eq_rows) + e, d=(0,) * (len(eq_rows) + len(e)), n=n,
        )

    def dfs(signs, w):
        if alive is not None and not alive(signs):
            return
        if len(signs) == len(hyper):
            if w is None:
                w = feasible(signs)
            if w is not None:
                yield tuple(signs), w
            return
        for s in (0, 1, -1):
            signs.append(s)
            child = feasible(signs)
            if child is not None:
                yield from dfs(signs, child)
            signs.pop()

    return dfs([], None)


def int_rows(draw, count, n):
    return tuple(tuple(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))) for _ in range(count))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sign_cells_match_the_one_lp_per_node_search(data):
    draw = data.draw
    n = draw(st.integers(2, 4))
    hyper = tuple(h for h in int_rows(draw, draw(st.integers(1, 4)), n) if any(h))
    a = int_rows(draw, draw(st.integers(0, 2)), n)
    e = int_rows(draw, draw(st.integers(0, 1)), n)
    alive = None
    if draw(st.booleans()):
        # prune every sign vector that takes a drawn sign on a drawn hyperplane
        banned = draw(st.lists(st.tuples(st.integers(0, len(hyper)), st.sampled_from((0, 1, -1))), max_size=3))

        def alive(signs):
            return not any(i < len(signs) and signs[i] == s for i, s in banned)

    got = list(sign_cells(hyper, n, alive=alive, a=a, e=e))
    want = list(reference_sign_cells(hyper, n, alive=alive, a=a, e=e))
    assert [s for s, _ in got] == [s for s, _ in want]
    for signs, w in got:
        w = tuple(Q(x) for x in w)
        for h, s in zip(hyper, signs, strict=True):
            hw = sum(Q(x) * y for x, y in zip(h, w))
            assert (hw > 0) - (hw < 0) == s
        assert all(sum(Q(x) * y for x, y in zip(row, w)) <= 0 for row in a)
        assert all(sum(Q(x) * y for x, y in zip(row, w)) == 0 for row in e)


def _sign_compatible(cell_signs, point_signs):
    """point lies in the closure of the cell with the given sign vector."""
    for s, t in zip(cell_signs, point_signs, strict=True):
        if s == 0 and t != 0:
            return False
        if s == 1 and t == -1:
            return False
        if s == -1 and t == 1:
            return False
    return True


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cell_closure_matches_the_sign_vector_rule(data):
    """``Cell.closure`` contains a point iff the point's sign vector is
    compatible with the cell's, at cell witnesses (each on the boundary of
    the cells it bounds), the origin and drawn small int points."""
    draw = data.draw
    n = draw(st.integers(2, 3))
    cones = [
        PolyhedralCone.make(a=int_rows(draw, draw(st.integers(1, 3)), n), dim=n)
        for _ in range(draw(st.integers(1, 2)))
    ]
    arr = arrangement(ConeUnion.make(cones, n))
    points = [c.witness for c in arr.cells] + [vec(p) for p in int_rows(draw, 4, n)]
    for v in points:
        signs = tuple((hv > 0) - (hv < 0) for hv in (dot(h, v) for h in arr.hyperplanes))
        for c in arr.cells:
            assert c.closure.contains(v) == _sign_compatible(c.signs, signs)


def _cell_dual(k, pidx, hyper, signs):
    """The regular normal cone of the union on a cell, read off its sign
    vector: the rows of each piece whose hyperplane has sign 0 there."""
    sign_of = dict(zip(hyper, signs))
    parts = (
        ([row for row in p.ia if sign_of[coprime_ints(row, line=True)] == 0], p.ie)
        for p in (k.pieces[i] for i in pidx)
    )
    return intersect_generated(parts, k.dim)


@st.composite
def cone_unions(draw, n):
    """Unions of one to three small cones, some with an equality row."""
    cones = [
        PolyhedralCone.make(
            a=int_rows(draw, draw(st.integers(1, 3)), n), e=int_rows(draw, draw(st.integers(0, 1)), n), dim=n
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    return ConeUnion.make(cones, n)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cell_dual_matches_the_sign_vector_rule(data):
    """The dual of every cell, read off the rows tight at its witness, is the
    one read off its sign vector, with extra hyperplanes or without."""
    draw = data.draw
    n = draw(st.integers(2, 3))
    k = draw(cone_unions(n))
    extra = tuple(vec(r) for r in int_rows(draw, draw(st.integers(0, 2)), n))
    arr = arrangement(k, extra=extra)
    for c in arr.cells:
        assert c.dual == _cell_dual(k, c.piece_idx, arr.hyperplanes, c.signs), c.signs


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cone_union_cones_match_its_polyhedral_union(data):
    """``tangent_cone`` and ``regular_normal_cone`` of a cone union equal
    those of its pieces as a polyhedral union, at cell witnesses, the origin
    and drawn int points, in the union or not."""
    draw = data.draw
    n = draw(st.integers(2, 3))
    k = draw(cone_unions(n))
    d = PolyUnion.make(map(cone_polyhedron, k.pieces))
    points = [c.witness for c in arrangement(k).cells] + [vec(p) for p in int_rows(draw, 4, n) + ((0,) * n,)]
    for y in points:
        assert tangent_cone(k, y) == tangent_cone(d, y)
        assert regular_normal_cone(k, y) == regular_normal_cone(d, y)
