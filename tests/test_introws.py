"""The int-row storage of cones and polyhedra against Fraction references.

The references below are the Fraction-arithmetic membership, activity and
inclusion tests the cone layer used before it stored integer rows; the int
kernels must give the same answer on every input.  That int and Fraction rows
give ``solve_lp`` one phase-1 entry and equal results is checked in
``test_simplex.py::test_int_and_fraction_inputs_agree``.
"""

from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from dircq.linalg import coprime_ints, dot, int_nullspace, nullspace, vec
from dircq.polyhedra import HPolyhedron, PolyhedralCone, generators

# ---------------------------------------------------------------------------
# Fraction references


def ref_cone_contains(c: PolyhedralCone, x) -> bool:
    return all(dot(r, x) <= 0 for r in c.a) and all(dot(r, x) == 0 for r in c.e)


def ref_poly_contains(p: HPolyhedron, x) -> bool:
    return all(dot(r, x) <= bi for r, bi in zip(p.a, p.b)) and all(
        dot(r, x) == di for r, di in zip(p.e, p.d)
    )


def ref_active_rows(p: HPolyhedron, x) -> tuple[int, ...]:
    return tuple(i for i, (r, bi) in enumerate(zip(p.a, p.b)) if dot(r, x) == bi)


def ref_tangent_rows(obj, x) -> tuple:
    """The int rows of the active inequalities (by the Fraction rule) and all
    equality rows, right-hand sides dropped, of a polyhedron or a cone."""
    if isinstance(obj, HPolyhedron):
        return tuple(obj.iab[i][:-1] for i in ref_active_rows(obj, x)), tuple(r[:-1] for r in obj.ied)
    active = [i for i, r in enumerate(obj.a) if dot(r, x) == 0]
    return tuple(obj.ia[i] for i in active), obj.ie


def ref_subset_of(c: PolyhedralCone, other: PolyhedralCone) -> bool:
    rays, lin = generators(c)
    return all(ref_cone_contains(other, r) for r in rays) and all(
        ref_cone_contains(other, l) and ref_cone_contains(other, tuple(-x for x in l)) for l in lin
    )


# ---------------------------------------------------------------------------
# strategies: small rows, given as ints, Fractions or a mix of both

small = st.integers(-3, 3)
scalars = st.builds(Q, st.integers(-4, 4), st.integers(1, 3))


def _as_type(x, kind: str):
    if kind == "int":
        return x
    if kind == "fraction":
        return Q(x)
    return Q(x) if x % 2 else x  # mixed


@st.composite
def rows_of(draw, n: int, max_size: int):
    """Rows with rescaled copies and duplicates mixed in, in a drawn entry type."""
    rows = draw(st.lists(st.lists(small, min_size=n, max_size=n), max_size=max_size))
    out = []
    for r in rows:
        out.append(r)
        if r and draw(st.integers(0, 3)) == 0:
            k = draw(st.sampled_from((2, 3, Q(1, 2), Q(5, 3))))
            out.append([k * x for x in r])  # a rescaled duplicate
    kind = draw(st.sampled_from(("int", "fraction", "mixed")))
    return [[_as_type(x, kind) if type(x) is int else x for x in r] for r in out]


@st.composite
def cones(draw, n=None):
    """Small cones, often with lineality (equalities, or few rows) or = {0}."""
    if n is None:
        n = draw(st.integers(1, 4))
    if draw(st.integers(0, 9)) == 0:
        return PolyhedralCone.make(e=[[int(j == i) for j in range(n)] for i in range(n)], dim=n)
    return PolyhedralCone.make(a=draw(rows_of(n, 5)), e=draw(rows_of(n, 2)), dim=n)


@st.composite
def polyhedra(draw):
    n = draw(st.integers(1, 3))
    a, e = draw(rows_of(n, 4)), draw(rows_of(n, 1))
    b = draw(st.lists(scalars, min_size=len(a), max_size=len(a)))  # often negative
    d = draw(st.lists(scalars, min_size=len(e), max_size=len(e)))
    return HPolyhedron.make(a=a, b=b, e=e, d=d, dim=n)


@st.composite
def points_for(draw, obj):
    """A point of the right dimension; often one on a boundary of the set."""
    n = obj.dim
    x = draw(st.lists(scalars, min_size=n, max_size=n))
    if isinstance(obj, PolyhedralCone) and draw(st.booleans()):
        rays, lin = generators(obj)
        gens = list(rays) + list(lin)
        if gens:
            coefs = draw(st.lists(st.sampled_from((0, 1, Q(1, 2), Q(3, 4))), min_size=len(gens), max_size=len(gens)))
            x = [sum((c * g[j] for c, g in zip(coefs, gens)), Q(0)) for j in range(n)]
    if isinstance(obj, HPolyhedron) and obj.iab and draw(st.booleans()):
        # move x onto the first inequality's hyperplane along its normal
        r, bi = obj.a[0], obj.b[0]
        if dot(r, r):
            t = (bi - dot(r, x)) / dot(r, r)
            x = [xi + t * ri for xi, ri in zip(x, r)]
    # integral entries as ints or as Fractions
    return tuple(draw(st.sampled_from((int, Q)))(v) if Q(v).denominator == 1 else v for v in x)


# ---------------------------------------------------------------------------
# equal answers


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cone_contains_matches_fraction_reference(data):
    c = data.draw(cones())
    x = data.draw(points_for(c))
    assert c.contains(x) == ref_cone_contains(c, x)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_polyhedron_contains_and_tangent_rows_match_reference(data):
    p = data.draw(polyhedra())
    x = data.draw(points_for(p))
    assert p.contains(x) == ref_poly_contains(p, x)
    assert p.tangent_rows(x) == ref_tangent_rows(p, x)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cone_tangent_rows_match_reference(data):
    c = data.draw(cones())
    x = data.draw(points_for(c))
    assert c.tangent_rows(x) == ref_tangent_rows(c, x)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_subset_of_and_is_trivial_match_reference(data):
    c = data.draw(cones())
    other = data.draw(cones(c.dim))
    assert c.subset_of(other) == ref_subset_of(c, other)
    rays, lin = generators(c)
    assert c.is_trivial() == (not rays and not lin)


def test_fraction_points_against_integer_right_hand_sides():
    for p in (HPolyhedron.make(a=[[1]], b=[1], dim=1), HPolyhedron.make(e=[[2]], d=[Q(3, 2)], dim=1)):
        assert p.contains((Q(3, 4),)) and ref_poly_contains(p, (Q(3, 4),))
    q = HPolyhedron.make(a=[[1, 1]], b=[1], dim=2)
    for x in ((Q(3, 4), Q(1, 4)), (Q(1, 2), Q(1, 3)), (Q(2, 3), Q(1, 2))):
        assert q.contains(x) == ref_poly_contains(q, x)
        assert q.tangent_rows(x) == ref_tangent_rows(q, x)
    assert q.tangent_rows((Q(3, 4), Q(1, 4))) == (((1, 1),), ())


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_int_nullspace_is_the_canonical_nullspace(data):
    n = data.draw(st.integers(1, 5))
    m = data.draw(rows_of(n, 4))
    assert int_nullspace(m, n) == [coprime_ints(v, line=True) for v in nullspace(m, dim=n)]


# ---------------------------------------------------------------------------
# canonical storage: equal sets of rows give equal objects


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rescaled_inputs_make_equal_cones(data):
    n = data.draw(st.integers(1, 4))
    a = data.draw(st.lists(st.lists(small, min_size=n, max_size=n), max_size=4))
    e = data.draw(st.lists(st.lists(small, min_size=n, max_size=n), max_size=2))
    pos = st.sampled_from((1, 2, 3, Q(1, 2), Q(7, 3)))
    ka = [data.draw(pos) for _ in a]
    ke = [data.draw(pos) * data.draw(st.sampled_from((1, -1))) for _ in e]
    c1 = PolyhedralCone.make(a=a, e=e, dim=n)
    c2 = PolyhedralCone.make(
        a=[[k * x for x in r] for k, r in zip(ka, a)],
        e=[[k * x for x in r] for k, r in zip(ke, e)],
        dim=n,
    )
    c3 = PolyhedralCone.make(a=[vec(r) for r in a], e=[vec(r) for r in e], dim=n)
    assert c1 == c2 == c3 and hash(c1) == hash(c2) == hash(c3)
    assert c1.a == c2.a == c3.a and c1.e == c2.e == c3.e
    assert all(type(x) is Q for r in c1.a + c1.e for x in r)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rescaled_inputs_make_equal_polyhedra(data):
    n = data.draw(st.integers(1, 3))
    a = data.draw(st.lists(st.lists(small, min_size=n, max_size=n), max_size=3))
    e = data.draw(st.lists(st.lists(small, min_size=n, max_size=n), max_size=2))
    b = data.draw(st.lists(scalars, min_size=len(a), max_size=len(a)))
    d = data.draw(st.lists(scalars, min_size=len(e), max_size=len(e)))
    pos = st.sampled_from((1, 2, Q(1, 2), Q(7, 3)))
    ka = [data.draw(pos) for _ in a]
    ke = [data.draw(pos) * data.draw(st.sampled_from((1, -1))) for _ in e]
    p1 = HPolyhedron.make(a=a, b=b, e=e, d=d, dim=n)
    p2 = HPolyhedron.make(
        a=[[k * x for x in r] for k, r in zip(ka, a)],
        b=[k * x for k, x in zip(ka, b)],
        e=[[k * x for x in r] for k, r in zip(ke, e)],
        d=[k * x for k, x in zip(ke, d)],
        dim=n,
    )
    assert p1 == p2 and hash(p1) == hash(p2)
    assert (p1.a, p1.b, p1.e, p1.d) == (p2.a, p2.b, p2.e, p2.d)
    assert all(type(x) is Q for x in p1.b + p1.d)


def test_equality_rows_have_one_sign():
    c1 = PolyhedralCone.make(e=[[1, -2]], dim=2)
    c2 = PolyhedralCone.make(e=[[-1, 2]], dim=2)
    assert c1 == c2 and hash(c1) == hash(c2) and c1.e == ((Q(1), Q(-2)),)
    p1 = HPolyhedron.make(e=[[0, -3]], d=[Q(3, 2)], dim=2)
    p2 = HPolyhedron.make(e=[[0, 2]], d=[-1], dim=2)
    assert p1 == p2 and hash(p1) == hash(p2) and (p1.e, p1.d) == (((0, 2),), (-1,))
    assert PolyhedralCone.make(e=[[1, 0], [-2, 0]], dim=2).ie == ((1, 0),)


def test_piece_order_is_the_fraction_order():
    from dircq.unions import ConeUnion, PolyUnion

    pieces = [
        HPolyhedron.make(a=[[1, 0]], b=[b], dim=2) for b in (Q(1, 2), -1, 3)
    ] + [HPolyhedron.make(a=[[1, 0], [0, 1]], b=[0, 0], dim=2), HPolyhedron.make(a=[[0, -1]], b=[1], dim=2)]
    got = PolyUnion.make(pieces).pieces
    assert list(got) == sorted(pieces, key=lambda p: (p.a, p.b, p.e, p.d))
    cones_ = [
        PolyhedralCone.make(a=[[-1, 0]], dim=2),
        PolyhedralCone.make(a=[[0, -1]], dim=2),
        PolyhedralCone.make(e=[[1, 1]], dim=2),
    ]
    assert list(ConeUnion.make(cones_, 2).pieces) == sorted(cones_, key=lambda c: (c.a, c.e))

