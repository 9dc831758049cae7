"""Integer kernels of linalg against plain Fraction reference implementations.

The references below are the straightforward Fraction versions of ``dot``,
``canon_ray``, the line scaling ``coprime_ints(v, line=True)`` and ``rref`` (and of the null space and the
linear solve on top of ``rref``).  The kernels under test compute in ints and
must return equal values, built as Fractions.
"""

import random
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from dircq.linalg import (
    canon_ray,
    coprime_ints,
    dot,
    half_step,
    int_nullspace,
    mat_t_vec,
    null_direction,
    nullspace,
    pivot_columns,
    rank,
    rref,
    rref_reduce,
    rref_span,
    vec,
)

# ---------------------------------------------------------------------------
# reference implementations in Fraction arithmetic


def ref_dot(a, b):
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def ref_integerize(v):
    if all(x == 0 for x in v):
        return tuple(Fraction(0) for _ in v)
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(Fraction(x // g) for x in ints)


def ref_canon_line(v):
    w = ref_integerize(v)
    lead = next((x for x in w if x != 0), None)
    if lead is not None and lead < 0:
        w = tuple(-x for x in w)
    return w


def ref_rref(m):
    rows = [list(r) for r in m]
    if not rows:
        return (), ()
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows[:r]), tuple(pivots)


def ref_rank(m):
    return len(ref_rref(tuple(map(vec, m)))[0])


def ref_nullspace(m, n):
    red, pivots = ref_rref(m)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return basis


def ref_mat_t_vec(m, v):
    if not m:
        return ()
    return tuple(
        sum((row[j] * y for row, y in zip(m, v)), Fraction(0)) for j in range(len(m[0]))
    )


def all_fractions(xs):
    return all(type(x) is Fraction for x in xs)


# ---------------------------------------------------------------------------
# inputs: small, negative, large and mixed int/Fraction entries

SMALL = st.integers(-4, 4)
RATIONAL = st.fractions(min_value=-20, max_value=20, max_denominator=30)
LARGE = st.builds(Fraction, st.integers(-(10**24), 10**24), st.integers(1, 10**15))
ENTRY = st.one_of(SMALL, SMALL.map(Fraction), RATIONAL, LARGE)
FRACTION = ENTRY.map(Fraction)
SCALE = st.one_of(st.integers(-5, 5), RATIONAL, LARGE).filter(lambda s: s != 0)


@st.composite
def vectors(draw, entry=ENTRY, n=None):
    n = draw(st.integers(0, 7)) if n is None else n
    return tuple(draw(st.lists(entry, min_size=n, max_size=n)))


@st.composite
def matrices(draw, ncols=None, ints=False):
    """Wide, tall or square Fraction matrices (all-int ones if ``ints``),
    with zero, rescaled and dependent rows mixed in so that many are
    rank-deficient."""
    ncols = draw(st.integers(1, 6)) if ncols is None else ncols
    entry, scale = (SMALL, st.integers(-5, 5).filter(bool)) if ints else (FRACTION, SCALE)
    rows = draw(st.lists(vectors(entry, ncols), max_size=6))
    extra = []
    for kind, s, i, j in draw(
        st.lists(st.tuples(st.integers(0, 2), scale, st.integers(0, 9), st.integers(0, 9)), max_size=4)
    ):
        if kind == 0 or not rows:
            extra.append((0 if ints else Fraction(0),) * ncols)
        elif kind == 1:
            extra.append(tuple(s * x for x in rows[i % len(rows)]))
        else:
            r1, r2 = rows[i % len(rows)], rows[j % len(rows)]
            extra.append(tuple(x + s * y for x, y in zip(r1, r2)))
    return tuple(draw(st.permutations(rows + extra)))


# ---------------------------------------------------------------------------
# hypothesis-drawn comparisons


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 7).flatmap(lambda n: st.tuples(vectors(n=n), vectors(n=n))))
def test_dot_matches_reference(ab):
    a, b = ab
    got = dot(a, b)
    assert type(got) is Fraction
    assert got == ref_dot(a, b)


@settings(max_examples=200, deadline=None)
@given(vectors())
def test_canonical_scalings_match_reference(v):
    got = canon_ray(v)
    assert got == ref_integerize(v)
    assert all_fractions(got)
    assert all(x.denominator == 1 for x in got)
    assert coprime_ints(v, line=True) == ref_canon_line(v)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rref_rank_nullspace_match_reference(m):
    red, pivots = rref(m)
    assert (red, pivots) == ref_rref(m)
    assert all(all_fractions(row) for row in red)
    assert rank(m) == len(ref_rref(m)[0])
    if m:
        n = len(m[0])
        basis = nullspace(m)
        assert basis == ref_nullspace(m, n)
        assert all(all_fractions(v) for v in basis)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pivots_and_int_nullspace_match_reference(data):
    ints = data.draw(st.booleans())
    n = data.draw(st.integers(1, 6))
    m = data.draw(matrices(n, ints=ints))
    assert all(type(x) is (int if ints else Fraction) for row in m for x in row)
    red, pivots = ref_rref(tuple(map(vec, m)))
    assert pivot_columns(m) == pivots
    assert int_nullspace(m, n) == [ref_canon_line(v) for v in ref_nullspace(red, n)]
    assert rank(m) == len(red)
    if ints:
        assert rref(m) == (red, pivots)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_mat_t_vec_matches_reference(m):
    if not m:
        return
    y = tuple(Fraction(i - 2, i + 1) for i in range(len(m)))
    got = mat_t_vec(m, y)
    assert got == ref_mat_t_vec(m, y) and all_fractions(got)


# ---------------------------------------------------------------------------
# seeded comparisons and fixed edge cases


def _seeded_entry(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-6, 6)
    if kind == 2:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    if kind == 3:
        return Fraction(rng.randint(-(10**30), 10**30), rng.randint(1, 10**20))
    return Fraction(rng.choice((0, 1, -1)))


def test_seeded_kernels_match_reference():
    rng = random.Random(5150)
    for _ in range(400):
        nrows, ncols = rng.randint(0, 6), rng.randint(1, 6)
        m = [[_seeded_entry(rng) for _ in range(ncols)] for _ in range(nrows)]
        if m and rng.random() < 0.5:
            src = rng.choice(m)
            m.append([Fraction(-3, 7) * x for x in src])  # rescaled duplicate
            m.append(list(src))  # exact duplicate
            m.append([0] * ncols)  # zero row
            rng.shuffle(m)
        for row in m:
            assert dot(row, m[0]) == ref_dot(row, m[0])
            assert canon_ray(row) == ref_integerize(vec(row))
            assert coprime_ints(row, line=True) == ref_canon_line(vec(row))
        fm = tuple(vec(row) for row in m)
        assert rref(fm) == ref_rref(fm)
        if fm:
            assert nullspace(fm) == ref_nullspace(fm, ncols)


def test_fixed_edge_cases():
    assert dot((), ()) == 0 and type(dot((), ())) is Fraction
    assert dot((1, 2), (3, 4)) == 11 and type(dot((1, 2), (3, 4))) is Fraction
    assert dot((Fraction(1, 3), 2), (Fraction(3, 5), Fraction(-1, 10))) == 0
    assert canon_ray((Fraction(0), Fraction(0))) == (0, 0)
    assert coprime_ints((Fraction(0), Fraction(-2, 3), Fraction(4, 9)), line=True) == (0, 3, -2)
    assert canon_ray((Fraction(0), Fraction(-2, 3), Fraction(4, 9))) == (0, -3, 2)
    big = Fraction(10**50 + 1, 3)
    assert coprime_ints((big, -2 * big), line=True) == (1, -2)
    assert rref(()) == ((), ())
    zero_rows = ((Fraction(0), Fraction(0)),) * 3
    assert rref(zero_rows) == ((), ()) and rank(zero_rows) == 0
    assert nullspace(zero_rows) == [(1, 0), (0, 1)]
    assert rref(((2, 4, 6, 8), (0, 0, 1, 1))) == (((1, 2, 0, 1), (0, 0, 1, 1)), (0, 2))


# ---------------------------------------------------------------------------
# the incremental RREF and the step off a point


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_incremental_rref_spans_the_rows(data):
    n = data.draw(st.integers(1, 4))
    entry = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=3))
    row = st.lists(entry, min_size=n, max_size=n)
    rows = data.draw(st.lists(row, max_size=4))
    h = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    eqs = rref_span(rows)
    assert len(eqs) == ref_rank(rows)
    for r, pc in eqs:
        assert r[pc] > 0 and all(other[pc] == 0 for other, opc in eqs if opc != pc)
    hr = rref_reduce(eqs, h)
    assert (hr is None) == (ref_rank(rows + [h]) == len(eqs))
    if hr is not None:
        v = null_direction(eqs, hr)
        assert all(dot(r, v) == 0 for r in rows)
        assert dot(h, v) > 0 and dot(hr, v) > 0


def test_half_step_keeps_shifted_rows_strict():
    # -1 < x < 2 and x - y < 3 at w = (0, 0), stepping along (1, 0)
    rows, rhs, w, d = [[1, 0], [-1, 0], [1, -1]], [2, 1, 3], vec([0, 0]), [1, 0]
    eps = half_step(rows, w, d, rhs)
    assert eps == Fraction(1, 2)
    for sgn in (1, -1):
        p = [x + sgn * eps * y for x, y in zip(w, d)]
        assert all(dot(r, p) < b for r, b in zip(rows, rhs))
    # homogeneous rows: the right-hand side defaults to 0
    assert half_step([[1, 1]], vec([-2, 0]), [0, 1]) == 1
    assert half_step([[1, 0]], vec([-2, 0]), [0, 1]) == 1
