"""Constraint maps and graph patches."""

from fractions import Fraction as Q

import pytest

from dircq.linalg import mat_t_vec, sub, vec
from dircq.oracle import _outside_image
from dircq.polyhedra import HPolyhedron, PolyhedralCone
from dircq.polymaps import PolyMap, parse_poly
from dircq.setmaps import (
    ConstraintSystem,
    GraphPatch,
    PatchMap,
    PatchRegularityError,
    constraint_graph_patches,
    patch_limiting_normals,
    patch_regular_normal_cone,
)
from dircq.unions import ConeUnion, PolyUnion, cone_union_equal


def ex58_system():
    g = PolyMap.parse(["x0", "-x0^2"], 1)
    d = PolyUnion.make(
        [
            HPolyhedron.make(a=[[-1, 0]], b=[0]),  # R+ x R
            HPolyhedron.make(a=[[0, -1]], b=[0]),  # R x R+
        ]
    )
    return ConstraintSystem(g, d, vec([0]))


def joint_poly(s, nx, ny):
    names = [f"x{i}" for i in range(nx)] + [f"y{i}" for i in range(ny)]
    return parse_poly(s, names)


def test_patch_regular_normal_parabola_point():
    # parabola patch y = x^2 at (1/3, 1/9): normal line spanned by (2/3, -1)
    patch = GraphPatch((joint_poly("y0 - x0^2", 1, 1),), (), 1, 1)
    m = PatchMap((patch,), 1, 1)
    w = vec([Q(1, 3), Q(1, 9)])
    n = patch_regular_normal_cone(m, w)
    assert n.contains(vec([Q(2, 3), -1])) and n.contains(vec([Q(-2, 3), 1]))
    assert n.contains(vec([1, Q(-3, 2)]))
    assert not n.contains(vec([1, 0]))


def test_patch_tangent_requires_regularity():
    # gradient of x^2 vanishes at the origin, so the linearized tangent cone
    # is not exact there: the gate rejects it, and with it the regular
    # normal cone, which is its polar
    patch = GraphPatch((joint_poly("x0^2", 1, 1),), (), 1, 1)
    m = PatchMap((patch,), 1, 1)
    with pytest.raises(PatchRegularityError):
        patch_regular_normal_cone(m, vec([0, 0]))


def test_patch_graph_of_constraint_system_matches():
    sys = ex58_system()
    m = constraint_graph_patches(sys)
    assert m.patches_at(vec([0, 0, 0])) == (0, 1)
    assert m.patches_at(vec([1, 1, -2])) == (0, 1)  # g(1)=(1,-1), g-y=(0,1) in both pieces
    assert m.patches_at(vec([1, 2, 0])) == ()  # g-y = (-1,-1) not in D
    # regular normal cones agree between both routes at a boundary graph point
    x = vec([Q(1, 2)])
    z = vec([-1, 0])  # g(x) - y, on the boundary of the second piece
    y = vec([Q(1, 2) - (-1), Q(-1, 4) - 0])
    assert sys.d.contains(sub(sys.g.eval(x), y))
    w = vec(tuple(x) + tuple(y))
    n_patch = patch_regular_normal_cone(m, w)
    # constraint route: ystar in regular normal of D at g(x)-y maps to
    # (grad g(x)^T ystar, -ystar) in the graph normal cone
    from dircq.unions import regular_normal_cone as rnc

    nd = rnc(sys.d, z)
    rays_checked = 0
    from dircq.polyhedra import generators

    rays, lin = generators(nd)
    for ystar in rays + lin:
        xs = mat_t_vec(sys.g.jacobian(x), ystar)
        assert n_patch.contains(vec(tuple(xs) + tuple(-c for c in ystar)))
        rays_checked += 1
    assert rays_checked > 0


def test_patch_limiting_normals_two_curves():
    # graph pieces y = 0 and y = x^2 meeting at the origin: limiting normal
    # cone at 0 is exactly the vertical line, certified at first order
    line = GraphPatch((joint_poly("y0", 1, 1),), (), 1, 1)
    parab = GraphPatch((joint_poly("y0 - x0^2", 1, 1),), (), 1, 1)
    m = PatchMap((line, parab), 1, 1)
    bounds = patch_limiting_normals(m, vec([0, 0]))
    assert bounds.exact
    expected = ConeUnion.make([PolyhedralCone.make(e=[[1, 0]], dim=2)], 2)
    assert cone_union_equal(bounds.upper, expected)
    # the coderivative image, the x-part of the normal cone, is {0}
    assert _outside_image(m, vec([0, 0]), vec([1])) is True
    assert _outside_image(m, vec([0, 0]), vec([0])) is False


def test_patch_directional_normals_region():
    # region {y >= x^2, x >= 0} from direction (1, 0): only the parabola arm
    # stays active, limit of its normals is the downward vertical ray
    region = GraphPatch(
        (),
        (joint_poly("x0^2 - y0", 1, 1), joint_poly("-x0", 1, 1)),
        1,
        1,
    )
    left = GraphPatch((), (joint_poly("x0", 1, 1),), 1, 1)
    m = PatchMap((region, left), 1, 1)
    bounds = patch_limiting_normals(m, vec([0, 0]), vec([1, 0]))
    assert bounds.exact
    expected = ConeUnion.make([PolyhedralCone.make(a=[[0, 1]], e=[[1, 0]], dim=2)], 2)
    assert cone_union_equal(bounds.upper, expected)
    assert _outside_image(m, vec([0, 0]), vec([1]), vec([1, 0])) is True
    assert _outside_image(m, vec([0, 0]), vec([0]), vec([1, 0])) is False
