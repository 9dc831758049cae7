"""Versioned problem files: ingestion and validation.

A problem file is JSON with exact rational literals ("p/q" strings or
integers).  It carries exactly one of four model blocks:

  constraint  g polynomials plus D as a union of H-systems,
  patch       graph patches (polynomial equalities/inequalities in x, y),
  graphset    the graph itself as a union of H-systems in (x, y) space,
  mpec        an equilibrium assembly (Omega pieces plus solution-map patches),

together with analysis points, named directions, an optional objective and
basis.  Families ("staircase", "comb") expand to K-indexed piece lists, K
set by the family block (default 50).  Every cone is computed from these
data, and the oracle's schedules are not part of a problem: a
``declared_cones`` key in a graph block and a ``schedule`` block are
rejected rather than ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from dircq.linalg import Vec, is_orthogonal_basis
from dircq.polyhedra import DimensionMismatch, HPolyhedron
from dircq.polymaps import Poly, PolyMap, parse_poly
from dircq.setmaps import ConstraintSystem, GraphPatch, PatchMap
from dircq.unions import PolyUnion

SCHEMA_VERSION = 1


class ProblemFormatError(ValueError):
    pass


def _frac(x) -> Fraction:
    if isinstance(x, bool):
        raise ProblemFormatError(f"not a rational literal: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ProblemFormatError(f"bad rational literal {x!r}") from exc
    raise ProblemFormatError(f"not a rational literal: {x!r}")


def _object(blk, where: str) -> dict:
    """blk, or ProblemFormatError naming the block unless it is an object."""
    if not isinstance(blk, dict):
        raise ProblemFormatError(f"{where}: expected an object, got {type(blk).__name__}")
    return blk


def _field(blk, key: str, where: str):
    """blk[key], or ProblemFormatError naming the block and the field."""
    if key not in _object(blk, where):
        raise ProblemFormatError(f"{where}: missing field {key!r}")
    return blk[key]


def _int_field(blk, key: str, where: str, least: int = 1) -> int:
    """blk[key], a JSON integer (not a boolean) of at least ``least``."""
    val = _field(blk, key, where)
    if type(val) is not int:
        raise ProblemFormatError(f"{where}.{key}: not an integer: {val!r}")
    if val < least:
        raise ProblemFormatError(f"{where}.{key}: must be at least {least}, got {val}")
    return val


def _list_field(blk, key: str, where: str, optional: bool = False) -> list:
    """blk[key] as a list; an optional field that is absent reads as []."""
    if optional and isinstance(blk, dict) and key not in blk:
        return []
    val = _field(blk, key, where)
    if not isinstance(val, list):
        raise ProblemFormatError(f"{where}.{key}: expected a list, got {type(val).__name__}")
    return val


def _vec(xs, where: str) -> Vec:
    """A JSON list of rational literals, or ProblemFormatError naming the field."""
    if not isinstance(xs, list):
        raise ProblemFormatError(f"{where}: expected a list of rational literals, got {type(xs).__name__}")
    return tuple(_frac(x) for x in xs)


def _mat(rows, where: str):
    """A JSON list of rows, each a list of rational literals."""
    if not isinstance(rows, list):
        raise ProblemFormatError(f"{where}: expected a list of rows, got {type(rows).__name__}")
    return tuple(_vec(r, where) for r in rows)


def _poly(text, names: list[str], where: str) -> Poly:
    """A polynomial literal over names, or ProblemFormatError naming the
    field unless it is a string."""
    if not isinstance(text, str):
        raise ProblemFormatError(f"{where}: expected a polynomial string, got {type(text).__name__}")
    try:
        return parse_poly(text, names)
    except (ValueError, ZeroDivisionError) as exc:
        raise ProblemFormatError(f"{where}: bad polynomial {text!r}: {exc}") from exc


def _named_vectors(data: dict, key: str) -> dict:
    """The optional object ``key`` of the problem: names mapped to vectors."""
    return {k: _vec(v, f"{key}.{k}") for k, v in _object(data.get(key, {}), key).items()}


def _lengths(points: dict, directions: dict, sizes: dict, dir_size: tuple[int, str] | None) -> None:
    """ProblemFormatError naming the first point that ``sizes`` maps to
    (size, source), or direction when dir_size is given, of another length."""
    named = [("points", k, points[k], *sizes[k]) for k in sizes if k in points]
    if dir_size is not None:
        named += [("directions", k, u, *dir_size) for k, u in directions.items()]
    for key, k, v, size, source in named:
        if len(v) != size:
            raise ProblemFormatError(f"{key}.{k}: expected {size} entries ({source}), got {len(v)}")


def _polyhedron(obj, dim: int, where: str) -> HPolyhedron:
    obj = _object(obj, where)
    try:
        return HPolyhedron.make(
            a=_mat(obj.get("a", []), f"{where}.a"),
            b=_vec(obj.get("b", []), f"{where}.b"),
            e=_mat(obj.get("e", []), f"{where}.e"),
            d=_vec(obj.get("d", []), f"{where}.d"),
            dim=dim,
        )
    except DimensionMismatch as exc:
        raise ProblemFormatError(f"{where}: {exc}") from exc


def _polyunion(obj, where: str) -> PolyUnion:
    dim = _int_field(obj, "dim", where)
    return _union([_polyhedron(p, dim, f"{where}.pieces") for p in _list_field(obj, "pieces", where)], where)


def _union(pieces: list[HPolyhedron], where: str) -> PolyUnion:
    if not pieces:
        raise ProblemFormatError(f"{where}.pieces: expected at least one piece")
    return PolyUnion.make(pieces)


def _family(fam, where: str) -> tuple[str, int]:
    """(kind, K) of a family block; K defaults to 50."""
    kind = _field(fam, "kind", where)
    return kind, _int_field(fam, "K", where, least=0) if "K" in fam else 50


def _staircase_pieces(k_max: int) -> list[HPolyhedron]:
    """Graph of the piecewise-linear step map: one wedge plus K slabs."""
    pieces = [HPolyhedron.make(a=[[1, 0], [1, -1]], b=[0, 0], dim=2)]
    for k in range(1, k_max + 1):
        pieces.append(
            HPolyhedron.make(
                a=[[-1, 0], [1, 0], [Fraction(-1, k), -1]],
                b=[
                    Fraction(-1, k + 1),
                    Fraction(1, k),
                    -Fraction(1, k) - Fraction(1, k * k),
                ],
                dim=2,
            )
        )
    return pieces


def _comb_patches(k_max: int) -> list[GraphPatch]:
    """Halfplane piece plus K vertical rays at 1/k starting at 1/k^2."""
    names = ["x0", "y0"]
    patches = [GraphPatch((), (parse_poly("x0", names),), 1, 1)]
    for k in range(1, k_max + 1):
        patches.append(
            GraphPatch(
                (parse_poly(f"x0 - 1/{k}", names),),
                (parse_poly(f"1/{k * k} - y0", names),),
                1,
                1,
            )
        )
    return patches


@dataclass(frozen=True)
class Problem:
    name: str
    kind: str  # "constraint" | "patch" | "graphset" | "mpec"
    points: dict
    directions: dict
    objective: Poly | None = None
    system: ConstraintSystem | None = None
    patch_map: PatchMap | None = None
    graph_set: PolyUnion | None = None
    graph_nx: int = 0
    graph_ny: int = 0
    mpec_omega: PolyUnion | None = None
    mpec_s: PatchMap | None = None
    basis: tuple[Vec, ...] | None = None

    def point(self, name: str) -> Vec:
        if name not in self.points:
            raise ProblemFormatError(f"unknown point {name!r}")
        return self.points[name]

    def direction(self, name: str) -> Vec:
        if name not in self.directions:
            raise ProblemFormatError(f"unknown direction {name!r}")
        return self.directions[name]


def _parse_patches(blk, nx: int, ny: int, where: str) -> list[GraphPatch]:
    names = [f"x{i}" for i in range(nx)] + [f"y{i}" for i in range(ny)]
    out = []
    for p in _list_field(blk, "patches", where, optional=True):
        p = _object(p, f"{where}.patches")
        eqs, ineqs = (
            tuple(_poly(s, names, f"{where}.patches.{key}") for s in _list_field(p, key, f"{where}.patches", optional=True))
            for key in ("eq", "ineq")
        )
        out.append(GraphPatch(eqs, ineqs, nx, ny))
    return out


def _graph_block(blk, where: str) -> tuple[int, int]:
    """(nx, ny) of a patch, graphset or mpec.s block, which declares no cones."""
    if "declared_cones" in _object(blk, where):
        raise ProblemFormatError(f"{where}.declared_cones: cones are computed from the problem data, not declared")
    return _int_field(blk, "nx", where), _int_field(blk, "ny", where)


def load_problem(path: str) -> Problem:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    return parse_problem(data)


def parse_problem(data: dict) -> Problem:
    if _object(data, "problem").get("version") != SCHEMA_VERSION:
        raise ProblemFormatError(
            f"unsupported problem version {data.get('version')!r}; expected {SCHEMA_VERSION}"
        )
    if "schedule" in data:
        raise ProblemFormatError("schedule: problem files take no schedule block")
    blocks = [k for k in ("constraint", "patch", "graphset", "mpec") if k in data]
    if len(blocks) != 1:
        raise ProblemFormatError(
            f"exactly one model block required, found {blocks or 'none'}"
        )
    kind = blocks[0]
    name = data.get("name", "problem")
    points, directions = _named_vectors(data, "points"), _named_vectors(data, "directions")

    kwargs: dict = {}
    blk = data[kind]
    if kind == "constraint":
        n = _int_field(blk, "n", kind)
        names = [f"x{i}" for i in range(n)]
        g = [_poly(s, names, "constraint.g") for s in _list_field(blk, "g", kind)]
        d = _polyunion(_field(blk, "D", kind), "constraint.D")
        if len(g) != d.dim:
            raise ProblemFormatError(f"constraint.g: {len(g)} polynomials for D in R^{d.dim} (constraint.D.dim)")
        xbar = points.get("xbar")
        if xbar is None:
            raise ProblemFormatError("constraint problems need points.xbar")
        _lengths(points, directions, {"xbar": (n, "constraint.n")}, (n, "constraint.n"))
        kwargs["system"] = ConstraintSystem(PolyMap.make(g), d, xbar)
        nobj = n
    elif kind == "patch":
        nx, ny = _graph_block(blk, kind)
        patches = _parse_patches(blk, nx, ny, kind)
        fam = blk.get("family")
        if fam:
            fam_kind, truncation = _family(fam, f"{kind}.family")
            if fam_kind == "comb":
                patches.extend(_comb_patches(truncation))
            else:
                raise ProblemFormatError(f"unknown patch family {fam_kind!r}")
        _lengths(points, directions, {"xbar": (nx, "patch.nx"), "ybar": (ny, "patch.ny")}, None)
        kwargs["patch_map"] = PatchMap(tuple(patches), nx, ny)
        nobj = nx
    elif kind == "graphset":
        nx, ny = _graph_block(blk, kind)
        pieces = [_polyhedron(p, nx + ny, f"{kind}.pieces") for p in _list_field(blk, "pieces", kind, optional=True)]
        fam = blk.get("family")
        if fam:
            fam_kind, truncation = _family(fam, f"{kind}.family")
            if fam_kind == "staircase":
                pieces.extend(_staircase_pieces(truncation))
            else:
                raise ProblemFormatError(f"unknown graphset family {fam_kind!r}")
        size = (nx + ny, "graphset.nx + graphset.ny")
        _lengths(points, directions, {"base": size}, size)
        kwargs["graph_set"] = _union(pieces, kind)
        kwargs["graph_nx"] = nx
        kwargs["graph_ny"] = ny
        nobj = nx
    else:
        omega = _polyunion(_field(blk, "omega", kind), "mpec.omega")
        sp = _field(blk, "s", kind)
        nx, ny = _graph_block(sp, "mpec.s")
        patches = _parse_patches(sp, nx, ny, "mpec.s")
        size = (omega.dim + ny, "mpec.omega.dim + mpec.s.ny")
        _lengths(points, directions, {"xbar": size}, size)
        kwargs["mpec_omega"] = omega
        kwargs["mpec_s"] = PatchMap(tuple(patches), nx, ny)
        nobj = omega.dim + ny
    objective = None
    if "objective" in data:
        objective = _poly(data["objective"], [f"x{i}" for i in range(nobj)], "objective")

    basis = None
    if "basis" in data:
        # quasi-normality takes its signs in the image space of g, resp. in Omega's space
        dim = None
        if kind == "constraint":
            dim = kwargs["system"].m
        elif kind == "mpec":
            dim = kwargs["mpec_omega"].dim
        basis = _basis(data["basis"], dim)
    return Problem(
        name=name,
        kind=kind,
        points=points,
        directions=directions,
        objective=objective,
        basis=basis,
        **kwargs,
    )


def _basis(blk, dim: int | None) -> tuple[Vec, ...]:
    """The pairwise orthogonal nonzero vectors of a basis block, dim of them
    (their count, when dim is None), each of length dim."""
    vectors = _list_field(blk, "vectors", "basis")
    if not all(isinstance(v, list) for v in vectors):
        raise ProblemFormatError("basis.vectors: expected a list of vectors")
    basis = tuple(_vec(v, "basis.vectors") for v in vectors)
    if dim is None:
        dim = len(basis)
    if any(len(v) != dim for v in basis) or not is_orthogonal_basis(basis, dim):
        raise ProblemFormatError(f"basis.vectors: expected {dim} pairwise orthogonal nonzero vectors of length {dim}")
    return basis
