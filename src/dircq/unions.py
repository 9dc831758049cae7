"""Variational cone calculus on finite unions of convex polyhedra.

Tangent, regular, limiting and directional limiting normal cones of a
polyhedral union are computed exactly through the sign-vector arrangement of
all facet hyperplanes: on the relative interior of an arrangement cell the
active pattern of every piece is constant, so the regular normal cone is one
fixed polyhedral cone per cell, and limiting objects are finite unions of
cell duals.  The local graph of the limiting-normal-cone map is the union of
the products (cell closure) x (cell dual), and ``NormalGraphModel.section``
is the one rule that reads a section of it.

The cells come from one depth-first search over sign vectors,
``sign_cells``, which also drives the inclusion test ``subdivide_and_check``.
Each node carries a point w of its cell and decides its children from w with
at most one LP per child: the root takes the origin; a hyperplane in the
span of the node's equality rows vanishes on the cell, which is then its own
0-child; the child of sign(h.w) reuses w.  Without ambient inequalities a
cell is relatively open in the null space of its equality rows, so a
hyperplane that is not constant on it vanishes somewhere on it iff it takes
both signs there: one LP for the sign w lacks settles the other two children,
and when h.w = 0 both signed children are found by stepping off w, with no
LP at all.

Each cone has one builder, and all of them read one fact: the rows of a
piece tight at a point, with its equality rows (``tangent_rows``, a method of
``HPolyhedron`` and of ``PolyhedralCone`` alike).  Those rows are the H-form
of the piece's tangent cone there and generate its regular normal cone, so
``tangent_cone`` and ``regular_normal_cone`` take a ``PolyUnion`` or a
``ConeUnion``, and the regular normal cone of a cone union on a cell is
``polyhedra.intersect_generated`` of the tight rows at the cell's witness,
which realizes the cell's sign vector strictly.  Limiting and directional
limiting normal cones are ``limiting_normal_cone_of_union`` of the tangent
union, since for a polyhedral union N_D(y; v) = N_{T_D(y)}(v)
(Rockafellar-Wets, Variational Analysis, 6.41).

Each rule has one copy too.  A point lies in the closure of a cell iff
``Cell.closure``, the cell's sign rows with the strict ones closed, contains
it; the limiting normal cone and the graph sections read that cone.  A
cone union and the graph model keep only their maximal pieces, by one
pruning, ``_maximal``.

Empty queries (base point outside the set, direction not tangent) return the
distinguished empty union, which is different from the trivial cone {0}.

Everything here runs on the int rows of the cone layer: hyperplanes are
``coprime_ints(r, line=True)`` int tuples, and cell systems go to the LPs as
int rows.  The hyperplanes never reach a report; cell witnesses and cone
accessors do, and stay Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from dircq.linalg import (
    Vec,
    coprime_ints,
    dot,
    half_step,
    is_zero,
    null_direction,
    rref_extend,
    rref_reduce,
    rref_span,
    vec,
    zeros,
)
from dircq.polyhedra import (
    DimensionMismatch,
    HPolyhedron,
    IntMat,
    IntVec,
    PolyhedralCone,
    intersect_generated,
    nonzero_element,
)
from dircq.simplex import strict_feasible_point

# Entries kept by each cached cone query below.  A pass over ex58^2 in all
# eight directions holds at most 56 arrangements; generators(), which every
# cell dual shares, keeps a larger cache of its own.
CACHE_SIZE = 128


@dataclass(frozen=True)
class PolyUnion:
    """Finite union of convex polyhedra in a common ambient space."""

    pieces: tuple[HPolyhedron, ...]
    dim: int

    @staticmethod
    def make(pieces) -> "PolyUnion":
        pieces = tuple(pieces)
        if not pieces:
            raise ValueError("a polyhedral union needs at least one piece")
        dim = pieces[0].dim
        if any(p.dim != dim for p in pieces):
            raise DimensionMismatch("pieces live in different dimensions")
        return PolyUnion(tuple(sorted(pieces, key=HPolyhedron.sort_key)), dim)

    def contains(self, y: Vec) -> bool:
        return any(p.contains(y) for p in self.pieces)


def _maximal(items, le) -> list:
    """The items that no other item covers (``le(x, y)``: x is covered by y),
    in order of arrival: an item covered by a kept one is dropped, and an
    item that covers kept ones replaces them.  Of equal items the first stays."""
    kept: list = []
    for x in items:
        if any(le(x, k) for k in kept):
            continue
        kept = [k for k in kept if not le(k, x)]
        kept.append(x)
    return kept


@dataclass(frozen=True)
class ConeUnion:
    """Finite union of polyhedral cones; no pieces encodes the empty marker."""

    pieces: tuple[PolyhedralCone, ...]
    dim: int

    @staticmethod
    def make(pieces, dim: int) -> "ConeUnion":
        pieces = tuple(pieces)
        if any(c.dim != dim for c in pieces):
            raise DimensionMismatch("cone pieces live in different dimensions")
        kept = _maximal(pieces, PolyhedralCone.subset_of)
        return ConeUnion(tuple(sorted(kept, key=PolyhedralCone.sort_key)), dim)

    @staticmethod
    def empty(dim: int) -> "ConeUnion":
        return ConeUnion((), dim)

    @property
    def is_empty(self) -> bool:
        return not self.pieces

    def contains(self, y: Vec) -> bool:
        return any(p.contains(y) for p in self.pieces)

    def is_trivial(self) -> bool:
        """True iff the union equals {0} (as a set)."""
        return bool(self.pieces) and all(p.is_trivial() for p in self.pieces)


# ---------------------------------------------------------------------------
# tangent and regular normal cones


@lru_cache(maxsize=CACHE_SIZE)
def tangent_cone(d: PolyUnion | ConeUnion, y: Vec) -> ConeUnion:
    """Union over the pieces containing y of their tangent cones there."""
    cones = [PolyhedralCone.make(*p.tangent_rows(y), dim=d.dim) for p in d.pieces if p.contains(y)]
    return ConeUnion.make(cones, d.dim) if cones else ConeUnion.empty(d.dim)


def regular_normal_cone(d: PolyUnion | ConeUnion, y: Vec) -> PolyhedralCone | None:
    """Polar of the tangent union; None is the empty marker (y not in d)."""
    parts = [p.tangent_rows(y) for p in d.pieces if p.contains(y)]
    return intersect_generated(parts, d.dim) if parts else None


# ---------------------------------------------------------------------------
# sign-vector arrangements of cone unions


@dataclass(frozen=True)
class Cell:
    signs: tuple[int, ...]
    witness: Vec
    closure: PolyhedralCone
    piece_idx: tuple[int, ...]
    dual: PolyhedralCone


@dataclass(frozen=True)
class Arrangement:
    hyperplanes: tuple[IntVec, ...]  # coprime_ints(r, line=True)
    cells: tuple[Cell, ...]  # only cells inside the union
    union: ConeUnion


def _piece_sign_requirements(
    c: PolyhedralCone, hyperplanes: tuple[IntVec, ...]
) -> list[tuple[int, int, bool]]:
    """Per row of c: (hyperplane index, orientation, is equality), where
    a.y <= 0 iff orientation * sign <= 0."""
    index = {h: i for i, h in enumerate(hyperplanes)}
    reqs: list[tuple[int, int, bool]] = []
    for row in c.ia:
        cl = coprime_ints(row, line=True)
        reqs.append((index[cl], 1 if cl == row else -1, False))
    for row in c.ie:
        reqs.append((index[row], 1, True))
    return reqs


def hyperplanes_of(u: ConeUnion) -> tuple[IntVec, ...]:
    """Distinct facet hyperplanes (line-canonical ``coprime_ints``) of the union's pieces."""
    return tuple(
        dict.fromkeys(coprime_ints(row, line=True) for p in u.pieces for row in p.ia + p.ie)
    )


def sign_cells(hyper: tuple[IntVec, ...], n: int, alive=None, a: IntMat = (), e: IntMat = ()):
    """Yield (signs, witness) for each cell of the hyperplanes inside {a x <= 0, e x = 0}.

    A depth-first search over the signs (0, 1, -1) of each hyperplane in
    turn.  ``alive(signs)``, when given, prunes every node (leaves included)
    whose partial sign vector it rejects, before any LP is spent on it.

    Each node carries a point w of its cell C and the int reduced row echelon
    form of its equality rows (its zero-sign hyperplanes and ``e``).  The
    children of C under the next hyperplane h take their witnesses from w,
    and at most one LP (``strict_feasible_point``) per child decides whether
    it exists:

    * root: the origin lies in {a x <= 0, e x = 0}, so the root needs no LP;
    * rank test: if h lies in the span of the equality rows, h vanishes on C,
      and the 0-child alone exists, with w;
    * reuse: the child whose sign is sign(h.w) contains w;
    * paired children, only when ``a`` is empty: C is then relatively open in
      the null space L of its equality rows, and h is not constant on C, so
      h.C is an open interval and contains 0 iff it holds both signs.  If
      h.w != 0, one LP for the opposite sign decides both other children,
      and the 0-child takes the point of the segment from w to that LP's
      point where h vanishes.  If h.w = 0, both signed children exist, with
      witnesses w + eps d and w - eps d, where d in L has h.d > 0 and eps is
      half the largest step that keeps every strict row of C strict; no LP.

    Under ``a`` a cell need not be relatively open in L, so each child the
    rules leave open solves its own LP, only when the search reaches it: a
    consumer that stops early (``subdivide_and_check``) pays for no more.
    """
    open_cells = not a

    def feasible(signs: list[int]) -> Vec | None:
        strict_rows, eq_rows = sign_rows(hyper, signs)
        return strict_feasible_point(
            tuple(strict_rows),
            (0,) * len(strict_rows),
            a=a,
            b=(0,) * len(a),
            e=tuple(eq_rows) + e,
            d=(0,) * (len(eq_rows) + len(e)),
            n=n,
        )

    def dfs(signs: list[int], w: Vec, eqs: list[tuple[list[int], int]]):
        """Extend signs, whose cell holds w and has equality rows eqs (in RREF)."""
        if len(signs) == len(hyper):
            yield tuple(signs), w
            return
        h = hyper[len(signs)]
        hr = rref_reduce(eqs, h)
        if hr is None:
            known = {0: w, 1: None, -1: None}
        else:
            hw = dot(h, w)
            s = (hw > 0) - (hw < 0)
            known = {s: w}
            if open_cells and s == 0:
                d = null_direction(eqs, hr)
                eps = half_step(sign_rows(hyper, signs)[0], w, d)
                known[1] = tuple(x + eps * y for x, y in zip(w, d))
                known[-1] = tuple(x - eps * y for x, y in zip(w, d))
        for c in (0, 1, -1):
            signs.append(c)
            if alive is None or alive(signs):
                if c not in known:
                    if open_cells:
                        # one LP for the opposite sign decides the 0-child too
                        signs[-1] = -s
                        other = feasible(signs)
                        signs[-1] = c
                        known[-s] = other
                        known[0] = None if other is None else _segment_zero(h, hw, w, other)
                    else:
                        known[c] = feasible(signs)
                child = known[c]
                if child is not None:
                    yield from dfs(signs, child, rref_extend(eqs, hr) if c == 0 and hr is not None else eqs)
            signs.pop()

    if alive is not None and not alive([]):
        return iter(())
    return dfs([], zeros(n), rref_span(e))


def _segment_zero(h: IntVec, hw: Fraction, w: Vec, other: Vec) -> Vec:
    """The point of the segment [w, other] where h vanishes (h.w, h.other of opposite signs)."""
    ho = dot(h, other)
    den = hw - ho
    return tuple((hw * y - ho * x) / den for x, y in zip(w, other))


@lru_cache(maxsize=CACHE_SIZE)
def arrangement(k: ConeUnion, extra: tuple[Vec, ...] = ()) -> Arrangement:
    """Sign-vector cells of the union's facet hyperplanes, inside the union.

    ``extra`` refines the subdivision by additional hyperplanes (used when a
    consumer needs membership in other cone families constant per cell).
    """
    if k.is_empty:
        return Arrangement((), (), k)
    hyper = tuple(
        dict.fromkeys(
            hyperplanes_of(k) + tuple(coprime_ints(r, line=True) for r in extra if not is_zero(r))
        )
    )
    reqs = [_piece_sign_requirements(c, hyper) for c in k.pieces]
    n = k.dim

    def piece_alive(req, signs: list[int]) -> bool:
        for i, orient, is_eq in req:
            if i >= len(signs):
                continue
            s = signs[i] * orient
            if is_eq and signs[i] != 0:
                return False
            if not is_eq and s > 0:
                return False
        return True

    cells: list[Cell] = []
    for signs, w in sign_cells(hyper, n, alive=lambda signs: any(piece_alive(r, signs) for r in reqs)):
        pidx = tuple(i for i, c in enumerate(k.pieces) if c.contains(w))
        if pidx:
            dual = intersect_generated([k.pieces[i].tangent_rows(w) for i in pidx], n)
            cells.append(Cell(signs, w, _closure_cone(hyper, signs, n), pidx, dual))
    return Arrangement(hyper, tuple(cells), k)


def sign_rows(hyper: tuple[IntVec, ...], signs) -> tuple[list[IntVec], list[IntVec]]:
    """(rows r with r.x < 0 on the cell's relative interior, rows with r.x = 0)."""
    ineq, eq = [], []
    for h, s in zip(hyper, signs):
        if s == 0:
            eq.append(h)
        else:
            ineq.append(tuple(-x for x in h) if s == 1 else h)
    return ineq, eq


def _closure_cone(hyper: tuple[IntVec, ...], signs, n: int) -> PolyhedralCone:
    a, e = sign_rows(hyper, signs)
    return PolyhedralCone.make(a=a, e=e, dim=n)


def cell_tangent_pieces(k: ConeUnion, cell: Cell) -> list[PolyhedralCone]:
    """Tangent cones of the union on the cell's relative interior, per piece."""
    return [tangent_of_cone_at(k.pieces[i], cell.witness) for i in cell.piece_idx]


# ---------------------------------------------------------------------------
# limiting and directional limiting normal cones


@lru_cache(maxsize=CACHE_SIZE)
def limiting_normal_cone(d: PolyUnion, y: Vec) -> ConeUnion:
    """Union of the regular normal cones realized arbitrarily close to y."""
    return limiting_normal_cone_of_union(tangent_cone(d, y), zeros(d.dim))


@lru_cache(maxsize=CACHE_SIZE)
def directional_limiting_normal_cone(d: PolyUnion, y: Vec, v: Vec) -> ConeUnion:
    """Limiting normals attainable from direction v; empty if v is not tangent."""
    return limiting_normal_cone_of_union(tangent_cone(d, y), v)


def limiting_normal_cone_of_union(k: ConeUnion, w: Vec) -> ConeUnion:
    """Limiting normal cone of a cone union at one of its points.

    The one builder of limiting normal cones: for a polyhedral union D,
    N_D(y; v) = N_{T_D(y)}(v), and v = 0 gives N_D(y).
    """
    if k.is_empty or not k.contains(w):
        return ConeUnion.empty(k.dim)
    duals = [c.dual for c in arrangement(k).cells if c.closure.contains(w)]
    return ConeUnion.make(duals, k.dim)


# ---------------------------------------------------------------------------
# the local model of the limiting-normal-cone graph


@dataclass(frozen=True)
class NormalGraphModel:
    """Local description of gph N_D near a base point y in D.

    Shifting y to the origin, the graph of the limiting-normal-cone map of
    the tangent union coincides with the union of the products
    closure(cell) x dual(cell) over the arrangement cells; near y this models
    gph N_D exactly by local polyhedrality.
    """

    base: Vec
    cells: tuple[tuple[PolyhedralCone, PolyhedralCone], ...]
    dim: int

    def contains(self, q: Vec, z: Vec) -> bool:
        return any(f.contains(q) and n.contains(z) for f, n in self.cells)

    def section(self, ystar: Vec, v: Vec | None = None) -> list[PolyhedralCone]:
        """Tangents at ystar of the dual sides N of the cells F x N with
        v in F and ystar in N; v = None keeps every F.

        On a product cell the tangent pairs at (0, ystar) are F x T_N(ystar),
        so the union of the pieces is {w : (v, w) tangent to the model at
        (0, ystar)}, the graphical derivative of the normal-cone map in
        direction v.
        """
        return [
            tangent_of_cone_at(n, ystar)
            for f, n in self.cells
            if (v is None or f.contains(v)) and n.contains(ystar)
        ]


@lru_cache(maxsize=CACHE_SIZE)
def normal_graph(d: PolyUnion, y: Vec) -> NormalGraphModel | None:
    t = tangent_cone(d, y)
    if t.is_empty:
        return None
    cells = _maximal(
        ((c.closure, c.dual) for c in arrangement(t).cells),
        lambda p, q: p[0].subset_of(q[0]) and p[1].subset_of(q[1]),
    )
    return NormalGraphModel(vec(y), tuple(cells), d.dim)


def tangent_of_cone_at(c: PolyhedralCone, y: Vec) -> PolyhedralCone:
    """Tangent cone of c at its point y: the rows tight at y."""
    return PolyhedralCone.make(*c.tangent_rows(y), dim=c.dim)


# ---------------------------------------------------------------------------
# inclusion and equality of cone unions


def subdivide_and_check(
    c: PolyhedralCone, target: ConeUnion
) -> Vec | None:
    """None if cone c is a subset of the union, else a witness point outside.

    The cone is subdivided by every facet hyperplane of the target so that
    membership is constant on each cell; each cell is then decided by its
    relative-interior witness.  Generator membership alone would only be a
    necessary test.
    """
    if target.is_empty:
        # a nonempty cone always contains 0, which the empty union lacks
        return zeros(c.dim)
    cells = sign_cells(hyperplanes_of(target), c.dim, a=c.ia, e=c.ie)
    return next((w for _, w in cells if not target.contains(w)), None)


@lru_cache(maxsize=CACHE_SIZE)
def cone_union_subset(a: ConeUnion, b: ConeUnion) -> tuple[bool, Vec | None]:
    """Exact inclusion test with a failure witness.

    Cached like ``arrangement``: the theorem checkers' representation
    hypothesis and the exact-bound test of the patch maps ask the same few
    inclusions on every call.
    """
    if a.is_empty:
        return True, None
    if b.is_empty:
        for piece in a.pieces:
            w = nonzero_element(piece)
            if w is not None:
                return False, w
        # a = {0}; 0 is not in the empty union
        return False, zeros(a.dim)
    for piece in a.pieces:
        w = subdivide_and_check(piece, b)
        if w is not None:
            return False, w
    return True, None


def cone_union_equal(a: ConeUnion, b: ConeUnion) -> bool:
    return cone_union_subset(a, b)[0] and cone_union_subset(b, a)[0]
