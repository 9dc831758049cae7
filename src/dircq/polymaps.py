"""Exact multivariate polynomials over the rationals and polynomial maps.

Sparse monomial representation with canonical exponent ordering; evaluation
and differentiation are exact.  The literal syntax used by problem files and
tests is a sum of terms like ``3/2 x0^2 x1 - x2 + 1`` (an optional rational
coefficient followed by variable powers; ``*`` between factors is allowed).

Each polynomial is compiled once, on first use.  Its derivative table
``partials`` holds d/dx_i for every i, so a gradient is one evaluation per
partial and a Hessian reads ``partials[i].partials[j]``; nothing is
differentiated twice.  Its integer form holds the coefficients as ints over
their lcm L, with the total degree d.

Fractions in, Fractions out, ints inside: ``read_point`` scales a point to
ints xs over one denominator den (``linalg.int_row``; int, Fraction and
float entries), and ``int_value`` gives L den^d p(xs / den) as an int, whose
sign is the sign of p there.  ``eval``, ``gradient`` and ``hessian_ints``
build a Fraction only for each value they return, and ``PolyMap`` reads a
point once for all its components; ``y_coeffs`` builds none.  Every value
equals the one plain Fraction arithmetic gives, times L den^d for ``y_coeffs``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from dircq.linalg import Mat, Vec, dot, int_row, mat_vec, transpose, vec

_TOKEN = re.compile(r"\s*([+-]|[A-Za-z_][A-Za-z_0-9]*|\d+/\d+|\d+|\^|\*)")


def read_point(x: Sequence, nvars: int) -> tuple[list[int], int]:
    """(den * x as ints, den) for a point of R^nvars, den > 0."""
    if len(x) != nvars:
        raise ValueError("point has wrong dimension")
    return int_row(x)


@dataclass(frozen=True)
class Poly:
    """Polynomial in nvars variables: sum of coeff * prod x_i^e_i."""

    terms: tuple[tuple[tuple[int, ...], Fraction], ...]
    nvars: int

    @staticmethod
    def make(terms: Mapping[tuple[int, ...], Fraction] | Iterable, nvars: int) -> "Poly":
        acc: dict[tuple[int, ...], Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exps, coeff in items:
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars:
                raise ValueError("exponent tuple has wrong length")
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            acc[exps] = acc.get(exps, Fraction(0)) + coeff
        clean = tuple(sorted((e, c) for e, c in acc.items() if c != 0))
        return Poly(clean, nvars)

    @staticmethod
    def constant(c, nvars: int) -> "Poly":
        return Poly.make({(0,) * nvars: Fraction(c)}, nvars)

    @staticmethod
    def variable(i: int, nvars: int) -> "Poly":
        e = [0] * nvars
        e[i] = 1
        return Poly.make({tuple(e): Fraction(1)}, nvars)

    def __add__(self, other: "Poly") -> "Poly":
        return Poly.make(list(self.terms) + list(other.terms), self.nvars)

    def __neg__(self) -> "Poly":
        return Poly(tuple((e, -c) for e, c in self.terms), self.nvars)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        acc: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = acc.get(e, Fraction(0)) + c1 * c2
        return Poly.make(acc, self.nvars)

    def scale(self, t) -> "Poly":
        t = Fraction(t)
        return Poly.make({e: t * c for e, c in self.terms}, self.nvars)

    @cached_property
    def partials(self) -> tuple["Poly", ...]:
        """d/dx_i for i = 0 .. nvars - 1, built once per polynomial."""
        return tuple(self.diff(i) for i in range(self.nvars))

    @cached_property
    def _int_form(self) -> tuple[tuple, int, int]:
        """(terms, L, d): one (int coefficient c L, d - degree, ((i, e), ...))
        per term, the coefficients' lcm denominator L and the total degree d."""
        nums, lden = int_row([c for _, c in self.terms])
        degree = max((sum(exps) for exps, _ in self.terms), default=0)
        terms = tuple(
            (c, degree - sum(exps), tuple((i, e) for i, e in enumerate(exps) if e))
            for (exps, _), c in zip(self.terms, nums)
        )
        return terms, lden, degree

    def int_value(self, xs: Sequence[int], den: int) -> int:
        """L den^d p(xs / den) for the point xs / den of ``read_point``."""
        total = 0
        for c, missing, factors in self._int_form[0]:
            for i, e in factors:
                c *= xs[i] ** e
            if missing and den != 1:
                c *= den**missing
            total += c
        return total

    def eval_ints(self, xs: Sequence[int], den: int) -> Fraction:
        """p(xs / den), built as one Fraction."""
        _, lden, degree = self._int_form
        return Fraction(self.int_value(xs, den), lden * den**degree)

    def gradient_ints(self, xs: Sequence[int], den: int) -> Vec:
        return tuple(d.eval_ints(xs, den) for d in self.partials)

    def hessian_ints(self, xs: Sequence[int], den: int) -> Mat:
        return tuple(d.gradient_ints(xs, den) for d in self.partials)

    def eval(self, x: Sequence) -> Fraction:
        return self.eval_ints(*read_point(x, self.nvars))

    def y_coeffs(self, x: Sequence) -> dict[int, int]:
        """Nonzero coefficients of p(x, y) by power of y, the last variable, at
        the point x of the others: ints over one positive denominator L den^d,
        which is dropped, as the roots in y do not depend on it."""
        iy = self.nvars - 1
        xs, den = read_point(x, iy)
        terms = self._int_form[0]
        nums: dict[int, int] = {}
        for c, missing, factors in terms:
            ye = 0
            for i, e in factors:
                if i == iy:
                    ye = e
                else:
                    c *= xs[i] ** e
            if den != 1 and missing + ye:
                c *= den ** (missing + ye)
            nums[ye] = nums.get(ye, 0) + c
        return {e: v for e, v in nums.items() if v}

    def diff(self, i: int) -> "Poly":
        acc: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in self.terms:
            if exps[i] == 0:
                continue
            e = list(exps)
            e[i] -= 1
            acc[tuple(e)] = acc.get(tuple(e), Fraction(0)) + coeff * exps[i]
        return Poly.make(acc, self.nvars)

    def gradient(self, x: Sequence) -> Vec:
        return self.gradient_ints(*read_point(x, self.nvars))

    def substitute_linear(self, images: Sequence["Poly"]) -> "Poly":
        """Compose with x_i -> images[i]; images live in a common new space."""
        if len(images) != self.nvars:
            raise ValueError("need one image polynomial per variable")
        nv = images[0].nvars
        out = Poly.constant(0, nv)
        for exps, coeff in self.terms:
            term = Poly.constant(coeff, nv)
            for img, e in zip(images, exps):
                for _ in range(e):
                    term = term * img
            out = out + term
        return out


def parse_poly(text: str, names: Sequence[str]) -> Poly:
    """Parse a polynomial literal over the given variable names."""
    nvars = len(names)
    index = {n: i for i, n in enumerate(names)}
    pos = 0
    tokens: list[str] = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"bad polynomial syntax near {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()

    terms: list[tuple[tuple[int, ...], Fraction]] = []
    i = 0

    def is_factor(j: int) -> bool:
        return j < len(tokens) and tokens[j] not in ("+", "-", "*", "^")

    def parse_term(sign: Fraction, i: int) -> tuple[tuple[int, ...], Fraction, int]:
        coeff = sign
        exps = [0] * nvars
        saw_factor = False
        while i < len(tokens):
            t = tokens[i]
            if t in ("+", "-"):
                break
            if t == "*":
                # a product sign stands between two factors: not x0 ** 2, not * x0
                if not saw_factor or not is_factor(i + 1):
                    raise ValueError(f"'*' must stand between two factors in {text!r}")
                i += 1
                continue
            if re.fullmatch(r"\d+/\d+|\d+", t):
                coeff *= Fraction(t)
                i += 1
                saw_factor = True
                continue
            if t in index:
                var = index[t]
                e = 1
                if i + 1 < len(tokens) and tokens[i + 1] == "^":
                    if i + 2 >= len(tokens) or not tokens[i + 2].isdigit():
                        raise ValueError("exponent must be a nonnegative integer")
                    e = int(tokens[i + 2])
                    i += 3
                else:
                    i += 1
                exps[var] += e
                saw_factor = True
                continue
            raise ValueError(f"unknown symbol {t!r}")
        if not saw_factor:
            raise ValueError("empty term")
        return tuple(exps), coeff, i

    sign = Fraction(1)
    dangling = False  # a sign waits for its term
    while i < len(tokens):
        t = tokens[i]
        if t in ("+", "-"):
            if t == "-":
                sign = -sign
            dangling = True
            i += 1
            continue
        exps, coeff, i = parse_term(sign, i)
        terms.append((exps, coeff))
        sign = Fraction(1)
        dangling = False
    if dangling:
        raise ValueError(f"sign without a term at the end of {text!r}")
    return Poly.make(terms, nvars)


@dataclass(frozen=True)
class PolyMap:
    """Polynomial map R^n -> R^m with exact coefficients."""

    components: tuple[Poly, ...]
    n: int
    m: int

    @staticmethod
    def make(components: Sequence[Poly]) -> "PolyMap":
        components = tuple(components)
        if not components:
            raise ValueError("a polynomial map needs at least one component")
        n = components[0].nvars
        if any(p.nvars != n for p in components):
            raise ValueError("components have inconsistent variable counts")
        return PolyMap(components, n, len(components))

    @staticmethod
    def parse(literals: Sequence[str], n: int) -> "PolyMap":
        names = [f"x{i}" for i in range(n)]
        return PolyMap.make([parse_poly(s, names) for s in literals])

    def eval(self, x: Sequence) -> Vec:
        xs, den = read_point(x, self.n)
        return tuple(p.eval_ints(xs, den) for p in self.components)

    def jacobian(self, x: Sequence) -> Mat:
        """m x n matrix of exact partial derivatives at x."""
        xs, den = read_point(x, self.n)
        return tuple(p.gradient_ints(xs, den) for p in self.components)

    def hessian_scalarized(self, x: Sequence, ystar: Sequence) -> Mat:
        """Exact Hessian of the scalarization <ystar, g> at x (n x n)."""
        ystar = vec(ystar)
        if len(ystar) != self.m:
            raise ValueError("scalarization vector has wrong dimension")
        xs, den = read_point(x, self.n)
        acc = [[Fraction(0)] * self.n for _ in range(self.n)]
        for yc, p in zip(ystar, self.components):
            if yc == 0:
                continue
            h = p.hessian_ints(xs, den)
            for i in range(self.n):
                for j in range(self.n):
                    acc[i][j] += yc * h[i][j]
        return tuple(tuple(row) for row in acc)

    def second_order(self, x: Sequence, u: Sequence) -> tuple[Mat, Vec]:
        """(B, h) at x in direction u, from one Hessian evaluation per
        component: the n x m curvature matrix B with B y* = Hess(<y*, g>)(x) u,
        linear in y*, and the second-order vector h_i = <u, Hess(g_i)(x) u>."""
        u = vec(u)
        xs, den = read_point(x, self.n)
        # cols[k] is Hess(g_k) u
        cols = tuple(mat_vec(p.hessian_ints(xs, den), u) for p in self.components)
        return transpose(cols), tuple(dot(u, c) for c in cols)
