"""Exact multivariate polynomials over the rationals and polynomial maps.

Sparse monomial representation with canonical exponent ordering; evaluation
and differentiation are exact.  The literal syntax used by problem files and
tests is a sum of terms like ``3/2 x0^2 x1 - x2 + 1`` (an optional rational
coefficient followed by variable powers; ``*`` between factors is allowed).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from dircq.linalg import Mat, Vec, vec

_TOKEN = re.compile(r"\s*([+-]|[A-Za-z_][A-Za-z_0-9]*|\d+/\d+|\d+|\^|\*)")


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

    def eval(self, x: Sequence) -> Fraction:
        x = vec(x)
        if len(x) != self.nvars:
            raise ValueError("point has wrong dimension")
        total = Fraction(0)
        for exps, coeff in self.terms:
            v = coeff
            for xi, e in zip(x, exps):
                if e:
                    v *= xi**e
            total += v
        return total

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
        return tuple(self.diff(i).eval(x) for i in range(self.nvars))

    def hessian(self, x: Sequence) -> Mat:
        grads = [self.diff(i) for i in range(self.nvars)]
        return tuple(
            tuple(grads[i].diff(j).eval(x) for j in range(self.nvars))
            for i in range(self.nvars)
        )

    def is_zero(self) -> bool:
        return not self.terms

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

    def to_string(self, names: Sequence[str] | None = None) -> str:
        if not self.terms:
            return "0"
        if names is None:
            names = [f"x{i}" for i in range(self.nvars)]
        parts = []
        for exps, coeff in self.terms:
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                body = str(coeff)
            elif coeff == 1:
                body = " ".join(factors)
            elif coeff == -1:
                body = "-" + " ".join(factors)
            else:
                body = str(coeff) + " " + " ".join(factors)
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
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
        return tuple(p.eval(x) for p in self.components)

    def jacobian(self, x: Sequence) -> Mat:
        """m x n matrix of exact partial derivatives at x."""
        return tuple(p.gradient(x) for p in self.components)

    def hessian_scalarized(self, x: Sequence, ystar: Sequence) -> Mat:
        """Exact Hessian of the scalarization <ystar, g> at x (n x n)."""
        ystar = vec(ystar)
        if len(ystar) != self.m:
            raise ValueError("scalarization vector has wrong dimension")
        acc = [[Fraction(0)] * self.n for _ in range(self.n)]
        for yc, p in zip(ystar, self.components):
            if yc == 0:
                continue
            h = p.hessian(x)
            for i in range(self.n):
                for j in range(self.n):
                    acc[i][j] += yc * h[i][j]
        return tuple(tuple(row) for row in acc)

    def second_order_vector(self, x: Sequence, u: Sequence) -> Vec:
        """Component i equals <u, Hess(g_i)(x) u>."""
        u = vec(u)
        out = []
        for p in self.components:
            h = p.hessian(x)
            out.append(sum((u[i] * h[i][j] * u[j] for i in range(self.n) for j in range(self.n)), Fraction(0)))
        return tuple(out)

    def curvature_matrix(self, x: Sequence, u: Sequence) -> Mat:
        """n x m matrix B with B y* = Hess(<y*, g>)(x) u, linear in y*."""
        u = vec(u)
        cols = []
        for p in self.components:
            h = p.hessian(x)
            cols.append(tuple(sum((h[i][j] * u[j] for j in range(self.n)), Fraction(0)) for i in range(self.n)))
        # cols[k] is Hess(g_k) u; assemble columns into an n x m matrix
        return tuple(tuple(cols[k][i] for k in range(self.m)) for i in range(self.n))
