"""Seeded problem generation for the benchmark workloads.

Every problem is produced as the text of a version-1 problem file, which the
workloads hand to ``dircq.problemfile.parse_problem``.  Alongside the text
each generator keeps the plain data the output checks need (polynomials as
exponent dictionaries, the range transform, the closed-form set family), so
the checks never read ``dircq`` objects back.

Range transforms are integer shears U = I + s E_pq with s >= 5: the image of
the system g(x) in D is U g(x) in U D, and normal cones map by U^-T, so a
certificate y' of the image corresponds to y = U^T y' of the base problem.
Each s gives cone data that no other s shares, while the number of exact LPs
stays the same for every s >= 5 (measured for s = 5 to 300 on each base;
s = 3 and 4 differ), so the LP count does not depend on the seed.  Random
unimodular matrices do not have that property: under signed permutations
ex58^2 took from 1060 to 1279 LPs.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction

Q = Fraction

# A polynomial is a dict {exponent tuple: Fraction}.


def poly_var(i: int, n: int, c=1, power: int = 1) -> dict:
    e = [0] * n
    e[i] = power
    return {tuple(e): Q(c)}


def poly_mono(exps, c=1) -> dict:
    return {tuple(exps): Q(c)}


def poly_add(*ps: dict) -> dict:
    out: dict = {}
    for p in ps:
        for e, c in p.items():
            out[e] = out.get(e, Q(0)) + c
    return {e: c for e, c in out.items() if c != 0}


def poly_scale(c, p: dict) -> dict:
    return {e: Q(c) * v for e, v in p.items()} if c else {}


def poly_text(p: dict, names) -> str:
    """Problem-file literal of a polynomial, e.g. ``2*x0^2*x1 - 1/3*x1``."""
    if not p:
        return "0"
    parts = []
    for e in sorted(p, reverse=True):
        c = p[e]
        mono = "*".join(
            names[i] if k == 1 else f"{names[i]}^{k}" for i, k in enumerate(e) if k
        )
        mag = abs(c)
        body = mono if (mono and mag == 1) else (f"{mag}*{mono}" if mono else f"{mag}")
        parts.append(("-" if c < 0 else "+", body))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def xnames(n: int) -> list[str]:
    return [f"x{i}" for i in range(n)]


def shear(m: int, p: int, q: int, s: int) -> tuple[tuple[int, ...], ...]:
    """The unimodular matrix I + s E_pq."""
    return tuple(tuple(int(i == j) + (s if (i, j) == (p, q) else 0) for j in range(m)) for i in range(m))


def identity(m: int) -> tuple[tuple[int, ...], ...]:
    return shear(m, 0, 1, 0)


def shear_inverse(u) -> tuple[tuple[int, ...], ...]:
    """Inverse of I + s E_pq, which is I - s E_pq."""
    m = len(u)
    return tuple(
        tuple(int(i == j) - (u[i][j] if i != j else 0) for j in range(m)) for i in range(m)
    )


def _fr(x) -> str:
    return str(Q(x))


# ---------------------------------------------------------------------------
# constraint systems g(x) in D with D a finite union of polyhedra


@dataclass
class ConstraintCase:
    """One constraint problem: the file text plus the data the checks use.

    ``family`` names the closed-form set model of the base problem
    ("ex58" blocks or "comp" complementarity pairs) and ``blocks`` its number
    of two-dimensional blocks.
    """

    name: str
    base: str
    text: str
    n: int
    g: list
    u_mat: tuple
    family: str
    blocks: int
    directions: dict
    objective: dict | None = None


def _constraint_case(name, base, family, blocks, n, g_base, pieces, u_mat, directions, objective) -> ConstraintCase:
    """The image U g(x) in U D of a base system with g(0) = 0 in D."""
    m = len(g_base)
    v = shear_inverse(u_mat)
    g_img = [poly_add(*(poly_scale(u_mat[i][k], g_base[k]) for k in range(m))) for i in range(m)]

    def img_rows(rows):
        return [[_fr(sum(Q(r[k]) * v[k][j] for k in range(m))) for j in range(m)] for r in rows]

    data = {
        "version": 1,
        "name": name,
        "constraint": {
            "n": n,
            "g": [poly_text(p, xnames(n)) for p in g_img],
            "D": {
                "dim": m,
                "pieces": [
                    {"a": img_rows(a), "b": [_fr(x) for x in b], "e": img_rows(e), "d": [_fr(x) for x in d]}
                    for a, b, e, d in pieces
                ],
            },
        },
        "points": {"xbar": [0] * n},
        "directions": {k: [_fr(x) for x in vv] for k, vv in directions.items()},
    }
    if objective is not None:
        data["objective"] = poly_text(objective, xnames(n))
    text = json.dumps(data, sort_keys=True)
    dirs = {k: tuple(Q(x) for x in vv) for k, vv in directions.items()}
    return ConstraintCase(name, base, text, n, g_img, u_mat, family, blocks, dirs, objective)


def ex58_power(k: int):
    """Example 5.8 and its k-fold product: g = (x_i, -x_i^2), D = prod({y0 >= 0} u {y1 >= 0})."""
    n, m = k, 2 * k
    g = []
    for i in range(k):
        g.append(poly_var(i, n))
        g.append(poly_var(i, n, c=-1, power=2))
    pieces = []
    for choice in itertools.product((0, 1), repeat=k):
        a = []
        for i, c in enumerate(choice):
            row = [0] * m
            row[2 * i + c] = -1
            a.append(row)
        pieces.append((a, [0] * k, [], []))
    return n, g, pieces


def complementarity_pieces(pairs: int):
    """{(a_i, b_i) >= 0, a_i b_i = 0}: one piece per choice of the zero side."""
    m = 2 * pairs
    pieces = []
    for choice in itertools.product((0, 1), repeat=pairs):
        a, e = [], []
        for i, zero_side in enumerate(choice):
            row = [0] * m
            row[2 * i + 1 - zero_side] = -1
            a.append(row)
            row = [0] * m
            row[2 * i + zero_side] = 1
            e.append(row)
        pieces.append((a, [0] * len(a), e, [0] * len(e)))
    return pieces


def complementarity_g():
    """g: R^2 -> R^4 with the rank-one Jacobian rows (1,0), (0,0), (1,0), (0,0) at 0."""
    n = 2
    g = [
        poly_add(poly_var(0, n), poly_var(1, n, power=2)),
        poly_add(poly_var(1, n, power=2), poly_var(0, n, c=-1, power=2)),
        poly_add(poly_var(0, n), poly_mono((1, 1))),
        poly_add(poly_var(1, n, power=2), poly_mono((1, 1), c=-1)),
    ]
    return n, g


def ex58_case(k: int, u_mat, name: str, directions: dict, objective: dict | None) -> ConstraintCase:
    n, g, pieces = ex58_power(k)
    return _constraint_case(name, f"ex58^{k}", "ex58", k, n, g, pieces, u_mat, directions, objective)


def complementarity_case(u_mat, name: str, directions: dict, objective: dict | None) -> ConstraintCase:
    n, g = complementarity_g()
    return _constraint_case(name, "comp4", "comp", 2, n, g, complementarity_pieces(2), u_mat, directions, objective)


# (base name, builder, range dimension, shear position (p, q)) for the cold
# ladder; every pass shears each base with its own s.  The objectives make
# M-stationarity fail on ex58 (a Farkas chain) and hold on the other two.
LADDER_BASES = (
    ("ex58", lambda u, name: ex58_case(1, u, name, {"plus": [1], "minus": [-1]}, poly_var(0, 1, c=-1)), 2, (0, 1)),
    ("ex58^2", lambda u, name: ex58_case(
        2, u, name, {"pp": [1, 1], "m0": [-1, 0]}, poly_add(poly_var(0, 2), poly_var(1, 2))), 4, (0, 2)),
    ("comp4", lambda u, name: complementarity_case(
        u, name, {"e0": [1, 0], "e1m": [1, -1]}, poly_add(poly_var(0, 2), poly_var(1, 2, power=2))), 4, (1, 3)),
)


def ladder_cases(seed: int, passes: int) -> list[list[ConstraintCase]]:
    """One list of distinct sheared problems per pass; no two share an s."""
    rng = random.Random(f"ladder:{seed}")
    out = []
    pools = {name: rng.sample(range(5, 5 + 8 * passes), passes) for name, _, _, _ in LADDER_BASES}
    for i in range(passes):
        cases = []
        for name, build, m, (p, q) in LADDER_BASES:
            s = pools[name][i]
            cases.append(build(shear(m, p, q, s), f"{name}/s={s}"))
        out.append(cases)
    return out


def sweep_case() -> ConstraintCase:
    dirs = {
        f"u{a:+d}{b:+d}": [a, b]
        for a, b in itertools.product((-1, 0, 1), repeat=2)
        if (a, b) != (0, 0)
    }
    return ex58_case(2, identity(4), "ex58^2", dirs, None)


# ---------------------------------------------------------------------------
# problems of the sequence oracle: graphs, the equilibrium assembly, families


def ex58_sequence_cases() -> list[ConstraintCase]:
    one = ex58_case(1, identity(2), "ex58", {"plus": [1], "minus": [-1]}, None)
    two = ex58_case(2, identity(4), "ex58^2", {"mm": [-1, -1]}, None)
    return [one, two]


def _problem_text(data: dict) -> str:
    return json.dumps(data, sort_keys=True)


EX47_TEXT = _problem_text(
    {
        "version": 1,
        "name": "ex47",
        "mpec": {
            "omega": {"dim": 1, "pieces": [{"a": [[-1]], "b": [0]}]},
            "s": {
                "nx": 1,
                "ny": 1,
                "patches": [
                    {"eq": ["y0 + x0^2"], "ineq": ["x0"]},
                    {"eq": ["x0 - y0^2"], "ineq": ["-y0"]},
                ],
            },
        },
        "points": {"xbar": [0, 0]},
        "directions": {"n": [0, 1], "w": [-1, 0], "e": [1, 0], "s": [0, -1]},
    }
)

REGION_TEXT = _problem_text(
    {
        "version": 1,
        "name": "region",
        "patch": {"nx": 1, "ny": 1, "patches": [{"ineq": ["x0"]}, {"ineq": ["x0^2 - y0", "-x0"]}]},
        "points": {"xbar": [0], "ybar": [0]},
        "directions": {"plus": [1]},
    }
)

TWO_VALUED_TEXT = _problem_text(
    {
        "version": 1,
        "name": "two-valued",
        "patch": {"nx": 1, "ny": 1, "patches": [{"eq": ["y0"]}, {"eq": ["y0 - x0^2"]}]},
        "points": {"xbar": [0], "ybar": [0]},
        "directions": {"plus": [1]},
    }
)


def staircase_text(k: int) -> str:
    return _problem_text(
        {
            "version": 1,
            "name": f"staircase-K{k}",
            "graphset": {"nx": 1, "ny": 1, "family": {"kind": "staircase", "K": k}},
            "points": {"base": [0, 0]},
            "directions": {"diag": [1, 1]},
        }
    )


def comb_text(k: int, objective: str) -> str:
    return _problem_text(
        {
            "version": 1,
            "name": f"comb-K{k}",
            "patch": {"nx": 1, "ny": 1, "family": {"kind": "comb", "K": k}},
            "points": {"xbar": [0], "ybar": [0]},
            "objective": objective,
        }
    )


STAIRCASE_K = (5, 10, 20)
COMB_K = (5, 10, 20)
