"""Output checks in plain rational arithmetic.

Nothing here calls ``dircq``: the checks read the serialized report rows
(rationals as "p/q" strings) and compare them with closed forms of the
generated sets.  Each check returns None when the output is right and a
one-line reason otherwise.

Closed forms used (base coordinates, base point 0):

* ex58 block, D = {y0 >= 0} u {y1 >= 0}.  The directional limiting normal
  cone in direction v in D is {0}, plus {(a, 0): a <= 0} when v0 = 0 >= v1,
  plus {(0, b): b <= 0} when v1 = 0 >= v0; v = 0 gives the limiting cone.
* complementarity pair, C = {a, b >= 0, ab = 0}.  In direction (va > 0, 0)
  the cone is {0} x R, in direction (0, vb > 0) it is R x {0}, and at v = 0
  it is R_-^2 u ({0} x R) u (R x {0}).
* Products of blocks take products of these cones, and a range shear U maps
  a certificate y' of the image to y = U^T y' of the base problem.
"""

from __future__ import annotations

from fractions import Fraction

Q = Fraction


# ---------------------------------------------------------------------------
# polynomials as {exponent tuple: Fraction}


def poly_eval(p: dict, x) -> Fraction:
    total = Q(0)
    for e, c in p.items():
        term = c
        for xi, k in zip(x, e):
            if k:
                term *= xi**k
        total += term
    return total


def poly_diff(p: dict, i: int) -> dict:
    out = {}
    for e, c in p.items():
        if e[i]:
            e2 = list(e)
            e2[i] -= 1
            out[tuple(e2)] = out.get(tuple(e2), Q(0)) + c * e[i]
    return {e: c for e, c in out.items() if c != 0}


def jacobian(g: list, x) -> list[list[Fraction]]:
    n = len(x)
    return [[poly_eval(poly_diff(p, j), x) for j in range(n)] for p in g]


def hessian(p: dict, x) -> list[list[Fraction]]:
    n = len(x)
    return [[poly_eval(poly_diff(poly_diff(p, i), j), x) for j in range(n)] for i in range(n)]


def second_order(g: list, x, u) -> list[Fraction]:
    """Component i is <u, Hess g_i(x) u>."""
    out = []
    for p in g:
        h = hessian(p, x)
        out.append(sum((u[i] * h[i][j] * u[j] for i in range(len(u)) for j in range(len(u))), Q(0)))
    return out


def jt_vec(jac, y) -> list[Fraction]:
    return [sum((jac[i][j] * y[i] for i in range(len(jac))), Q(0)) for j in range(len(jac[0]))]


def dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Q(0))


def decode(xs) -> tuple:
    return tuple(Q(x) for x in xs)


# ---------------------------------------------------------------------------
# closed-form cones of the generated sets


def _ex58_block(y, v) -> bool:
    """y in the directional limiting normal cone of the ex58 block at 0 in direction v."""
    if y[0] == 0 and y[1] == 0:
        return True
    if y[1] == 0 and y[0] <= 0 and v[0] == 0 and v[1] <= 0:
        return True
    if y[0] == 0 and y[1] <= 0 and v[1] == 0 and v[0] <= 0:
        return True
    return False


def _ex58_tangent(v) -> bool:
    return v[0] >= 0 or v[1] >= 0


def _comp_block(y, v) -> bool:
    if v[0] > 0 and v[1] == 0:
        return y[0] == 0
    if v[1] > 0 and v[0] == 0:
        return y[1] == 0
    if v[0] == 0 and v[1] == 0:
        return (y[0] <= 0 and y[1] <= 0) or y[0] == 0 or y[1] == 0
    return False


def _comp_tangent(v) -> bool:
    return v[0] >= 0 and v[1] >= 0 and v[0] * v[1] == 0


_BLOCKS = {"ex58": (_ex58_block, _ex58_tangent), "comp": (_comp_block, _comp_tangent)}


def in_directional_cone(family: str, y, v) -> bool:
    """y in the base directional limiting normal cone at 0 (v = 0: limiting)."""
    member, tangent = _BLOCKS[family]
    for i in range(0, len(y), 2):
        vb = v[i : i + 2]
        if not tangent(vb) or not member(y[i : i + 2], vb):
            return False
    return True


def ex58_regular_normal(z, y) -> bool:
    """y in the regular normal cone of prod({y0 >= 0} u {y1 >= 0}) at z."""
    for i in range(0, len(z), 2):
        z0, z1 = z[i], z[i + 1]
        y0, y1 = y[i], y[i + 1]
        if z0 == 0 and z1 < 0:
            ok = y1 == 0 and y0 <= 0
        elif z1 == 0 and z0 < 0:
            ok = y0 == 0 and y1 <= 0
        else:
            ok = y0 == 0 and y1 == 0
        if not ok:
            return False
    return True


def ex58_contains(z) -> bool:
    return all(z[i] >= 0 or z[i + 1] >= 0 for i in range(0, len(z), 2))


def u_transpose(u_mat, y) -> tuple:
    m = len(u_mat)
    return tuple(sum((Q(u_mat[i][j]) * y[i] for i in range(m)), Q(0)) for j in range(m))


def u_inverse_apply(u_mat, w) -> tuple:
    """U^-1 w for a shear U = I + s E_pq."""
    m = len(u_mat)
    out = list(w)
    for i in range(m):
        for j in range(m):
            if i != j and u_mat[i][j]:
                out[i] -= u_mat[i][j] * w[j]
    return tuple(out)


def base_direction(case, u) -> tuple:
    """J_base u = U^-1 J' u, the range direction of u in base coordinates."""
    jac = jacobian(case.g, (Q(0),) * case.n)
    ju = tuple(dot(row, u) for row in jac)
    return u_inverse_apply(case.u_mat, ju)


# ---------------------------------------------------------------------------
# certificate checks for constraint problems


def kernel_witness(case, check: str, u, cert) -> str | None:
    if cert.get("kind") != "kernel_witness":
        return f"{check} FAILS with certificate kind {cert.get('kind')!r}"
    y = decode(cert["ystar"])
    if all(c == 0 for c in y):
        return "kernel witness is zero"
    x0 = (Q(0),) * case.n
    if any(jt_vec(jacobian(case.g, x0), y)):
        return "kernel witness is not in ker J^T"
    v = (Q(0),) * len(y) if u is None else base_direction(case, u)
    if not in_directional_cone(case.family, u_transpose(case.u_mat, y), v):
        return "kernel witness is outside the closed-form normal cone"
    if check == "soscms" and dot(second_order(case.g, x0, u), y) < 0:
        return "kernel witness violates the curvature sign"
    return None


def multiplier(case, cert) -> str | None:
    lam = decode(cert["lam"])
    x0 = (Q(0),) * case.n
    grad = [poly_eval(poly_diff(case.objective, j), x0) for j in range(case.n)]
    resid = [a + b for a, b in zip(grad, jt_vec(jacobian(case.g, x0), lam))]
    if any(resid):
        return "multiplier residual is nonzero"
    if any(decode(cert.get("residual", [0] * case.n))):
        return "reported residual is nonzero"
    if not in_directional_cone(case.family, u_transpose(case.u_mat, lam), (Q(0),) * len(lam)):
        return "multiplier is outside the closed-form limiting normal cone"
    return None


def farkas(a_rows, b, e_rows, d, y, z) -> str | None:
    """y >= 0, y^T A + z^T E = 0 and y^T b + z^T d < 0."""
    if len(y) != len(a_rows) or len(z) != len(e_rows):
        return "Farkas vector has the wrong length"
    if any(c < 0 for c in y):
        return "Farkas multiplier of an inequality is negative"
    ncols = len(a_rows[0]) if a_rows else len(e_rows[0])
    comb = [Q(0)] * ncols
    for yi, row in zip(y, a_rows):
        for j, c in enumerate(row):
            comb[j] += yi * c
    for zi, row in zip(z, e_rows):
        for j, c in enumerate(row):
            comb[j] += zi * c
    if any(comb):
        return "Farkas combination of the rows is nonzero"
    if not dot(y, b) + dot(z, d) < 0:
        return "Farkas combination of the right-hand sides is not negative"
    return None


def farkas_chain(case, cert, pieces) -> str | None:
    """Every piece (a, e) of the limiting cone is refuted for J^T lam = target."""
    if len(cert["pieces"]) != len(pieces):
        return "Farkas chain does not cover every piece"
    x0 = (Q(0),) * case.n
    jac = jacobian(case.g, x0)
    ker_rows = [tuple(jac[i][j] for i in range(len(jac))) for j in range(case.n)]
    target = decode(cert["target"])
    grad = [poly_eval(poly_diff(case.objective, j), x0) for j in range(case.n)]
    if list(target) != [-c for c in grad]:
        return "Farkas target is not the negative objective gradient"
    for entry in cert["pieces"]:
        a, e = pieces[entry["piece"]]
        err = farkas(
            a, [Q(0)] * len(a), list(e) + ker_rows, [Q(0)] * len(e) + list(target),
            decode(entry["farkas_ineq"]), decode(entry["farkas_eq"]),
        )
        if err:
            return f"piece {entry['piece']}: {err}"
    return None


def theorem_conditions(case, u, row) -> str | None:
    """Witnesses of failed conditions solve the systems they claim to solve."""
    x0 = (Q(0),) * case.n
    jac = jacobian(case.g, x0)
    for cond in row["conditions"]:
        w = cond.get("witness")
        if cond["status"] != "fails" or not w:
            continue
        if cond["name"] == "kernel-system":
            y, z = decode(w["ystar"]), decode(w["zstar"])
            if all(c == 0 for c in y):
                return "kernel-system witness is zero"
            if any(jt_vec(jac, y)):
                return "kernel-system witness is not in ker J^T"
            # Hess<y, g>(0) u + J^T z = 0
            hy = [[Q(0)] * case.n for _ in range(case.n)]
            for yi, p in zip(y, case.g):
                h = hessian(p, x0)
                for i in range(case.n):
                    for j in range(case.n):
                        hy[i][j] += yi * h[i][j]
            lhs = [dot(hy[i], u) + c for i, c in enumerate(jt_vec(jac, z))]
            if any(lhs):
                return "kernel-system witness violates Hess<y*, g> u + J^T z* = 0"
        elif cond["name"] in ("derivative-at-zero", "subderivative"):
            y, zh = decode(w["ystar"]), decode(w["zhat"])
            if all(c == 0 for c in zh) or any(jt_vec(jac, zh)) or any(jt_vec(jac, y)):
                return f"{cond['name']} witness is not a nonzero kernel element"
        elif cond["name"] == "lambda-representation":
            for entry in w.get("farkas", ()):
                if any(Q(c) < 0 for c in entry["farkas_ineq"]):
                    return "lambda-representation Farkas multiplier is negative"
    return None


# Example 5.8 block verdicts (tests/test_cq.py) and the product rule.
EX58_BLOCK = {
    "mordukhovich": "FAILS",
    ("foscms", 1): "HOLDS",
    ("foscms", -1): "FAILS",
    ("soscms", 1): "HOLDS",
    ("soscms", -1): "FAILS",
}

EX58_THEOREMS = {
    # (checker, u) -> (status, {condition: status})
    ("check_thm_polyhedral_I", 1): ("HOLDS", {}),
    ("check_thm_polyhedral_I", -1): ("HOLDS", {"kernel-system": "holds"}),
    ("check_thm_polyhedral_II", 1): ("HOLDS", {}),
    ("check_thm_polyhedral_II", -1): ("HOLDS", {}),
    ("check_thm_nonpolyhedral", 1): (
        "HOLDS", {"kernel-system": "holds", "subderivative": "holds", "derivative-at-zero": "fails"}),
    ("check_thm_nonpolyhedral", -1): (
        "UNDECIDED", {"derivative-at-zero": "fails", "subderivative": "fails"}),
}


def ex58_expected(check: str, u) -> str | None:
    """Closed-form verdict on ex58^k by the product rule over the blocks.

    A block whose direction component is 0 sees the limiting cone, so it
    contributes the Mordukhovich verdict of ex58.
    """
    if check == "mordukhovich":
        return EX58_BLOCK["mordukhovich"]
    if check not in ("foscms", "soscms"):
        return None
    blocks = [
        EX58_BLOCK["mordukhovich"] if c == 0 else EX58_BLOCK[(check, 1 if c > 0 else -1)] for c in u
    ]
    return "HOLDS" if all(b == "HOLDS" for b in blocks) else "FAILS"


def ex58_mstationarity_expected(case) -> str:
    """HOLDS iff every gradient component is >= 0 (block multiplier (-c, 0))."""
    x0 = (Q(0),) * case.n
    grad = [poly_eval(poly_diff(case.objective, j), x0) for j in range(case.n)]
    return "HOLDS" if all(c >= 0 for c in grad) else "FAILS"


def implications(statuses: dict) -> list[tuple[str, str]]:
    """Mordukhovich HOLDS => FOSCMS(u) HOLDS => SOSCMS(u) HOLDS for every u.

    ``statuses`` maps (check, direction name) to a status; the result lists
    (direction name, reason) for every direction that breaks the chain.
    """
    out = []
    for d in sorted(d for (c, d) in statuses if c == "foscms"):
        if statuses.get(("mordukhovich", None)) == "HOLDS" and statuses[("foscms", d)] != "HOLDS":
            out.append((d, "Mordukhovich HOLDS but FOSCMS does not"))
        elif statuses[("foscms", d)] == "HOLDS" and statuses.get(("soscms", d)) != "HOLDS":
            out.append((d, "FOSCMS HOLDS but SOSCMS does not"))
    return out


# ---------------------------------------------------------------------------
# sequence-oracle records


def normality_sequence(case, u, mode: str, cert, t_of) -> str | None:
    """Witness records of a pseudo-/quasi-normality violation on ex58^k."""
    if cert.get("kind") != "witness_sequence":
        return f"FAILS with certificate kind {cert.get('kind')!r}"
    lam = decode(cert["candidate"])
    x0 = (Q(0),) * case.n
    if all(c == 0 for c in lam) or any(jt_vec(jacobian(case.g, x0), lam)):
        return "candidate is not a nonzero kernel element"
    if not in_directional_cone(case.family, u_transpose(case.u_mat, lam), base_direction(case, u)):
        return "candidate is outside the closed-form directional cone"
    seq = cert["sequence"]
    if not seq["converged"] or len(seq["records"]) < 6:
        return "witness sequence is not converged"
    for rec in seq["records"]:
        x, z = decode(rec["x"]), decode(rec["y"])
        if x != tuple(t_of(rec["k"]) * c for c in u):
            return f"x_k is off the ray at k={rec['k']}"
        zb = u_inverse_apply(case.u_mat, z)
        if not ex58_contains(zb):
            return f"z_k left D at k={rec['k']}"
        if not ex58_regular_normal(zb, u_transpose(case.u_mat, lam)):
            return f"lambda is not a regular normal at z_k, k={rec['k']}"
        gap = [poly_eval(p, x) - zi for p, zi in zip(case.g, z)]
        if mode == "pseudo":
            ok = dot(lam, gap) > 0
        else:
            ok = all(li == 0 or li * gi > 0 for li, gi in zip(lam, gap))
        if not ok:
            return f"{mode} sign condition fails at k={rec['k']}"
    return None


def arc_sequence(graph: str, cert, t_of) -> str | None:
    """Asymptotic-regularity witness on y = x^2: x = t, y = t^2, lambda = 1/(2t)."""
    seq = cert["sequence"]
    if not seq["converged"] or len(seq["records"]) < 6:
        return "witness sequence is not converged"
    if decode(seq["limit_xstar"]) != (Q(1),):
        return "limit x* is not 1"
    if graph == "region" and seq["outside_directional_image"] is not True:
        return "limit x* is not outside the directional image"
    if graph == "two-valued" and seq["outside_image"] is not True:
        return "limit x* is not outside the image"
    for rec in seq["records"]:
        t = t_of(rec["k"])
        x, y, lam, xs = decode(rec["x"]), decode(rec["y"]), decode(rec["lam"]), decode(rec["xstar"])
        if x != (t,) or y != (t * t,) or lam != (1 / (2 * t),):
            return f"record k={rec['k']} is off the arc x = t, y = t^2, lambda = 1/(2t)"
        # (x*, -lambda) is a nonnegative multiple of the normal (2t, -1) of y >= x^2
        if xs[0] != 2 * t * lam[0] or lam[0] <= 0:
            return f"(x*, -lambda) is not a regular normal at k={rec['k']}"
    return None


def elimination(cert) -> str | None:
    """ex47 bounds collapse to <= 1e-8 with a non-increasing tail."""
    for trace in cert["traces"]:
        if not trace["eliminated"]:
            return "candidate not eliminated"
        bounds = [float(Q(r["alignment_bound"])) for r in trace["rows"]]
        if bounds[-1] > 1e-8:
            return "alignment bound does not collapse"
        if any(b2 > b1 + 1e-15 for b1, b2 in zip(bounds[-6:], bounds[-5:])):
            return "alignment bounds increase in the tail"
    return None


def staircase_pieces(k_max: int):
    """The staircase graph: the wedge {x <= 0, x <= y} plus K slabs, as (rows, rhs)."""
    pieces = [([(Q(1), Q(0)), (Q(1), Q(-1))], [Q(0), Q(0)])]
    for k in range(1, k_max + 1):
        pieces.append(
            (
                [(Q(-1), Q(0)), (Q(1), Q(0)), (Q(-1, k), Q(-1))],
                [Q(-1, k + 1), Q(1, k), -Q(1, k) - Q(1, k * k)],
            )
        )
    return pieces


def _in_cone2(r, gens) -> bool:
    """r in cone(gens) in R^2, exactly."""
    if r == (0, 0):
        return True
    for g in gens:
        if g[0] * r[1] - g[1] * r[0] == 0 and dot(g, r) > 0:
            return True
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            a, b = gens[i], gens[j]
            det = a[0] * b[1] - a[1] * b[0]
            if det == 0:
                continue
            c1 = (r[0] * b[1] - r[1] * b[0]) / det
            c2 = (a[0] * r[1] - a[1] * r[0]) / det
            if c1 >= 0 and c2 >= 0:
                return True
    return False


def staircase_samples(k_max: int, samples) -> str | None:
    pieces = staircase_pieces(k_max)
    for s in samples:
        z = decode(s["point"])
        holding = [
            [row for row, bi in zip(rows, rhs) if dot(row, z) == bi]
            for rows, rhs in pieces
            if all(dot(row, z) <= bi for row, bi in zip(rows, rhs))
        ]
        if not holding:
            return f"sample point at k={s['k']} is outside the staircase"
        gens = [decode(r) for r in s["rays"]]
        for l in s["lineality"]:
            gens += [decode(l), tuple(-c for c in decode(l))]
        for r in gens:
            if not all(_in_cone2(r, active) for active in holding):
                return f"sampled ray {r} is not a regular normal at k={s['k']}"
    return None
