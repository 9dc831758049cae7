"""The three workloads, each a closed loop with one caller.

* ``ladder`` (cold): every pass parses its own sheared problems and runs the
  exact ladder on each, so every cone query misses the caches.
* ``sweep`` (warm): ex58^2 at 0 over all 8 directions in {-1, 0, 1}^2; the
  cache-filling first pass is part of set-up.
* ``sequences``: the float sequence oracle and the patch maps, which the
  other two workloads never call.

An operation is one decider call or oracle search plus its report row.  A
pass runs a list of operations, serializes each problem's rows with
``report.dumps`` and is then checked from the serialized text.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from perfbench import checks, inputs

Q = Fraction

CONSTRAINT_CHECKS = ("foscms", "soscms", "check_thm_polyhedral_I", "check_thm_polyhedral_II", "check_thm_nonpolyhedral")


@dataclass
class Op:
    label: str
    group: str
    call: Callable[[], dict]  # runs the decider or search, returns its report row
    check: Callable[[dict], str | None]  # serialized row -> error or None
    key: tuple | None = None  # operations with equal keys must agree on the verdict


def _geometric(k: int) -> Fraction:
    return Q(1, 2**k)


def _harmonic(k: int) -> Fraction:
    return Q(1, k)


class Workload:
    name = ""
    min_ops = 100

    def __init__(self, dircq: dict, seed: int, max_passes: int):
        self.m = dircq
        self.seed = seed
        self.max_passes = max_passes
        self.table: dict = {}  # consistency key -> (status, qualifier)

    # set-up -----------------------------------------------------------
    def prepare(self) -> None:
        raise NotImplementedError

    def warm(self) -> list[Op] | None:
        """Operations of a cache-filling pass that belongs to set-up, if any."""
        return None

    # passes -----------------------------------------------------------
    def pass_ops(self, i: int) -> list[Op]:
        raise NotImplementedError

    def cross_checks(self, rows: dict) -> list[tuple[str, str]]:
        """Checks over several operations of one pass: (label, error)."""
        return []

    def consistent(self, op: Op, row: dict) -> str | None:
        if op.key is None:
            return None
        got = (row["status"], row["qualifier"])
        want = self.table.setdefault(op.key, got)
        return None if got == want else f"verdict {got} differs from {want} on an equivalent problem"

    def parse(self, text: str):
        return self.m["problemfile"].parse_problem(json.loads(text))

    def row(self, verdict, point=None, direction=None, extra=None) -> dict:
        return self.m["report"].verdict_row(verdict, point, direction, extra)


# ---------------------------------------------------------------------------
# constraint problems: the exact ladder


class _ConstraintWorkload(Workload):
    def constraint_ops(self, case, pr, with_ground: bool) -> list[Op]:
        cq = self.m["cq"]
        sys_ = pr.system
        ops = []
        if with_ground:
            ops.append(self._op(case, "mordukhovich", None, lambda: cq.mordukhovich(sys_), pr))
            ops.append(self._op(case, "mstationarity", None, lambda: cq.mstationarity(sys_, pr.objective), pr))
        for dname in case.directions:
            u = pr.direction(dname)
            for check in CONSTRAINT_CHECKS:
                ops.append(
                    self._op(case, check, dname, (lambda c=check, u=u: getattr(cq, c)(sys_, u)), pr)
                )
        return ops

    def _op(self, case, check, dname, fn, pr) -> Op:
        u = case.directions[dname] if dname else None

        def call():
            return self.row(fn(), "xbar", dname)

        return Op(
            f"{case.name}:{check}:{dname or '-'}",
            case.name,
            call,
            lambda row: self.check_constraint_row(case, pr, check, u, row),
            (case.base, check, dname),
        )

    def check_constraint_row(self, case, pr, check, u, row) -> str | None:
        status, cert = row["status"], row["certificate"]
        if case.family == "ex58":
            want = checks.ex58_expected(check, u)
            if check == "mstationarity":
                want = checks.ex58_mstationarity_expected(case)
            if case.blocks == 1 and check.startswith("check_thm"):
                want, conds = checks.EX58_THEOREMS[(check, int(u[0]))]
                got = {c["name"]: c["status"] for c in row["conditions"]}
                for name, st in conds.items():
                    if got.get(name) != st:
                        return f"condition {name} is {got.get(name)}, expected {st}"
            if want is not None and status != want:
                return f"status {status}, expected {want}"
        if check in ("mordukhovich", "foscms", "soscms"):
            if status == "FAILS":
                return checks.kernel_witness(case, check, u, cert)
            if status == "HOLDS" and cert.get("kind") != "trivial_kernel":
                return "HOLDS without a trivial-kernel certificate"
            return None if status in ("HOLDS", "FAILS") else f"status {status}"
        if check == "mstationarity":
            if status == "HOLDS":
                return checks.multiplier(case, cert)
            if status == "FAILS":
                gx = pr.system.g.eval(pr.system.xbar)
                cone = self.m["unions"].limiting_normal_cone(pr.system.d, gx)
                return checks.farkas_chain(case, cert, [(p.a, p.e) for p in cone.pieces])
            return f"status {status}"
        if status not in ("HOLDS", "UNDECIDED"):
            return f"status {status}"
        return checks.theorem_conditions(case, u, row)

    def implication_checks(self, cases, rows) -> list[tuple[str, str]]:
        out = []
        for case in cases:
            statuses = {}
            for label, row in rows.items():
                name, check, dname = label.split(":")
                if name == case.name and check in ("mordukhovich", "foscms", "soscms"):
                    statuses[(check, None if dname == "-" else dname)] = row["status"]
            out += [(f"{case.name}:soscms:{d}", err) for d, err in checks.implications(statuses)]
        return out


class Ladder(_ConstraintWorkload):
    name = "ladder"

    def prepare(self) -> None:
        self.cases = inputs.ladder_cases(self.seed, self.max_passes)
        self.parsed = [[self.parse(c.text) for c in cases] for cases in self.cases]

    def pass_ops(self, i: int) -> list[Op]:
        order = list(zip(self.cases[i], self.parsed[i]))
        random.Random(f"ladder-order:{self.seed}:{i}").shuffle(order)
        ops = []
        for case, pr in order:
            ops += self.constraint_ops(case, pr, with_ground=True)
        self._current = [c for c, _ in order]
        return ops

    def cross_checks(self, rows):
        return self.implication_checks(self._current, rows)


class Sweep(_ConstraintWorkload):
    name = "sweep"

    def prepare(self) -> None:
        self.case = inputs.sweep_case()
        self.pr = self.parse(self.case.text)

    def warm(self) -> list[Op]:
        return self.pass_ops(-1)

    def pass_ops(self, i: int) -> list[Op]:
        ops = self.constraint_ops(self.case, self.pr, with_ground=False)
        random.Random(f"sweep-order:{self.seed}:{i}").shuffle(ops)
        return ops

    def cross_checks(self, rows):
        return self.implication_checks([self.case], rows)


# ---------------------------------------------------------------------------
# the sequence oracle and the patch maps


class Sequences(Workload):
    name = "sequences"

    def prepare(self) -> None:
        self.ex58 = [(c, self.parse(c.text)) for c in inputs.ex58_sequence_cases()]
        self.ex47 = self.parse(inputs.EX47_TEXT)
        self.graphs = {name: self.parse(text) for name, text in (
            ("region", inputs.REGION_TEXT), ("two-valued", inputs.TWO_VALUED_TEXT))}
        self.stairs = {k: self.parse(inputs.staircase_text(k)) for k in inputs.STAIRCASE_K}
        self.combs = {
            (k, obj): self.parse(inputs.comb_text(k, obj)) for k in inputs.COMB_K for obj in ("x0", "-x0")
        }

    def pass_ops(self, i: int) -> list[Op]:
        ops = self.normality_ops() + self.mpec_ops() + self.asym_ops() + self.sample_ops() + self.comb_ops()
        random.Random(f"sequences-order:{self.seed}:{i}").shuffle(ops)
        return ops

    def normality_ops(self) -> list[Op]:
        cq = self.m["cq"]
        ops = []
        for case, pr in self.ex58:
            for dname, u in case.directions.items():
                want = "HOLDS" if all(c > 0 for c in u) else "FAILS"
                for mode in ("pseudo", "quasi"):
                    def call(pr=pr, dname=dname, mode=mode):
                        v = cq.pseudo_quasi_verdict(pr.system, pr.direction(dname), mode=mode)
                        return self.row(v, "xbar", dname, {"normality_mode": mode})

                    def check(row, case=case, u=u, mode=mode, want=want):
                        if row["status"] != want:
                            return f"status {row['status']}, expected {want}"
                        if want == "HOLDS":
                            return None if row["certificate"]["kind"] == "trivial_kernel" else "HOLDS without a trivial kernel"
                        return checks.normality_sequence(case, u, mode, row["certificate"], _geometric)

                    ops.append(Op(f"{case.name}:{mode}-normality:{dname}", case.name, call, check))
        return ops

    def mpec_ops(self) -> list[Op]:
        cq, oracle = self.m["cq"], self.m["oracle"]
        pr = self.ex47
        mp = oracle.MpecProblem(pr.mpec_omega, pr.mpec_s, pr.point("xbar"))
        ops = []
        for dname in pr.directions:
            for mode in ("pseudo", "quasi"):
                def call(dname=dname, mode=mode):
                    v = cq.mpec_pseudo_quasi_verdict(mp, pr.direction(dname), mode=mode)
                    return self.row(v, "xbar", dname, {"normality_mode": mode})

                def check(row):
                    if row["status"] != "HOLDS":
                        return f"status {row['status']}, expected HOLDS"
                    cert = row["certificate"]
                    if cert["kind"] == "elimination_traces":
                        return checks.elimination(cert) if cert["traces"] else "no elimination trace"
                    return None if cert["kind"] == "trivial_kernel" else f"certificate kind {cert['kind']}"

                ops.append(Op(f"ex47:mpec-{mode}-normality:{dname}", "ex47", call, check, ("ex47", mode, dname)))
        return ops

    def asym_ops(self) -> list[Op]:
        cq, oracle = self.m["cq"], self.m["oracle"]
        ops = []
        for graph, pr in self.graphs.items():
            for kind, k_max, t_of in (("geometric", 34, _geometric), ("harmonic", 12, _harmonic)):
                def call(pr=pr, kind=kind, k_max=k_max):
                    found = oracle.search_asym_reg_violation(
                        pr.patch_map, pr.point("xbar"), pr.point("ybar"), pr.direction("plus"),
                        oracle.Schedule(kind=kind, k_max=k_max),
                    )
                    ok = isinstance(found, oracle.WitnessSequence) and found.converged
                    v = cq.Verdict(
                        "asymptotic-regularity",
                        cq.FAILS if ok else cq.UNDECIDED,
                        {"kind": "witness_sequence", "sequence": found} if ok else None,
                    )
                    return self.row(v, "xbar", "plus", {"schedule": kind})

                def check(row, graph=graph, t_of=t_of):
                    if row["status"] != "FAILS":
                        return f"status {row['status']}, expected FAILS"
                    return checks.arc_sequence(graph, row["certificate"], t_of)

                ops.append(Op(f"{graph}:asym-reg-search:{kind}", graph, call, check))
        return ops

    SAMPLE_STEPS = 8

    def sample_ops(self) -> list[Op]:
        cq, oracle = self.m["cq"], self.m["oracle"]
        ops = []
        for k, pr in self.stairs.items():
            def call(pr=pr):
                res = oracle.sample_directional_normals(
                    pr.graph_set, pr.point("base"), pr.direction("diag"), oracle.Schedule(k_max=self.SAMPLE_STEPS)
                )
                v = cq.Verdict("directional-normal-sample", "SAMPLED", {"kind": "normal_samples", "result": res})
                return self.row(v, "base", "diag")

            def check(row, k=k):
                samples = row["certificate"]["result"]["samples"]
                if len(samples) != self.SAMPLE_STEPS:
                    return f"{len(samples)} samples, expected {self.SAMPLE_STEPS}"
                return checks.staircase_samples(k, samples)

            ops.append(Op(f"staircase-K{k}:sample-normals:diag", f"staircase-K{k}", call, check))
        return ops

    def comb_ops(self) -> list[Op]:
        cq = self.m["cq"]
        ops = []
        for (k, obj), pr in self.combs.items():
            def call(pr=pr):
                v = cq.patch_mstationarity(pr.patch_map, pr.objective, pr.point("xbar"), pr.point("ybar"))
                return self.row(v, "xbar")

            def check(row, pr=pr, obj=obj):
                # near (0, 0) the comb graph is the halfplane {x <= 0}; its normal
                # cone is {(s, 0): s >= 0}, so phi'(0) <= 0 iff M-stationary with lambda = 0
                if obj == "-x0":
                    if row["status"] != "HOLDS":
                        return f"status {row['status']}, expected HOLDS"
                    return None if checks.decode(row["certificate"]["lam"]) == (0,) else "multiplier is not 0"
                if row["status"] != "FAILS":
                    return f"status {row['status']}, expected FAILS"
                return self.comb_farkas(pr, row["certificate"])

            ops.append(Op(f"comb-K{k}:mstationarity:{obj}", f"comb-K{k}/{obj}", call, check))
        return ops

    def comb_farkas(self, pr, cert) -> str | None:
        """Each upper-bound piece refutes (-grad, -lambda) in the piece."""
        m = pr.patch_map
        bounds = self.m["setmaps"].patch_limiting_normals(m, pr.point("xbar") + pr.point("ybar"))
        grad = checks.decode(cert["grad"])
        pieces = bounds.upper.pieces
        if len(cert["pieces"]) != len(pieces):
            return "Farkas chain does not cover every piece"
        for entry in cert["pieces"]:
            p = pieces[entry["piece"]]
            a = [tuple(-c for c in row[m.nx:]) for row in p.a]
            b = [checks.dot(row[: m.nx], grad) for row in p.a]
            e = [tuple(-c for c in row[m.nx:]) for row in p.e]
            d = [checks.dot(row[: m.nx], grad) for row in p.e]
            err = checks.farkas(a, b, e, d, checks.decode(entry["farkas_ineq"]), checks.decode(entry["farkas_eq"]))
            if err:
                return f"piece {entry['piece']}: {err}"
        return None


WORKLOADS = {w.name: w for w in (Ladder, Sweep, Sequences)}
