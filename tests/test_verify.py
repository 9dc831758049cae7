"""problem file -> decider -> JSON report -> verify, on Example 5.8."""

import copy
import json
from importlib import resources
from pathlib import Path

import pytest

from dircq import cq
from dircq.cli import run_check
from dircq.problemfile import ProblemFormatError, load_problem, parse_problem
from dircq.report import dumps, verdict_row, verify_report

EX58 = {
    "version": 1,
    "name": "ex58",
    "constraint": {
        "n": 1,
        "g": ["x0", "-x0^2"],
        "D": {"dim": 2, "pieces": [{"a": [[-1, 0]], "b": [0]}, {"a": [[0, -1]], "b": [0]}]},
    },
    "points": {"xbar": [0]},
    "directions": {"plus": [1], "minus": [-1]},
    "objective": "x0",
}

DIRECTIONAL = (
    cq.foscms,
    cq.soscms,
    cq.check_thm_polyhedral_I,
    cq.check_thm_polyhedral_II,
    cq.check_thm_nonpolyhedral,
)


@pytest.fixture(scope="module")
def ex58_report():
    pr = parse_problem(EX58)
    sys = pr.system
    rows = [verdict_row(cq.mordukhovich(sys), "xbar"), verdict_row(cq.mstationarity(sys, pr.objective), "xbar")]
    for dname in ("plus", "minus"):
        u = pr.direction(dname)
        rows += [verdict_row(f(sys, u), "xbar", dname) for f in DIRECTIONAL]
        for mode in ("pseudo", "quasi"):
            v = cq.pseudo_quasi_verdict(sys, u, mode=mode)
            rows.append(verdict_row(v, "xbar", dname, {"normality_mode": mode}))
    return pr, json.loads(dumps({"problem": "ex58", "rows": rows}))


def test_ex58_report_verifies(ex58_report):
    pr, report = ex58_report
    statuses = {(r["check"], r["direction"]): r["status"] for r in report["rows"]}
    assert statuses[("mordukhovich", None)] == "FAILS"
    assert statuses[("foscms", "plus")] == "HOLDS" and statuses[("foscms", "minus")] == "FAILS"
    assert statuses[("pseudo-normality", "minus")] == "FAILS"
    assert verify_report(report, pr) == []


def test_flipped_status_is_reported(ex58_report):
    pr, report = ex58_report
    rows = [dict(r) for r in report["rows"]]
    i = next(i for i, r in enumerate(rows) if (r["check"], r["direction"]) == ("foscms", "minus"))
    rows[i]["status"] = "HOLDS"
    errors = verify_report({"rows": rows}, pr)
    assert len(errors) == 1
    assert errors[0].startswith(f"row {i} (foscms/xbar/minus): recomputed status FAILS != reported HOLDS")


def test_run_check_rejects_bad_input():
    pr = parse_problem(EX58)
    for check, kwargs in (
        ("no-such-check", {"direction": "plus"}),
        ("check_thm_polyhedral_I", {"direction": "plus"}),
        ("foscms", {}),
        ("foscms", {"direction": "sideways"}),
        ("mordukhovich", {"point": "ybar"}),
        ("foscms", {"direction": "plus", "target": (0,)}),
    ):
        with pytest.raises(ProblemFormatError):
            run_check(pr, check, **kwargs)
    without_objective = parse_problem({k: v for k, v in EX58.items() if k != "objective"})
    with pytest.raises(ProblemFormatError):
        run_check(without_objective, "mstationarity")


@pytest.fixture(scope="module")
def ex47_report():
    from dircq.oracle import MpecProblem

    pr = load_problem(str(resources.files("dircq") / "fixtures" / "ex47.json"))
    mp = MpecProblem(pr.mpec_omega, pr.mpec_s, pr.point("xbar"))
    rows = []
    for dname in sorted(pr.directions):
        for mode in ("pseudo", "quasi"):
            v = cq.mpec_pseudo_quasi_verdict(mp, pr.direction(dname), mode=mode)
            rows.append(verdict_row(v, "xbar", dname, {"normality_mode": mode}))
    return pr, json.loads(dumps({"problem": "ex47", "rows": rows}))


def test_ex47_mpec_report_verifies(ex47_report):
    pr, report = ex47_report
    assert len(report["rows"]) == 2 * len(pr.directions)
    assert {r["check"] for r in report["rows"]} == {"pseudo-normality", "quasi-normality"}
    assert verify_report(report, pr) == []


def test_ex47_flipped_status_is_reported(ex47_report):
    pr, report = ex47_report
    rows = [dict(r) for r in report["rows"]]
    i = next(i for i, r in enumerate(rows) if r["certificate"]["kind"] == "elimination_traces")
    label = f"row {i} ({rows[i]['check']}/xbar/{rows[i]['direction']})"
    rows[i]["status"] = "FAILS"
    errors = verify_report({"rows": rows}, pr)
    assert errors == [f"{label}: recomputed status HOLDS != reported FAILS"]


def test_run_check_rejects_bad_mpec_input(ex47_report):
    pr, _ = ex47_report
    for check, kwargs in (
        ("foscms", {"direction": "n"}),
        ("pseudo-normality", {}),
        ("quasi-normality", {"direction": "up"}),
        ("pseudo-normality", {"direction": "n", "point": "ybar"}),
    ):
        with pytest.raises(ProblemFormatError):
            run_check(pr, check, **kwargs)


def test_witness_check_reads_no_oracle_cache(ex58_report, monkeypatch):
    from dircq import oracle, report

    pr, rep = ex58_report
    row = next(r for r in rep["rows"] if (r["check"], r["direction"]) == ("pseudo-normality", "minus"))
    assert row["certificate"]["kind"] == "witness_sequence"

    def unreadable(*args):
        raise AssertionError("the witness check read an oracle cache")

    for name in ("_piece_hulls", "_normal_candidates", "_face_hulls", "_image_cones"):
        monkeypatch.setattr(oracle, name, unreadable)
    assert report._check_witness_sequence(pr, row, row["certificate"]) is None


def test_certificate_checks_read_no_first_order_cache(ex58_report, monkeypatch):
    from test_caches import cached_functions

    from dircq import oracle, report

    # the boundedness and clear-then-identical tests see these caches
    assert {"dircq.cq._cached_context", "dircq.oracle._graph_point_cone", "dircq.oracle._image_cones"} <= set(
        cached_functions()
    )
    pr, rep = ex58_report
    # objective -x0 has no M-multiplier at 0, so mstationarity FAILS with a Farkas chain
    pr_neg = parse_problem({**EX58, "objective": "-x0"})
    farkas = verdict_row(cq.mstationarity(pr_neg.system, pr_neg.objective), "xbar")
    farkas = json.loads(dumps({"problem": "ex58", "rows": [farkas]}))["rows"][0]
    assert farkas["certificate"]["kind"] == "farkas_chain"

    def unreadable(*args):
        raise AssertionError("a certificate check read a first- or second-order cache")

    monkeypatch.setattr(cq, "_cached_context", unreadable)
    monkeypatch.setattr(oracle, "_graph_point_cone", unreadable)
    monkeypatch.setattr(oracle, "_image_cones", unreadable)
    with pytest.raises(AssertionError, match="certificate check read"):
        cq.foscms(pr.system, pr.direction("minus"))
    checks = {
        "kernel_witness": report._check_kernel_witness,
        "multiplier": report._check_multiplier,
        "witness_sequence": report._check_witness_sequence,
    }
    kinds = []
    for row in rep["rows"]:
        check = checks.get(row["certificate"] and row["certificate"]["kind"])
        if check is not None:
            assert check(pr, row, row["certificate"]) is None, row
            kinds.append(row["certificate"]["kind"])
    assert report._check_farkas_chain(pr_neg, farkas, farkas["certificate"]) is None
    assert set(kinds) == set(checks) and kinds.count("kernel_witness") == 3


def test_quasi_witness_is_checked_per_basis_vector():
    from fractions import Fraction as Q

    from dircq import report

    pr = parse_problem({**EX58, "basis": {"vectors": [[1, 1], [1, -1]]}})
    u = pr.direction("minus")
    rows = [
        verdict_row(cq.pseudo_quasi_verdict(pr.system, u, basis=pr.basis, mode=mode), "xbar", "minus")
        for mode in ("pseudo", "quasi")
    ]
    rep = json.loads(dumps({"problem": "ex58", "rows": rows}))
    assert [r["check"] for r in rep["rows"]] == ["pseudo-normality", "quasi-normality"]
    assert verify_report(rep, pr) == []
    pseudo, quasi = rep["rows"]
    assert quasi["certificate"]["candidate"] == ["0", "-1"]
    # g(x) = (x, -x^2); z = (x + 2x^2, 0) stays in D with lambda = (0, -1) normal there,
    # and gap = (-2x^2, -x^2) keeps <lambda, gap> > 0, but <gap, (1, -1)> = -x^2 < 0
    # while <lambda, (1, -1)> = 1
    for row in (pseudo, quasi):
        rec = row["certificate"]["sequence"]["records"][-1]
        x = Q(rec["x"][0])
        rec["y"] = [str(x + 2 * x * x), "0"]
    assert report._check_witness_sequence(pr, pseudo, pseudo["certificate"]) is None
    k = quasi["certificate"]["sequence"]["records"][-1]["k"]
    assert verify_report(rep, pr) == [
        f"row 1 (quasi-normality/xbar/minus): quasi sign condition fails on basis vector 1 at k={k}"
    ]


def mpec_fails_row(check: str, candidate: list[str], ys: list[str]) -> dict:
    """A hand-built FAILS row on ex47 (Omega = [0, oo) in R^1), direction w:
    x_k = (-t, 0) with t = 2^-k, and offset y_k = (ys[k-1], 0)."""
    records = [
        {"k": k, "x": [f"-1/{2**k}", "0"], "y": [y, "0"]} for k, y in enumerate(ys, start=1)
    ]
    cert = {"kind": "witness_sequence", "candidate": candidate, "sequence": {"records": records}}
    return {"check": check, "status": "FAILS", "point": "xbar", "direction": "w", "certificate": cert}


@pytest.mark.parametrize("check", ["pseudo-normality", "quasi-normality"])
def test_witness_sequence_needs_a_constraint_problem(ex47_report, check):
    """No equilibrium search builds a witness, so an MPEC FAILS row has no
    replay: its certificate check rejects it in one line, and ``verify``
    reports the recomputed status first."""
    from dircq import report

    pr, _ = ex47_report
    row = mpec_fails_row(check, ["1"], ["1/2", "1/4", "1/8"])
    err = report._check_certificate(pr, row, row["certificate"])
    assert err == "a witness sequence needs a constraint problem, not 'mpec'"
    assert verify_report({"rows": [row]}, pr) == [f"row 0 ({check}/xbar/w): recomputed status HOLDS != reported FAILS"]


@pytest.mark.parametrize("edit", ["missing-y", "non-numeric", "short-y", "long-candidate"])
def test_undecodable_witness_record_is_one_error(ex58_report, edit):
    from dircq import report

    pr, rep = ex58_report
    kinds = [(r["status"], r["certificate"] and r["certificate"]["kind"]) for r in rep["rows"]]
    row = copy.deepcopy(rep["rows"][kinds.index(("FAILS", "witness_sequence"))])
    cert = row["certificate"]
    rec = cert["sequence"]["records"][0]
    if edit == "missing-y":
        del rec["y"]
    elif edit == "non-numeric":
        rec["y"][0] = "x"
    elif edit == "short-y":
        rec["y"] = rec["y"][:1]
    else:
        cert["candidate"] = cert["candidate"] + ["0"]
    assert report._check_certificate(pr, row, cert).startswith("witness record cannot be replayed: ")


GOLDEN = Path(__file__).parent / "golden"


def _golden(name: str):
    """The golden report ``name`` and the problem of its fixture (the part
    of the name before any ``-strong`` or ``-normality`` suffix)."""
    pr = load_problem(str(resources.files("dircq") / "fixtures" / f"{name.split('-')[0]}.json"))
    report = json.loads((GOLDEN / f"{name}.json").read_text())
    return pr, report


@pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN.glob("*.json")))
def test_golden_report_verifies(name):
    # rows at an explicit target x* and sample rows included
    pr, report = _golden(name)
    assert verify_report(report, pr) == []


@pytest.mark.parametrize(
    "status, new_status, certificate",
    [
        ("UNDECIDED", "HOLDS", None),
        ("UNDECIDED", "BOGUS", None),
        ("FAILS", "UNDECIDED", None),
    ],
)
def test_row_without_certificate_is_recomputed(status, new_status, certificate):
    """A row with no certificate is still recomputed: a relabelled status is
    reported, also when the certificate it had is dropped."""
    pr, report = _golden("ex58")
    row = copy.deepcopy(next(r for r in report["rows"] if r["status"] == status))
    row["status"], row["certificate"] = new_status, certificate
    errors = verify_report({"rows": [row]}, pr)
    assert errors == [
        f"row 0 ({row['check']}/{row['point']}/{row['direction']}): recomputed status {status} != reported {new_status}"
    ]


def test_normal_samples_are_checked():
    pr, report = _golden("staircase")
    row = copy.deepcopy(next(r for r in report["rows"] if r["status"] == "SAMPLED"))
    label = f"row 0 (directional-normal-sample/base/{row['direction']})"
    samples = row["certificate"]["result"]["samples"]
    samples[2]["rays"] = samples[2]["rays"][:1]
    assert verify_report({"rows": [row]}, pr) == [
        f"{label}: sampled normals differ from the regular normal cone at k={samples[2]['k']}"
    ]
    samples[1]["point"] = ["1", "-1"]
    assert verify_report({"rows": [row]}, pr) == [
        f"{label}: sample point left the graph set at k={samples[1]['k']}"
    ]


def test_fitted_normals_are_refitted():
    """A sample row's fitted rays and lineality must be the fit of its own
    samples."""
    pr, report = _golden("staircase")
    row = next(r for r in report["rows"] if r["status"] == "SAMPLED")
    label = f"row 0 (directional-normal-sample/base/{row['direction']})"
    result = row["certificate"]["result"]
    assert result["fitted_rays"] and verify_report({"rows": [row]}, pr) == []
    for key, value, err in (
        ("fitted_rays", [["5", "7"]], "fitted rays differ from the fit of the samples"),
        ("fitted_rays", result["fitted_rays"][:-1], "fitted rays differ from the fit of the samples"),
        ("fitted_lineality", [["0", "1"]], "fitted lineality differs from the fit of the samples"),
    ):
        bad = copy.deepcopy(row)
        bad["certificate"]["result"][key] = value
        assert verify_report({"rows": [bad]}, pr) == [f"{label}: {err}"]


def test_patch_golden_verifies():
    pr, report = _golden("comb")
    assert [r["check"] for r in report["rows"]] == ["mstationarity"]
    assert verify_report(report, pr) == []
    # the row is recomputed, not taken on trust
    flipped = [{**report["rows"][0], "status": "HOLDS"}]
    assert verify_report({"rows": flipped}, pr) == [
        "row 0 (mstationarity/xbar/None): recomputed status FAILS != reported HOLDS"
    ]


def test_graphset_foscms_row_verifies():
    pr, report = _golden("staircase")
    rows = [r for r in report["rows"] if r["check"] == "foscms"]
    assert len(rows) == 1 and rows[0]["u"] == ["1"]
    assert verify_report({"rows": rows}, pr) == []
    # the row's u reaches the decider: -u is tangent to the staircase, +u is not
    assert run_check(pr, "foscms", "base", u=(1,)).qualifier == "direction-not-tangent"
    assert run_check(pr, "foscms", "base", u=(-1,)).qualifier == ""


def test_run_check_rejects_bad_graph_and_patch_input():
    graph, _ = _golden("staircase")
    patch, _ = _golden("comb")
    for pr, check, kwargs in (
        (graph, "mordukhovich", {"point": "base", "u": (1,)}),
        (graph, "foscms", {"point": "xbar", "u": (1,)}),
        (graph, "foscms", {"point": "base"}),
        (patch, "foscms", {"point": "xbar"}),
        (patch, "mstationarity", {"point": "base"}),
    ):
        with pytest.raises(ProblemFormatError):
            run_check(pr, check, **kwargs)


@pytest.mark.parametrize(
    "edit, error",
    [
        pytest.param({"farkas_ineq": ["0"]}, "Farkas vector for piece 0 does not verify", id="zero-vector"),
        pytest.param({"farkas_ineq": ["-5"]}, "Farkas vector for piece 0 does not verify", id="negative-vector"),
        pytest.param({"pieces": []}, "Farkas chain needs one entry per piece, in order, for 1 pieces", id="no-pieces"),
        pytest.param({"grad": ["3"]}, "Farkas gradient differs from the objective gradient", id="wrong-gradient"),
    ],
)
def test_patch_farkas_chain_is_checked(edit, error):
    """The comb row's Farkas chain is checked against the systems that
    ``patch_mstationarity`` poses, one per piece of the upper bound."""
    pr, report = _golden("comb")
    row = copy.deepcopy(report["rows"][0])
    cert = row["certificate"]
    assert cert["kind"] == "farkas_chain_graph" and len(cert["pieces"]) == 1
    if "farkas_ineq" in edit:
        cert["pieces"][0].update(edit)
    else:
        cert.update(edit)
    assert verify_report({"rows": [row]}, pr) == [f"row 0 (mstationarity/xbar/None): {error}"]


def test_graphset_kernel_witness_is_checked():
    """gph = {x <= 0} u {x >= 0, y <= 0} at (0, 0) in the direction u = 1:
    N = {0} x [0, oo), so the kernel {y* : (0, -y*) in N} is (-oo, 0]."""
    pr = parse_problem(
        {
            "version": 1,
            "graphset": {"nx": 1, "ny": 1, "pieces": [{"a": [[1, 0]], "b": [0]}, {"a": [[-1, 0], [0, 1]], "b": [0, 0]}]},
            "points": {"base": [0, 0]},
        }
    )
    verdict = run_check(pr, "foscms", "base", u=(1,))
    row = json.loads(dumps({"rows": [verdict_row(verdict, "base", None, {"u": ["1"]})]}))["rows"][0]
    assert (row["status"], row["certificate"]["ystar"]) == ("FAILS", ["-1"])
    assert verify_report({"rows": [row]}, pr) == []
    for ystar, error in (
        (["0"], "kernel witness is zero"),
        (["1"], "(0, -y*) lies outside the recomputed graph normal cone"),
    ):
        bad = copy.deepcopy(row)
        bad["certificate"]["ystar"] = ystar
        assert verify_report({"rows": [bad]}, pr) == [f"row 0 (foscms/base/None): {error}"]


def _golden_fails_rows():
    """(golden name, row index) of every FAILS row with a kernel witness or a Farkas chain."""
    out = []
    for path in sorted(GOLDEN.glob("*.json")):
        for i, row in enumerate(json.loads(path.read_text())["rows"]):
            kind = (row["certificate"] or {}).get("kind")
            if row["status"] == "FAILS" and kind in ("kernel_witness", "farkas_chain", "farkas_chain_graph"):
                out.append((path.stem, i))
    return out


@pytest.mark.parametrize("name, idx", _golden_fails_rows())
def test_zeroed_fails_certificate_is_reported(name, idx):
    pr, report = _golden(name)
    row = copy.deepcopy(report["rows"][idx])
    cert = row["certificate"]
    if cert["kind"] == "kernel_witness":
        cert["ystar"] = ["0"] * len(cert["ystar"])
    else:
        for entry in cert["pieces"]:
            entry["farkas_ineq"] = ["0"] * len(entry["farkas_ineq"])
            entry["farkas_eq"] = ["0"] * len(entry["farkas_eq"])
    errors = verify_report({"rows": [row]}, pr)
    assert len(errors) == 1 and errors[0].startswith(f"row 0 ({row['check']}/{row['point']}/{row['direction']}): ")


@pytest.mark.parametrize("value", [["x"], ["1"], "10"], ids=["non-numeric", "wrong-length", "string"])
@pytest.mark.parametrize("check", ["mordukhovich", "foscms", "soscms", "mstationarity"])
def test_malformed_certificate_is_reported(check, value):
    """A y* or lambda that cannot be decoded is an error line for its row:
    the ex58 golden's kernel-witness FAILS rows, and a multiplier HOLDS row
    of ex58 with the objective x0."""
    if check == "mstationarity":
        pr = parse_problem(EX58)
        row = json.loads(dumps({"rows": [verdict_row(run_check(pr, check), "xbar")]}))["rows"][0]
        key, reason = "lam", "multiplier cannot be read"
    else:
        pr, report = _golden("ex58")
        row = copy.deepcopy(next(r for r in report["rows"] if r["check"] == check and r["status"] == "FAILS"))
        key, reason = "ystar", "kernel witness cannot be read"
    assert row["certificate"][key] and verify_report({"rows": [row]}, pr) == []
    row["certificate"][key] = value
    errors = verify_report({"rows": [row]}, pr)
    assert len(errors) == 1
    assert errors[0].startswith(f"row 0 ({check}/xbar/{row['direction']}): {reason}: ")


# per certificate kind, the paths of the keys its check reads (0 stands for
# the first entry of a list); each str-keyed prefix of a path is read too
FARKAS_PATHS = tuple(("pieces", 0, key) for key in ("piece", "farkas_ineq", "farkas_eq"))
READ_PATHS = {
    "kernel_witness": (("ystar",),),
    "farkas_chain": (("target",), *FARKAS_PATHS),
    "farkas_chain_graph": (("grad",), *FARKAS_PATHS),
    "witness_sequence": (("candidate",), *(("sequence", "records", 0, key) for key in ("k", "x", "y"))),
    "normal_samples": (
        *(("result", "samples", 0, key) for key in ("k", "point", "rays", "lineality")),
        ("result", "fitted_rays"),
        ("result", "fitted_lineality"),
    ),
}


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _certificate_edits(cert) -> dict:
    """id -> edit (a function of the certificate that returns the edited
    one) of each single edit that ``verify_report`` must report."""
    edits = {"certificate-list": lambda c: ["x"]}
    if cert is None:
        return edits
    if cert["kind"] == "witness_sequence":
        edits["sequence-list"] = lambda c: {**c, "sequence": ["x"]}
    keys = {("kind",)}
    vectors = set()
    for path in READ_PATHS.get(cert["kind"], ()):
        keys |= {path[: i + 1] for i, key in enumerate(path) if isinstance(key, str)}
        value = _at(cert, path)
        while isinstance(value, list) and value and isinstance(value[0], list):
            path, value = (*path, 0), value[0]
        if isinstance(value, list) and value:
            vectors.add(path)

    def delete(path):
        def edit(c):
            del _at(c, path[:-1])[path[-1]]
            return c

        return edit

    def replace(path, value):
        def edit(c):
            _at(c, path[:-1])[path[-1]] = value(_at(c, path))
            return c

        return edit

    for path in keys:
        edits["delete-" + "/".join(map(str, path))] = delete(path)
    for path in vectors:
        name = "/".join(map(str, path))
        edits["short-" + name] = replace(path, lambda v: v[:-1])
        edits["nonnumeric-" + name] = replace(path, lambda v: ["x", *v[1:]])
    return edits


def _golden_edits():
    out = []
    for path in sorted(GOLDEN.glob("*.json")):
        for i, row in enumerate(json.loads(path.read_text())["rows"]):
            edits = _certificate_edits(row["certificate"])
            out += [pytest.param(path.stem, i, e, id=f"{path.stem}-{i}-{e}") for e in edits]
    return out


@pytest.fixture(scope="module")
def goldens():
    return {p.stem: _golden(p.stem) for p in GOLDEN.glob("*.json")}


@pytest.mark.parametrize("name, idx, edit", _golden_edits())
def test_certificate_edit_is_one_error_line(goldens, name, idx, edit):
    """One edit of one golden row's certificate: a list in place of the
    certificate or of its sequence, a deleted key that its check reads, a
    vector cut short or a non-numeric entry.  ``verify_report`` reports the
    row and does not raise."""
    pr, report = goldens[name]
    row = copy.deepcopy(report["rows"][idx])
    row["certificate"] = _certificate_edits(row["certificate"])[edit](row["certificate"])
    errors = verify_report({"rows": [row]}, pr)
    assert len(errors) == 1 and errors[0].startswith(f"row 0 ({row['check']}/{row['point']}/{row['direction']}): ")


@pytest.fixture(scope="module")
def multiplier_problems():
    """Problems whose M-stationarity row is HOLDS with a multiplier: ex58
    with objective x0 (lambda = (-1, 0), piece 1 of 2); its g over the
    quadrant D = [0, oo)^2 (one piece, lambda_1 <= 0 free); the comb with
    objective -x0 (a graph multiplier lambda = 0, piece 0 of 1 of the
    certified bound)."""
    quadrant = {"dim": 2, "pieces": [{"a": [[-1, 0], [0, -1]], "b": [0, 0]}]}
    comb = json.loads(Path(str(resources.files("dircq") / "fixtures" / "comb.json")).read_text())
    return {
        "ex58": parse_problem(EX58),
        "quadrant": parse_problem({**EX58, "constraint": {**EX58["constraint"], "D": quadrant}}),
        "comb": parse_problem({**comb, "objective": "-x0"}),
    }


@pytest.mark.parametrize(
    "name, edit, error",
    [
        ("ex58", {}, None),
        ("ex58", {"piece": 5}, "multiplier piece 5 is not one of the 2 pieces"),
        ("ex58", {"piece": "x"}, "multiplier piece 'x' is not one of the 2 pieces"),
        ("ex58", {"piece": 0}, "multiplier does not solve the system of piece 0"),
        ("ex58", {"lam": ["-1", "1"]}, "multiplier does not solve the system of piece 1"),
        ("quadrant", {}, None),
        ("quadrant", {"lam": ["-1", "1"]}, "multiplier does not solve the system of piece 0"),
        ("comb", {}, None),
        ("comb", {"piece": 7}, "multiplier piece 7 is not one of the 1 pieces"),
        ("comb", {"piece": "x"}, "multiplier piece 'x' is not one of the 1 pieces"),
        ("comb", {"lam": ["1"]}, "multiplier does not solve the system of piece 0"),
        ("comb", {"lam": []}, "multiplier cannot be read: lambda has length 0, not 1"),
        ("ex58", {"lam": ["-1"]}, "multiplier cannot be read: lambda has length 1, not 2"),
        ("comb", {"bound": "upper"}, "graph multiplier names the bound 'upper', not the certified one"),
    ],
)
def test_multiplier_is_checked_against_its_piece(multiplier_problems, name, edit, error):
    """A multiplier solves the system of the piece it names: over
    N_D(g(xbar)) for a constraint problem, over the certified graph-normal
    bound for a patch map."""
    pr = multiplier_problems[name]
    row = json.loads(dumps({"rows": [verdict_row(run_check(pr, "mstationarity"), "xbar")]}))["rows"][0]
    kind = "multiplier_graph" if name == "comb" else "multiplier"
    assert row["status"] == "HOLDS" and row["certificate"]["kind"] == kind
    row["certificate"].update(edit)
    expected = [] if error is None else [f"row 0 (mstationarity/xbar/None): {error}"]
    assert verify_report({"rows": [row]}, pr) == expected


@pytest.mark.parametrize(
    "report, error",
    [
        ({"rows": [5]}, "row 0: row is not an object"),
        ({"rows": None}, "report is not an object with a list of rows"),
        ({"problem": "ex58"}, "report is not an object with a list of rows"),
        ([{"rows": []}], "report is not an object with a list of rows"),
    ],
    ids=["row-int", "rows-null", "no-rows", "report-list"],
)
def test_malformed_report_is_one_error_line(report, error):
    assert verify_report(report, parse_problem(EX58)) == [error]


def test_kernel_witness_curvature_sign_is_checked():
    """ex58 with D the line R x {0}: N_D = {0} x R everywhere, so y* = (0, s)
    passes the adjoint and cone checks for every s, and at u = -1 the
    curvature h = (0, -2) leaves the kernel y* = (0, s), s <= 0.  No golden
    row reaches this check: on ex58 and ex58^2 every cone element and every
    h is nonpositive entrywise."""
    line = {"dim": 2, "pieces": [{"e": [[0, 1]], "d": [0]}]}
    pr = parse_problem({**EX58, "constraint": {**EX58["constraint"], "D": line}})
    row = json.loads(dumps({"rows": [verdict_row(run_check(pr, "soscms", direction="minus"), "xbar", "minus")]}))["rows"][0]
    assert (row["status"], row["certificate"]["ystar"]) == ("FAILS", ["0", "-1"])
    assert verify_report({"rows": [row]}, pr) == []
    row["certificate"]["ystar"] = ["0", "1"]
    assert verify_report({"rows": [row]}, pr) == [
        "row 0 (soscms/xbar/minus): kernel witness violates the curvature sign"
    ]


def record(row, k: int = 4) -> dict:
    """The witness record k of a normality golden row (records start at k = 1)."""
    return row["certificate"]["sequence"]["records"][k - 1]


@pytest.mark.parametrize(
    "name, idx, edit, error",
    [
        # z_4 = (-1, -1) lies in neither half-plane of D
        ("ex58-normality", 0, lambda row: record(row).update(y=["-1", "-1"]), "witness point left the set at k=4"),
        # z_4 = (1, 1) is interior to D, where the regular normal cone is {0}
        ("ex58-normality", 0, lambda row: record(row).update(y=["1", "1"]), "multiplier not normal at k=4"),
        # x_4 = 0: g(x_4) - z_4 = (1/16, 0) is orthogonal to lambda = (0, -1)
        ("ex58-normality", 1, lambda row: record(row).update(x=["0"]), "sign condition fails at k=4"),
        ("ex58-normality", 1, lambda row: row["certificate"]["sequence"].update(records=[]), "empty witness sequence"),
        # J^T y* = 1 for J = (1, 0)^T
        ("ex58", 0, lambda row: row["certificate"].update(ystar=["1", "0"]), "kernel witness fails the adjoint condition"),
        # the directional cone at u = -1 is {0} x (-oo, 0]
        ("ex58", 3, lambda row: row["certificate"].update(ystar=["0", "1"]), "kernel witness lies outside the recomputed cone"),
        # N_D(g(0)) has two pieces, and y* = (0, -1) lies in the first only
        (
            "ex58",
            0,
            lambda row: row["certificate"].update(piece=1),
            "kernel witness piece 1 is not a piece of the recomputed cone that holds y*",
        ),
        (
            "ex58",
            0,
            lambda row: row["certificate"].update(piece=True),
            "kernel witness piece True is not a piece of the recomputed cone that holds y*",
        ),
        # h = g''(0)[u, u] = (0, -2) at u = -1
        (
            "ex58",
            3,
            lambda row: row["certificate"].update(curvature=["0", "-1"]),
            "kernel witness curvature differs from the recomputed h",
        ),
        ("ex58", 1, lambda row: row["certificate"].update(target=["-1"]), "Farkas target is not minus the objective gradient"),
        ("ex58", 1, lambda row: row["certificate"]["pieces"][0].update(farkas_ineq=["x"]), "Farkas chain cannot be read: "),
        ("ex58", 0, lambda row: row.update(certificate=["x"]), "certificate is not an object"),
        ("ex58", 0, lambda row: row["certificate"].update(kind="bogus"), "no check for a FAILS certificate of kind 'bogus'"),
        ("ex58", 0, lambda row: row.update(certificate=None), "FAILS without a certificate"),
        ("ex58", 2, lambda row: row.update(direction="sideways"), "recomputation failed: unknown direction 'sideways'"),
        (
            "staircase",
            0,
            lambda row: row["certificate"]["result"]["samples"][0].update(k="x"),
            "normal sample cannot be read: ",
        ),
    ],
    ids=[
        "point-off-D",
        "not-normal",
        "sign",
        "empty",
        "adjoint",
        "cone",
        "kernel-piece",
        "kernel-piece-bool",
        "curvature",
        "farkas-target",
        "farkas-unreadable",
        "certificate-list",
        "unknown-kind",
        "no-certificate",
        "recomputation",
        "sample-unreadable",
    ],
)
def test_edited_golden_row_gives_its_message(goldens, name, idx, edit, error):
    """One value of a golden row, edited just enough that one check says no."""
    pr, report = goldens[name]
    row = copy.deepcopy(report["rows"][idx])
    edit(row)
    errors = verify_report({"rows": [row]}, pr)
    head = f"row 0 ({row['check']}/{row['point']}/{row['direction']}): {error}"
    # the line of an undecodable certificate ends with the exception's text
    assert errors == [head] or (error.endswith(": ") and len(errors) == 1 and errors[0].startswith(head))


def test_certificate_for_another_kind_of_problem_is_reported(goldens):
    from dircq import report

    ex58, ex58_report = goldens["ex58"]
    comb, _ = goldens["comb"]
    sample = goldens["staircase"][1]["rows"][0]
    assert verify_report({"rows": [sample]}, ex58) == [
        "row 0 (directional-normal-sample/base/diag): normal samples need a graphset problem, not 'constraint'"
    ]
    kernel = ex58_report["rows"][0]
    assert report._check_certificate(comb, kernel, kernel["certificate"]) == (
        "a kernel witness needs a constraint or graphset problem, not 'patch'"
    )
