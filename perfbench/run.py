"""Benchmark of dircq: cold ladder, warm sweep and sequence-oracle workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, from passes that alternate with untraced passes, and the
spans are written to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import traceback
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODULES = ("simplex", "linalg", "polyhedra", "polymaps", "unions", "setmaps", "cq", "oracle", "problemfile", "report")
SETUP_REPEATS = 5
MIN_PASSES = 3
MAX_PASSES = 16


class Runner:
    def __init__(self, workload, lp_counter):
        self.w = workload
        self.lp = lp_counter
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reported = 0

    def _report(self, label: str, msg: str) -> None:
        if self.reported < 20:
            print(f"{self.w.name}: {label}: {msg}", file=sys.stderr)
        self.reported += 1

    def measure(self, ops) -> tuple[float, list[float], int, dict, dict]:
        """Time one pass of operations and serialize each problem's report."""
        report = self.w.m["report"]
        rows: dict[str, dict] = {}
        groups: dict[str, list[str]] = {}
        times = []
        errors: dict[str, str] = {}
        lp0 = self.lp.calls
        t0 = perf_counter()
        for op in ops:
            t = perf_counter()
            try:
                rows[op.label] = op.call()
            except Exception as exc:  # a failing operation is counted, not fatal
                errors[op.label] = "raised " + "".join(traceback.format_exception_only(exc)).strip()
                continue
            times.append(perf_counter() - t)
            groups.setdefault(op.group, []).append(op.label)
        texts = {g: report.dumps({"problem": g, "rows": [rows[l] for l in labels]}) for g, labels in groups.items()}
        pass_s = perf_counter() - t0
        parsed = {}
        for g, labels in groups.items():
            parsed.update(zip(labels, json.loads(texts[g])["rows"]))
        return pass_s, times, self.lp.calls - lp0, parsed, errors

    def check(self, ops, parsed: dict, errors: dict, count: bool = True) -> None:
        """Check a measured pass from its serialized rows."""
        for op in ops:
            if op.label in errors:
                continue
            try:
                err = op.check(parsed[op.label]) or self.w.consistent(op, parsed[op.label])
            except Exception as exc:
                err = "check raised " + "".join(traceback.format_exception_only(exc)).strip()
            if err:
                errors[op.label] = err
                self.correct = False
        for label, err in self.w.cross_checks(parsed):
            if label not in errors:
                errors[label] = err
                self.correct = False
        for label, err in errors.items():
            self._report(label, err)
        if count:
            self.attempted += len(ops)
            self.failed += len(errors)


def import_dircq() -> dict:
    """Import the dircq modules afresh, dropping any earlier import."""
    for name in [n for n in sys.modules if n.split(".")[0] == "dircq"]:
        del sys.modules[name]
    return {name: importlib.import_module(f"dircq.{name}") for name in MODULES}


def per_pass_quantile(pass_op_times: list[list[float]], q: float) -> float:
    """Median over passes of the q-quantile of one pass's operation times.

    Every pass runs the same operations, so a pass's quantile always falls
    on the same operations; pooling the passes instead would put the 90th
    percentile on the edge between two operation kinds whenever a tenth of
    the operations lie above it.
    """
    return median(quantiles(times, n=100, method="inclusive")[round(q * 100) - 1] for times in pass_op_times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "dircq" / "__init__.py").is_file():
        print(f"error: no dircq package under {src}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))

    from perfbench import tracing
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    # set-up: dircq's one third-party import once, then the median of repeated
    # fresh imports of dircq (compiled from source) with input generation and parsing
    t = perf_counter()
    importlib.import_module("numpy")
    numpy_s = perf_counter() - t
    setups = []
    for _ in range(SETUP_REPEATS):
        t = perf_counter()
        dircq = import_dircq()
        workload = WORKLOADS[args.workload](dircq, args.seed, MAX_PASSES)
        workload.prepare()
        setups.append(perf_counter() - t)
    setup_s = numpy_s + median(setups)
    lp_counter = tracing.LPCounter(dircq["simplex"])
    runner = Runner(workload, lp_counter)

    tracer = None
    parse_summary = {}
    if args.trace:
        tracer = tracing.Tracer(dircq)
        tracer.install()
        lo = len(tracer.spans)
        workload.prepare()
        parse_summary = tracer.summarize(lo, len(tracer.spans))
        tracer.uninstall()

    warm_ops = workload.warm()
    if warm_ops is not None:
        pass_s, _, _, parsed, errors = runner.measure(warm_ops)
        runner.check(warm_ops, parsed, errors, count=False)
        setup_s += pass_s

    # whole passes until the time is up, with enough passes and timed operations
    pass_times, op_times, lp_counts = [], [], []
    traced_times, untraced_times, traced_summaries, traced_lps = [], [], [], []
    min_passes, min_ops = (5, 0) if args.trace else (MIN_PASSES, workload.min_ops)
    start = perf_counter()
    i = 0
    while True:
        traced = bool(args.trace) and i % 2 == 1
        ops = workload.pass_ops(i)
        if traced:
            tracer.install()
            lo = len(tracer.spans)
        pass_s, times, lps, parsed, errors = runner.measure(ops)
        if traced:
            hi = len(tracer.spans)
            tracer.uninstall()
        runner.check(ops, parsed, errors)
        if traced:
            traced_summaries.append(tracer.summarize(lo, hi))
            traced_times.append(pass_s)
            traced_lps.append(lps)
        elif i > 0:
            untraced_times.append(pass_s)
        if not traced:
            pass_times.append(pass_s)
            op_times.append(times)
            lp_counts.append(lps)
        i += 1
        if i >= MAX_PASSES:
            break
        if perf_counter() - start >= args.seconds and i >= min_passes and sum(map(len, op_times)) >= min_ops:
            break

    if args.trace:
        names = tracing.per_layer_names()
        values = tracing.per_pass_medians(traced_summaries, names)
        for name in ("problemfile.parse_problem.calls", "problemfile.parse_problem.self_s"):
            values[name] = parse_summary.get(name, 0)
        values["trace.overhead_s"] = median(traced_times) - median(untraced_times)
        untraced_lps = median(lp_counts[1:])
        if values["simplex.solve_lp.calls"] != untraced_lps or median(traced_lps) != untraced_lps:
            print(
                f"{workload.name}: traced solve_lp calls {values['simplex.solve_lp.calls']} "
                f"!= untraced lp_solves {untraced_lps}",
                file=sys.stderr,
            )
            runner.correct = False
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{workload.name}-seed{args.seed}.json")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    else:
        p50 = per_pass_quantile(op_times, 0.5)
        p90 = per_pass_quantile(op_times, 0.9)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pass_s": {"value": median(pass_times), "unit": "s"},
            "check_p50_ms": {"value": p50 * 1000, "unit": "ms"},
            "check_p90_ms": {"value": p90 * 1000, "unit": "ms"},
            "lp_solves": {"value": median(lp_counts), "unit": "count"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    print(
        f"{workload.name}: seed {args.seed}, {i} passes, {sum(map(len, op_times))} timed operations, "
        f"lp_solves per pass {lp_counts}, pass_s {[round(t, 3) for t in pass_times]}",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
