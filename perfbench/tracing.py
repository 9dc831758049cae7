"""LP counting and span tracing around ``dircq``'s public functions.

Both are installed from outside the package: every ``dircq`` module
attribute bound to a traced function object is replaced by a wrapper.
``cq``, ``polyhedra`` and ``oracle`` import ``solve_lp`` by name, so the
scan over all modules is what makes every call visible.  For the
``lru_cache``d functions the wrapper sits outside the cache, so a cache hit
is a short span and a miss shows its work.

Spans are kept in memory as [name, start, end, parent, info] and written
once, when the run ends.
"""

from __future__ import annotations

import json
import sys
from statistics import median
from time import perf_counter

TRACED = (
    ("simplex", "solve_lp"),
    ("linalg", "nullspace"),
    ("polyhedra", "generators"),
    ("unions", "arrangement"),
    ("unions", "subdivide_and_check"),
    ("setmaps", "patch_limiting_normals"),
    ("setmaps", "patch_regular_normal_cone"),
    ("oracle", "polyhedron_faces"),
    ("oracle", "search_normality_violation"),
    ("oracle", "search_mpec_normality"),
    ("oracle", "search_asym_reg_violation"),
    ("oracle", "sample_directional_normals"),
    ("problemfile", "parse_problem"),
    ("report", "verdict_row"),
    ("report", "dumps"),
)

DECIDERS = (
    "mordukhovich",
    "mstationarity",
    "foscms",
    "soscms",
    "check_thm_polyhedral_I",
    "check_thm_polyhedral_II",
    "check_thm_nonpolyhedral",
    "pseudo_quasi_verdict",
    "mpec_pseudo_quasi_verdict",
    "patch_mstationarity",
)

# layers whose own LPs are counted: an LP belongs to its nearest traced caller
LP_LAYERS = (
    "polyhedra.generators",
    "unions.arrangement",
    "unions.subdivide_and_check",
    "oracle.polyhedron_faces",
)

ORACLE_SEARCHES = (
    "search_normality_violation",
    "search_mpec_normality",
    "search_asym_reg_violation",
    "sample_directional_normals",
)


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) for every per-layer metric, in report order."""
    out = [
        ("simplex.solve_lp.calls", "count"),
        ("simplex.solve_lp.infeasible", "count"),
        ("simplex.solve_lp.self_s", "s"),
        ("simplex.solve_lp.size", "count"),
        ("linalg.nullspace.calls", "count"),
        ("linalg.nullspace.self_s", "s"),
        ("polyhedra.generators.calls", "count"),
        ("polyhedra.generators.self_s", "s"),
        ("polyhedra.generators.lps", "count"),
        ("unions.arrangement.calls", "count"),
        ("unions.arrangement.self_s", "s"),
        ("unions.arrangement.lps", "count"),
        ("unions.arrangement.cells", "count"),
        ("unions.arrangement.lps_per_cell", "ratio"),
        ("unions.subdivide_and_check.calls", "count"),
        ("unions.subdivide_and_check.self_s", "s"),
        ("unions.subdivide_and_check.lps", "count"),
        ("setmaps.patch_limiting_normals.calls", "count"),
        ("setmaps.patch_limiting_normals.self_s", "s"),
        ("setmaps.patch_regular_normal_cone.calls", "count"),
        ("setmaps.patch_regular_normal_cone.self_s", "s"),
        ("oracle.polyhedron_faces.calls", "count"),
        ("oracle.polyhedron_faces.lps", "count"),
        ("oracle.polyhedron_faces.self_s", "s"),
    ]
    out += [(f"oracle.{name}.total_s", "s") for name in ORACLE_SEARCHES]
    out.append(("oracle.self_s", "s"))
    for name in DECIDERS:
        out += [(f"cq.{name}.calls", "count"), (f"cq.{name}.total_s", "s")]
    out += [
        ("cq.self_s", "s"),
        ("problemfile.parse_problem.calls", "count"),
        ("problemfile.parse_problem.self_s", "s"),
        ("report.verdict_row.self_s", "s"),
        ("report.dumps.self_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    return out


def _dircq_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.startswith("dircq") and m is not None]


def _rebind(old, new) -> None:
    """Point every dircq module attribute bound to ``old`` at ``new``."""
    for mod in _dircq_modules():
        for attr, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, attr, new)


class LPCounter:
    """Counts calls to ``dircq.simplex.solve_lp`` through every binding."""

    def __init__(self, simplex):
        self.calls = 0
        original = simplex.solve_lp

        def solve_lp(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        _rebind(original, solve_lp)


def _lp_info(res, c=(), a=(), b=(), e=(), d=(), n=None):
    rows = len(a) + len(e)
    return (res.status == "infeasible", rows * (n if n is not None else len(c)))


class Tracer:
    """Span wrappers that can be switched on and off between passes."""

    def __init__(self, modules: dict):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.swaps = []  # (original object, wrapper)
        for mod_name, fn_name in TRACED:
            self.swaps.append(self._wrap(f"{mod_name}.{fn_name}", getattr(modules[mod_name], fn_name)))
        for fn_name in DECIDERS:
            self.swaps.append(self._wrap(f"cq.{fn_name}", getattr(modules["cq"], fn_name)))

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        cache_info = getattr(fn, "cache_info", None)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = [name, 0.0, 0.0, parent, None]
            spans.append(span)
            stack.append(idx)
            misses = cache_info().misses if cache_info else 0
            start = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                span[1] = start
                stack.pop()
            if name == "simplex.solve_lp":
                span[4] = _lp_info(res, *args, **kwargs)
            elif name == "unions.arrangement" and cache_info().misses > misses:
                span[4] = len(res.cells)
            return res

        return fn, wrapper

    def install(self):
        for fn, wrapper in self.swaps:
            _rebind(fn, wrapper)

    def uninstall(self):
        for fn, wrapper in self.swaps:
            _rebind(wrapper, fn)

    def summarize(self, lo: int, hi: int) -> dict:
        """Per-layer numbers of the spans recorded in [lo, hi)."""
        spans = self.spans
        child = {}
        for i in range(lo, hi):
            p = spans[i][3]
            if p >= lo:
                child[p] = child.get(p, 0.0) + spans[i][2] - spans[i][1]
        agg: dict[str, float] = {}

        def add(key, val):
            agg[key] = agg.get(key, 0) + val

        for i in range(lo, hi):
            name, start, end, parent, info = spans[i]
            dur = end - start
            self_s = dur - child.get(i, 0.0)
            add(f"{name}.calls", 1)
            add(f"{name}.total_s", dur)
            add(f"{name}.self_s", self_s)
            mod = name.split(".", 1)[0]
            if mod in ("cq", "oracle"):
                add(f"{mod}.self_s", self_s)
            if name == "simplex.solve_lp":
                add("simplex.solve_lp.infeasible", int(info[0]))
                add("simplex.solve_lp.size", info[1])
                if parent >= lo and spans[parent][0] in LP_LAYERS:
                    add(f"{spans[parent][0]}.lps", 1)
            elif name == "unions.arrangement" and info is not None:
                add("unions.arrangement.cells", info)
        cells = agg.get("unions.arrangement.cells", 0)
        agg["unions.arrangement.lps_per_cell"] = agg.get("unions.arrangement.lps", 0) / cells if cells else 0.0
        return agg

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "info"], "spans": self.spans}, fh)


def per_pass_medians(summaries: list[dict], names) -> dict:
    return {name: median(s.get(name, 0) for s in summaries) for name, _ in names}
