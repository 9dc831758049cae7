"""The cone caches are bounded, and clearing them does not change a report."""

import importlib
import itertools
import pkgutil

import dircq
from dircq import unions
from dircq.cq import (
    check_thm_nonpolyhedral,
    check_thm_polyhedral_I,
    check_thm_polyhedral_II,
    foscms,
    mordukhovich,
    soscms,
)
from dircq.linalg import vec
from dircq.polyhedra import HPolyhedron
from dircq.polymaps import PolyMap
from dircq.report import dumps, verdict_row
from dircq.setmaps import ConstraintSystem
from dircq.unions import PolyUnion

THEOREMS = (check_thm_polyhedral_I, check_thm_polyhedral_II, check_thm_nonpolyhedral)


def cached_functions():
    """Every module-level lru_cache'd function of the dircq package."""
    found = {}
    for info in pkgutil.iter_modules(dircq.__path__):
        mod = importlib.import_module(f"dircq.{info.name}")
        for name, obj in vars(mod).items():
            if callable(getattr(obj, "cache_info", None)) and obj.__module__ == mod.__name__:
                found[f"{mod.__name__}.{name}"] = obj
    return found


def clear_caches():
    for fn in cached_functions().values():
        fn.cache_clear()


def ex58_squared():
    """Example 5.8 twice over: g = (x0, -x0^2, x1, -x1^2), D = product of two L-shapes."""
    g = PolyMap.parse(["x0", "-x0^2", "x1", "-x1^2"], 2)
    pieces = []
    for c0, c1 in itertools.product((0, 1), repeat=2):
        a = [[0] * 4, [0] * 4]
        a[0][c0] = -1
        a[1][2 + c1] = -1
        pieces.append(HPolyhedron.make(a=a, b=[0, 0]))
    return ConstraintSystem(g, PolyUnion.make(pieces), vec([0, 0]))


def ex58_squared_report() -> str:
    sys = ex58_squared()
    rows = [verdict_row(mordukhovich(sys))]
    for u in ((1, 1), (-1, -1), (1, -1), (0, -1)):
        name = f"({u[0]},{u[1]})"
        rows.append(verdict_row(foscms(sys, vec(u)), direction=name))
        rows.append(verdict_row(soscms(sys, vec(u)), direction=name))
    for check in THEOREMS:
        rows.append(verdict_row(check(sys, vec([-1, -1]), mode="asym"), direction="(-1,-1)"))
    return dumps({"problem": "ex58^2", "rows": rows})


def test_every_cache_is_bounded():
    caches = cached_functions()
    assert {"dircq.polyhedra.generators", "dircq.unions.arrangement"} <= set(caches)
    for name, fn in caches.items():
        assert fn.cache_info().maxsize is not None, name


def test_report_identical_after_cache_clear():
    clear_caches()
    cold = ex58_squared_report()
    warm = ex58_squared_report()
    clear_caches()
    assert ex58_squared_report() == cold == warm
    assert '"status": "FAILS"' in cold and '"status": "HOLDS"' in cold


def test_second_pass_asks_no_new_inclusion(monkeypatch):
    """After one pass of the three theorem checkers over ex58^2 in all eight
    directions, a second pass finds every cone-union inclusion in the cache:
    no ``subdivide_and_check`` call, so none of its LPs."""
    sys = ex58_squared()
    directions = [vec(u) for u in itertools.product((-1, 0, 1), repeat=2) if any(u)]
    calls = []
    subdivide = unions.subdivide_and_check
    monkeypatch.setattr(unions, "subdivide_and_check", lambda *args: calls.append(args) or subdivide(*args))
    clear_caches()
    passes = []
    for _ in range(2):
        calls.clear()
        rows = [dumps(verdict_row(f(sys, u))) for f in THEOREMS for u in directions]
        passes.append((len(calls), rows))
    assert passes[0][0] > 0 and passes[1][0] == 0
    assert passes[0][1] == passes[1][1]
