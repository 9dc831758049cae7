"""The cone caches are bounded, and clearing them does not change a report."""

import importlib
import itertools
import pkgutil

import dircq
from dircq import cq, polyhedra, unions
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


def counted(monkeypatch, calls: dict, module, name: str, alias=None) -> None:
    """Count the calls of ``module.name`` under ``calls[name]``; ``alias`` is
    a module that imported the function by name and calls it from there."""
    fn = getattr(module, name)
    calls[name] = 0

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    for mod in (module, alias) if alias else (module,):
        monkeypatch.setattr(mod, name, wrapper)


def test_second_pass_asks_no_new_inclusion(monkeypatch):
    """After one pass of the three theorem checkers over ex58^2 in all eight
    directions, a second pass finds every cone-union inclusion in the cache
    and every cell system, source image, tangent piece and meet decision in
    the contexts' memos: no ``subdivide_and_check`` call, so none of its LPs,
    no image cone, tangent cone or cell-system row tuple is built again, and
    no cell's witness is read again by ``_meets``."""
    sys = ex58_squared()
    directions = [vec(u) for u in itertools.product((-1, 0, 1), repeat=2) if any(u)]
    calls: dict = {}
    counted(monkeypatch, calls, unions, "subdivide_and_check")
    counted(monkeypatch, calls, polyhedra, "image_cone", alias=cq)
    counted(monkeypatch, calls, unions, "tangent_of_cone_at")
    counted(monkeypatch, calls, cq, "_system")
    counted(monkeypatch, calls, cq, "_meets")
    clear_caches()
    passes = []
    for _ in range(2):
        calls.update(dict.fromkeys(calls, 0))
        rows = [dumps(verdict_row(f(sys, u))) for f in THEOREMS for u in directions]
        passes.append((dict(calls), rows))
    assert all(passes[0][0].values()), passes[0][0]
    assert not any(passes[1][0].values()), passes[1][0]
    assert passes[0][1] == passes[1][1]


def test_explicit_targets_leave_the_memo_unchanged(monkeypatch):
    """A system with a nonzero target x* is built on every call and never
    kept: after one call of each theorem checker, 50 distinct targets leave
    the context's memo as it was."""
    sys, u = ex58_squared(), vec([-1, -1])
    for check in THEOREMS:
        check(sys, u, targets=[vec([1, 1])])
    memo = cq._context(sys, u).memo
    size = len(memo)
    calls: dict = {}
    counted(monkeypatch, calls, cq, "_system")
    statuses = set()
    for k in range(50):
        for check in THEOREMS:
            verdict = check(sys, u, targets=[vec([k + 2, 1 - k])])
            witness = verdict.condition("lambda-representation").witness
            statuses.update(t["status"] for t in witness.get("targets", ()))
    assert cq._context(sys, u).memo is memo and len(memo) == size
    # the targets were tested, each against systems built anew
    assert calls["_system"] > 0 and statuses
