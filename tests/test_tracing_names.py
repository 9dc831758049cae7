"""Every dircq function the benchmark tracer binds by name exists and is callable.

The tracer in ``perfbench/tracing.py`` wraps ``dircq`` functions looked up by
(module, name); a rename or a move that drops one of those names would only
show when a traced benchmark run raises.  This test reads the names from the
tracer module itself.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracing = _tracing()
NAMES = sorted(
    set(tracing.TRACED)
    | {("cq", name) for name in tracing.DECIDERS}
    | {tuple(layer.split(".")) for layer in tracing.LP_LAYERS}
    | {("oracle", name) for name in tracing.ORACLE_SEARCHES}
)


@pytest.mark.parametrize("module, name", NAMES, ids=[f"{m}.{n}" for m, n in NAMES])
def test_traced_name_is_a_dircq_function(module, name):
    mod = importlib.import_module(f"dircq.{module}")
    assert callable(getattr(mod, name, None)), f"dircq.{module}.{name}"
