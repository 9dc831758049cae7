"""``dircq`` runs on the standard library alone."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

IMPORT_ALL = """
import importlib, pkgutil, sys
import dircq
names = [m.name for m in pkgutil.iter_modules(dircq.__path__)]
for name in names:
    importlib.import_module(f"dircq.{name}")
print(len(names), dircq.__file__, sorted(m for m in ("numpy", "scipy") if m in sys.modules))
"""


def test_importing_every_module_loads_no_numpy():
    # a fresh interpreter: the test process has numpy loaded for other tests
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", IMPORT_ALL], env=env, capture_output=True, text=True, check=True)
    count, path, loaded = out.stdout.split(maxsplit=2)
    assert int(count) >= 10 and Path(path).resolve().parent.parent == SRC
    assert loaded.strip() == "[]"
