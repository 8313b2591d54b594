"""Every top-level package imports first, in a fresh interpreter.

Import cycles only show when a cycle member is the first module loaded:
the test suite imports everything long before, so each package is
imported here in one subprocess that forgets every ``repro`` module
before the next name.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = r"""
import importlib, pkgutil, sys
import repro
names = sorted("repro." + info.name
               for info in pkgutil.iter_modules(repro.__path__)
               if info.name != "__main__")
names += ["repro.workloads." + info.name for info in pkgutil.iter_modules(
    [repro.__path__[0] + "/workloads"])]
for name in names:
    for module in [m for m in sys.modules
                   if m == "repro" or m.startswith("repro.")]:
        del sys.modules[module]
    try:
        importlib.import_module(name)
    except Exception as error:
        print(f"{name}: {error!r}")
print(f"imported {len(names)}")
"""


def test_each_package_imports_first():
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120, check=True)
    lines = result.stdout.splitlines()
    assert lines[:-1] == []
    assert int(lines[-1].split()[1]) >= 17 + 7
