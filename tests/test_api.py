import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import robust_t

SRC = str(Path(robust_t.__file__).resolve().parents[1])

MODULES = ["robust_t"] + [
    f"robust_t.{info.name}" for info in pkgutil.iter_modules(robust_t.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", [])
    assert len(exports) == len(set(exports))
    assert [export for export in exports if not hasattr(module, export)] == []


def test_importing_the_package_loads_no_scipy():
    # scipy.special alone took about half of a paper-sized fit's start-up
    code = ("import sys, robust_t, robust_t.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC] + sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
