import importlib
import pkgutil

import pytest

import robust_t

MODULES = ["robust_t"] + [f"robust_t.{info.name}" for info in pkgutil.iter_modules(robust_t.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", [])
    assert len(exports) == len(set(exports))
    assert [export for export in exports if not hasattr(module, export)] == []
