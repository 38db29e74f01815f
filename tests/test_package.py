"""Package layout: every module's public names resolve."""

import importlib
import pkgutil

import pytest

import flowmap

# flowmap.__main__ runs the CLI when imported.
MODULES = sorted(m.name for m in pkgutil.iter_modules(flowmap.__path__, "flowmap.")
                 if m.name != "flowmap.__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
