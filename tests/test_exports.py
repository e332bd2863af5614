"""Every name a module lists in ``__all__`` exists, so no export outlives its code."""

import importlib
import pkgutil

import pytest

import nbstates

# __main__ runs the command line on import
MODULES = ["nbstates"] + [
    f"nbstates.{info.name}"
    for info in pkgutil.iter_modules(nbstates.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
