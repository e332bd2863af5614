"""The benchmark reads package names by name: its tracer wraps functions,
and its workloads call the library and name its errors.  Each must exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # as an import does: dataclasses look their module up while it runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _targets():
    return [(module, attr) for module, attr, *_ in _load("tracer").TARGETS]


@pytest.mark.parametrize("module,attr", _targets())
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_workloads_find_the_names_they_read(tmp_path, monkeypatch):
    # run.py puts perfbench/ first on sys.path, where workloads.py imports
    # reference.py; workloads.py reads nbstates.ConvergenceError on import
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    workloads = _load("workloads")
    built = {name: make(1, str(tmp_path)) for name, make in workloads.WORKLOADS.items()}
    missing = []
    for op in built["state-pointwise"].ops:
        result = op.run()
        if isinstance(result, tuple) and result[0] == "raised" \
                and isinstance(result[1], AttributeError):
            missing.append(f"{op.label}: {result[1]}")
    assert missing == []
