"""One hypothesis profile for the suite: derandomized, no example database
and no deadline, so every run draws the same examples and tier-1 stays
deterministic.  Each property test sets only its own max_examples.

The ``reference`` fixture is perfbench/reference.py, the benchmark's
W, S and Q computed without any of the package's engines."""

import importlib.util
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")

_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"


@pytest.fixture(scope="session")
def reference():
    spec = importlib.util.spec_from_file_location("perfbench_reference", _REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
