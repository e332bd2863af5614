"""The README's Library tour runs as written, so it cannot name an API that is gone."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    text = README.read_text(encoding="utf-8")
    (tour,) = re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    namespace = {}
    exec(tour, namespace)
    # the values its comments give; the closed form is 2 ulp from -11/16
    assert eval("mandel_q(0.8, 3)", namespace) == pytest.approx(-0.6875, rel=1e-15)
    assert namespace["plus"].n_max == 1
