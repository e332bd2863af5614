"""The README's Library tour runs as written, so it cannot name an API that is gone,
and the docs list the subcommands that the command line declares."""

import re
from pathlib import Path

import pytest

from nbstates import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    text = README.read_text(encoding="utf-8")
    (tour,) = re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    namespace = {}
    exec(tour, namespace)
    # the values its comments give; the closed form is 2 ulp from -11/16
    assert eval("mandel_q(0.8, 3)", namespace) == pytest.approx(-0.6875, rel=1e-15, abs=0)
    assert namespace["plus"].n_max == 1


def test_docs_list_every_subcommand():
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"^## Command line\n.*?^```\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    in_readme = {line.split()[1] for line in block.splitlines()}
    listed = cli.__doc__.split("Subcommands\n", 1)[1].split("\n\n", 1)[0]
    in_docstring = {line.split()[0] for line in listed.splitlines()}
    assert in_readme == in_docstring == set(cli._COMMANDS)
