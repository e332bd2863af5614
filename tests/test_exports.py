"""Every name a module lists in ``__all__`` exists, so no export outlives its code,
and every name a module imports is used there or exported."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def _unused_imports(path):
    """Names imported by the module at ``path`` that it neither uses nor exports."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - exported)


# parsed, not imported, so __main__ is checked too; __init__ only re-exports
@pytest.mark.parametrize(
    "path",
    sorted(p for p in Path(nbstates.__file__).parent.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.stem,
)
def test_every_import_is_used_or_exported(path):
    assert _unused_imports(path) == []
