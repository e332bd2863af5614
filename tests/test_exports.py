"""Every name a module lists in ``__all__`` exists, so no export outlives its code,
every name a module imports is used there or exported, and the package
exports exactly what its library modules do."""

import ast
import importlib
import pkgutil
from collections import Counter
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


# the modules whose __all__ the package star-imports
LIBRARY = ["dynamics", "fock", "phasespace", "squeeze", "states", "stats", "su11"]


def _library_exports():
    return [n for m in LIBRARY for n in importlib.import_module(f"nbstates.{m}").__all__]


def test_library_exports_are_disjoint():
    # so no star import in the package shadows another module's name
    assert [n for n, k in Counter(_library_exports()).items() if k > 1] == []


def test_package_exports_the_union_of_the_library_exports():
    assert nbstates.__all__ == sorted(_library_exports())


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


_TREES = {p: ast.parse(p.read_text(encoding="utf-8"))
          for p in sorted(Path(nbstates.__file__).parent.glob("*.py"))}
_CLASSES = {node.name for tree in _TREES.values() for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)}


def _borrowed_attributes(tree):
    """Class-body assignments whose value is ``OtherClass.attr`` for a class of the package."""
    borrowed = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in cls.body:
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)) or stmt.value is None:
                continue
            values = stmt.value.elts if isinstance(stmt.value, ast.Tuple) else [stmt.value]
            borrowed += [f"{cls.name}: {ast.unparse(v)}" for v in values
                         if isinstance(v, ast.Attribute) and isinstance(v.value, ast.Name)
                         and v.value.id in _CLASSES]
    return borrowed


# a class that shares another's fields and methods inherits them, so its
# type says so; an attribute copied in its body hides that
@pytest.mark.parametrize("path", _TREES, ids=lambda p: p.stem)
def test_no_class_borrows_another_class_attribute(path):
    assert _borrowed_attributes(_TREES[path]) == []
