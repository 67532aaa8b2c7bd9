"""Module boundaries of the package: no module reaches into another's private names, and every export resolves."""

import ast
import importlib
import importlib.util
import types
from pathlib import Path

# located without importing the package, so a broken re-export fails a test here, not the collection
PACKAGE_DIR = Path(importlib.util.find_spec("clfsec").origin).parent


def _private_imports(path: Path) -> list[str]:
    """``module.name`` for each ``_``-prefixed name the file imports from another package module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "clfsec":
            continue  # a third-party or standard-library import
        found.extend(f"{module}.{alias.name}" for alias in node.names if alias.name.startswith("_"))
    return found


def test_package_modules_import_no_private_names():
    offenders = {p.name: _private_imports(p) for p in sorted(PACKAGE_DIR.glob("*.py"))}
    assert {name: names for name, names in offenders.items() if names} == {}


def test_private_import_is_detected(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "from __future__ import annotations\n"
        "from .evaluation import _sweep_problems, roc\n"
        "from clfsec.rng import _tag_words\n"
        "from numpy import _globals\n",
        encoding="utf-8",
    )
    assert _private_imports(source) == ["evaluation._sweep_problems", "clfsec.rng._tag_words"]


def _unresolved(module: types.ModuleType) -> list[str]:
    """The names in ``module.__all__`` that the module does not define."""
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


def test_every_export_resolves():
    unresolved = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        name = "clfsec" if path.stem == "__init__" else f"clfsec.{path.stem}"
        module = importlib.import_module(name)  # raises ImportError on a package re-export that does not resolve
        unresolved[name] = _unresolved(module)
    assert {name: names for name, names in unresolved.items() if names} == {}


def test_stale_export_is_detected():
    module = types.ModuleType("mod")
    module.__all__ = ["kept", "deleted"]
    module.kept = object()
    assert _unresolved(module) == ["deleted"]
