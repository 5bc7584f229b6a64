"""The package's public surface stays consistent with its declarations."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import intsplits


def test_exported_names_resolve_and_are_declared():
    for info in pkgutil.iter_modules(intsplits.__path__):
        module = importlib.import_module(f"intsplits.{info.name}")
        unresolved = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not unresolved, f"intsplits.{info.name}.__all__ lists missing {unresolved}"

    package = ast.parse(Path(intsplits.__file__).read_text())
    imports = [node for node in package.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"intsplits.{node.module}")
        undeclared = [
            alias.name
            for alias in node.names
            if not alias.name.startswith("_") and alias.name not in module.__all__
        ]
        assert not undeclared, f"intsplits imports {undeclared} missing from {node.module}.__all__"
