"""The package's public surface stays consistent with its declarations."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path
from typing import Iterator

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


# The package's public names.  Removing one is a deliberate change of the
# API, made by editing this list and recorded in CHANGES.md.  Names marked
# "perfbench" are ones that perfbench/ calls or wraps, and they stay
# while it does, whether or not the library calls them.
PUBLIC_NAMES = {
    # errors
    "AmbiguousImplicitError", "BlockMismatchError", "BudgetExceededError",
    "DimacsModeViolationError", "DuplicateResultError", "EmptyPlanError", "FormulaError",
    "IntsplitsError", "InvalidAnnotationError", "MalformedHeaderError", "MergeError",
    "MissingResultError", "ParseError", "PatternWidthMismatchError", "UnknownVariableError",
    "UnparsableRowError",
    # formula
    "AnnotatedQuantifier",  # perfbench
    "AnnotationCursor", "BitVectorVar", "Constraint",
    "Formula",  # perfbench
    "Greater", "InSet", "Less", "Matrix", "QuantifierBlock", "QuantifierKind", "Top",
    "accounted_values",  # perfbench
    "bits_of", "integer_value", "literals_of",
    # qdimacs
    "SourceDocument",
    "parse", "parse_file", "write",  # perfbench
    # splitter
    "Manifest", "SplitMode", "SplitPlan",
    "count_subproblems",  # perfbench
    "count_without_intsplits",
    "emit_subproblem", "enumerate_accounted", "expanded_copy", "plan", "read_manifest",  # perfbench
    "sorted_annotations",
    "split_formula",  # perfbench
    "subproblem_name",
    "verify_manifest", "write_manifest",  # perfbench
    # merger
    "MergeReport", "ResultCode", "ResultTable", "ResultTuple", "format_flat_report",
    "ingest", "merge",  # perfbench
    "parse_result_token", "reduce_level",
    "render_certificate", "speedup_report",  # perfbench
    # evaluator
    "CorrectnessVerdict", "EvalBudget",
    "check_correctness", "evaluate",  # perfbench
    "evaluate_with_intsplits",
}


def test_the_public_names_are_the_listed_ones():
    public = {
        name
        for name, value in vars(intsplits).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert sorted(public - PUBLIC_NAMES) == [], "new public names: add them to PUBLIC_NAMES"
    assert sorted(PUBLIC_NAMES - public) == [], "removed public names: take them out of PUBLIC_NAMES"


# Names taken out of the package.  None may linger as a word in its code or
# in README.md, where a leftover would describe code that no longer exists.
REMOVED_NAMES = {"subproblem_index", "ExpansionIndex", "subproblem_files", "_DEADLINE_CHECK_INTERVAL"}


def test_removed_names_appear_nowhere_in_the_code_or_the_readme():
    package = Path(intsplits.__file__).parent
    readme = package.parents[1] / "README.md"
    assert readme.is_file()
    word = re.compile(r"\b(?:%s)\b" % "|".join(sorted(REMOVED_NAMES)))
    found = [
        f"{path.name}:{line_no}: {match[0]}"
        for path in [*sorted(package.glob("*.py")), readme]
        for line_no, line in enumerate(path.read_text().splitlines(), start=1)
        for match in word.finditer(line)
    ]
    assert not found, f"removed names still named: {found}"


def test_modules_import_only_the_standard_library_and_intsplits():
    # ast.walk reaches imports inside functions too, such as the worker's ctypes.
    package = Path(intsplits.__file__).parent
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign = [
                name
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names | {"intsplits"}
            ]
            assert not foreign, f"{path.name}:{node.lineno} imports {foreign}"


def test_modules_use_every_name_they_import():
    # __init__.py imports to re-export; every other module imports what it uses.
    package = Path(intsplits.__file__).parent
    for path in sorted(package.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            alias.asname or alias.name.split(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
        assert not unused, f"{path.name} imports {unused} but does not use them"


def _definitions(tree: ast.Module) -> Iterator[str]:
    """Names of the module-level functions, classes and assignments, and of
    the methods."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (method.name for method in node.body if isinstance(method, functions))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))


def test_private_names_are_referenced():
    # Nothing outside the package reaches a private name, so one that no
    # code of the package reads, calls or imports is dead.
    package = Path(intsplits.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    private = [
        (module, name)
        for module, tree in trees.items()
        for name in _definitions(tree)
        if name.startswith("_") and not name.startswith("__")
    ]
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    assert len(private) > 50
    unreferenced = [f"{module}: {name}" for module, name in private if name not in referenced]
    assert not unreferenced, f"private names that nothing refers to: {unreferenced}"
