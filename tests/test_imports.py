"""The package's import graph: every import at module level, and no cycle.

An import inside a function hides a dependency from the module's header,
and is how a cycle between two modules usually gets worked around.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "derivmon"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def imported_modules(tree: ast.Module) -> set[str]:
    """The package's modules that ``tree`` imports, wherever it imports them."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else [alias.name for alias in node.names])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            found.update(n.split(".")[1] for n in names if n and n.startswith("derivmon."))
    return found & MODULES.keys()


def test_no_import_sits_inside_a_function_or_class():
    nested = []
    for name, tree in MODULES.items():
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                nested += [
                    f"{name}.{scope.name}"
                    for node in ast.walk(scope)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert nested == []


def test_the_package_imports_have_no_cycle():
    # Peel off the modules whose imports are all peeled; what is left over
    # is the modules on a cycle and those that import one of them.
    graph = {name: imported_modules(tree) for name, tree in MODULES.items()}
    assert {"automaton", "partial", "syntax"} <= graph.keys()  # the glob found the package
    peeled: set[str] = set()
    while ready := {name for name, targets in graph.items() if targets <= peeled} - peeled:
        peeled |= ready
    assert sorted(graph.keys() - peeled) == []
