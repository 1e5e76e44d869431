"""The package's import layering, read from the source with ast.

Every import sits at module level, and the imports between the package's
modules form no cycle: config, schedule and trace sit below engine, and
the report (metrics) reads traces without reaching back into the engine,
while the trace's block reader sits below the report that calls it.
"""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gradsync"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
BELOW_ENGINE = ("config", "schedule", "trace", "metrics")


def imported_modules(tree: ast.Module) -> set[str]:
    """The package's modules that tree imports, at any depth of it."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import name
                found.update(alias.name for alias in node.names if alias.name in MODULES)
            else:
                found.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gradsync."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("gradsync.")
            )
    return found


GRAPH = {name: imported_modules(tree) for name, tree in MODULES.items()}


def reachable(name: str) -> set[str]:
    """Every module that importing name imports, directly or not."""
    seen, todo = set(), [name]
    while todo:
        for other in GRAPH[todo.pop()] - seen:
            seen.add(other)
            todo.append(other)
    return seen


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_import_inside_a_function(name):
    local = [
        (func.name, node.lineno)
        for func in ast.walk(MODULES[name])
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert local == [], f"{name}.py imports inside functions: {local}"


def test_imports_between_modules_are_acyclic():
    try:
        tuple(TopologicalSorter(GRAPH).static_order())
    except CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


@pytest.mark.parametrize("name", BELOW_ENGINE)
def test_lower_layers_reach_neither_engine_nor_cli(name):
    assert not reachable(name) & {"engine", "cli"}, sorted(reachable(name))


def test_the_engine_does_not_import_the_report():
    assert "metrics" not in reachable("engine")


@pytest.mark.parametrize("name", ("config", "schedule", "trace"))
def test_lower_layers_do_not_reach_the_report(name):
    assert "metrics" not in reachable(name), sorted(reachable(name))
