"""Every name a module imports at module level is used in that module.

An AST scan in place of a linter (none is a dependency): for each module
under ``src/repro``, the names bound by its module-level ``import`` and
``from ... import`` statements must each be referenced somewhere in the
module — in code, or in a quoted annotation.  Package ``__init__``
modules (which import to re-export), names listed in ``__all__`` and
``from __future__`` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
MODULES = sorted(
    path for path in SRC.rglob("*.py") if path.name != "__init__.py"
)


def _imported(tree: ast.Module):
    """(name, line) for each name bound by a module-level import."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _exported(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def _referenced(tree: ast.Module) -> set:
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    for annotation in annotations:
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(
                    n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)
                )
    return names


def test_scan_covers_the_package():
    assert len(MODULES) > 50


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES]
)
def test_module_imports_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _referenced(tree) | _exported(tree)
    unused = [
        f"{name} (line {line})"
        for name, line in _imported(tree)
        if name not in used
    ]
    assert not unused, f"{path.relative_to(SRC)} imports unused {unused}"
