"""Every name a library module imports is used in that module, and every parameter of its functions is read."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "multinorm"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_unused_imports_are_caught():
    assert unused_imports("import os\nfrom a import b, c as d\nos.sep\nd()\n") == ["b (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def unread_parameters(source: str) -> list[str]:
    """Parameters of module-level functions that the function body never reads.

    The CLI's cmd_* handlers share one dispatch signature and are exempt.
    """
    tree = ast.parse(source)
    unread = []
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("cmd_"):
            continue
        a = fn.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p is not None]
        read = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{fn.name}.{p}" for p in params if p not in read]
    return unread


def test_unread_parameters_are_caught():
    src = "def f(a, b, *args, c=1, **kw):\n    b = 2\n    return a + c + len(args)\n\ndef cmd_x(args):\n    pass\n"
    assert unread_parameters(src) == ["f.b", "f.kw"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_function_parameters_are_read(path):
    assert unread_parameters(path.read_text()) == []
