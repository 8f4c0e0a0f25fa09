"""Static checks over the package source."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "eegalign"
# __init__.py imports names to re-export them, not to use them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import statement that the module never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def public_definitions(tree: ast.Module) -> list[str]:
    """Top-level functions, classes and constants whose names do not start with an underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [name for name in names if not name.startswith("_")]


def referenced_names(tree: ast.Module) -> set[str]:
    """Names a module reads, imports, reaches as an attribute or spells as a string (for setattr)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def unreferenced_public_names(defining: dict[str, ast.Module], reading: list[ast.Module]) -> list[str]:
    """Public names of ``defining`` that no tree in ``reading`` names besides their definition."""
    named = set().union(*(referenced_names(tree) for tree in reading))
    return [f"{module}.{name}" for module, tree in sorted(defining.items())
            for name in public_definitions(tree) if name not in named]


def test_every_public_name_is_read_outside_the_tests():
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in
             sorted(SRC.glob("*.py")) + sorted((ROOT / "benchmarks").glob("**/*.py"))}
    defining = {p.stem: tree for p, tree in trees.items() if p.parent == SRC}
    assert unreferenced_public_names(defining, list(trees.values())) == []


def test_scan_flags_a_name_only_its_definition_spells():
    lib = ast.parse("LIMIT = 3\nSPARE = 4\n_PRIVATE = 5\ndef used(): return LIMIT\n"
                    "def patched(): pass\ndef dead(): pass\nclass Ghost: pass\n")
    caller = ast.parse("from lib import used\nused()\nsetattr(lib, 'patched', None)\n")
    assert unreferenced_public_names({"lib": lib}, [lib, caller]) == ["lib.SPARE", "lib.dead", "lib.Ghost"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_scan_flags_an_unused_name():
    tree = ast.parse("from __future__ import annotations\nimport os\nimport numpy as np\n"
                     "from json import dumps, loads\nnp.zeros(1)\nloads('1')\n")
    assert unused_imports(tree) == ["dumps (line 4)", "os (line 2)"]
