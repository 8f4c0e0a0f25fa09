"""Static checks over the package source."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "eegalign"
# __init__.py imports names to re-export them, not to use them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


# ROADMAP's ceiling for code.src_lines, the figure at its last re-anchor
MAX_SOURCE_LINES = 3491


def test_source_stays_within_the_line_budget():
    # counted as benchmarks/run.py::source_lines counts code.src_lines
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))
    assert lines <= MAX_SOURCE_LINES


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


def top_level_definitions(tree: ast.Module) -> list[str]:
    """Names of the top-level functions, classes and constants."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return names


def public_definitions(tree: ast.Module) -> list[str]:
    """Top-level functions, classes and constants whose names do not start with an underscore."""
    return [name for name in top_level_definitions(tree) if not name.startswith("_")]


def private_definitions(tree: ast.Module) -> list[str]:
    """Top-level names with one leading underscore; dunders such as ``__all__`` are the language's."""
    return [name for name in top_level_definitions(tree) if name.startswith("_") and not name.startswith("__")]


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


def unreferenced_names(defining: dict[str, ast.Module], reading: list[ast.Module], definitions) -> list[str]:
    """``definitions(tree)`` names of ``defining`` that no tree in ``reading`` names besides their definition."""
    named = set().union(*(referenced_names(tree) for tree in reading))
    return [f"{module}.{name}" for module, tree in sorted(defining.items())
            for name in definitions(tree) if name not in named]


def unreferenced_public_names(defining: dict[str, ast.Module], reading: list[ast.Module]) -> list[str]:
    return unreferenced_names(defining, reading, public_definitions)


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


def test_every_private_name_is_read_outside_the_tests():
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in
             sorted(SRC.glob("*.py")) + sorted((ROOT / "benchmarks").glob("**/*.py"))}
    defining = {p.stem: tree for p, tree in trees.items() if p.parent == SRC}
    assert unreferenced_names(defining, list(trees.values()), private_definitions) == []


def test_private_scan_flags_a_helper_only_the_tests_call():
    lib = ast.parse("_LIMIT = 3\n_SPARE = 4\n__all__ = []\nPUBLIC = 5\ndef _used(): return _LIMIT\n"
                    "def _dead(): pass\nclass _Ghost: pass\ndef run(): return _used()\n")
    tests = ast.parse("from lib import _dead, _Ghost\n_dead()\n")
    assert unreferenced_names({"lib": lib}, [lib], private_definitions) == ["lib._SPARE", "lib._dead", "lib._Ghost"]
    assert unreferenced_names({"lib": lib}, [lib, tests], private_definitions) == ["lib._SPARE"]


def split_affine_layers(tree: ast.Module) -> list[int]:
    """Lines where a ``matmul(...)`` call is the left operand of ``+``: ``linear`` in two tape nodes.

    A residual ``x + matmul(h, w)`` has ``matmul`` on the right and stays legal.
    """
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and isinstance(node.left, ast.Call) and isinstance(node.left.func, ast.Name)
            and node.left.func.id == "matmul"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_affine_layers_are_one_linear_node(path):
    assert split_affine_layers(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_affine_scan_flags_matmul_plus_bias():
    tree = ast.parse("y = matmul(x, w) + b\nr = x + matmul(h, w2) + b2\na = np.matmul(x, w) + b\n"
                     "q = matmul(x, w)\nz = l2_normalize(matmul(x, w) + b)\nd = matmul(x, w) - b\n")
    assert split_affine_layers(tree) == [1, 5]


def params_definitions(tree: ast.Module) -> list[str]:
    """Classes that define ``params``. Only ``tensor.Module`` may: each part's parameters are its attributes."""
    return [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            and any(isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name == "params"
                    for item in node.body)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_module_defines_params(path):
    allowed = ["Module"] if path.name == "tensor.py" else []
    assert params_definitions(ast.parse(path.read_text(encoding="utf-8"))) == allowed


def test_params_scan_flags_a_hand_written_list():
    tree = ast.parse("class Module:\n    def params(self): pass\nclass Head(Module):\n    def params(self): return []\n"
                     "class Gate:\n    def gate(self): pass\ndef params(): pass\n")
    assert params_definitions(tree) == ["Module", "Head"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_scan_flags_an_unused_name():
    tree = ast.parse("from __future__ import annotations\nimport os\nimport numpy as np\n"
                     "from json import dumps, loads\nnp.zeros(1)\nloads('1')\n")
    assert unused_imports(tree) == ["dumps (line 4)", "os (line 2)"]


# the tensor-record functions and the annotation readers that type-check JSON values
RECORD_FUNCTIONS = {"write_tensor", "read_tensor", "get_origin", "get_args"}


def record_function_names(tree: ast.Module) -> list[str]:
    """The record functions a module names. Only bundle.py may: the bundle format and the field check live there."""
    return sorted(RECORD_FUNCTIONS & referenced_names(tree))


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "bundle.py"),
                         ids=lambda p: p.name)
def test_only_bundle_names_the_record_functions(path):
    assert record_function_names(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_record_scan_flags_a_module_that_names_them():
    tree = ast.parse("from .tensor import read_tensor, read_tensors\nimport eegalign.tensor as t\n"
                     "t.write_tensor(fh, x)\nsave_bundle(d, {}, {})\n")
    assert record_function_names(tree) == ["read_tensor", "write_tensor"]
    assert record_function_names(ast.parse("getattr(tensor, 'write_tensor')\n")) == ["write_tensor"]
    assert record_function_names(ast.parse("import typing\nfrom typing import get_args\n"
                                           "typing.get_origin(hint)\n")) == ["get_args", "get_origin"]


# what the tape must not name: it touches no file, so neither the file modules nor the bundle format
FILE_NAMES = {"os", "json", "open", "bundle"}


def imported_and_named(tree: ast.Module) -> set[str]:
    """``referenced_names`` plus every dotted part of each module an import statement names."""
    out = referenced_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            out.update(node.module.split("."))
        elif isinstance(node, ast.Import):
            out.update(part for alias in node.names for part in alias.name.split("."))
    return out


def package_imports(tree: ast.Module) -> list[str]:
    """The package modules a module imports: ``from .m import x``, ``from . import m``, ``eegalign.m``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("eegalign")):
            module = (node.module or "").removeprefix("eegalign").strip(".")
            out.update([module] if module else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            out.update(alias.name.removeprefix("eegalign.") for alias in node.names
                       if alias.name.startswith("eegalign."))
    return sorted(out)


def test_tensor_names_no_file_code():
    assert sorted(FILE_NAMES & imported_and_named(ast.parse((SRC / "tensor.py").read_text(encoding="utf-8")))) == []


def test_bundle_imports_only_errors_from_the_package():
    # neither the tape nor any model module: the format knows arrays and JSON only
    assert package_imports(ast.parse((SRC / "bundle.py").read_text(encoding="utf-8"))) == ["errors"]


def test_layer_scans_flag_toy_sources():
    tape = ast.parse("import os.path\nfrom json import dumps\nfrom .bundle import write_tensor\n"
                     "import numpy as np\nwith open(p) as fh: pass\n")
    assert sorted(FILE_NAMES & imported_and_named(tape)) == ["bundle", "json", "open", "os"]
    assert sorted(FILE_NAMES & imported_and_named(ast.parse("import numpy as np\nnp.exp(x)\n"))) == []
    fmt = ast.parse("import numpy as np\nfrom .errors import FormatError\nfrom .tensor import Tensor\n"
                    "from . import model\nimport eegalign.losses\nfrom eegalign.trainer import fit\n")
    assert package_imports(fmt) == ["errors", "losses", "model", "tensor", "trainer"]


# the modules that build the model's parts and its loss; config.validate_config holds every config rule
PART_MODULES = ["eeg.py", "dynfilter.py", "fusion.py", "backbone.py", "losses.py"]


def names_config_error(tree: ast.Module) -> bool:
    """Whether a module names ``ConfigError``: imports it, raises it or reaches it as an attribute."""
    return "ConfigError" in referenced_names(tree)


@pytest.mark.parametrize("name", PART_MODULES)
def test_parts_trust_their_config(name):
    assert not names_config_error(ast.parse((SRC / name).read_text(encoding="utf-8")))


def test_config_error_scan_flags_a_part_that_checks_its_config():
    assert names_config_error(ast.parse("from .errors import ConfigError\nraise ConfigError('odd')\n"))
    assert names_config_error(ast.parse("from . import errors\nraise errors.ConfigError('odd')\n"))
    assert not names_config_error(ast.parse("from .errors import DomainError\nraise DomainError('even kernel')\n"))


# the modules that build the model; tensor.param makes every value their parameters start from
MODEL_MODULES = ["eeg.py", "dynfilter.py", "fusion.py", "backbone.py", "model.py"]
VALUE_MAKERS = {"Parameter", "normal", "default_rng"}


def value_maker_calls(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each call to ``Parameter``, a generator's ``normal`` or ``default_rng``, plain or as an attribute."""
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in VALUE_MAKERS:
                calls.append((node.lineno, name))
    return sorted(calls)


@pytest.mark.parametrize("name", MODEL_MODULES)
def test_only_param_makes_parameter_values(name):
    # the one generator is the default the model seeds when no checkpoint's lookup is given
    calls = [call for _, call in value_maker_calls(ast.parse((SRC / name).read_text(encoding="utf-8")))]
    assert calls == (["default_rng"] if name == "model.py" else [])


def test_value_maker_scan_flags_toy_sources():
    tree = ast.parse("from .tensor import Parameter, param\nw = Parameter('w', Tensor(rng.normal(size=3)))\n"
                     "b = param(init, 'b', (3,), fill=0.0)\nrng = np.random.default_rng(0)\n"
                     "g = tensor.Parameter('g', x)\nx = init.normal(size=2) / over\nu = rng.uniform(size=2)\n")
    assert value_maker_calls(tree) == [(2, "Parameter"), (2, "normal"), (4, "default_rng"), (5, "Parameter"),
                                       (6, "normal")]
    assert value_maker_calls(ast.parse("p = param(rng, 'p', (2,), times=0.02)\nrng.normal\n")) == []
