"""Checks over the package source: static scans, and one scan of what the commands run."""
import ast
import contextlib
import inspect
import json
import sys
import types
from pathlib import Path

import pytest

from eegalign import kernels
from eegalign.cli import main

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "eegalign"
# __init__.py imports names to re-export them, not to use them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))


# ROADMAP's ceiling for code.src_lines, the figure at its last re-anchor
MAX_SOURCE_LINES = 3491


def test_source_stays_within_the_line_budget():
    # counted as benchmarks/run.py::source_lines counts code.src_lines; a failure lists each module's count
    lines = {str(p.relative_to(SRC)): len(p.read_text(encoding="utf-8").splitlines())
             for p in sorted(SRC.rglob("*.py"))}
    assert sum(lines.values()) <= MAX_SOURCE_LINES, ", ".join(f"{name} {count}" for name, count in lines.items())


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


def parameters_definitions(tree: ast.Module) -> list[str]:
    """Classes that define or bind ``parameters``. Only ``tensor.Module`` may: each part's parameters are its
    attributes, and the method has one name."""
    def binds(item):
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return item.name == "parameters"
        return isinstance(item, ast.Assign) and any(getattr(t, "id", None) == "parameters" for t in item.targets)

    return [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef) and any(map(binds, node.body))]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_module_defines_parameters(path):
    allowed = ["Module"] if path.name == "tensor.py" else []
    assert parameters_definitions(ast.parse(path.read_text(encoding="utf-8"))) == allowed


def test_parameters_scan_flags_a_hand_written_list():
    tree = ast.parse("class Module:\n    def parameters(self): pass\nclass Head(Module):\n"
                     "    def parameters(self): return []\nclass Gate:\n    def gate(self): pass\n"
                     "class Model(Module):\n    parameters = Module.parameters\ndef parameters(): pass\n")
    assert parameters_definitions(tree) == ["Module", "Head", "Model"]


def single_parent_records(tree: ast.Module) -> list[str]:
    """Top-level functions that call ``_make(data, (x,), vjp)`` with one parent. Such an op hands its forward and
    gradient rule to ``_unary`` instead, so that one body records every single-input op."""
    return [top.name for top in tree.body if isinstance(top, ast.FunctionDef) for node in ast.walk(top)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_make" and len(node.args) > 1
            and isinstance(node.args[1], ast.Tuple) and len(node.args[1].elts) == 1]


# the single-input ops that keep their own body, and why
OWN_BODY = {
    "_unary": "the shared body itself",
    "gelu": "its VJP reuses the forward's erf",
    "log_softmax_rows": "its VJP reuses the forward's exponentials and their row sums",
    "tensor_mean": "its VJP reuses the forward's count",
    "getitem": "its VJP reuses the forward's index kind",
    "unfold": "its two layouts' VJPs reuse the forward's window geometry and kernel handle",
}


def test_single_input_ops_share_one_body():
    tree = ast.parse((SRC / "tensor.py").read_text(encoding="utf-8"))
    assert [name for name in single_parent_records(tree) if name not in OWN_BODY] == []


def test_single_parent_scan_flags_toy_sources():
    tree = ast.parse("def _unary(a, f, grad):\n    return _make(f(a.data), (a,), lambda g: (grad(g),))\n"
                     "def exp(a):\n    data = np.exp(a.data)\n    return _make(data, (a,), lambda g: (g * data,))\n"
                     "def add(a, b):\n    return _make(a.data + b.data, (a, b), vjp)\n"
                     "def cat(ts):\n    return _make(data, ts, vjp)\ndef log(a):\n    return _unary(a, np.log, rule)\n"
                     "def tile(x):\n    def inner():\n        return _make(d, (x,), v)\n    return _make(d, (x,), w)\n")
    assert single_parent_records(tree) == ["_unary", "exp", "tile", "tile"]


def value_attributes(tree: ast.Module) -> list[int]:
    """Lines that name an attribute ``value``. A ``Parameter`` is its own tensor, so there is nothing to unwrap."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "value")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_a_value_attribute(path):
    assert value_attributes(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_value_scan_flags_toy_sources():
    tree = ast.parse("y = linear(x, blk.wq.value, b)\np.value.data = view\nvalue = p.data\nf(value=1)\n"
                     "q.value = w\nd.values()\ng = getattr(p, 'value')\n")
    assert value_attributes(tree) == [1, 2, 5]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_scan_flags_an_unused_name():
    tree = ast.parse("from __future__ import annotations\nimport os\nimport numpy as np\n"
                     "from json import dumps, loads\nnp.zeros(1)\nloads('1')\n")
    assert unused_imports(tree) == ["dumps (line 4)", "os (line 2)"]


def nested_tests(tree: ast.Module) -> list[str]:
    """``test_*`` functions defined inside another function's body, where pytest never collects them."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    return sorted({f"{inner.name} (line {inner.lineno})" for outer in ast.walk(tree) if isinstance(outer, defs)
                   for inner in ast.walk(outer) if inner is not outer and isinstance(inner, defs)
                   and inner.name.startswith("test_")})


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_every_test_function_is_collected(path):
    assert nested_tests(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_nested_test_scan_flags_toy_sources():
    tree = ast.parse("def test_outer():\n    def test_inner():\n        pass\n    def helper():\n"
                     "        async def test_deep():\n            pass\nclass TestBox:\n    def test_method(self):\n"
                     "        def test_hidden():\n            pass\n    def test_kept(self):\n        check = lambda: 1\n"
                     "def test_top():\n    class Local:\n        def test_in_class(self):\n            pass\n")
    assert nested_tests(tree) == ["test_deep (line 5)", "test_hidden (line 9)", "test_in_class (line 15)",
                                  "test_inner (line 2)"]


# where a row is L2-normalized: each similarity is taken in exactly one place, so each row is normalized once
NORMALIZERS = {"tensor.py": [], "losses.py": ["total_loss"], "trainer.py": ["embed_split"]}


def functions_calling(tree: ast.Module, name: str) -> list[str]:
    """Top-level functions and methods (``Class.method``) that call ``name``, plain or as an attribute."""
    units = []
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
            units.append((top.name, top))
        elif isinstance(top, ast.ClassDef):
            units += [(f"{top.name}.{item.name}", item) for item in top.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return sorted(qualname for qualname, unit in units if any(
        isinstance(node, ast.Call) and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        for node in ast.walk(unit)))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_rows_are_normalized_only_where_a_similarity_is_taken(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    if path.name not in NORMALIZERS:
        assert "l2_normalize" not in referenced_names(tree)
    assert functions_calling(tree, "l2_normalize") == NORMALIZERS.get(path.name, [])


def test_normalize_scan_flags_toy_sources():
    tree = ast.parse("from .tensor import l2_normalize, linear\nclass Head:\n    def project(self, z):\n"
                     "        return l2_normalize(linear(z, self.w, self.b))\n    def raw(self, z):\n"
                     "        return linear(z, self.w, self.b)\ndef embed(z):\n    def inner(x):\n"
                     "        return tensor.l2_normalize(x)\n    return inner(z)\nunit = l2_normalize\n")
    assert functions_calling(tree, "l2_normalize") == ["Head.project", "embed"]
    assert "l2_normalize" in referenced_names(ast.parse("from .tensor import l2_normalize\n"))
    assert functions_calling(ast.parse("def l2_normalize(x):\n    return x / norm(x)\n"), "l2_normalize") == []


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


def test_metrics_imports_only_errors_from_the_package():
    # the metrics score plain arrays: eval hands them the similarity, never a tape tensor
    assert package_imports(ast.parse((SRC / "metrics.py").read_text(encoding="utf-8"))) == ["errors"]


def test_kernels_import_nothing_from_the_package():
    # the loader knows a C source, a compiler and a cache; the tape and the optimizer import it
    assert package_imports(ast.parse((SRC / "kernels.py").read_text(encoding="utf-8"))) == []


def kernel_calls(tree: ast.Module) -> set[str]:
    """The names a module calls on ``lib``, the loaded kernels: ``lib.gelu(x)`` gives ``gelu``."""
    return {node.func.attr for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "lib"}


def test_every_kernel_is_called_in_the_package():
    # a kernel that a refactor left behind would still be built, bound and checked against numpy
    called = set().union(*(kernel_calls(ast.parse(p.read_text(encoding="utf-8"))) for p in MODULES))
    assert sorted(set(kernels.ARGTYPES) - called) == []


def test_kernel_call_scan_flags_toy_sources():
    tree = ast.parse("lib.gelu(x)\nf = lib.adam\ns = 'lib.tap_sum(x)'\nother.im2col(x)\n# lib.col2im(x)\n"
                     "lib.layer_norm.argtypes = []\n")
    assert kernel_calls(tree) == {"gelu"}


def kernel_imports(tree: ast.Module) -> list[str]:
    """The names a module imports from the package's ``kernels`` loader."""
    return sorted(alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  and (node.module or "").split(".")[-1] == "kernels" for alias in node.names)


@pytest.mark.parametrize("name", ["tensor.py", "trainer.py"])
def test_tape_and_optimizer_import_only_the_kernel_handle(name):
    assert kernel_imports(ast.parse((SRC / name).read_text(encoding="utf-8"))) == ["compiled"]


def test_layer_scans_flag_toy_sources():
    tape = ast.parse("import os.path\nfrom json import dumps\nfrom .bundle import write_tensor\n"
                     "import numpy as np\nwith open(p) as fh: pass\n")
    assert sorted(FILE_NAMES & imported_and_named(tape)) == ["bundle", "json", "open", "os"]
    assert sorted(FILE_NAMES & imported_and_named(ast.parse("import numpy as np\nnp.exp(x)\n"))) == []
    fmt = ast.parse("import numpy as np\nfrom .errors import FormatError\nfrom .tensor import Tensor\n"
                    "from . import model\nimport eegalign.losses\nfrom eegalign.trainer import fit\n")
    assert package_imports(fmt) == ["errors", "losses", "model", "tensor", "trainer"]
    scores = ast.parse("import numpy as np\nfrom .errors import DimensionError\nfrom .tensor import Tensor\n")
    assert package_imports(scores) == ["errors", "tensor"]
    reach = ast.parse("from .kernels import compiled, _load\nfrom eegalign.kernels import SOURCE\nimport ctypes\n")
    assert kernel_imports(reach) == ["SOURCE", "_load", "compiled"]


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


def raises_outside(tree: ast.Module, function: str) -> list[int]:
    """The line of each ``raise`` that is not inside the top-level function named ``function``."""
    inside = {id(node) for top in tree.body if isinstance(top, ast.FunctionDef) and top.name == function
              for node in ast.walk(top)}
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise) and id(node) not in inside)


def test_the_loss_checks_only_what_enters_total_loss():
    # the term functions trust the matrices total_loss builds from the embeddings and the temperature
    assert raises_outside(ast.parse((SRC / "losses.py").read_text(encoding="utf-8")), "total_loss") == []


def test_raise_scan_flags_a_check_outside_total_loss():
    tree = ast.parse("def infonce(x):\n    if x.ndim != 2:\n        raise DimensionError('odd')\n"
                     "def total_loss(z):\n    if z is None:\n        raise DomainError('none')\n"
                     "    def inner():\n        raise ValueError\n"
                     "class Terms:\n    def total_loss(self):\n        raise ContractError('rows')\n"
                     "raise ImportError\n")
    assert raises_outside(tree, "total_loss") == [3, 11, 12]


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
    tree = ast.parse("from .tensor import Parameter, param\nw = Parameter('w', rng.normal(size=3))\n"
                     "b = param(init, 'b', (3,), fill=0.0)\nrng = np.random.default_rng(0)\n"
                     "g = tensor.Parameter('g', x)\nx = init.normal(size=2) / over\nu = rng.uniform(size=2)\n")
    assert value_maker_calls(tree) == [(2, "Parameter"), (2, "normal"), (4, "default_rng"), (5, "Parameter"),
                                       (6, "normal")]
    assert value_maker_calls(ast.parse("p = param(rng, 'p', (2,), times=0.02)\nrng.normal\n")) == []


# functions no command enters that stay in src/, and why each stays
UNRUN_ALLOWED = {
    "data.PairedBatch.__len__": "benchmarks/workloads.py counts a step's samples with len(batch)",
    "trainer.parameter_digest": "benchmarks/workloads.py checks that a reloaded checkpoint has the same digest",
    "metrics.mean_average_precision": "benchmarks/workloads.py scores its relevance mask with it",
    "tensor.Tensor.__repr__": "what a failed assertion prints",
    "tensor.Parameter.__repr__": "what a failed assertion prints",
}
# compiled as functions, but they run wherever they are written, at import too
COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def function_codes(code: types.CodeType) -> list[types.CodeType]:
    """Every ``def`` and ``lambda`` compiled within ``code``, nested ones too; not comprehensions or class bodies."""
    out = []
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_flags & inspect.CO_NEWLOCALS and const.co_name not in COMPREHENSIONS:
                out.append(const)
            out += function_codes(const)
    return out


def unentered(sources: dict[str, str], entered: set, allowed) -> list[str]:
    """``module.qualname (line n)`` of each function in ``sources`` (module -> text) that no code object in ``entered``
    is and ``allowed`` does not name. Code compiled from the same text compares equal to the imported code."""
    return [f"{module}.{code.co_qualname} (line {code.co_firstlineno})" for module, text in sorted(sources.items())
            for code in function_codes(compile(text, module, "exec"))
            if code not in entered and f"{module}.{code.co_qualname}" not in allowed]


@contextlib.contextmanager
def entered_code():
    """The set of code objects that this thread's calls enter while the block runs."""
    entered = set()

    def trace(frame, event, arg):
        entered.add(frame.f_code)  # returns None: no line events inside the frame

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        yield entered
    finally:
        sys.settrace(previous)


TOY_GEN = ["--classes", "6", "--per-class", "4", "--channels", "4", "--timesteps", "12",
           "--height", "16", "--held-out", "2", "--val-samples", "4"]
TOY_NET = ["--epochs", "1", "--backbone.dim", "16", "--backbone.layers", "1", "--backbone.heads", "2",
           "--backbone.prompts", "2", "--encoder.dim", "16", "--trainer.batch_size", "8"]


def run_every_command(root: Path) -> None:
    """The five commands at toy size, over both fusion strategies, a config file and the options, plus three refused
    inputs: an unknown config key, a truncated params.bin and a missing checkpoint."""
    data, run, cut = root / "data", root / "run", root / "cut"
    config = root / "config.json"
    config.write_text(json.dumps({"trainer": {"clip_norm": 0.5}}))
    assert main(["gen-data", "--out", str(data), "--seed", "3", *TOY_GEN]) == 0
    assert main(["train", "--data", str(data), "--out", str(run), "--config", str(config), *TOY_NET]) == 0
    assert main(["train", "--data", str(data), "--out", str(root / "mix"), "--repeats", "2", "--seed", "5",
                 "--fusion.strategy=bilinear", "--data.channel_mask", "[0, 2, 3]", "--data.time_window", "[1, 11]",
                 *TOY_NET]) == 0
    assert main(["eval", "--checkpoint", str(run), "--data", str(data), "--ks", "1", "2",
                 "--out", str(root / "report.json")]) == 0
    assert main(["export-sim", "--checkpoint", str(run), "--data", str(data), "--ks", "1", "2",
                 "--out", str(root / "sim.csv")]) == 0
    assert main(["gradcheck", "--all"]) == 0
    assert main(["train", "--data", str(data), "--out", str(root / "bad"), "--loss.nope", "1", *TOY_NET]) == 2
    cut.mkdir()
    (cut / "manifest.json").write_bytes((run / "manifest.json").read_bytes())
    (cut / "params.bin").write_bytes((run / "params.bin").read_bytes()[:100])
    assert main(["eval", "--checkpoint", str(cut), "--data", str(data)]) == 2
    assert main(["eval", "--checkpoint", str(root / "none"), "--data", str(data)]) == 2


def test_every_function_in_src_runs_in_a_command_or_is_allowed(tmp_path, monkeypatch):
    monkeypatch.setattr(kernels, "_loaded", [])  # the commands load the kernels again, as a new process does
    with entered_code() as entered:
        run_every_command(tmp_path)
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unentered(sources, entered, UNRUN_ALLOWED) == []
    # an entry that a command now runs, or that names no function, is stale
    assert {name.split(" ")[0] for name in unentered(sources, entered, ())} == set(UNRUN_ALLOWED)


TOY_MODULE = """\
SQUARES = [n * n for n in range(3)]
square = lambda x: x * x
cube = lambda x: x ** 3
def called(xs):
    def helper(x):
        return x
    return sum(helper(x) for x in xs)
def outer():
    def closure():
        return {k: k for k in ()}
    return closure
def dead():
    pass
class Box:
    def __repr__(self):
        return "Box"
    def unused(self):
        pass
"""


def test_reachability_scan_flags_what_no_call_enters():
    namespace = {}
    exec(compile(TOY_MODULE, "toy", "exec"), namespace)  # untraced, like an import
    with entered_code() as entered:
        namespace["square"](2)
        namespace["called"]([1, 2])
        namespace["outer"]()
    assert unentered({"toy": TOY_MODULE}, entered, {"toy.Box.__repr__"}) == [
        "toy.<lambda> (line 3)", "toy.outer.<locals>.closure (line 9)", "toy.dead (line 12)",
        "toy.Box.unused (line 17)"]
