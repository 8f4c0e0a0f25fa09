"""The compiled kernels' loader: where it caches them, and every way a build can fail into the numpy path."""
import ctypes
import os
import platform
import re
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eegalign import kernels, tensor
from eegalign.cli import main
from eegalign.trainer import Adam

SRC = Path(__file__).resolve().parent.parent / "src"
GEN = ["--classes", "6", "--per-class", "4", "--channels", "4", "--timesteps", "12", "--height", "16",
       "--held-out", "2", "--val-samples", "4", "--seed", "3"]
NET = ["--epochs", "2", "--seed", "1", "--backbone.dim", "16", "--backbone.layers", "1", "--backbone.heads", "2",
       "--backbone.prompts", "2", "--encoder.dim", "16", "--trainer.batch_size", "8"]
# a compiler that reports a version, and otherwise prints on both streams, writes half an output and fails
FAILING_CC = """#!/bin/sh
echo 'cc (fake) 1.0'
echo 'cc: fatal error: out of memory' >&2
[ "$1" = --version ] && exit 0
while [ $# -gt 0 ]; do [ "$1" = -o ] && echo half > "$2"; shift; done
exit 1
"""

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")


def reload(monkeypatch):
    """The kernels as a new process would load them, from the cache the environment now names."""
    monkeypatch.setattr(kernels, "_loaded", [])
    return kernels.compiled()


def library_name(tmp_path, monkeypatch) -> str:
    """The file name the kernels are cached under, learnt by building them into a cache of their own."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "warm"))
    assert reload(monkeypatch) is not None
    (name,) = os.listdir(tmp_path / "warm" / "eegalign")
    return name


@needs_cc
def test_kernels_load_where_a_c_compiler_is_on_path():
    # a broken build must not pass as the fallback
    assert kernels.compiled() is not None


@needs_cc
def test_loading_leaves_the_floating_point_state_alone():
    # a library built with -ffast-math would set flush-to-zero and denormals-are-zero for the process, numpy's
    # arithmetic included, which no comparison of two paths inside the process can see; and denormals-are-zero
    # makes == call a subnormal 0, so the bits are compared
    assert kernels.compiled() is not None
    tiny = np.array([1e-310, -5e-324])
    assert (tiny * 1.0).tobytes() == tiny.tobytes()
    assert (np.array([1e-300]) * 1e-10).tobytes() == np.array([1e-310]).tobytes()


@needs_cc
def test_the_cache_is_private_and_named_by_its_key(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert reload(monkeypatch) is not None
    cache = tmp_path / "eegalign"
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700
    (name,) = os.listdir(cache)
    assert name.startswith("kernels-") and name.endswith(".so") and len(name) == len("kernels-.so") + 32


@needs_cc
def test_every_kernel_is_bound_with_its_argument_types():
    # a pointer passed to a function with no argtypes goes as a 32-bit C int; restype None reads no result
    kernels_c = re.findall(r"^void (\w+)\(([^)]*)\)", kernels.SOURCE.read_text(), re.M)
    assert {name for name, _ in kernels_c} == set(kernels.ARGTYPES)
    lib = kernels.compiled()
    for name, params in kernels_c:
        function = getattr(lib, name)
        assert function.restype is None and len(function.argtypes or ()) == params.count(",") + 1, name


# each x86-64 level, with the numpy CPU feature that says this CPU has it; every x86-64 CPU has the first
ISA_LEVELS = {"x86-64": None, "x86-64-v3": "X86_V3", "x86-64-v4": "X86_V4"}


def cpu_has(feature: str) -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x names it numpy.core
        return False
    return bool(__cpu_features__.get(feature))


def unfold_outputs():
    # subnormals and signed zeros among the draws, on a transposed image: im2col's windows and col2im's sum
    rng = np.random.default_rng(54)
    image = np.where(rng.random((5, 37, 3, 4)) < 0.1, rng.choice([5e-324, -1e-310, -0.0], (5, 37, 3, 4)),
                     rng.normal(size=(5, 37, 3, 4))).transpose(2, 3, 0, 1)
    cols = tensor.unfold(tensor.Tensor(image, requires_grad=True), 3, 3, stride=2, padding=(1, 2))
    return [cols.data, *cols._vjp(rng.normal(size=(3, 3 * 20, 4 * 9)))]  # 3 x 20 windows of 4 channels x 3 x 3


def tap_sum_outputs():
    # a transposed image with subnormals and signed zeros, and flipped kernels with an infinite tap, whose
    # products with the zeros outside the image are NaN
    rng = np.random.default_rng(55)
    image = np.where(rng.random((3, 4, 37, 5)) < 0.1, rng.choice([5e-324, -1e-310, -0.0], (3, 4, 37, 5)),
                     rng.normal(size=(3, 4, 37, 5))).transpose(0, 1, 3, 2)
    k = rng.normal(size=(3, 4, 5, 5))
    k[1, 2, 0, 4] = np.inf
    with np.errstate(invalid="ignore"):
        return [tensor._tap_sum(image, k[:, :, ::-1, ::-1])]


def adam_outputs():
    # five steps over parameters of several shapes, one of them without a gradient on the third
    rng = np.random.default_rng(56)
    params = [tensor.Parameter(f"p{i}", 1e-4 * rng.normal(size=shape)) for i, shape in enumerate([(6, 5), (5,), ()])]
    opt = Adam(params, lr=0.003)
    for t in range(5):
        for i, p in enumerate(params):
            p.grad = None if (i, t) == (1, 2) else rng.normal(size=p.shape)
        opt.step()
    return [*(p.data for p in params), *opt.m, *opt.v]


def gelu_outputs():
    # both sides of |t| = 1 and 8, the special values and a NaN, over several 512-entry blocks, transposed
    edges = np.sqrt(2.0) * np.array([1.0, 8.0])
    x = np.concatenate([np.linspace(-15.0, 15.0, 1486), edges, -edges, np.nextafter(edges, 0.0),
                        np.nextafter(edges, np.inf), [0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan]])
    with np.errstate(invalid="ignore"):
        return list(tensor._gelu_parts(x.reshape(3, 500).T))


def gelu_grad_outputs():
    # the VJP on both sides of |x / sqrt(2)| = 1 and 8 and where exp(-x * x / 2) turns subnormal and then 0, with
    # the special values in x and, at other entries, in g, over several 512-entry blocks, transposed
    rng = np.random.default_rng(59)
    x = np.concatenate([np.linspace(-40.0, 40.0, 1488), np.sqrt(2.0) * np.array([1.0, -1.0, 8.0, -8.0]),
                        [37.5, -38.6, 1e3, 0.0, -0.0, 5e-324, np.inf, -np.inf]]).reshape(3, 500)
    g = rng.normal(size=(3, 500))
    g[0, 7], g[1, 100], g[1, 333], g[2, 4] = np.nan, np.inf, -np.inf, -0.0
    with np.errstate(invalid="ignore"):
        return list(tensor.gelu(tensor.Tensor(x.T, requires_grad=True))._vjp(g.T))


def layer_norm_outputs():
    # widths around each of the pairwise sum's shapes, with a -0.0, a NaN and an infinite row in x, and in other
    # rows a -0.0, a NaN and an infinite entry in the VJP's g
    rng = np.random.default_rng(57)
    results = []
    for d in (3, 9, 64, 129, 300):
        x = 10.0 ** rng.integers(-3, 4, size=(4, 5, d)) * rng.normal(size=(4, 5, d)) + 7.0
        x[0, 0], x[0, 1, d // 2], x[0, 2, 0] = -0.0, np.nan, np.inf
        ts = [tensor.Tensor(a, requires_grad=True) for a in (x, 1.0 + rng.normal(size=d), rng.normal(size=d))]
        g = rng.normal(size=x.shape)
        g[1, 0], g[1, 1, d // 2], g[1, 2, -1] = -0.0, np.nan, -np.inf
        with np.errstate(invalid="ignore"):
            out = tensor.layer_norm(*ts)
            results += [out.data, *out._vjp(g)]
    return results


def softmax_outputs():
    # row lengths around each of the pairwise sum's shapes, at magnitudes from 0.1 to 800, with a NaN row, a row
    # with a NaN before a +inf, an infinite row, a row of -inf, a row of -0.0 and a constant row
    rng = np.random.default_rng(58)
    results = []
    for d in (1, 7, 9, 21, 129, 300):
        z = 10.0 ** rng.uniform(-1.0, 2.9, size=(4, 3, 1)) * rng.normal(size=(4, 3, d))
        i = np.arange(d)
        z[0, 0], z[0, 1, d // 2], z[0, 2, 0] = -0.0, np.nan, np.inf
        z[1, 0], z[1, 1], z[1, 2] = -np.inf, 0.25, np.where(i == d // 2, np.nan, np.where(i == d - 1, np.inf, 1.0))
        with np.errstate(invalid="ignore"):
            results.append(tensor._softmax(z, -1))
    return results


# each kernel's case: a function of no arguments whose outputs come from that kernel when it is loaded
ISA_CASES = {"tap_sum": tap_sum_outputs, "im2col": unfold_outputs, "col2im": unfold_outputs, "adam": adam_outputs,
             "gelu": gelu_outputs, "gelu_grad": gelu_grad_outputs, "layer_norm": layer_norm_outputs,
             "layer_norm_grad": layer_norm_outputs, "row_shift": softmax_outputs, "row_divide": softmax_outputs}


def test_every_kernel_has_an_instruction_set_case():
    assert set(ISA_CASES) == set(kernels.ARGTYPES)


@needs_cc
@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="not an x86-64 CPU")
@pytest.mark.parametrize("level", sorted(ISA_LEVELS))
def test_each_instruction_set_gives_numpys_bits(level, tmp_path, monkeypatch, install_spy):
    # tap_sum, gelu and gelu_grad are cloned for AVX2 and AVX-512 and only the best clone runs here, so each level
    # is built alone
    if ISA_LEVELS[level] and not cpu_has(ISA_LEVELS[level]):
        pytest.skip(f"this CPU cannot run {level} code")
    source = re.sub(r"__attribute__\(\(target_clones\([^)]*\)\)\)", "", kernels.SOURCE.read_text())
    library = tmp_path / f"kernels-{level}.so"
    subprocess.run(["cc", *kernels.FLAGS, f"-march={level}", "-o", str(library), "-x", "c", "-"],
                   input=source.encode(), capture_output=True, check=True, timeout=kernels.COMPILE_SECONDS)
    lib = ctypes.CDLL(str(library))
    for name, argtypes in kernels.ARGTYPES.items():
        getattr(lib, name).argtypes, getattr(lib, name).restype = argtypes, None
    for name, case in ISA_CASES.items():
        spy = install_spy(lib)
        compiled = [a.tobytes() for a in case()]
        monkeypatch.setattr(kernels, "_loaded", [None])
        assert name in spy.calls and compiled == [a.tobytes() for a in case()], name


# numpy's AVX-512 code, turned off so that its AVX2 loops run, as on a host without AVX-512
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"
GELU_UNDER_AVX2 = f"""
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
from eegalign import kernels, tensor
assert not any(__cpu_features__[name] for name in "{NO_AVX512}".split())
x = np.concatenate([np.linspace(-60.0, 60.0, 240_001), np.sqrt(2.0) * np.array([1.0, -1.0, 8.0, -8.0]),
                    [0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan]])
assert kernels.compiled() is not None
compiled = tensor._gelu_parts(x)
kernels._loaded[:] = [None]
with np.errstate(invalid="ignore"):
    assert [a.tobytes() for a in compiled] == [a.tobytes() for a in tensor._gelu_parts(x)]
"""


def avx512_dispatched() -> bool:
    return all(cpu_has(name) for name in NO_AVX512.split())


@needs_cc
@pytest.mark.skipif(not avx512_dispatched(), reason="numpy does not dispatch AVX-512 code on this CPU")
def test_gelu_bits_do_not_depend_on_numpys_simd_dispatch():
    # the numpy path uses only exact IEEE operations and scipy's scalar erf, and the kernel neither
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_AVX512, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", GELU_UNDER_AVX2], env=env, capture_output=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, b"")


ROWS_UNDER_AVX2 = f"""
from numpy._core._multiarray_umath import __cpu_features__
from eegalign import kernels
from test_kernels import CASE
assert not any(__cpu_features__[name] for name in "{NO_AVX512}".split())
assert kernels.compiled() is not None
compiled = [a.tobytes() for a in CASE()]
kernels._loaded[:] = [None]
assert compiled == [a.tobytes() for a in CASE()]
"""


def run_under_avx2(case: str) -> tuple[int, bytes]:
    """The exit status and stderr of a subprocess that checks ``case``'s outputs, kernels against numpy, with
    numpy's AVX-512 code turned off."""
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_AVX512,
               PYTHONPATH=os.pathsep.join([str(SRC), str(Path(__file__).resolve().parent)]))
    done = subprocess.run([sys.executable, "-c", ROWS_UNDER_AVX2.replace("CASE", case)], env=env,
                          capture_output=True, timeout=120)
    return done.returncode, done.stderr


@needs_cc
@pytest.mark.skipif(not avx512_dispatched(), reason="numpy does not dispatch AVX-512 code on this CPU")
def test_layer_norm_bits_do_not_depend_on_numpys_simd_dispatch():
    # numpy's row sums are its pairwise sum at every dispatch level, and the kernel's is the same order
    assert run_under_avx2("layer_norm_outputs") == (0, b"")


@needs_cc
@pytest.mark.skipif(not avx512_dispatched(), reason="numpy does not dispatch AVX-512 code on this CPU")
def test_gelu_vjp_bits_do_not_depend_on_numpys_simd_dispatch():
    # numpy's exp gives other bits under AVX2 than under AVX-512, and the kernel takes it from numpy on both paths
    assert run_under_avx2("gelu_grad_outputs") == (0, b"")


@needs_cc
@pytest.mark.skipif(not avx512_dispatched(), reason="numpy does not dispatch AVX-512 code on this CPU")
def test_softmax_bits_do_not_depend_on_numpys_simd_dispatch():
    # the same for the softmax's row sums, and its max is exact; its exp, whose bits change with the dispatch,
    # is numpy's on both paths
    assert run_under_avx2("softmax_outputs") == (0, b"")


def no_compiler(tmp_path, monkeypatch):
    (tmp_path / "empty").mkdir()
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))


def failing_compiler(tmp_path, monkeypatch):
    (tmp_path / "bin").mkdir()
    (tmp_path / "bin" / "cc").write_text(FAILING_CC)
    (tmp_path / "bin" / "cc").chmod(0o755)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setenv("PATH", f"{tmp_path / 'bin'}{os.pathsep}{os.environ['PATH']}")


def cache_not_a_directory(tmp_path, monkeypatch):
    # a file where the cache should be: no directory can be made in it, even by root
    (tmp_path / "cache").write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))


def stale_tmp_in_the_way(tmp_path, monkeypatch):
    # a staging name left by an earlier process of this pid, which the compiler cannot write over
    name = library_name(tmp_path, monkeypatch)
    (tmp_path / "cold" / "eegalign" / f"{name}.{os.getpid()}.tmp").mkdir(parents=True)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cold"))


def cache_others_can_write(tmp_path, monkeypatch):
    # a real library, planted in a cache that was made world-writable before the loader came
    name = library_name(tmp_path, monkeypatch)
    (tmp_path / "cold" / "eegalign").mkdir(parents=True)
    (tmp_path / "cold" / "eegalign").chmod(0o777)
    shutil.copy(tmp_path / "warm" / "eegalign" / name, tmp_path / "cold" / "eegalign" / name)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cold"))


def cache_of_another_user(tmp_path, monkeypatch):
    # a private cache with a real library in it, owned by a uid other than this process's
    library_name(tmp_path, monkeypatch)
    uid = os.getuid()
    monkeypatch.setattr(os, "getuid", lambda: uid + 1)


FAILURES = {f.__name__.replace("_", "-"): f for f in (no_compiler, failing_compiler, cache_not_a_directory,
                                                       stale_tmp_in_the_way, cache_others_can_write,
                                                       cache_of_another_user)}


def train_and_eval(root: Path, data: Path, capfd) -> tuple[str, bytes]:
    """The stdout of `train` and `eval` into ``root``, asserted to exit 0 with nothing on stderr, and params.bin."""
    run = root / "run"
    assert main(["train", "--data", str(data), "--out", str(run), *NET]) == 0
    assert main(["eval", "--checkpoint", str(run), "--data", str(data), "--ks", "1", "2"]) == 0
    out, err = capfd.readouterr()
    assert err == ""
    params = (run / "params.bin").read_bytes()
    shutil.rmtree(run)
    return out, params


@needs_cc
@pytest.mark.parametrize("failure", sorted(FAILURES))
def test_a_failed_build_runs_numpy_with_the_same_output(failure, tmp_path, monkeypatch, capfd):
    data = tmp_path / "data"
    assert main(["gen-data", "--out", str(data), *GEN]) == 0
    capfd.readouterr()
    assert reload(monkeypatch) is not None
    with_kernels = train_and_eval(tmp_path, data, capfd)
    FAILURES[failure](tmp_path, monkeypatch)
    assert reload(monkeypatch) is None
    assert train_and_eval(tmp_path, data, capfd) == with_kernels
    assert not list(tmp_path.glob("cache/eegalign/*"))  # a failed compile leaves no staged file


@needs_cc
def test_a_library_others_can_write_is_built_again_not_loaded(tmp_path, monkeypatch):
    # in a private cache only this user can have put it there; a umask of 002 gives cc's output mode 0775
    name = library_name(tmp_path, monkeypatch)
    library = tmp_path / "warm" / "eegalign" / name
    library.unlink()  # not written over: this process has it mapped
    library.write_bytes(b"not a library")
    library.chmod(0o666)
    assert reload(monkeypatch) is not None
    assert stat.S_IMODE(library.stat().st_mode) == 0o700 and library.read_bytes() != b"not a library"


@needs_cc
def test_a_relative_cache_home_is_ignored(tmp_path, monkeypatch):
    (tmp_path / "work").mkdir()
    monkeypatch.chdir(tmp_path / "work")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setenv("XDG_CACHE_HOME", "relcache")
    assert reload(monkeypatch) is not None
    assert os.listdir(tmp_path / "work") == []
    assert [path.suffix for path in (tmp_path / "home" / ".cache" / "eegalign").iterdir()] == [".so"]


@needs_cc
def test_a_stale_tmp_of_another_process_is_passed_by(tmp_path, monkeypatch):
    name = library_name(tmp_path, monkeypatch)
    stale = tmp_path / "cold" / "eegalign" / f"{name}.{os.getpid() + 1}.tmp"
    stale.parent.mkdir(parents=True)
    stale.write_bytes(b"half a library")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cold"))
    assert reload(monkeypatch) is not None
    assert stale.read_bytes() == b"half a library"


@needs_cc
def test_two_processes_on_an_empty_cache_both_load(tmp_path):
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=str(SRC))
    code = "from eegalign import kernels; print(kernels.compiled() is not None)"
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for _ in range(2)]
    assert [proc.communicate(timeout=120) for proc in procs] == [(b"True\n", b"")] * 2
    assert [path.suffix for path in (tmp_path / "eegalign").iterdir()] == [".so"]
