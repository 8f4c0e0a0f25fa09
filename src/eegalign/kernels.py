"""The compiled kernels of ``kernels.c``, built with the system C compiler on first use.

``compiled()`` returns the loaded library, or None when anything failed: no ``cc`` on PATH, a compiler that
exits non-zero or overruns ``COMPILE_SECONDS``, a cache that cannot be written or that is not private. Its
callers then run their numpy code, which gives the same bits, so the kernels change speed only. The library is
cached under ``$XDG_CACHE_HOME/eegalign`` (``~/.cache/eegalign`` when that is unset or relative, as the XDG
spec says), named by the SHA-256 of the source, the flags, the compiler's version and the platform; it is
compiled to a name of this process's own and moved into place, so concurrent first runs each load a whole
file. Compiler output is captured and never shown. Only a private cache is used, one that this user owns and
no one else can write, and only a private library in it is loaded: one that is not is built again over it.
"""
from __future__ import annotations

import ctypes
import hashlib
import os
import stat
import subprocess
import sysconfig
from pathlib import Path

SOURCE = Path(__file__).with_name("kernels.c")
# never -ffast-math or -Ofast: they reorder operations, and a shared object built with them sets
# flush-to-zero for the whole process
FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-fPIC", "-shared")
COMPILE_SECONDS = 60
_loaded: list = []  # empty until the first call, then [the library or None]
_SIZE, _DOUBLE, _POINTER = ctypes.c_ssize_t, ctypes.c_double, ctypes.c_void_p
# each kernel's argument types, which a built library is given before any call; every kernel returns void
ARGTYPES = {
    "tap_sum": [_POINTER, _POINTER] + [_SIZE] * 4 + [_POINTER] + [_SIZE] * 6,
    "im2col": [_POINTER] + [_SIZE] * 4 + [_POINTER] + [_SIZE] * 11,
    "col2im": [_POINTER] + [_SIZE] * 6 + [_POINTER] + [_SIZE] * 9,
    "adam": [_POINTER] * 4 + [_SIZE] + [_DOUBLE] * 8,
    "gelu": [_POINTER] * 3 + [_SIZE],
    "layer_norm": [_POINTER] * 6 + [_SIZE] * 2 + [_DOUBLE],
}


def compiled() -> ctypes.CDLL | None:
    """The kernels, loaded on the first call; None if they could not be built or loaded."""
    if not _loaded:
        _loaded.append(_load())
    return _loaded[0]


def _private(path: Path) -> bool:
    """Whether this user owns ``path`` and neither its group nor others can write it."""
    info = path.stat()
    return info.st_uid == os.getuid() and not info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)


def _load() -> ctypes.CDLL | None:
    try:
        home = os.environ.get("XDG_CACHE_HOME", "")
        cache = Path(home if os.path.isabs(home) else Path.home() / ".cache") / "eegalign"
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
        if not _private(cache):
            return None
        source = SOURCE.read_bytes()
        version = subprocess.run(["cc", "--version"], capture_output=True, check=True,
                                 timeout=COMPILE_SECONDS).stdout
        key = hashlib.sha256(b"\0".join([source, " ".join(FLAGS).encode(), version,
                                         sysconfig.get_platform().encode()])).hexdigest()
        target = cache / f"kernels-{key[:32]}.so"
        if not (target.exists() and _private(target)):
            staged = target.with_name(f"{target.name}.{os.getpid()}.tmp")
            try:
                subprocess.run(["cc", *FLAGS, "-o", str(staged), "-x", "c", "-"], input=source,
                               capture_output=True, check=True, timeout=COMPILE_SECONDS)
                staged.chmod(0o700)  # whatever the umask, so the next run finds it private
                os.replace(staged, target)
            finally:
                staged.unlink(missing_ok=True)
        lib = ctypes.CDLL(str(target))
        for name, argtypes in ARGTYPES.items():
            getattr(lib, name).argtypes, getattr(lib, name).restype = argtypes, None
        return lib
    except Exception:  # a boundary: a failed build costs speed only, so any failure leaves the numpy code running
        return None
