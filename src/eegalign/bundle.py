"""The on-disk format: atomic writes, typed JSON fields and bundles.

A bundle is a directory holding manifest.json plus payload files, each a
sequence of write_tensor records. Datasets and checkpoints are bundles;
this module is the only code that knows the layout.
"""
from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import types
from typing import Callable, get_args, get_origin

import numpy as np

from .errors import FormatError

MANIFEST_NAME = "manifest.json"


def write_atomically(writers: dict) -> None:
    """Write a set of files so that no reader sees a partial one.

    ``writers`` maps each target path to a function that fills a binary
    file handle. Each fills a temp file beside its target; only when all
    are complete are they moved into place with os.replace, in the order
    given, so callers list their manifest last. If a writer raises, the
    temp files are removed and every target is left as it was. If a
    rename raises, the temp files not yet moved are removed; the targets
    renamed before it stay replaced.
    """
    staged = []
    try:
        for path, write in writers.items():
            staged.append(f"{os.fspath(path)}.tmp")
            with open(staged[-1], "wb") as fh:
                write(fh)
        for path, tmp in zip(writers, staged):
            os.replace(tmp, path)
    except BaseException:
        for tmp in staged:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise


def write_json(obj, fh) -> None:
    """Write ``obj`` to a binary handle as indented JSON with one trailing newline."""
    fh.write((json.dumps(obj, indent=2) + "\n").encode())


def read_json_object(path) -> dict:
    """Parse a UTF-8 JSON file whose top level is an object.

    FormatError, naming the file, when it is not UTF-8, not JSON or not
    an object. A missing file raises FileNotFoundError for the caller.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except ValueError as e:  # JSONDecodeError and UnicodeDecodeError
        raise FormatError(f"{path} is not valid JSON in UTF-8: {e}") from e
    if not isinstance(obj, dict):
        raise FormatError(f"{path} holds a JSON {type(obj).__name__}, not an object")
    return obj


def check_fields(obj: dict, fields: dict, where: str = "") -> dict:
    """The values of ``obj`` at the keys of ``fields``, each checked against its type there.

    Manifests and config leaves are all typed here. A type is bool, int
    (a JSON integer, never a bool), float (any JSON number, NaN included,
    returned as a float; an integer beyond float range reads as ±inf, as
    json reads 1e400), str, dict (any object), list[T], dict[str, T],
    T | None, or a dict of keys to types for a nested object. A missing
    key, a key ``fields`` does not name or a value of another type is a
    FormatError naming the key after ``where``. A key a format gains
    later, such as a payload's length or CRC, goes in ``fields`` as
    ``T | None``; the caller gives it a None default so that older files
    still load, as ``DatasetManifest.from_json`` does for ``seed``.
    """
    missing = [key for key in fields if key not in obj]
    if missing:
        raise FormatError(f"missing key {where}{missing[0]}")
    unknown = [key for key in obj if key not in fields]
    if unknown:
        raise FormatError(f"unknown key {where}{unknown[0]}")
    return {key: _typed(obj[key], hint, f"{where}{key}") for key, hint in fields.items()}


def _typed(value, hint, name: str):
    origin, args = get_origin(hint), get_args(hint)
    if isinstance(hint, dict) and isinstance(value, dict):
        return check_fields(value, hint, f"{name}.")
    if origin is list and isinstance(value, list):
        return [_typed(v, args[0], f"{name}[{i}]") for i, v in enumerate(value)]
    if origin is dict and isinstance(value, dict):
        return {k: _typed(v, args[1], f"{name}.{k}") for k, v in value.items()}
    if origin is types.UnionType:  # T | None
        return None if value is None else _typed(value, args[0], name)
    if isinstance(value, bool) != (hint is bool):
        pass  # a JSON true or false is a bool and never a number
    elif hint is float and isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:  # an integer beyond float range; math.copysign overflows too
            return math.inf if value > 0 else -math.inf
    elif isinstance(hint, type) and isinstance(value, hint):
        return value
    what = "an object" if isinstance(hint, dict) else hint.__name__ if isinstance(hint, type) else hint
    raise FormatError(f"{name} must be {what}, got {value!r:.60}")


_MAX_RANK = 32


def write_tensor(fh, array: np.ndarray) -> None:
    """Write one tensor: little-endian u32 rank, u32 dims, f64 payload."""
    arr = np.asarray(array, dtype="<f8")
    shape = arr.shape  # kept before ascontiguousarray, which promotes 0-d to 1-d
    fh.write(np.asarray([len(shape)], dtype="<u4").tobytes())
    if shape:
        fh.write(np.asarray(shape, dtype="<u4").tobytes())
    # straight from the array's buffer, no bytes copy; ascontiguousarray
    # copies only a strided array, whose reshape(-1) alone may be a strided view
    fh.write(np.ascontiguousarray(arr).reshape(-1).data)


def read_tensor(fh) -> np.ndarray:
    """Read one tensor written by write_tensor.

    FormatError on truncation, and before any allocation when the header
    claims more payload than the rest of the file holds.
    """

    def need(count: int, what: str) -> bytes:
        at = fh.tell()
        buf = fh.read(count)
        if len(buf) != count:
            raise FormatError(f"truncated tensor file while reading {what}", offset=at + len(buf))
        return buf

    start = fh.tell()
    rank = int(np.frombuffer(need(4, "rank"), dtype="<u4")[0])
    if rank > _MAX_RANK:
        raise FormatError(f"implausible tensor rank {rank}", offset=start)
    shape = tuple(int(d) for d in np.frombuffer(need(4 * rank, "shape"), dtype="<u4"))
    count = math.prod(shape)
    here = fh.tell()
    left = fh.seek(0, os.SEEK_END) - here
    fh.seek(here)
    if 8 * count > left:
        raise FormatError(f"tensor header {shape} claims {8 * count} payload bytes, "
                          f"only {left} left in the file", offset=start)
    try:
        out = np.empty(shape, dtype="<f8")
    except ValueError as e:  # a zero dimension beside dimensions numpy cannot index
        raise FormatError(f"implausible tensor shape {shape}", offset=start) from e
    got = fh.readinto(out.reshape(-1).view(np.uint8))  # straight into the array, no copy
    if got != 8 * count:
        raise FormatError("truncated tensor file while reading payload", offset=here + got)
    return out


def read_tensors(path, count: int) -> list[np.ndarray]:
    """The ``count`` tensors of one payload file; FormatError naming it when it is missing or holds more."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        raise FormatError(f"no payload file at {path}") from None
    except ValueError as e:  # a NUL or a lone surrogate, which no file name holds
        raise FormatError(f"payload file name {os.fspath(path)!r}: {e}") from None
    with fh:
        try:
            arrays = [read_tensor(fh) for _ in range(count)]
        except FormatError as e:
            e.args = (f"{path}: {e}",)  # the byte offset stays in the text and on e
            raise
        if fh.read(1):
            raise FormatError(f"trailing bytes after {count} tensors in {path}")
    return arrays


def _write_tensors(arrays, fh) -> None:
    for array in arrays:
        write_tensor(fh, array)


def save_bundle(directory, payloads: dict, manifest: dict) -> None:
    """Write each payload file, then manifest.json, through one write_atomically.

    ``payloads`` maps a file name in ``directory``, created if missing, to its arrays in order.
    """
    os.makedirs(directory, exist_ok=True)
    writers = {os.path.join(directory, name): functools.partial(_write_tensors, arrays)
               for name, arrays in payloads.items()}
    writers[os.path.join(directory, MANIFEST_NAME)] = functools.partial(write_json, manifest)
    write_atomically(writers)


def read_manifest(directory, parse: Callable[[dict], object]):
    """``parse`` of the object in ``directory``/manifest.json; every FormatError, parse's too, names the file."""
    path = os.path.join(directory, MANIFEST_NAME)
    try:
        obj = read_json_object(path)
    except FileNotFoundError:
        raise FormatError(f"no manifest at {path}") from None
    try:
        return parse(obj)
    except FormatError as e:
        raise FormatError(f"{path}: {e}") from e
