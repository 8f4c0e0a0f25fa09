"""The bundle format: tensor records, atomic writes, typed manifest fields."""
import io
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from eegalign import bundle
from eegalign.bundle import (
    check_fields,
    read_manifest,
    read_tensor,
    read_tensors,
    save_bundle,
    write_atomically,
    write_tensor,
)
from eegalign.errors import FormatError


class TestSerialization:
    def test_round_trip_bitwise(self):
        rng = np.random.default_rng(23)
        arrays_ = [
            rng.normal(size=(3, 4, 5)),
            np.array(2.5),
            rng.normal(size=7),
            np.zeros((2, 0, 3)),
        ]
        buf = io.BytesIO()
        for a in arrays_:
            write_tensor(buf, a)
        buf.seek(0)
        for a in arrays_:
            back = read_tensor(buf)
            assert back.shape == a.shape
            assert back.tobytes() == np.ascontiguousarray(a).tobytes()

    @pytest.mark.parametrize("array", [
        np.array(2.5),
        np.zeros((2, 0, 3)),
        np.arange(24.0).reshape(4, 6)[:, ::2],
        np.arange(12.0).reshape(3, 4).T,
        np.arange(6.0).astype(">f8").reshape(2, 3),
        np.arange(5, dtype=np.int64),
    ], ids=["0-d", "empty", "strided", "transposed", "big-endian", "int64"])
    def test_bytes_match_a_tobytes_writer(self, array):
        def tobytes_writer(fh, a):
            a = np.asarray(a, dtype="<f8")
            fh.write(np.asarray([a.ndim, *a.shape], dtype="<u4").tobytes())
            fh.write(np.ascontiguousarray(a).tobytes())

        expected, buf = io.BytesIO(), io.BytesIO()
        tobytes_writer(expected, array)
        write_tensor(buf, array)
        assert buf.getvalue() == expected.getvalue()

    def test_payload_is_written_without_a_copy(self, tmp_path):
        array = np.random.default_rng(0).normal(size=2**20)  # 8 MiB
        with open(tmp_path / "t.bin", "wb") as fh:
            tracemalloc.start()
            try:
                write_tensor(fh, array)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2**20
        with open(tmp_path / "t.bin", "rb") as fh:
            assert read_tensor(fh).tobytes() == array.tobytes()

    def test_truncated_payload_reports_offset(self):
        buf = io.BytesIO()
        write_tensor(buf, np.ones((2, 2)))
        raw = buf.getvalue()[:-8]
        with pytest.raises(FormatError) as exc:
            read_tensor(io.BytesIO(raw))
        assert exc.value.offset is not None

    def test_truncated_header_reports_offset(self):
        with pytest.raises(FormatError):
            read_tensor(io.BytesIO(b"\x02\x00"))

    @pytest.mark.parametrize("dims", [(2**31, 2**31), (2**20, 2**19)])
    def test_oversized_header_rejected_before_reading(self, dims):
        buf = io.BytesIO()
        write_tensor(buf, np.ones(3))
        start = buf.tell()
        buf.write(np.asarray([len(dims), *dims], "<u4").tobytes())
        buf.write(b"\x00" * 64)
        buf.seek(0)
        read_tensor(buf)
        with pytest.raises(FormatError, match="payload bytes") as exc:
            read_tensor(buf)
        assert exc.value.offset == start

    def test_empty_shape_numpy_cannot_index_rejected(self):
        buf = io.BytesIO(np.asarray([3, 0, 2**32 - 1, 2**32 - 1], "<u4").tobytes())
        with pytest.raises(FormatError, match="implausible tensor shape") as exc:
            read_tensor(buf)
        assert exc.value.offset == 0

    def test_garbage_rank_rejected(self):
        buf = io.BytesIO(np.asarray([4_000_000], "<u4").tobytes())
        with pytest.raises(FormatError):
            read_tensor(buf)


class TestWriteAtomically:
    def test_failed_rename_removes_staged_files(self, tmp_path, monkeypatch):
        paths = [tmp_path / name for name in ("a.bin", "b.bin", "manifest.json")]
        for p in paths:
            p.write_bytes(b"old " + p.name.encode())
        real_replace, calls = os.replace, []

        def replace(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise OSError("rename failed")
            real_replace(src, dst)

        monkeypatch.setattr(bundle.os, "replace", replace)
        with pytest.raises(OSError, match="rename failed"):
            write_atomically({p: (lambda fh, p=p: fh.write(b"new " + p.name.encode())) for p in paths})
        assert sorted(os.listdir(tmp_path)) == ["a.bin", "b.bin", "manifest.json"]
        assert paths[0].read_bytes() == b"new a.bin"
        assert paths[1].read_bytes() == b"old b.bin"
        assert paths[2].read_bytes() == b"old manifest.json"


class TestBundle:
    def test_round_trip_bitwise_manifest_last(self, tmp_path, monkeypatch):
        arrays = [np.arange(6.0).reshape(2, 3) / 7, np.asarray(-0.5), np.zeros((0, 4))]
        renamed = []
        real_replace = os.replace
        monkeypatch.setattr(bundle.os, "replace", lambda src, dst: (renamed.append(os.path.basename(dst)),
                                                                     real_replace(src, dst)))
        save_bundle(tmp_path / "b", {"x.bin": arrays, "y.bin": []}, {"n": 3, "loss": float("nan")})
        assert renamed == ["x.bin", "y.bin", "manifest.json"]
        assert (tmp_path / "b" / "manifest.json").read_text() == '{\n  "n": 3,\n  "loss": NaN\n}\n'
        back = read_tensors(tmp_path / "b" / "x.bin", 3)
        assert [a.shape for a in back] == [a.shape for a in arrays]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(back, arrays))
        assert read_tensors(tmp_path / "b" / "y.bin", 0) == []
        assert read_manifest(tmp_path / "b", lambda obj: obj["n"]) == 3

    def test_read_tensors_names_a_missing_file_and_trailing_bytes(self, tmp_path):
        save_bundle(tmp_path, {"x.bin": [np.ones(2)]}, {})
        with pytest.raises(FormatError, match="no payload file") as exc:
            read_tensors(tmp_path / "nope.bin", 1)
        assert str(tmp_path / "nope.bin") in str(exc.value)
        with pytest.raises(FormatError, match="trailing bytes") as exc:
            read_tensors(tmp_path / "x.bin", 0)
        assert str(tmp_path / "x.bin") in str(exc.value)

    @pytest.mark.parametrize("name", ["a\x00b", "\ud800"])
    def test_read_tensors_refuses_a_name_no_file_can_have(self, tmp_path, name):
        with pytest.raises(FormatError, match="payload file name"):
            read_tensors(tmp_path / name, 1)

    def test_read_manifest_names_the_file(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        with pytest.raises(FormatError, match="no manifest") as exc:
            read_manifest(tmp_path, dict)
        assert path in str(exc.value)
        (tmp_path / "manifest.json").write_text('{"n": 1.5}')
        with pytest.raises(FormatError, match="n must be int") as exc:
            read_manifest(tmp_path, lambda obj: check_fields(obj, {"n": int}))
        assert path in str(exc.value)

    @pytest.mark.parametrize("hint,value,expected", [
        (int, 3, 3), (int, -2, -2), (float, 3, 3.0), (float, 0.25, 0.25), (str, "a", "a"),
        (dict, {"k": [1]}, {"k": [1]}), (list[int], [], []), (list[int], [1, 2], [1, 2]),
        (list[str], ["a"], ["a"]), (dict[str, str], {"a": "b"}, {"a": "b"}),
        (int | None, None, None), (int | None, 4, 4), (bool, True, True), (bool, False, False),
        (float, 10**400, math.inf), (float, -(10**400), -math.inf),
    ])
    def test_typed_fields_pass(self, hint, value, expected):
        out = check_fields({"f": value}, {"f": hint})["f"]
        assert out == expected and type(out) is type(expected)

    def test_float_field_takes_nan_and_infinity(self):
        out = check_fields({"a": float("nan"), "b": float("-inf")}, {"a": float, "b": float})
        assert math.isnan(out["a"]) and out["b"] == -math.inf

    @pytest.mark.parametrize("hint,value,name", [
        (int, 16.9, "f"), (int, "16", "f"), (int, True, "f"), (int, 1.0, "f"), (int, None, "f"),
        (float, True, "f"), (float, "1.5", "f"), (str, 3, "f"), (dict, [], "f"),
        (list[int], [1, 1.9], "f[1]"), (list[int], [0, "3"], "f[1]"), (list[int], [True], "f[0]"),
        (list[int], {"0": 1}, "f"), (list[str], [3], "f[0]"), (dict[str, str], {"a": 1}, "f.a"),
        (int | None, 0.5, "f"), ({"a": int}, {"a": False}, "f.a"), ({"a": int}, 3, "f"),
        (bool, 1, "f"), (bool, 0, "f"), (bool, "true", "f"), (bool, None, "f"), (float | None, True, "f"),
        ({"a": int}, {"a": 1, "b": "extra"}, "unknown key f.b"),
    ])
    def test_wrongly_typed_field_is_named(self, hint, value, name):
        # a wrong value is "<name> must be ...", an extra key just "unknown key <name>"
        with pytest.raises(FormatError, match=rf"^{re.escape(name)}( must be |$)"):
            check_fields({"f": value}, {"f": hint})

    def test_missing_field_is_named(self):
        with pytest.raises(FormatError, match="missing key geo.width"):
            check_fields({"geo": {"height": 2}}, {"geo": {"height": int, "width": int}})
