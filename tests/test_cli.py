"""End-to-end command-line behavior, run in-process through main()."""
import argparse
import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegalign import bundle as bundle_module
from eegalign import cli as cli_module
from eegalign import model as model_module
from eegalign.bundle import read_tensor, write_tensor
from eegalign.cli import build_parser, main
from eegalign.config import config_to_dict, default_config
from eegalign.data import load_dataset, load_split, save_dataset
from eegalign.errors import ConfigError
from eegalign.trainer import load_checkpoint, parameter_digest, save_checkpoint

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SMALL_GEN = ["--classes", "6", "--per-class", "4", "--channels", "4", "--timesteps", "12",
             "--height", "16", "--held-out", "2", "--val-samples", "4"]
SMALL_NET = ["--backbone.dim", "16", "--backbone.layers", "1", "--backbone.heads", "2",
             "--backbone.prompts", "2", "--encoder.dim", "16", "--trainer.batch_size", "8"]


def gen(tmp_path, name="data", seed="3", extra=()):
    out = tmp_path / name
    code = main(["gen-data", "--out", str(out), "--seed", seed, *SMALL_GEN, *extra])
    assert code == 0
    return out


def train(tmp_path, data, name="run", extra=(), epochs="1"):
    out = tmp_path / name
    code = main(["train", "--data", str(data), "--out", str(out),
                 "--epochs", epochs, "--seed", "1", *SMALL_NET, *extra])
    assert code == 0
    return out


def forbid_fit(monkeypatch):
    """Make training a test failure: the command under test must refuse before it."""

    def fit(*args, **kwargs):
        raise AssertionError("fit was called")

    monkeypatch.setattr(cli_module, "fit", fit)


def failing_report_writer(report, fh):
    raise OSError(28, "No space left on device")


def one_error_line(capsys) -> str:
    """The command's stderr, asserted to be one ``error: ...`` line."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


def command_parsers() -> dict:
    """Each command's parser, by name."""
    return next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


# every config key with its default, as `train --help` lists them, and the two shortcut flags
CONFIG_DEFAULTS = {f"{section}.{key}": value for section, body in config_to_dict(default_config()).items()
                   for key, value in body.items()}
SHORTCUTS = {"trainer.epochs": ["--epochs"], "trainer.seed": ["--seed"]}


def read_files(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in sorted(names):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


class TestGenData:
    def test_writes_manifest_and_splits(self, tmp_path):
        out = gen(tmp_path)
        assert (out / "manifest.json").exists()
        for name in ("train.bin", "val.bin", "test.bin"):
            assert (out / name).exists()

    def test_held_out_count_sets_test_size(self, tmp_path):
        out = gen(tmp_path)
        with open(out / "test.bin", "rb") as fh:
            eeg = read_tensor(fh)
        assert eeg.shape[0] == 2  # one pair per held-out class

    def test_same_flags_identical_files(self, tmp_path):
        a = gen(tmp_path, "a")
        b = gen(tmp_path, "b")
        assert read_files(a) == read_files(b)

    def test_collision_refused_without_force(self, tmp_path, capsys):
        out = gen(tmp_path)
        code = main(["gen-data", "--out", str(out), *SMALL_GEN])
        assert code == 2
        assert "already exists" in capsys.readouterr().err

    def test_force_overwrites(self, tmp_path):
        out = gen(tmp_path)
        code = main(["gen-data", "--out", str(out), "--seed", "4", *SMALL_GEN, "--force"])
        assert code == 0

    def test_failed_force_keeps_the_old_dataset(self, tmp_path, fail_write_tensor):
        out = gen(tmp_path)
        before = read_files(out)
        fail_write_tensor(bundle_module, 5)
        code = main(["gen-data", "--out", str(out), "--seed", "4", *SMALL_GEN, "--force"])
        assert code == 2
        assert read_files(out) == before
        assert len(load_split(load_dataset(str(out)), "train").ids) > 0

    def test_oversized_dataset_exits_two_before_allocating(self, tmp_path, capsys):
        out = tmp_path / "huge"
        code = main(["gen-data", "--out", str(out), "--classes", "100000000000", "--per-class", "1000"])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("error: ") and "cap" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--noise", "nan"), ("--noise", "inf"), ("--seed", "-1")])
    def test_bad_noise_or_seed_exits_two_writing_nothing(self, tmp_path, capsys, flag, value):
        out = tmp_path / "data"
        code = main(["gen-data", "--out", str(out), *SMALL_GEN, flag, value])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("error: ") and flag[2:] in err
        assert not out.exists()

    def test_any_height_is_written_and_train_refuses_one_the_patch_does_not_divide(self, tmp_path, capsys,
                                                                                    monkeypatch):
        data = gen(tmp_path, extra=["--height", "12"])
        out = tmp_path / "run"
        with monkeypatch.context() as patched:
            forbid_fit(patched)
            code = main(["train", "--data", str(data), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("error: ") and "patch size 8" in err
        assert not out.exists()
        train(tmp_path, data, extra=["--backbone.patch", "4"])

    def test_test_classes_disjoint_from_train(self, tmp_path):
        out = gen(tmp_path)
        classes = {}
        for name in ("train", "test"):
            with open(out / f"{name}.bin", "rb") as fh:
                read_tensor(fh), read_tensor(fh), read_tensor(fh)
                classes[name] = set(read_tensor(fh).astype(int).tolist())
        assert classes["train"] & classes["test"] == set()


class TestTrain:
    def test_writes_checkpoint_and_log(self, tmp_path):
        run = train(tmp_path, gen(tmp_path))
        assert (run / "manifest.json").exists()
        assert (run / "params.bin").exists()
        assert (run / "train_log.jsonl").exists()

    def test_zero_epochs_checkpoints_initial_state(self, tmp_path):
        run = train(tmp_path, gen(tmp_path), epochs="0")
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["epoch"] == 0
        log = (run / "train_log.jsonl").read_text().splitlines()
        assert len(log) == 1

    def test_clip_weights_degenerate_log(self, tmp_path):
        # mu=1, alpha=lambda=0 leaves the total equal to the clip term
        run = train(tmp_path, gen(tmp_path), epochs="2",
                    extra=["--loss.mu", "1", "--loss.alpha", "0", "--loss.lambda", "0"])
        rows = [json.loads(line) for line in (run / "train_log.jsonl").read_text().splitlines()]
        for row in rows[1:]:
            assert row["l_total"] == row["l_clip"]

    def test_bilinear_ablation_arm(self, tmp_path):
        run = train(tmp_path, gen(tmp_path), extra=["--fusion.strategy", "bilinear"])
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["config"]["fusion"]["strategy"] == "bilinear"

    # loss.lam is the Python attribute behind loss.lambda, not a second spelling of it
    @pytest.mark.parametrize("key", ["loss.gamma", "loss.lam"])
    def test_unknown_override_names_the_key(self, tmp_path, capsys, monkeypatch, key):
        data = gen(tmp_path)
        forbid_fit(monkeypatch)
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "x"),
                     "--epochs", "0", f"--{key}", "1"])
        assert code == 2
        assert one_error_line(capsys) == f"error: unrecognized arguments: --{key} 1"
        assert sorted(os.listdir(tmp_path)) == ["data"]

    def test_invalid_config_value_exits_nonzero(self, tmp_path, capsys):
        data = gen(tmp_path)
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "x"),
                     "--epochs", "0", "--trainer.batch_size", "1"])
        assert code == 2
        assert "batch_size" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("backbone.patch", "0"), ("backbone.dim", "0"), ("trainer.seed", "-1"),
        ("backbone.layers", "-1"), ("backbone.layers", "0"), ("encoder.dim", "0"),
        ("loss.tau_init", "1e400"),
    ])
    def test_degenerate_config_value_exits_two_naming_the_key(self, tmp_path, capsys, key, value):
        data = gen(tmp_path)
        capsys.readouterr()
        out = tmp_path / "x"
        code = main(["train", "--data", str(data), "--out", str(out), f"--{key}", value])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("error: ") and key in err
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [
        ("backbone.heads", "3"), ("fusion.heads", "3"), ("backbone.patch", "5"), ("filter.height", "4"),
        ("backbone.prompts", "-1"),
    ])
    def test_geometry_the_model_cannot_build_exits_two_before_fit(self, tmp_path, capsys, monkeypatch, key, value):
        data = gen(tmp_path)
        capsys.readouterr()
        forbid_fit(monkeypatch)
        out = tmp_path / "x"
        code = main(["train", "--data", str(data), "--out", str(out), *SMALL_NET, f"--{key}", value])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [("filter.height", "4"), ("backbone.prompts", "-1")])
    def test_config_rule_refuses_before_reading_a_split(self, tmp_path, capsys, monkeypatch, key, value):
        data = gen(tmp_path)
        capsys.readouterr()
        loaded = []
        monkeypatch.setattr(cli_module, "load_split", lambda manifest, name: loaded.append(name))
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "x"), *SMALL_NET, f"--{key}", value])
        assert code == 2
        assert key in one_error_line(capsys)
        assert loaded == []

    @pytest.mark.parametrize("content", [b"\xff", b'{"trainer": {"epochs": 0}}\xfe', b'{"trainer": ', b"[1, 2]"],
                             ids=["invalid-utf8", "invalid-utf8-after-json", "not-json", "top-level-list"])
    def test_malformed_config_file_exits_two_naming_it(self, tmp_path, capsys, content):
        data = gen(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(content)
        capsys.readouterr()
        out = tmp_path / "x"
        code = main(["train", "--data", str(data), "--out", str(out), "--config", str(cfg_path)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("error: ") and str(cfg_path) in err
        assert not out.exists()

    def test_determinism_across_runs(self, tmp_path):
        data = gen(tmp_path)
        a = train(tmp_path, data, "a", epochs="2")
        b = train(tmp_path, data, "b", epochs="2")
        files_a, files_b = read_files(a), read_files(b)
        assert files_a["params.bin"] == files_b["params.bin"]
        assert files_a["manifest.json"] == files_b["manifest.json"]

    def test_repeats_write_one_checkpoint_each(self, tmp_path):
        data = gen(tmp_path)
        out = tmp_path / "multi"
        code = main(["train", "--data", str(data), "--out", str(out),
                     "--epochs", "1", "--seed", "1", "--repeats", "2", *SMALL_NET])
        assert code == 0
        for r in range(2):
            assert (out / f"repeat-{r}" / "params.bin").exists()
        seeds = [json.loads((out / f"repeat-{r}" / "manifest.json").read_text())
                 ["config"]["trainer"]["seed"] for r in range(2)]
        assert seeds == [1, 2]

    def test_config_file_via_environment(self, tmp_path, monkeypatch):
        data = gen(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "backbone": {"dim": 16, "layers": 1, "heads": 2, "prompts": 2},
            "encoder": {"dim": 16},
            "trainer": {"batch_size": 8, "epochs": 0},
        }))
        monkeypatch.setenv("EEGALIGN_CONFIG", str(cfg_path))
        out = tmp_path / "envrun"
        assert main(["train", "--data", str(data), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["backbone"]["dim"] == 16
        assert manifest["epoch"] == 0

    @staticmethod
    def train_on_one_pair(tmp_path, capsys, monkeypatch, repeats):
        """Train on a dataset whose train split holds one pair: fit refuses it after the output directory is made.
        The command must exit 2 and leave no --out."""
        data = gen(tmp_path, extra=["--classes", "3", "--per-class", "2", "--held-out", "1", "--val-samples", "3"])
        out = tmp_path / "broken"
        real_fit = cli_module.fit

        def fit(*args, **kwargs):
            assert out.is_dir()
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(cli_module, "fit", fit)
        code = main(["train", "--data", str(data), "--out", str(out), "--epochs", "1", "--repeats", repeats,
                     *SMALL_NET])
        assert code == 2
        assert one_error_line(capsys) == "error: training split has fewer than 2 samples"
        assert not out.exists()

    def test_partial_outputs_removed_on_failure(self, tmp_path, capsys, monkeypatch):
        self.train_on_one_pair(tmp_path, capsys, monkeypatch, "1")

    def test_failed_first_repeat_removes_the_out_it_made(self, tmp_path, capsys, monkeypatch):
        self.train_on_one_pair(tmp_path, capsys, monkeypatch, "2")

    def test_failed_repeat_keeps_the_repeats_that_finished(self, tmp_path, capsys, monkeypatch):
        data = gen(tmp_path)
        out = tmp_path / "multi"
        real_fit = cli_module.fit

        def fit(model, *args, **kwargs):
            if model.cfg.trainer.seed == 2:
                raise ConfigError("the second repeat fails")
            return real_fit(model, *args, **kwargs)

        monkeypatch.setattr(cli_module, "fit", fit)
        code = main(["train", "--data", str(data), "--out", str(out), "--epochs", "1", "--seed", "1",
                     "--repeats", "3", *SMALL_NET])
        assert code == 2
        assert one_error_line(capsys) == "error: the second repeat fails"
        assert sorted(os.listdir(out)) == ["repeat-0", "train_log.0.jsonl"]
        assert sorted(os.listdir(out / "repeat-0")) == ["manifest.json", "params.bin"]

    @pytest.mark.parametrize("repeats,existing", [("1", "log.jsonl"), ("2", "log.1.jsonl")])
    def test_existing_log_refused_without_force(self, tmp_path, capsys, monkeypatch, repeats, existing):
        data = gen(tmp_path)
        (tmp_path / existing).write_text("keep me")
        out = tmp_path / "run"
        argv = ["train", "--data", str(data), "--out", str(out), "--epochs", "0", "--seed", "1",
                "--repeats", repeats, "--log", str(tmp_path / "log.jsonl"), *SMALL_NET]
        forbid_fit(monkeypatch)
        assert main(argv) == 2
        assert "already exists" in capsys.readouterr().err
        assert (tmp_path / existing).read_text() == "keep me"
        assert sorted(os.listdir(tmp_path)) == ["data", existing]
        monkeypatch.undo()
        assert main([*argv, "--force"]) == 0
        assert set(json.loads((tmp_path / existing).read_text())) == {"epoch", "val_loss"}

    def test_log_without_a_directory_refused_before_training(self, tmp_path, capsys, monkeypatch):
        data = gen(tmp_path)
        out = tmp_path / "run"
        forbid_fit(monkeypatch)
        code = main(["train", "--data", str(data), "--out", str(out), "--epochs", "0",
                     "--log", str(tmp_path / "no-such-dir" / "log.jsonl"), *SMALL_NET])
        assert code == 2
        assert "no-such-dir does not exist" in capsys.readouterr().err
        assert not out.exists()

    def test_log_that_is_a_directory_refused_even_with_force(self, tmp_path, capsys, monkeypatch):
        data = gen(tmp_path)
        (tmp_path / "logs").mkdir()
        forbid_fit(monkeypatch)
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "run"), "--epochs", "0",
                     "--log", str(tmp_path / "logs"), "--force", *SMALL_NET])
        assert code == 2
        assert "is a directory" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["data", "logs"]

    @pytest.mark.parametrize("out_name, log_name, refusal", [
        ("run", "run", "is checkpoint directory"), ("run/ckpt", "run", "is checkpoint directory"),
        ("run", "run/manifest.json", "are the same file"), ("run", "run/params.bin", "are the same file")])
    def test_log_naming_the_checkpoint_refused_before_training(self, tmp_path, capsys, monkeypatch,
                                                               out_name, log_name, refusal):
        data = gen(tmp_path)
        forbid_fit(monkeypatch)
        code = main(["train", "--data", str(data), "--out", str(tmp_path / out_name), "--epochs", "0",
                     "--log", str(tmp_path / log_name), *SMALL_NET])
        assert code == 2
        assert refusal in one_error_line(capsys)
        assert sorted(os.listdir(tmp_path)) == ["data"]

    def test_parameters_over_the_cap_exit_two_before_drawing(self, tmp_path, capsys, monkeypatch):
        data = gen(tmp_path)
        monkeypatch.setattr(model_module, "MAX_PARAMETER_BYTES", 1000)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: pytest.fail("the refused model drew values"))
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "run"), "--epochs", "0", *SMALL_NET])
        assert code == 2
        assert one_error_line(capsys).endswith("over the 1000-byte cap")
        assert sorted(os.listdir(tmp_path)) == ["data"]

    def test_prints_the_log_rows(self, tmp_path, capsys):
        data = gen(tmp_path)
        capsys.readouterr()
        run = train(tmp_path, data, epochs="2")
        lines = capsys.readouterr().out.splitlines()
        assert lines[:-1] == (run / "train_log.jsonl").read_text().splitlines()
        assert len(lines) == 4 and lines[-1].startswith("seed 1: best epoch")

    def test_failed_force_keeps_the_old_checkpoint(self, tmp_path, fail_write_tensor):
        data = gen(tmp_path)
        run = train(tmp_path, data)
        old = parameter_digest(load_checkpoint(run).build_model().parameters())
        old_log = (run / "train_log.jsonl").read_bytes()
        fail_write_tensor(bundle_module, 3)
        code = main(["train", "--data", str(data), "--out", str(run), "--epochs", "1",
                     "--seed", "2", *SMALL_NET, "--force"])
        assert code == 2
        assert parameter_digest(load_checkpoint(run).build_model().parameters()) == old
        assert (run / "train_log.jsonl").read_bytes() == old_log
        assert sorted(os.listdir(run)) == ["manifest.json", "params.bin", "train_log.jsonl"]

    def test_collision_refused_without_force(self, tmp_path, capsys):
        data = gen(tmp_path)
        run = train(tmp_path, data)
        code = main(["train", "--data", str(data), "--out", str(run), "--epochs", "0", *SMALL_NET])
        assert code == 2
        assert "already exists" in capsys.readouterr().err

    # --repeats is checked before the dataset manifest is read, and the outputs after it
    @pytest.mark.parametrize("out, extra, refusal, without_data", [
        ("run", (), "already exists", "no manifest at"),
        ("fresh", ("--repeats", "0"), "--repeats must be >= 1", "--repeats must be >= 1"),
        ("fresh", ("--log", "no-such-dir/log.jsonl"), "does not exist", "no manifest at")],
        ids=["existing-out", "repeats", "log-dir"])
    @pytest.mark.parametrize("data_ok", [True, False], ids=["data", "no-data"])
    def test_refused_outputs_read_no_split(self, tmp_path, capsys, monkeypatch, out, extra, refusal, without_data,
                                           data_ok):
        data = gen(tmp_path) if data_ok else tmp_path / "no-such-data"
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / "manifest.json").write_text("{}")
        loaded = []
        monkeypatch.setattr(cli_module, "load_split", lambda manifest, name: loaded.append(name))
        monkeypatch.chdir(tmp_path)
        code = main(["train", "--data", str(data), "--out", out, "--epochs", "0", *extra, *SMALL_NET])
        assert code == 2
        assert (refusal if data_ok else without_data) in one_error_line(capsys)
        assert loaded == []


class TestEval:
    @pytest.fixture()
    def trained(self, tmp_path):
        data = gen(tmp_path)
        return data, train(tmp_path, data)

    def test_existing_out_refused_before_evaluating(self, trained, tmp_path, capsys, monkeypatch):
        data, run = trained
        out = tmp_path / "report.json"
        out.write_text("keep me")

        def evaluate(*args, **kwargs):
            raise AssertionError("evaluate_zero_shot was called")

        monkeypatch.setattr(cli_module, "evaluate_zero_shot", evaluate)
        code = main(["eval", "--checkpoint", str(run), "--data", str(data), "--out", str(out)])
        assert code == 2
        assert "already exists" in capsys.readouterr().err
        assert out.read_text() == "keep me"

    def test_failed_force_keeps_the_old_report(self, trained, tmp_path, monkeypatch):
        data, run = trained
        out = tmp_path / "report.json"
        argv = ["eval", "--checkpoint", str(run), "--data", str(data), "--out", str(out), "--force"]
        assert main([*argv, "--ks", "1"]) == 0
        before = out.read_bytes()
        monkeypatch.setattr(cli_module, "write_json", failing_report_writer)
        assert main([*argv, "--ks", "1", "2"]) == 2
        assert out.read_bytes() == before
        assert not (tmp_path / "report.json.tmp").exists()

    def test_report_keys_and_shape(self, trained, capsys):
        data, run = trained
        code = main(["eval", "--checkpoint", str(run), "--data", str(data), "--ks", "1", "2"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"Top-1", "Top-2", "mAP", "n_queries", "split"}
        assert report["n_queries"] == 2
        assert report["Top-1"] <= report["Top-2"]

    def test_bit_for_bit_reproducible(self, trained, capsys):
        data, run = trained
        main(["eval", "--checkpoint", str(run), "--data", str(data), "--ks", "1"])
        first = capsys.readouterr().out
        main(["eval", "--checkpoint", str(run), "--data", str(data), "--ks", "1"])
        assert capsys.readouterr().out == first

    def test_writes_report_file(self, trained, tmp_path):
        data, run = trained
        out = tmp_path / "report.json"
        code = main(["eval", "--checkpoint", str(run), "--data", str(data),
                     "--ks", "1", "--out", str(out)])
        assert code == 0
        assert "Top-1" in json.loads(out.read_text())

    def test_geometry_mismatch_exits_nonzero(self, trained, tmp_path, capsys):
        _, run = trained
        bad = tmp_path / "badgeom"
        assert main(["gen-data", "--out", str(bad), "--classes", "6", "--per-class", "4",
                     "--channels", "7", "--timesteps", "12", "--height", "16",
                     "--held-out", "2", "--val-samples", "4"]) == 0
        code = main(["eval", "--checkpoint", str(run), "--data", str(bad), "--ks", "1"])
        assert code == 2
        assert "does not match" in capsys.readouterr().err

    def test_truncated_split_names_the_file(self, trained, capsys):
        data, run = trained
        path = data / "test.bin"
        path.write_bytes(path.read_bytes()[:-100])
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(run), "--data", str(data)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {path}: ") and "(byte offset " in err

    def test_corrupt_params_header_exits_two(self, trained, capsys):
        data, run = trained
        header = np.asarray([2, 2**31, 2**31], dtype="<u4").tobytes()
        (run / "params.bin").write_bytes(header + b"\x00" * 64)
        code = main(["eval", "--checkpoint", str(run), "--data", str(data)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "payload bytes" in err

    @pytest.mark.parametrize("field,bad,message", [("eeg", np.nan, "non-finite EEG"),
                                                   ("images", 1.5, "images outside [0, 1]")], ids=["eeg", "images"])
    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_bad_split_values_exit_two(self, trained, tmp_path, capsys, command, field, bad, message):
        data, run = trained
        manifest = load_dataset(str(data))
        split = "test" if command == "eval" else "train"
        arrays = load_split(manifest, split)
        getattr(arrays, field)[1, 0, 0] = bad
        save_dataset(manifest, {split: arrays}, str(data))
        capsys.readouterr()
        if command == "eval":
            code = main(["eval", "--checkpoint", str(run), "--data", str(data)])
        else:
            code = main(["train", "--data", str(data), "--out", str(tmp_path / "again"),
                         "--epochs", "1", *SMALL_NET])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"split '{split}' has {message} at sample 1" in err

    @pytest.mark.parametrize("command", ["eval", "export-sim"])
    def test_empty_split_exits_two_writing_nothing(self, trained, tmp_path, capsys, command):
        _, run = trained
        empty = gen(tmp_path, "empty", extra=["--val-samples", "0"])
        out = tmp_path / "out.csv"
        capsys.readouterr()
        code = main([command, "--checkpoint", str(run), "--data", str(empty), "--split", "val", "--out", str(out)])
        assert code == 2
        assert "split 'val'" in capsys.readouterr().err
        assert not out.exists() and not out.with_suffix(".json").exists()

    @pytest.mark.parametrize("name", ["ghost.weight", "perturb.gain"], ids=["unknown", "repeated"])
    def test_parameter_list_not_the_models_exits_two_writing_nothing(self, trained, tmp_path, capsys, name):
        data, run = trained
        extra = load_checkpoint(str(run)).values.get(name, np.zeros(3)) + 1.0
        manifest = json.loads((run / "manifest.json").read_text())
        manifest["parameters"].append(name)
        (run / "manifest.json").write_text(json.dumps(manifest))
        with open(run / "params.bin", "ab") as fh:
            write_tensor(fh, extra)
        out = tmp_path / "report.json"
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(run), "--data", str(data), "--out", str(out)]) == 2
        assert f"parameter {name} " in one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "export-sim"])
    @pytest.mark.parametrize("name,stored,message", [
        ("prompts", None, "checkpoint is missing parameter prompts"),
        ("prompts", np.zeros((1, 1)), "checkpoint parameter prompts has shape (1, 1), model expects (2, 16)"),
        # a NaN similarity row ranks no candidate above its own pair, so the retrieval would score perfect
        ("projection.weight", np.full((16, 16), np.nan),
         "checkpoint parameter projection.weight in {params} holds a non-finite value"),
        ("loss.log_tau", np.array(-np.inf), "checkpoint parameter loss.log_tau in {params} holds a non-finite value"),
    ], ids=["missing", "shape", "nan", "inf"])
    def test_value_the_model_cannot_take_exits_two_writing_nothing(self, trained, tmp_path, capsys, name, stored,
                                                                  message, command):
        data, run = trained
        ckpt = load_checkpoint(str(run))
        if stored is None:
            del ckpt.values[name]
        else:
            ckpt.values[name] = stored
        save_checkpoint(ckpt, str(run))
        out = tmp_path / "out.csv"
        capsys.readouterr()
        assert main([command, "--checkpoint", str(run), "--data", str(data), "--out", str(out)]) == 2
        assert one_error_line(capsys) == f"error: {message}".format(params=os.path.join(str(run), "params.bin"))
        assert not out.exists() and not out.with_suffix(".json").exists()

    @pytest.mark.parametrize("command", ["eval", "export-sim"])
    def test_an_embedding_whose_squared_norm_overflows_exits_two_writing_nothing(self, trained, tmp_path, capsys,
                                                                                command):
        # finite weights, so the load check passes them; l2_normalize would map the overflowed rows to zeros
        data, run = trained
        ckpt = load_checkpoint(str(run))
        ckpt.values["encoder.weight"] = ckpt.values["encoder.weight"] * 1e305
        save_checkpoint(ckpt, str(run))
        out = tmp_path / "out.csv"
        capsys.readouterr()
        assert main([command, "--checkpoint", str(run), "--data", str(data), "--out", str(out)]) == 2
        assert one_error_line(capsys) == "error: the EEG embedding of split row 0 has a non-finite squared norm"
        assert not out.exists() and not out.with_suffix(".json").exists()

    @pytest.mark.parametrize("key,value", [("channels", -3), ("timesteps", -8)])
    def test_geometry_below_one_exits_two_writing_nothing(self, trained, tmp_path, capsys, key, value):
        data, run = trained
        manifest = json.loads((run / "manifest.json").read_text())
        manifest["geometry"][key] = value
        (run / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "report.json"
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(run), "--data", str(data), "--out", str(out)]) == 2
        assert one_error_line(capsys).endswith(f"checkpoint geometry.{key} must be >= 1, got {value}")
        assert not out.exists()

    @pytest.mark.parametrize("argv, what", [
        (["eval", "--ks", "1", "--out", "nodir/rep.json"], "report"),
        (["export-sim", "--out", "nodir/sim.csv"], "CSV"),
        (["export-sim", "--out", "sim.csv", "--report", "nodir/rep.json"], "report"),
    ], ids=["eval-out", "export-sim-csv", "export-sim-report"])
    def test_output_in_a_missing_directory_refused_before_the_checkpoint_is_read(self, trained, tmp_path, capsys,
                                                                                 monkeypatch, argv, what):
        data, run = trained
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli_module, "load_checkpoint", lambda path: pytest.fail("the checkpoint was read"))
        before = read_files(tmp_path)
        capsys.readouterr()
        assert main([*argv, "--checkpoint", str(run), "--data", str(data)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {what} directory nodir does not exist"]
        assert read_files(tmp_path) == before

    def test_missing_checkpoint_exits_nonzero(self, trained, capsys):
        data, _ = trained
        code = main(["eval", "--checkpoint", str(data / "nope"), "--data", str(data)])
        assert code == 2


def edit_json(change):
    def apply(raw):
        obj = json.loads(raw)
        return json.dumps(change(obj)).encode()
    return apply


def set_key(key, value):
    return edit_json(lambda obj: {**obj, key: value})


def drop_geometry_channels(obj):
    del obj["geometry"]["channels"]
    return obj


def add_geometry_key(obj):
    obj["geometry"]["extra"] = 1
    return obj


def set_loss_mu_to_a_string(obj):
    obj["config"]["loss"]["mu"] = "x"
    return obj


def fractional_class_ids(obj):
    # each id plus a half, so a loader that truncates gets the trained ids back
    return {**obj, "train_class_ids": [c + 0.5 for c in obj["train_class_ids"]]}


MALFORMED_MANIFESTS = {
    "dataset-invalid-utf8": ("data", lambda raw: raw.replace(b"train.bin", b"tr\xffin.bin", 1)),
    "dataset-channels-not-a-number": ("data", set_key("channels", "x")),
    "dataset-height-fractional": ("data", set_key("height", 16.9)),
    "checkpoint-class-id-fractional": ("run", edit_json(fractional_class_ids)),
    "checkpoint-format-version-true": ("run", set_key("format_version", True)),
    "checkpoint-invalid-utf8": ("run", lambda raw: raw.replace(b"format_version", b"format\xffversion", 1)),
    "checkpoint-epoch-not-a-number": ("run", set_key("epoch", "x")),
    "checkpoint-geometry-without-channels": ("run", edit_json(drop_geometry_channels)),
    "checkpoint-parameters-not-a-list": ("run", set_key("parameters", 5)),
    "checkpoint-top-level-list": ("run", edit_json(lambda obj: [obj])),
    "checkpoint-unknown-key": ("run", set_key("epoch_typo", 1)),
    "checkpoint-unknown-geometry-key": ("run", edit_json(add_geometry_key)),
    "checkpoint-val-loss-huge-integer": ("run", set_key("val_loss", 10**400)),
    "checkpoint-config-leaf-wrong-type": ("run", edit_json(set_loss_mu_to_a_string)),
}
# well-typed values, so loading them is right too; they must only never raise out of main()
MANIFESTS_THAT_MAY_LOAD = {"checkpoint-val-loss-huge-integer"}


class TestMalformedManifests:
    @pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
    def test_exits_two_naming_the_file(self, tmp_path, capsys, case):
        data = gen(tmp_path)
        run = train(tmp_path, data, epochs="0")
        which, corrupt = MALFORMED_MANIFESTS[case]
        path = tmp_path / which / "manifest.json"
        path.write_bytes(corrupt(path.read_bytes()))
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(run), "--data", str(data), "--ks", "1"])
        err = capsys.readouterr().err
        if code == 0 and case in MANIFESTS_THAT_MAY_LOAD:
            return
        assert code == 2, err
        assert err.startswith("error: ") and str(path) in err


class TestOutputNamingAnInput:
    """An output that resolves to one of the command's inputs is refused even with --force, keeping the input."""

    @pytest.mark.parametrize("argv, config_env", [
        (["eval", "--checkpoint", "run", "--data", "data", "--out", "run/params.bin"], None),
        (["eval", "--checkpoint", "run", "--data", "data", "--out", "data/test.bin"], None),
        (["train", "--data", "data", "--out", "data", "--epochs", "0", *SMALL_NET], None),
        (["train", "--data", "data", "--out", "fresh", "--log", "data/train.bin", "--epochs", "0", *SMALL_NET], None),
        (["export-sim", "--checkpoint", "run", "--data", "data", "--out", "sim.csv", "--report", "run/manifest.json"],
         None),
        (["train", "--data", "data", "--out", "fresh", "--config", "c.json", "--log", "c.json", *SMALL_NET], None),
        (["train", "--data", "data", "--out", "fresh", "--log", "c.json", *SMALL_NET], "c.json"),
    ], ids=["eval-checkpoint-params", "eval-split-payload", "train-dataset-manifest", "train-log-split-payload",
            "export-sim-checkpoint-manifest", "train-log-config", "train-log-env-config"])
    def test_refused_even_with_force(self, tmp_path, capsys, monkeypatch, argv, config_env):
        data = gen(tmp_path)
        train(tmp_path, data)
        (tmp_path / "c.json").write_text(json.dumps({"trainer": {"epochs": 0}}))
        if config_env:
            monkeypatch.setenv("EEGALIGN_CONFIG", config_env)
        monkeypatch.chdir(tmp_path)
        before = read_files(tmp_path)
        capsys.readouterr()
        assert main([*argv, "--force"]) == 2
        assert one_error_line(capsys).endswith("are the same file")
        assert read_files(tmp_path) == before


class TestExportSim:
    def test_csv_and_report(self, tmp_path, capsys):
        data = gen(tmp_path)
        run = train(tmp_path, data)
        csv_path = tmp_path / "sim.csv"
        code = main(["export-sim", "--checkpoint", str(run), "--data", str(data),
                     "--out", str(csv_path), "--ks", "1", "2"])
        assert code == 0
        sim = np.loadtxt(csv_path, delimiter=",")
        assert sim.shape == (2, 2)  # matches the test split size
        report = json.loads((tmp_path / "sim.json").read_text())
        assert set(report) >= {"top_k", "mAP", "ranks"}
        assert len(report["ranks"]) == 2

    def test_overlapping_test_classes_refused_like_eval(self, tmp_path, capsys):
        run = train(tmp_path, gen(tmp_path))
        other = gen(tmp_path, "other", seed="1")  # its test classes were training classes of seed 3
        argv = ["--checkpoint", str(run), "--data", str(other), "--ks", "1"]
        for command in (["eval"], ["export-sim", "--out", str(tmp_path / "sim.csv")]):
            capsys.readouterr()
            assert main([*command, *argv]) == 2
            assert "test classes overlap training classes" in capsys.readouterr().err
        assert not (tmp_path / "sim.csv").exists() and not (tmp_path / "sim.json").exists()

    def test_collision_refused(self, tmp_path, capsys):
        data = gen(tmp_path)
        run = train(tmp_path, data)
        csv_path = tmp_path / "sim.csv"
        csv_path.write_text("occupied")
        code = main(["export-sim", "--checkpoint", str(run), "--data", str(data),
                     "--out", str(csv_path), "--ks", "1"])
        assert code == 2
        assert "already exists" in capsys.readouterr().err
        assert csv_path.read_text() == "occupied"


    @pytest.mark.parametrize("out,report", [("sim.json", None), ("s.csv", "./s.csv")])
    def test_report_naming_the_csv_refused_even_with_force(self, tmp_path, capsys, monkeypatch, out, report):
        data = gen(tmp_path)
        run = train(tmp_path, data)
        (tmp_path / out).write_text("keep me")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli_module, "evaluate_zero_shot", lambda *a, **k: pytest.fail("evaluated"))
        argv = ["export-sim", "--checkpoint", str(run), "--data", str(data), "--out", out, "--force"]
        code = main([*argv, *(["--report", report] if report else [])])
        assert code == 2
        assert one_error_line(capsys).endswith("are the same file")
        assert sorted(os.listdir(tmp_path)) == sorted(["data", "run", out])
        assert (tmp_path / out).read_text() == "keep me"

    def test_failed_force_keeps_the_old_csv_and_report(self, tmp_path, monkeypatch):
        data = gen(tmp_path)
        run = train(tmp_path, data)
        argv = ["export-sim", "--checkpoint", str(run), "--data", str(data),
                "--out", str(tmp_path / "sim.csv"), "--force"]
        assert main([*argv, "--ks", "1"]) == 0
        before = read_files(tmp_path)
        monkeypatch.setattr(cli_module, "write_json", failing_report_writer)
        assert main([*argv, "--ks", "1", "2"]) == 2
        assert read_files(tmp_path) == before


# Runs one command with every payload filler replaced by one that writes part
# of its bytes and then SIGKILLs its own process, so the kill lands inside a
# write every time instead of rarely, as a timed kill of a short write would.
KILL_CHILD = """
import io, os, signal, sys

import numpy as np

from eegalign import bundle, cli


def die_after_half(fh, payload):
    fh.write(payload[:len(payload) // 2])
    fh.flush()
    os.kill(os.getpid(), signal.SIGKILL)


def write_tensor(fh, array):
    buf = io.BytesIO()
    real_write_tensor(buf, array)
    die_after_half(fh, buf.getvalue())


def write_json(obj, fh):
    buf = io.BytesIO()
    real_write_json(obj, buf)
    die_after_half(fh, buf.getvalue())


def savetxt(fname, X, *args, **kwargs):
    real_savetxt(fname, X[:1], *args, **kwargs)  # one complete row of the matrix
    if hasattr(fname, "flush"):
        fname.flush()
    os.kill(os.getpid(), signal.SIGKILL)


real_write_tensor, real_write_json, real_savetxt = bundle.write_tensor, cli.write_json, np.savetxt
bundle.write_tensor = write_tensor
cli.write_json = write_json
np.savetxt = savetxt
sys.exit(cli.main(sys.argv[1:]))
"""


class TestKilledMidWrite:
    @pytest.fixture()
    def outputs(self, tmp_path):
        """A dataset, a checkpoint, an eval report and an export-sim pair, all complete."""
        data = gen(tmp_path)
        run = train(tmp_path, data)
        source = ["--checkpoint", str(run), "--data", str(data), "--ks", "1"]
        assert main(["eval", *source, "--out", str(tmp_path / "report.json")]) == 0
        assert main(["export-sim", *source, "--out", str(tmp_path / "sim.csv")]) == 0
        return data, run

    @pytest.mark.parametrize("command", ["gen-data", "train", "eval", "export-sim"])
    def test_old_outputs_survive(self, tmp_path, outputs, command):
        data, run = outputs
        source = ["--checkpoint", str(run), "--data", str(data), "--ks", "1", "2"]
        argv, targets = {
            "gen-data": (["gen-data", "--out", str(data), "--seed", "4", *SMALL_GEN],
                         ["data/train.bin", "data/val.bin", "data/test.bin", "data/manifest.json"]),
            "train": (["train", "--data", str(data), "--out", str(run), "--epochs", "1", "--seed", "2",
                       *SMALL_NET], ["run/params.bin", "run/manifest.json", "run/train_log.jsonl"]),
            "eval": (["eval", *source, "--out", str(tmp_path / "report.json")], ["report.json"]),
            "export-sim": (["export-sim", *source, "--out", str(tmp_path / "sim.csv")],
                           ["sim.csv", "sim.json"]),
        }[command]
        before = read_files(tmp_path)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", KILL_CHILD, *argv, "--force"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == -signal.SIGKILL, done.stderr
        after = read_files(tmp_path)
        assert {name: after.get(name) for name in before} == before
        assert set(after) - set(before) <= {f"{target}.tmp" for target in targets}
        manifest = load_dataset(str(data))
        for name in ("train", "val", "test"):
            assert len(load_split(manifest, name).ids) > 0
        load_checkpoint(str(run))
        assert "Top-1" in json.loads((tmp_path / "report.json").read_text())
        assert np.loadtxt(tmp_path / "sim.csv", delimiter=",").shape == (2, 2)
        assert len(json.loads((tmp_path / "sim.json").read_text())["ranks"]) == 2


class TestGradcheckCommand:
    def test_single_component_passes(self, capsys):
        assert main(["gradcheck", "fusion", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "[fusion]" in out
        assert "FAIL" not in out

    def test_no_selection_is_an_error(self, capsys):
        assert main(["gradcheck"]) == 2
        assert "--all" in capsys.readouterr().err

    def test_unknown_component(self, capsys):
        assert main(["gradcheck", "mystery"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_negative_seed_exits_two(self, capsys):
        assert main(["gradcheck", "--all", "--seed", "-1"]) == 2
        assert one_error_line(capsys) == "error: seed must be >= 0, got -1"

    def test_corrupted_gradient_fails(self, monkeypatch, capsys):
        import eegalign.gradchecks as gc
        from eegalign.gradchecks import grad_check
        from eegalign.tensor import Parameter, Tensor

        def broken(seed):
            rng = np.random.default_rng(seed)
            p = Parameter("broken", rng.normal(size=3))

            def loss():
                detached = Tensor(p.data.copy())
                return (detached * detached).sum()

            return grad_check(loss, [p])

        monkeypatch.setitem(gc.CHECKS, "broken", broken)
        assert main(["gradcheck", "broken"]) == 1
        assert "FAILED: broken" in capsys.readouterr().out


class TestTopLevel:
    def test_runs_as_a_module(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "eegalign", "--help"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: eegalign")

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "gen-data" in capsys.readouterr().out

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_extras_rejected_outside_train(self, capsys):
        assert main(["gradcheck", "fusion", "--loss.mu", "2"]) == 2
        assert "unrecognized" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["train", "--data", "data", "--out", "run", "--foo"], "unrecognized arguments: --foo"),
        (["train", "--data", "data", "--out", "run", "--loss.mu"], "argument --loss.mu: expected one argument"),
        (["train", "--data", "data", "--out", "run", "--nosuch.key", "1"], "unrecognized arguments: --nosuch.key 1"),
        (["gen-data", "--out", "run", *SMALL_GEN, "--classes", "0"], "need at least one class"),
        (["gen-data", "--out", "run", *SMALL_GEN, "--channels", "0"], "dimensions must be positive"),
        (["train", "--data", "data", "--out", "run", "--ep", "3"], "unrecognized arguments: --ep 3"),
        (["train", "--data", "data", "--out", "run", "--encoder.kind", "linear"],
         "unrecognized arguments: --encoder.kind linear"),
        (["train", "--data", "data", "--out", "run", "--loss.mu=--"], "argument --loss.mu: expected a value, not --"),
        (["eval", "--checkpoint=--", "--data", "data"], "argument --checkpoint: expected a value, not --"),
    ], ids=["train-unknown-flag", "train-override-without-value", "train-unknown-section", "gen-data-no-classes",
            "gen-data-no-channels", "train-abbreviated-flag", "train-retired-key",
            "train-separator-as-value", "eval-separator-as-value"])
    def test_refused_argument_exits_two_writing_nothing(self, tmp_path, capsys, monkeypatch, argv, message):
        gen(tmp_path)
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert main(argv) == 2
        assert message in one_error_line(capsys)
        assert sorted(os.listdir(tmp_path)) == ["data"]

    def test_train_takes_one_option_per_config_key_plus_two_shortcuts(self):
        dotted = {a.dest: a.option_strings for a in command_parsers()["train"]._actions if "." in a.dest}
        assert dotted == {key: [f"--{key}", *SHORTCUTS.get(key, [])] for key in CONFIG_DEFAULTS}

    def test_train_help_names_every_key_with_its_default(self, capsys):
        assert main(["train", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        for key, value in CONFIG_DEFAULTS.items():
            options = ", ".join(f"{flag} VALUE" for flag in [f"--{key}", *SHORTCUTS.get(key, [])])
            assert f"{options} default: {json.dumps(value)}" in text

    @pytest.mark.parametrize("argv, overrides", [
        (["--epochs", "2"], {"trainer.epochs": 2}),
        (["--trainer.epochs", "2"], {"trainer.epochs": 2}),
        (["--seed=4", "--trainer.epochs=2"], {"trainer.seed": 4, "trainer.epochs": 2}),
        (["--epochs", "2", "--trainer.epochs", "3"], {"trainer.epochs": 3}),
        (["--trainer.epochs", "3", "--epochs", "2"], {"trainer.epochs": 2}),
        (["--fusion.gate_bias_init", "-3"], {"fusion.gate_bias_init": -3.0}),
        (["--fusion.gate_bias_init=-1e-3"], {"fusion.gate_bias_init": -1e-3}),
        (["--fusion.gate_bias_init", "-1e-3"], {"fusion.gate_bias_init": -1e-3}),
        (["--fusion.gate_bias_init", "-1E3"], {"fusion.gate_bias_init": -1e3}),
        (["--data.time_window=[1, 11]"], {"data.time_window": [1, 11]}),
        (["--data.time_window", "[1, 11]", "--fusion.strategy", "bilinear"],
         {"data.time_window": [1, 11], "fusion.strategy": "bilinear"}),
        (["--loss.lambda", "0", "--trainer.clip_norm", "null"], {"loss.lambda": 0.0, "trainer.clip_norm": None}),
    ], ids=["shortcut", "key", "equals-forms", "later-key-wins", "later-shortcut-wins", "negative", "negative-exponent",
            "negative-exponent-token", "negative-capital-exponent-token",
            "json-list", "json-list-and-word", "lambda-and-null"])
    def test_dotted_options_resolve_to_the_config(self, argv, overrides):
        args = build_parser().parse_args(["train", "--data", "d", "--out", "o", *argv])
        resolved = config_to_dict(cli_module._resolve_config(None, args))
        flat = {f"{section}.{key}": value for section, body in resolved.items() for key, value in body.items()}
        assert flat == {**CONFIG_DEFAULTS, **overrides}


class Reached(Exception):
    """What a stubbed command body raises: its argv got past every refusal to the work itself."""


def reach(*args, **kwargs):
    raise Reached


# the work each command reaches once its argv is accepted and its outputs are claimed, stubbed so nothing runs
STUBBED = ["fit", "generate_synthetic", "run_checks", "evaluate_zero_shot"]
# flags that reach the stubs in the toy tree, which the fuzz puts somewhere in three of four argvs
REACHING = {"gen-data": ["--out", "new"], "train": ["--data", "data", "--out", "new", *SMALL_NET],
            "eval": ["--checkpoint", "ckpt", "--data", "data"],
            "export-sim": ["--checkpoint", "ckpt", "--data", "data", "--out", "new.csv"], "gradcheck": ["--all"]}
# besides the commands' own option strings: what the toy tree holds and what it does not, words, numbers, JSON lists,
# empty and dash-led strings
ARGV_VALUES = st.one_of(
    st.sampled_from(["data", "ckpt", "cfg.json", "new", "new.csv", "data/manifest.json", "ckpt/params.bin", "catf",
                     "bilinear", "true", "null", "linear", "train", "test", "fusion", "nan", "1e400", "--"]),
    st.integers(-2, 24).map(str), st.floats(-1e3, 1e3).map(str), st.lists(st.integers(-1, 12), max_size=3).map(json.dumps),
    st.just(""), st.text("-.=0123456789ae", max_size=5).map(lambda s: "-" + s))
ARGV_FUZZ = settings(max_examples=80, deadline=None, derandomize=True)


@st.composite
def argvs(draw, command):
    """``command`` followed by up to three drawn items, each a flag with a value, one of them alone, or a value alone."""
    flags = st.sampled_from(sorted({o for a in command_parsers()[command]._actions for o in a.option_strings}))
    # a flag with its value, as two tokens or joined by "=", three times as often as the flag alone or the value alone
    shape = st.sampled_from([lambda f, v: [f, v], lambda f, v: [f"{f}={v}"]] * 3 + [lambda f, v: [f], lambda f, v: [v]])
    item = st.builds(lambda put, flag, value: put(flag, value), shape, flags, ARGV_VALUES)
    items = draw(st.lists(item, max_size=3))
    if draw(st.integers(0, 3)) < 3:
        items.insert(draw(st.integers(0, len(items))), REACHING[command])
    return [command, *(token for tokens in items for token in tokens)]


def tree_state(root) -> dict:
    """Every directory and file under ``root``, a file with its bytes."""
    state = {}
    for dirpath, dirnames, names in os.walk(root):
        state.update({os.path.relpath(os.path.join(dirpath, d), root): None for d in dirnames})
        state.update({os.path.relpath(os.path.join(dirpath, name), root): Path(dirpath, name).read_bytes()
                      for name in names})
    return state


@pytest.fixture(scope="module")
def toy_tree(tmp_path_factory):
    """A toy dataset, a checkpoint trained on it for no epochs, and a config file, as ``tree_state`` gives them."""
    root = tmp_path_factory.mktemp("toy")
    gen(root)
    train(root, root / "data", name="ckpt", epochs="0")
    (root / "cfg.json").write_text(json.dumps({"trainer": {"epochs": 0}}))
    return tree_state(root)


@pytest.mark.parametrize("command", sorted(REACHING))
@ARGV_FUZZ
@given(data=st.data())
def test_fuzzed_argv_exits_two_changing_nothing_or_reaches_the_work(toy_tree, command, data):
    argv = data.draw(argvs(command), label="argv")
    with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as patch:
        for rel, raw in sorted(toy_tree.items()):
            if raw is None:
                os.makedirs(os.path.join(root, rel))
            else:
                with open(os.path.join(root, rel), "wb") as fh:
                    fh.write(raw)
        patch.chdir(root)
        patch.delenv("EEGALIGN_CONFIG", raising=False)
        for name in STUBBED:
            patch.setattr(cli_module, name, reach)
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
        except Reached:
            return
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
        else:
            assert code == 0 and {"-h", "--help"} & set(argv), (code, err.getvalue())
        assert tree_state(root) == toy_tree
