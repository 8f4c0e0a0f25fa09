"""End-to-end command-line behavior, run in-process through main()."""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from eegalign import data as data_module
from eegalign import trainer as trainer_module
from eegalign.cli import main
from eegalign.data import load_dataset, load_split, save_dataset
from eegalign.tensor import read_tensor
from eegalign.trainer import load_checkpoint, parameter_digest

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
        fail_write_tensor(data_module, 5)
        code = main(["gen-data", "--out", str(out), "--seed", "4", *SMALL_GEN, "--force"])
        assert code == 2
        assert read_files(out) == before
        assert len(load_split(load_dataset(str(out)), "train").ids) > 0

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

    def test_unknown_override_names_the_key(self, tmp_path, capsys):
        data = gen(tmp_path)
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "x"),
                     "--epochs", "0", "--loss.gamma", "1"])
        assert code == 2
        assert "loss.gamma" in capsys.readouterr().err

    def test_invalid_config_value_exits_nonzero(self, tmp_path, capsys):
        data = gen(tmp_path)
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "x"),
                     "--epochs", "0", "--trainer.batch_size", "1"])
        assert code == 2
        assert "batch_size" in capsys.readouterr().err

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

    def test_partial_outputs_removed_on_failure(self, tmp_path, capsys):
        data = gen(tmp_path)
        out = tmp_path / "broken"
        code = main(["train", "--data", str(data), "--out", str(out), "--epochs", "0",
                     "--log", str(tmp_path / "no-such-dir" / "log.jsonl"), *SMALL_NET])
        assert code == 2
        assert not out.exists()

    def test_failed_force_keeps_the_old_checkpoint(self, tmp_path, fail_write_tensor):
        data = gen(tmp_path)
        run = train(tmp_path, data)
        old = parameter_digest(load_checkpoint(run).build_model().parameters())
        old_log = (run / "train_log.jsonl").read_bytes()
        fail_write_tensor(trainer_module, 3)
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


class TestEval:
    @pytest.fixture()
    def trained(self, tmp_path):
        data = gen(tmp_path)
        return data, train(tmp_path, data)

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

    def test_corrupt_params_header_exits_two(self, trained, capsys):
        data, run = trained
        header = np.asarray([2, 2**31, 2**31], dtype="<u4").tobytes()
        (run / "params.bin").write_bytes(header + b"\x00" * 64)
        code = main(["eval", "--checkpoint", str(run), "--data", str(data)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "payload bytes" in err

    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_non_finite_split_exits_two(self, trained, tmp_path, capsys, command):
        data, run = trained
        manifest = load_dataset(str(data))
        split = "test" if command == "eval" else "train"
        arrays = load_split(manifest, split)
        arrays.eeg[1, 0, 0] = np.nan
        save_dataset(manifest, {split: arrays}, str(data))
        capsys.readouterr()
        if command == "eval":
            code = main(["eval", "--checkpoint", str(run), "--data", str(data)])
        else:
            code = main(["train", "--data", str(data), "--out", str(tmp_path / "again"),
                         "--epochs", "1", *SMALL_NET])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"split '{split}' has non-finite EEG at sample 1" in err

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


MALFORMED_MANIFESTS = {
    "dataset-invalid-utf8": ("data", lambda raw: raw.replace(b"train.bin", b"tr\xffin.bin", 1)),
    "dataset-channels-not-a-number": ("data", set_key("channels", "x")),
    "checkpoint-invalid-utf8": ("run", lambda raw: raw.replace(b"format_version", b"format\xffversion", 1)),
    "checkpoint-epoch-not-a-number": ("run", set_key("epoch", "x")),
    "checkpoint-geometry-without-channels": ("run", edit_json(drop_geometry_channels)),
    "checkpoint-parameters-not-a-list": ("run", set_key("parameters", 5)),
    "checkpoint-top-level-list": ("run", edit_json(lambda obj: [obj])),
}


class TestMalformedManifests:
    @pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
    def test_exits_two_naming_the_file(self, tmp_path, capsys, case):
        data = gen(tmp_path)
        run = train(tmp_path, data, epochs="0")
        which, corrupt = MALFORMED_MANIFESTS[case]
        path = tmp_path / which / "manifest.json"
        path.write_bytes(corrupt(path.read_bytes()))
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(run), "--data", str(data)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("error: ") and str(path) in err


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

    def test_corrupted_gradient_fails(self, monkeypatch, capsys):
        import eegalign.gradchecks as gc
        from eegalign.tensor import Parameter, Tensor, grad_check

        def broken(seed):
            rng = np.random.default_rng(seed)
            p = Parameter("broken", Tensor(rng.normal(size=3)))

            def loss():
                detached = Tensor(p.value.data.copy())
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
