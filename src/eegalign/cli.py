"""Command-line entry point: gen-data, train, eval, export-sim, gradcheck.

Every command is deterministic given its flags and seeds, refuses to
clobber existing outputs without --force, and refuses, even with --force,
an output that resolves to another output or to one of its inputs (the
dataset's manifest and splits, the checkpoint's files, the config file).
Every file goes through `write_atomically`, staged as `<path>.tmp` and moved
into place when complete: a failed command removes only a directory it
created, and a killed one may leave `.tmp` files but never a partial
target. `train` accepts dotted config overrides such as `--loss.mu 1`
after its flags.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys

import numpy as np

from .bundle import MANIFEST_NAME, write_atomically, write_json
from .config import (
    RunConfig,
    apply_overrides,
    default_config,
    load_config,
)
from .data import (
    DatasetManifest,
    apply_masks,
    generate_synthetic,
    load_dataset,
    load_split,
    save_dataset,
    zero_shot_split,
)
from .errors import ConfigError, ContractError, DimensionError, DomainError, FormatError
from .gradchecks import CHECKS, REL_TOL, run_checks
from .metrics import write_similarity_csv
from .model import AlignmentModel
from .trainer import CHECKPOINT_PARAMS, evaluate_zero_shot, fit, load_checkpoint, save_checkpoint

CONFIG_ENV = "EEGALIGN_CONFIG"
# what main() reports as `error: ...` with exit status 2; anything else is a bug
HANDLED_ERRORS = (ConfigError, ContractError, DimensionError, DomainError, FormatError, OSError)
SPLIT_FILES = {"train": "train.bin", "val": "val.bin", "test": "test.bin"}
CHECKPOINT_FILES = (MANIFEST_NAME, CHECKPOINT_PARAMS)


def _claim_outputs(outputs, inputs, force: bool) -> None:
    """Refuse, before any work, every (what, path, is_dir) output the command may not write.

    An output that resolves to one of ``inputs`` or to another output is refused even with --force, as is a file
    that would replace a directory, be a directory output or sit above one. A file whose directory does not exist
    is refused unless that directory is itself an output. Without --force an existing file or non-empty directory
    is refused.
    """
    dirs = {os.path.realpath(path): f"{what} {path}" for what, path, is_dir in outputs if is_dir}
    seen = {os.path.realpath(path): f"input {path}" for path in inputs}
    for what, path, is_dir in outputs:
        real = os.path.realpath(path)
        for real_dir, dir_output in dirs.items():
            if not is_dir and os.path.commonpath([real, real_dir]) == real:
                raise ConfigError(f"{what} {path} is {dir_output} or a directory above it")
        if real in seen:
            raise ConfigError(f"{seen[real]} and {what} {path} are the same file")
        seen[real] = f"{what} {path}"
        if not is_dir and os.path.isdir(path):
            raise ConfigError(f"{what} {path} is a directory")
        parent = os.path.dirname(path) or "."
        if not is_dir and not os.path.isdir(parent) and os.path.realpath(parent) not in dirs:
            raise ConfigError(f"{what} directory {parent} does not exist")
        if not force and os.path.exists(path) and not (os.path.isdir(path) and not os.listdir(path)):
            raise ConfigError(f"{what} {path} already exists; pass --force to overwrite")


def _dataset_files(manifest: DatasetManifest) -> list[str]:
    return [os.path.join(manifest.root, name) for name in (MANIFEST_NAME, *manifest.splits.values())]


@contextlib.contextmanager
def _fresh_outputs(dirs):
    """Remove the directories among ``dirs`` that the body created, if it raises.

    Files are left alone: `write_atomically` keeps the old ones when a write fails.
    """
    fresh_dirs = [d for d in dirs if not os.path.exists(d)]
    try:
        yield
    except BaseException:
        for d in fresh_dirs:
            shutil.rmtree(d, ignore_errors=True)
        raise


# -- gen-data ----------------------------------------------------------------


def cmd_gen_data(args, extras) -> int:
    _claim_outputs([("dataset directory", args.out, True)], inputs=[], force=args.force)
    data = generate_synthetic(
        seed=args.seed,
        n_classes=args.classes,
        per_class=args.per_class,
        channels=args.channels,
        timesteps=args.timesteps,
        height=args.height,
        noise=args.noise,
    )
    splits = zero_shot_split(data, n_test_classes=args.held_out,
                             n_val_samples=args.val_samples, seed=args.seed)
    manifest = DatasetManifest(
        splits=dict(SPLIT_FILES),
        channels=args.channels,
        timesteps=args.timesteps,
        height=args.height,
        width=args.height,
        n_classes=args.classes,
        seed=args.seed,
    )
    with _fresh_outputs(dirs=[args.out]):
        save_dataset(manifest, splits, args.out)
    for name in ("train", "val", "test"):
        split = splits[name]
        print(f"{name}: {len(split)} pairs, {len(set(split.class_ids.tolist()))} classes")
    print(f"wrote dataset to {args.out}")
    return 0


# -- train -------------------------------------------------------------------


def _parse_dotted_overrides(tokens: list[str]) -> dict[str, str]:
    """Turn leftover argv (`--loss.mu 1` or `--loss.mu=1`) into a dict."""
    overrides: dict[str, str] = {}
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if not token.startswith("--") or "." not in token:
            raise ConfigError(
                f"unrecognized argument {token!r}; config overrides look like --section.key value"
            )
        key = token[2:]
        if "=" in key:
            key, value = key.split("=", 1)
            i += 1
        else:
            if i + 1 >= len(tokens):
                raise ConfigError(f"override {token!r} is missing a value")
            value = tokens[i + 1]
            i += 2
        overrides[key] = value
    return overrides


def _resolve_config(config_path: str | None, args, extras) -> RunConfig:
    cfg = load_config(config_path) if config_path else default_config()
    overrides = {}
    if args.epochs is not None:
        overrides["trainer.epochs"] = str(args.epochs)
    if args.seed is not None:
        overrides["trainer.seed"] = str(args.seed)
    overrides.update(_parse_dotted_overrides(extras))
    return apply_overrides(cfg, overrides)


def _training_outputs(args):
    """Each repeat's (checkpoint directory, log path), and every output of the command as (what, path, is_dir)."""
    stem = args.log or os.path.join(args.out, "train_log.jsonl")
    if args.repeats == 1:
        runs = [(args.out, stem)]
    else:
        root, ext = os.path.splitext(stem)
        runs = [(os.path.join(args.out, f"repeat-{r}"), f"{root}.{r}{ext}") for r in range(args.repeats)]
    outputs = [] if args.repeats == 1 else [("output directory", args.out, True)]
    for out_dir, log_path in runs:
        outputs += [("checkpoint directory", out_dir, True), ("log", log_path, False),
                    *(("checkpoint file", os.path.join(out_dir, name), False) for name in CHECKPOINT_FILES)]
    return runs, outputs


def _run_one_training(cfg: RunConfig, manifest, train, val, out_dir: str, log_path: str):
    """Fit and save; the log is written from the history once the checkpoint is.

    A failed run therefore leaves the previous checkpoint with its own log.
    """
    model = AlignmentModel(cfg, channels=train.eeg.shape[1], timesteps=train.eeg.shape[2],
                           image_size=manifest.height)
    with _fresh_outputs([out_dir]):
        os.makedirs(out_dir, exist_ok=True)
        ckpt, history = fit(model, train, val, progress=lambda row: print(json.dumps(row), flush=True))
        save_checkpoint(ckpt, out_dir)
        text = "".join(json.dumps(row) + "\n" for row in history)
        write_atomically({log_path: lambda fh: fh.write(text.encode())})
    return ckpt, history


def cmd_train(args, extras) -> int:
    config_path = args.config or os.environ.get(CONFIG_ENV)
    cfg = _resolve_config(config_path, args, extras)
    cfg.data.path = args.data

    if args.repeats < 1:
        raise ConfigError(f"--repeats must be >= 1, got {args.repeats}")
    runs, outputs = _training_outputs(args)
    manifest = load_dataset(args.data)
    _claim_outputs(outputs, inputs=_dataset_files(manifest) + ([config_path] if config_path else []),
                   force=args.force)

    train = apply_masks(load_split(manifest, "train"), cfg.data.channel_mask, cfg.data.time_window)
    val = apply_masks(load_split(manifest, "val"), cfg.data.channel_mask, cfg.data.time_window)

    base_seed = cfg.trainer.seed
    val_losses = []
    for r, (out_dir, log_path) in enumerate(runs):
        cfg.trainer.seed = base_seed + r
        ckpt, _ = _run_one_training(cfg, manifest, train, val, out_dir, log_path)
        val_losses.append(ckpt.val_loss)
        print(f"seed {cfg.trainer.seed}: best epoch {ckpt.epoch}, val loss {ckpt.val_loss:.6f} -> {out_dir}")
    if args.repeats > 1:
        print(f"val loss over {args.repeats} repeats: "
              f"mean {np.mean(val_losses):.6f}, median {np.median(val_losses):.6f}")
    return 0


# -- eval / export-sim -------------------------------------------------------


def _evaluate_checkpoint(args, outputs):
    """The retrieval report and similarity of ``args.checkpoint`` on one split of ``args.data``.

    The command's (what, path, is_dir) ``outputs`` are claimed after the dataset manifest is read and before the
    checkpoint is. The split must hold pairs, masked as in training; the model refuses a batch
    that does not fit its geometry. A test split may hold no trained class.
    """
    manifest = load_dataset(args.data)
    _claim_outputs(outputs, inputs=_dataset_files(manifest) + [os.path.join(args.checkpoint, name)
                                                                for name in CHECKPOINT_FILES], force=args.force)
    ckpt = load_checkpoint(args.checkpoint)
    split = load_split(manifest, args.split)
    if not len(split):
        raise ConfigError(f"split {args.split!r} of {args.data} has no pairs to evaluate")
    split = apply_masks(split, ckpt.config.data.channel_mask, ckpt.config.data.time_window)
    train_ids = ckpt.train_class_ids if args.split == "test" else None
    return evaluate_zero_shot(ckpt.build_model(), split, args.ks or ckpt.config.eval.ks,
                              train_class_ids=train_ids, batch_size=ckpt.config.trainer.batch_size)


def cmd_eval(args, extras) -> int:
    report, _ = _evaluate_checkpoint(args, [("report", args.out, False)] if args.out else [])
    out = {f"Top-{k}": report.top_k[k] for k in sorted(report.top_k)}
    out["mAP"] = report.map_score
    out["n_queries"] = len(report.ranks)
    out["split"] = args.split
    print(json.dumps(out, indent=2))
    if args.out:
        write_atomically({args.out: lambda fh: write_json(out, fh)})
    return 0


def cmd_export_sim(args, extras) -> int:
    report_path = args.report or os.path.splitext(args.out)[0] + ".json"
    report, sim = _evaluate_checkpoint(args, [("CSV", args.out, False), ("report", report_path, False)])
    report.similarity_path = args.out
    write_atomically({
        args.out: lambda fh: write_similarity_csv(fh, sim),
        report_path: lambda fh: write_json(report.to_json_dict(), fh),
    })
    print(f"wrote {sim.shape[0]}x{sim.shape[1]} similarity matrix to {args.out}")
    print(f"wrote retrieval report to {report_path}")
    return 0


# -- gradcheck ----------------------------------------------------------------


def cmd_gradcheck(args, extras) -> int:
    names = None if args.all else args.components
    if not names and not args.all:
        raise ConfigError("name components to check or pass --all; "
                          f"known: {', '.join(sorted(CHECKS))}")
    reports = run_checks(names, seed=args.seed)
    failed = []
    for name, rep in reports.items():
        print(f"[{name}] tol={REL_TOL:g}")
        print(rep.summary())
        if not rep.passed:
            failed.append(name)
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return 1
    print(f"all {len(reports)} component checks passed")
    return 0


# -- wiring --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eegalign",
        description="EEG-image alignment: synthetic data, training, retrieval evaluation.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("gen-data", help="generate a synthetic paired dataset with zero-shot splits")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--classes", type=int, default=50)
    p.add_argument("--per-class", type=int, default=20)
    p.add_argument("--channels", type=int, default=17)
    p.add_argument("--timesteps", type=int, default=250)
    p.add_argument("--height", type=int, default=32, help="square image side in pixels")
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--held-out", type=int, default=10, help="classes reserved for the test split")
    p.add_argument("--val-samples", type=int, default=100)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model; accepts dotted config overrides")
    p.add_argument("--data", required=True, help="dataset directory from gen-data")
    p.add_argument("--out", required=True, help="checkpoint directory")
    p.add_argument("--config", help=f"config JSON (default: ${CONFIG_ENV} if set, else built-ins)")
    p.add_argument("--log", help="training log path (default: <out>/train_log.jsonl)")
    p.add_argument("--epochs", type=int, help="shortcut for --trainer.epochs")
    p.add_argument("--seed", type=int, help="shortcut for --trainer.seed")
    p.add_argument("--repeats", type=int, default=1, help="train this many seeds, seed+0..seed+R-1")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="retrieval metrics for a checkpoint on one split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=["train", "val", "test"], default="test")
    p.add_argument("--ks", type=int, nargs="+", help="top-k cutoffs (default: checkpoint's eval.ks)")
    p.add_argument("--out", help="also write the report JSON here")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-sim", help="write the similarity matrix CSV plus a JSON report")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=["train", "val", "test"], default="test")
    p.add_argument("--out", required=True, help="CSV path")
    p.add_argument("--report", help="report JSON path (default: CSV path with .json)")
    p.add_argument("--ks", type=int, nargs="+")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_export_sim)

    p = sub.add_parser("gradcheck", help="finite-difference checks for trainable components")
    p.add_argument("components", nargs="*", metavar="component",
                   help=f"any of: {', '.join(sorted(CHECKS))}")
    p.add_argument("--all", action="store_true", help="check every component")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if args.command is None:
        parser.print_help()
        return 2
    if extras and args.command != "train":
        print(f"error: unrecognized arguments: {' '.join(extras)}", file=sys.stderr)
        return 2
    try:
        return args.func(args, extras)
    except HANDLED_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
