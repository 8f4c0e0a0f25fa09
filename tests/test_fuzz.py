"""Fuzzed checkpoint and dataset bytes: every load succeeds or raises a typed error.

A typed error is one that the CLI reports as `error: ...` with exit
status 2. A truncated binary payload must always be a FormatError.
"""
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegalign.cli import HANDLED_ERRORS
from eegalign.config import default_config
from eegalign.data import DatasetManifest, generate_synthetic, load_dataset, load_split, save_dataset
from eegalign.errors import FormatError
from eegalign.model import AlignmentModel
from eegalign.trainer import Checkpoint, load_checkpoint, save_checkpoint, snapshot_values

FILES = [("checkpoint", "params.bin"), ("checkpoint", "manifest.json"),
         ("dataset", "train.bin"), ("dataset", "manifest.json")]
FUZZ = settings(max_examples=120, deadline=None, derandomize=True)
# a corrupt value that loads with a RuntimeWarning (an invalid cast) loaded as garbage
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def load_checkpoint_and_model(directory):
    load_checkpoint(directory).build_model()


def load_train_split(directory):
    load_split(load_dataset(directory), "train")


LOADERS = {"checkpoint": load_checkpoint_and_model, "dataset": load_train_split}


@pytest.fixture(scope="module")
def toy_files(tmp_path_factory):
    """Bytes of every file of a toy checkpoint and a one-split toy dataset."""
    root = tmp_path_factory.mktemp("toy")
    cfg = default_config()
    cfg.encoder.dim = cfg.backbone.dim = 8
    cfg.backbone.layers, cfg.backbone.heads, cfg.backbone.prompts = 1, 2, 1
    model = AlignmentModel(cfg, channels=2, timesteps=3, image_size=8)
    save_checkpoint(Checkpoint(config=cfg, channels=2, timesteps=3, image_size=8, epoch=0, val_loss=1.0,
                               train_class_ids=[0, 1], values=snapshot_values(model)),
                    root / "checkpoint")
    data = generate_synthetic(seed=0, n_classes=2, per_class=2, channels=2, timesteps=3, height=8)
    manifest = DatasetManifest(splits={"train": "train.bin"}, channels=2, timesteps=3, height=8, width=8,
                               n_classes=2, seed=0)
    save_dataset(manifest, {"train": data}, str(root / "dataset"))
    return {(kind, name): (root / kind / name).read_bytes() for kind, name in FILES}


def load_with(toy_files, target, edited: bytes) -> None:
    """Write the target's files with ``target`` replaced by ``edited``, then load them."""
    kind, name = target
    with tempfile.TemporaryDirectory() as directory:
        for (k, n), raw in toy_files.items():
            if k == kind:
                with open(os.path.join(directory, n), "wb") as fh:
                    fh.write(edited if n == name else raw)
        LOADERS[kind](directory)


def positions(size: int):
    # headers and manifests sit at the front, so weight the first bytes
    return st.one_of(st.integers(0, min(size, 64) - 1), st.integers(0, size - 1))


def test_the_toy_files_load(toy_files):
    for target in FILES:
        load_with(toy_files, target, toy_files[target])


@FUZZ
@given(target=st.sampled_from(FILES), data=st.data())
def test_single_byte_corruption_loads_or_raises_a_typed_error(toy_files, target, data):
    raw = toy_files[target]
    at = data.draw(positions(len(raw)), label="at")
    byte = data.draw(st.integers(0, 255), label="byte")
    try:
        load_with(toy_files, target, raw[:at] + bytes([byte]) + raw[at + 1:])
    except HANDLED_ERRORS:
        pass


@FUZZ
@given(target=st.sampled_from(FILES), data=st.data())
def test_truncation_loads_or_raises_a_typed_error(toy_files, target, data):
    raw = toy_files[target]
    cut = data.draw(positions(len(raw)), label="cut")
    if target[1].endswith(".bin"):
        with pytest.raises(FormatError):
            load_with(toy_files, target, raw[:cut])
    else:
        try:
            load_with(toy_files, target, raw[:cut])
        except HANDLED_ERRORS:
            pass
