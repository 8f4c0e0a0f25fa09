"""Fuzzed checkpoint, dataset and config input: every load succeeds or raises a typed error.

A typed error is one that the CLI reports as `error: ...` with exit
status 2. A truncated binary payload must always be a FormatError.
Besides raw bytes, any JSON value is put at each manifest field and
each config leaf, integers beyond float range included.
"""
import json
import os
import tempfile
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegalign.cli import HANDLED_ERRORS, _resolve_config, build_parser
from eegalign.config import config_from_dict, config_to_dict, default_config
from eegalign.data import DatasetManifest, generate_synthetic, load_dataset, load_split, save_dataset
from eegalign.errors import FormatError
from eegalign.model import AlignmentModel
from eegalign.trainer import CHECKPOINT_FIELDS, Checkpoint, load_checkpoint, save_checkpoint, snapshot_values

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


def load_with(toy_files, target, edited: bytes, loader=None) -> None:
    """Write the target's files with ``target`` replaced by ``edited``, then load them (by ``loader`` if given)."""
    kind, name = target
    with tempfile.TemporaryDirectory() as directory:
        for (k, n), raw in toy_files.items():
            if k == kind:
                with open(os.path.join(directory, n), "wb") as fh:
                    fh.write(edited if n == name else raw)
        (loader or LOADERS[kind])(directory)


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


# any JSON value, small, with integers on both sides of float range,
# and with strings no file name can hold
JSON_SCALARS = (st.none() | st.booleans() | st.floats() | st.text(max_size=6)
                | st.sampled_from(["\x00", "\ud800"]) | st.integers()
                | st.integers(2**1024, 2**1030) | st.integers(-(2**1030), -(2**1024)))
# a scalar half the time: recursive alone draws mostly lists and objects
JSON_VALUES = JSON_SCALARS | st.recursive(
    JSON_SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5)
FIELD_FUZZ = settings(max_examples=30, deadline=None, derandomize=True)


def dotted_fields(fields: dict, prefix: str = "") -> list[str]:
    """Every key of a check_fields table, with the keys of its nested tables dotted."""
    keys = []
    for key, hint in fields.items():
        keys.append(prefix + key)
        if isinstance(hint, dict):
            keys.extend(dotted_fields(hint, f"{prefix}{key}."))
    return keys


def with_value(raw: bytes, dotted: str, value) -> bytes:
    """The JSON object ``raw`` with ``value`` at the dotted key."""
    obj = json.loads(raw)
    *parents, last = dotted.split(".")
    inner = obj
    for key in parents:
        inner = inner[key]
    inner[last] = value
    return json.dumps(obj).encode()


# every declared field, so a field the format gains is fuzzed too; "splits.train" is the toy dataset's split
MANIFEST_FIELDS = ([("checkpoint", key) for key in dotted_fields(CHECKPOINT_FIELDS)]
                   + [("dataset", key) for key in typing.get_type_hints(DatasetManifest) if key != "root"]
                   + [("dataset", "splits.train")])


@pytest.mark.parametrize("field", MANIFEST_FIELDS, ids=lambda f: f"{f[0]}.{f[1]}")
@FIELD_FUZZ
@given(value=JSON_VALUES)
def test_any_json_value_at_a_manifest_field_loads_or_raises_a_typed_error(toy_files, field, value):
    kind, key = field
    target = (kind, "manifest.json")
    # a checkpoint loads without building its model, whose size a fuzzed geometry may make unbounded
    loader = load_checkpoint if kind == "checkpoint" else None
    try:
        load_with(toy_files, target, with_value(toy_files[target], key, value), loader)
    except HANDLED_ERRORS:
        pass


CONFIG_LEAVES = [f"{section}.{key}" for section, body in config_to_dict(default_config()).items()
                 for key in body] + ["encoder.kind"]
PARSER = build_parser()


@pytest.mark.parametrize("leaf", CONFIG_LEAVES)
@FIELD_FUZZ
@given(value=JSON_VALUES)
def test_any_json_value_at_a_config_leaf_loads_or_raises_a_typed_error(leaf, value):
    section, key = leaf.split(".")
    # the second loader is `train`'s option; data.path and encoder.kind have none, so argparse refuses them
    argv = ["train", "--data", "d", "--out", "o", f"--{leaf}={json.dumps(value)}"]
    for load in (lambda: config_from_dict({section: {key: value}}),
                 lambda: _resolve_config(None, PARSER.parse_args(argv))):
        try:
            load()
        except HANDLED_ERRORS:
            pass
