"""Config tree: defaults, aliasing, strict key checking, overrides."""
import json
import re
from pathlib import Path

import pytest

from eegalign.config import (
    RunConfig,
    apply_overrides,
    config_from_dict,
    config_to_dict,
    default_config,
    load_config,
    validate_config,
)
from eegalign.errors import ConfigError


class TestDefaults:
    def test_default_values(self):
        cfg = default_config()
        assert cfg.loss.mu == 0.6
        assert cfg.loss.alpha == 0.3
        assert cfg.loss.lam == 0.1
        assert cfg.loss.beta == 0.3
        assert cfg.trainer.lr_a == 0.002
        assert cfg.trainer.lr_b == 0.02
        assert cfg.fusion.strategy == "catf"
        assert cfg.backbone.patch == 8
        assert cfg.eval.ks == [1, 3, 5]

    def test_defaults_validate(self):
        validate_config(default_config())

    def test_round_trip_through_dict(self):
        cfg = default_config()
        cfg.loss.mu = 0.9
        cfg.data.channel_mask = [0, 2, 5]
        again = config_from_dict(config_to_dict(cfg))
        assert config_to_dict(again) == config_to_dict(cfg)

    def test_partial_dict_fills_defaults(self):
        cfg = config_from_dict({"loss": {"mu": 1.0}})
        assert cfg.loss.mu == 1.0
        assert cfg.trainer.epochs == RunConfig().trainer.epochs
        assert cfg.backbone.dim == RunConfig().backbone.dim

    def test_readme_defaults_block_matches(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        block = re.search(r"Defaults:\n\n```json\n(.*?)\n```", readme, re.S)
        assert block is not None
        assert json.loads(block.group(1)) == config_to_dict(default_config())


class TestLambdaAlias:
    # "lambda" is a Python keyword, so the dataclass field is "lam" while
    # every file and flag spells it the public way
    def test_dict_accepts_lambda(self):
        cfg = config_from_dict({"loss": {"lambda": 0.5}})
        assert cfg.loss.lam == 0.5

    def test_dict_emits_lambda(self):
        out = config_to_dict(default_config())
        assert "lambda" in out["loss"]
        assert "lam" not in out["loss"]

    def test_override_accepts_lambda(self):
        cfg = apply_overrides(default_config(), {"loss.lambda": "0"})
        assert cfg.loss.lam == 0.0

    @pytest.mark.parametrize("tree", [{"loss": {"lam": 0.5}}, {"loss": {"lambda": 0.1, "lam": 0.9}}])
    def test_attribute_spelling_is_an_unknown_key(self, tree):
        with pytest.raises(ConfigError, match="unknown config key loss.lam"):
            config_from_dict(tree)


class TestStrictKeys:
    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown config section"):
            config_from_dict({"optimizer": {}})

    def test_unknown_key_names_path(self):
        with pytest.raises(ConfigError, match="loss.gamma"):
            config_from_dict({"loss": {"gamma": 1.0}})

    def test_non_dict_section(self):
        with pytest.raises(ConfigError, match="expected an object"):
            config_from_dict({"loss": 3})

    def test_non_dict_root(self):
        with pytest.raises(ConfigError, match="config root"):
            config_from_dict([1, 2])


class TestTypeChecking:
    def test_int_promotes_to_float(self):
        cfg = config_from_dict({"loss": {"mu": 1}})
        assert cfg.loss.mu == 1.0
        assert isinstance(cfg.loss.mu, float)

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigError, match="trainer.epochs"):
            config_from_dict({"trainer": {"epochs": True}})

    def test_string_is_not_a_number(self):
        with pytest.raises(ConfigError, match="loss.mu"):
            config_from_dict({"loss": {"mu": "big"}})

    @pytest.mark.parametrize("raw", ["1e400", "-1e400", "NaN", "Infinity", "1" + "0" * 400])
    @pytest.mark.parametrize("key", ["loss.tau_init", "trainer.clip_norm", "loss.mu", "loss.alpha", "loss.lambda",
                                     "loss.beta"])
    def test_non_finite_number_rejected(self, key, raw):
        with pytest.raises(ConfigError, match=f"{key}: expected a finite number"):
            apply_overrides(default_config(), {key: raw})

    def test_integer_too_long_for_python_to_convert_is_a_config_error(self):
        # json refuses integers of more than 4,300 digits with a plain ValueError
        with pytest.raises(ConfigError, match="loss.mu must be float"):
            apply_overrides(default_config(), {"loss.mu": "1" * 5000})

    def test_boolean_leaf_takes_only_true_or_false(self):
        assert config_from_dict({"loss": {"detach_targets": False}}).loss.detach_targets is False
        for value in (0, 1, "true", None):
            with pytest.raises(ConfigError, match="loss.detach_targets must be bool"):
                config_from_dict({"loss": {"detach_targets": value}})

    def test_channel_mask_must_be_int_list(self):
        with pytest.raises(ConfigError, match="data.channel_mask"):
            config_from_dict({"data": {"channel_mask": [0, "one"]}})

    def test_optional_accepts_none(self):
        cfg = config_from_dict({"trainer": {"clip_norm": None}, "data": {"path": None}})
        assert cfg.trainer.clip_norm is None
        assert cfg.data.path is None

    def test_clip_norm_number(self):
        cfg = config_from_dict({"trainer": {"clip_norm": 5}})
        assert cfg.trainer.clip_norm == 5.0


class TestFileRoundTrip:
    def test_save_load(self, tmp_path):
        cfg = default_config()
        cfg.loss.lam = 0.25
        cfg.data.time_window = [10, 200]
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        again = load_config(path)
        assert config_to_dict(again) == config_to_dict(cfg)

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)


class TestOverrides:
    def test_float_override(self):
        cfg = apply_overrides(default_config(), {"loss.mu": "0.9"})
        assert cfg.loss.mu == 0.9

    def test_string_override(self):
        cfg = apply_overrides(default_config(), {"fusion.strategy": "bilinear"})
        assert cfg.fusion.strategy == "bilinear"

    def test_list_override(self):
        cfg = apply_overrides(default_config(), {"eval.ks": "[1, 2, 4]"})
        assert cfg.eval.ks == [1, 2, 4]

    def test_null_clears_optional(self):
        cfg = default_config()
        cfg.trainer.clip_norm = 1.0
        cfg = apply_overrides(cfg, {"trainer.clip_norm": "null"})
        assert cfg.trainer.clip_norm is None

    def test_unknown_key_reports_path(self):
        with pytest.raises(ConfigError, match="loss.gamma"):
            apply_overrides(default_config(), {"loss.gamma": "1"})

    def test_key_without_section_rejected(self):
        with pytest.raises(ConfigError, match="section.key"):
            apply_overrides(default_config(), {"epochs": "3"})

    def test_overrides_are_validated(self):
        with pytest.raises(ConfigError, match="batch_size"):
            apply_overrides(default_config(), {"trainer.batch_size": "1"})


class TestValidation:
    @pytest.mark.parametrize("section,key,value,message", [
        ("trainer", "batch_size", 1, "batch_size"),
        ("trainer", "epochs", -1, "epochs"),
        ("trainer", "lr_a", 0.0, "learning rates"),
        ("trainer", "lr_b", -0.1, "learning rates"),
        ("trainer", "clip_norm", -1.0, "clip_norm"),
        ("fusion", "strategy", "concat", "strategy"),
        ("loss", "mu", -0.1, "loss weights"),
        ("loss", "beta", 1.5, "beta"),
        ("loss", "tau_init", 0.0, "tau_init"),
        ("eval", "ks", [], "eval.ks"),
        ("eval", "ks", [0], "eval.ks"),
        ("data", "time_window", [5, 2], "time_window"),
        ("data", "time_window", [-1, 4], "time_window"),
        ("data", "channel_mask", [], "channel_mask"),
        ("data", "channel_mask", [0, -1], "channel_mask"),
        ("encoder", "kind", "tsconv", "encoder.kind"),
        ("encoder", "kind", "foo", "encoder.kind"),
        ("backbone", "dim", 0, "backbone.dim"),
        ("backbone", "layers", 0, "backbone.layers"),
        ("backbone", "layers", -1, "backbone.layers"),
        ("backbone", "heads", 0, "backbone.heads"),
        ("backbone", "heads", 3, "backbone.heads"),
        ("backbone", "patch", 0, "backbone.patch"),
        ("backbone", "mlp_ratio", 0, "backbone.mlp_ratio"),
        ("encoder", "dim", 0, "encoder.dim"),
        ("fusion", "heads", 0, "fusion.heads"),
        ("fusion", "heads", 5, "fusion.heads"),
        ("filter", "height", 0, "filter.height"),
        ("filter", "width", 0, "filter.width"),
        ("filter", "height", 4, "filter.height"),
        ("filter", "width", 2, "filter.width"),
        ("backbone", "prompts", -1, "backbone.prompts"),
        ("trainer", "seed", -1, "trainer.seed"),
    ])
    def test_rejects_bad_field(self, section, key, value, message):
        # through config_from_dict, which ends in validate_config and also
        # holds the legacy encoder.kind key, which is no longer a field
        with pytest.raises(ConfigError, match=message):
            config_from_dict({section: {key: value}})

    @pytest.mark.parametrize("mix_init", [-0.1, 0.0, 1.0, 1.5])
    def test_bilinear_mix_init_must_lie_inside_the_open_interval(self, mix_init):
        with pytest.raises(ConfigError, match="fusion.mix_init"):
            config_from_dict({"fusion": {"strategy": "bilinear", "mix_init": mix_init}})
        # the cross-attention strategy never reads mix_init
        assert config_from_dict({"fusion": {"strategy": "catf", "mix_init": mix_init}}).fusion.mix_init == mix_init

    def test_legacy_encoder_kind_linear_accepted(self):
        assert config_to_dict(config_from_dict({"encoder": {"kind": "linear", "dim": 8}})) == \
            config_to_dict(apply_overrides(default_config(), {"encoder.kind": "linear", "encoder.dim": "8"}))
        assert "kind" not in config_to_dict(default_config())["encoder"]
