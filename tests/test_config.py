import dataclasses
import json

import pytest

from cirtrain.config import (
    ModelConfig,
    RunConfig,
    TrainingConfig,
    apply_override,
    config_from_dict,
    load_config,
)


def write_config(cfg: RunConfig, path):
    path.write_text(json.dumps(dataclasses.asdict(cfg)))


def test_defaults_match_published_settings():
    cfg = RunConfig()
    assert cfg.objective.alpha == 0.45
    assert cfg.objective.beta == 0.1
    assert cfg.objective.tau == 0.1
    assert cfg.model.compositor_layers == 4


def test_round_trip_identity(tmp_path):
    cfg = RunConfig()
    cfg = apply_override(cfg, "training.epochs=7")
    cfg = apply_override(cfg, "objective.alpha=0.5")
    path = tmp_path / "cfg.json"
    write_config(cfg, path)
    again = load_config(path)
    assert again == cfg
    assert config_from_dict(dataclasses.asdict(cfg)) == cfg


def test_unknown_keys_rejected():
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_dict({"model": {"dmi": 16}})
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_dict({"modle": {}})


def test_removed_model_keys_rejected():
    # single-head attention and positional vectors are fixed, not configurable
    for key in ("heads", "positional"):
        with pytest.raises(ValueError, match="unknown config keys"):
            config_from_dict({"model": {key: 1}})
        with pytest.raises(ValueError):
            apply_override(RunConfig(), f"model.{key}=1")


def test_partial_dict_keeps_defaults():
    cfg = config_from_dict({"training": {"epochs": 3}})
    assert cfg.training.epochs == 3
    assert cfg.training.batch_size == RunConfig().training.batch_size


def test_override_parsing_and_typing():
    cfg = RunConfig()
    cfg = apply_override(cfg, "model.dim=32")
    assert cfg.model.dim == 32 and isinstance(cfg.model.dim, int)
    cfg = apply_override(cfg, "ablation.use_alignment=false")
    assert cfg.ablation.use_alignment is False
    cfg = apply_override(cfg, "objective.tau=0.2")
    assert cfg.objective.tau == 0.2
    cfg = apply_override(cfg, "paths.report=/tmp/r.json")
    assert cfg.paths.report == "/tmp/r.json"


def test_override_rejects_unknown_and_malformed():
    cfg = RunConfig()
    with pytest.raises(ValueError):
        apply_override(cfg, "model.dmi=16")
    with pytest.raises(ValueError):
        apply_override(cfg, "nosection.x=1")
    with pytest.raises(ValueError):
        apply_override(cfg, "model.dim")
    with pytest.raises(ValueError):
        apply_override(cfg, "training.epochs=lots")


def test_override_does_not_mutate_original():
    cfg = RunConfig()
    apply_override(cfg, "training.epochs=99")
    assert cfg.training.epochs == RunConfig().training.epochs


def test_saved_config_is_plain_json(tmp_path):
    path = tmp_path / "cfg.json"
    write_config(RunConfig(), path)
    data = json.loads(path.read_text())
    assert set(data) == {"model", "objective", "training", "ablation", "synth", "paths"}
    assert load_config(path) == RunConfig()


# objective.alpha/beta/tau, training.learning_rate and synth.noise_sigma
FLOAT_KEYS = [
    f"{section.name}.{f.name}"
    for section in dataclasses.fields(RunConfig)
    for f in dataclasses.fields(section.default_factory)
    if isinstance(f.default, float)
]


@pytest.mark.parametrize("key", FLOAT_KEYS)
@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_non_finite_floats_rejected(tmp_path, key, raw):
    with pytest.raises(ValueError, match=f"{key}: expected a finite number"):
        apply_override(RunConfig(), f"{key}={raw}")
    section, name = key.split(".")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({section: {name: float(raw)}}))  # NaN / Infinity literals
    with pytest.raises(ValueError, match=f"{key}: expected a finite number"):
        load_config(path)


@pytest.mark.parametrize("key,raw,kind", [
    ("training.epochs", "lots", "an integer"),
    ("training.batch_size", "1.5", "an integer"),
    ("objective.tau", "abc", "a number"),
    ("synth.noise_sigma", "0.1.2", "a number"),
])
def test_unparsable_numbers_name_their_key(tmp_path, key, raw, kind):
    with pytest.raises(ValueError, match=f"^{key}: expected {kind}, got {raw!r}$"):
        apply_override(RunConfig(), f"{key}={raw}")
    section, name = key.split(".")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({section: {name: raw}}))
    with pytest.raises(ValueError, match=f"^{key}: expected {kind}, got {raw!r}$"):
        load_config(path)


@pytest.mark.parametrize("key,value", [
    ("epochs", 0), ("epochs", -1), ("batch_size", 0), ("learning_rate", 0.0), ("learning_rate", -0.01),
])
def test_training_values_that_train_nothing_rejected(tmp_path, key, value):
    message = f"training.{key} must be"
    with pytest.raises(ValueError, match=message):
        TrainingConfig(**{key: value})
    with pytest.raises(ValueError, match=message):
        apply_override(RunConfig(), f"training.{key}={value}")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"training": {key: value}}))
    with pytest.raises(ValueError, match=message):
        load_config(path)


def test_nan_learning_rate_rejected_at_construction():
    # parsing already refuses NaN; the bound check must refuse it too
    with pytest.raises(ValueError, match="training.learning_rate must be > 0"):
        TrainingConfig(learning_rate=float("nan"))


@pytest.mark.parametrize("key,value,least", [
    ("dim", 0, 1), ("image_vocab", 0, 1), ("text_vocab", 0, 1), ("max_tokens", 0, 1),
    ("prompts", -1, 0), ("compositor_layers", 0, 1),
])
def test_model_values_out_of_range_rejected(tmp_path, key, value, least):
    message = f"^model.{key} must be >= {least}, got {value}$"
    with pytest.raises(ValueError, match=message):
        ModelConfig(**{key: value})
    with pytest.raises(ValueError, match=message):
        apply_override(RunConfig(), f"model.{key}={value}")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {key: value}}))
    with pytest.raises(ValueError, match=message):
        load_config(path)
    # the bound itself is a valid setting
    assert getattr(apply_override(RunConfig(), f"model.{key}={least}").model, key) == least
