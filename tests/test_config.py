import dataclasses
import json
import math
import re

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
    # single-head attention, positional vectors and two independent compositor
    # branches are fixed, not configurable
    for section, key in (("model", "heads"), ("model", "positional"),
                         ("ablation", "share_compositor_branches")):
        with pytest.raises(ValueError, match="unknown config keys"):
            config_from_dict({section: {key: 1}})
        with pytest.raises(ValueError):
            apply_override(RunConfig(), f"{section}.{key}=1")


@pytest.mark.parametrize("doc,where", [
    ([1, 2], "top level"),
    ({"model": 5}, "section 'model'"),
    ({"training": [1]}, "section 'training'"),
])
def test_config_that_is_not_an_object_names_where(tmp_path, doc, where):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"^config {where} must be a JSON object"):
        load_config(path)


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


STRING_KEYS = [
    f"{section.name}.{f.name}"
    for section in dataclasses.fields(RunConfig)
    for f in dataclasses.fields(section.default_factory)
    if isinstance(f.default, str)
]


@pytest.mark.parametrize("key", STRING_KEYS)
@pytest.mark.parametrize("value", [None, 5, 1.5, True, ["a"], {"a": 1}])
def test_string_keys_refuse_other_json_values(key, value):
    # a JSON null must not become a checkpoint file named 'None'
    section, name = key.split(".")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{key}: expected a string, got {value!r}')}$"):
        config_from_dict({section: {name: value}})
    # an override's value is always a string, so it is taken as written
    assert getattr(getattr(apply_override(RunConfig(), f"{key}={value}"), section), name) == str(value)


@pytest.mark.parametrize("key,value", [
    ("epochs", 0), ("epochs", -1), ("batch_size", 0), ("learning_rate", 0.0), ("learning_rate", -0.01),
    ("seed", -1),  # numpy would refuse it only when the model is built, without the key
    ("batch_size", 1),  # no in-batch negatives: every loss is log 1 = 0 and no parameter moves
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
    # a section built in code meets the same check as a parsed one
    with pytest.raises(ValueError, match=r"^training\.learning_rate: expected a finite number, got nan$"):
        TrainingConfig(learning_rate=float("nan"))


SECTIONS = {f.name: f.default_factory for f in dataclasses.fields(RunConfig)}
# by the type of a field's default: a bool for a number, 2.5 for an int, a non-finite float or an
# integer past the float range for a float, text for a bool, null for a str
WRONG_VALUES = {int: [True, 2.5], float: [True, math.nan, math.inf, -math.inf, 10**400],
                bool: ["false"], str: [None]}
KINDS = {int: "an integer", float: "a finite number", bool: "a boolean", str: "a string"}
WRONG_TYPES = [
    (f"{section}.{f.name}", KINDS[type(f.default)], value)
    for section, cls in SECTIONS.items()
    for f in dataclasses.fields(cls)
    for value in WRONG_VALUES[type(f.default)]
]


@pytest.mark.parametrize("key,kind,value", WRONG_TYPES,
                         ids=[f"{key}={'1e400' if value == 10**400 else value!r}"
                              for key, _, value in WRONG_TYPES])
def test_every_field_refuses_a_value_of_another_type(key, kind, value):
    section, name = key.split(".")
    message = f"^{re.escape(f'{key}: expected {kind}, got {value!r}')}$"
    with pytest.raises(ValueError, match=message):
        SECTIONS[section](**{name: value})
    data = json.loads(json.dumps({section: {name: value}}))  # NaN and Infinity literals, 400 digits
    if isinstance(value, str):
        # text is parsed, as an override's is: "false" is False
        assert getattr(getattr(config_from_dict(data), section), name) is False
    else:
        with pytest.raises(ValueError, match=message):
            config_from_dict(data)


def test_parsing_keeps_its_types_and_messages():
    cfg = config_from_dict(json.loads('{"objective": {"tau": 1}, "training": {"epochs": "5"}}'))
    assert type(cfg.objective.tau) is float and cfg.objective.tau == 1.0
    assert type(cfg.training.epochs) is int and cfg.training.epochs == 5
    with pytest.raises(ValueError, match=r"^training\.epochs: expected an integer, got 'lots'$"):
        config_from_dict({"training": {"epochs": "lots"}})


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


@pytest.mark.parametrize("section,value", [("training", None), ("model", TrainingConfig()),
                                           ("paths", {"report": "r.json"})])
def test_run_config_refuses_a_section_of_another_type(section, value):
    with pytest.raises(ValueError, match=f"^config section {section}: expected a "):
        RunConfig(**{section: value})
