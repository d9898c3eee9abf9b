"""Run configuration: nested dataclasses, strict JSON parsing, dotted overrides.

Unknown keys are rejected everywhere so a typo fails the run instead of
silently training with a default.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path


def check_bounds(section: str, values, least: dict, above=()):
    """Refuse a field of `values` that is not a number at or above its least value in `least`
    (above it, for a key in `above`); `not x >= n` / `not x > n`, so that a NaN fails too."""
    for key, n in least.items():
        value, op = getattr(values, key), ">" if key in above else ">="
        if not (isinstance(value, numbers.Real) and (value > n if op == ">" else value >= n)):
            raise ValueError(f"{section}.{key} must be {op} {n}, got {value!r}")


@dataclass
class ModelConfig:
    dim: int = 20
    image_vocab: int = 28
    text_vocab: int = 16
    max_tokens: int = 16
    prompts: int = 8
    compositor_layers: int = 4

    def __post_init__(self):
        check_bounds("model", self, {"dim": 1, "image_vocab": 1, "text_vocab": 1, "max_tokens": 1,
                                     "prompts": 0, "compositor_layers": 1})


@dataclass
class ObjectiveConfig:
    alpha: float = 0.45
    beta: float = 0.1
    tau: float = 0.1

    def __post_init__(self):
        check_bounds("objective", self, {"alpha": 0, "beta": 0, "tau": 0}, above=("tau",))


@dataclass
class TrainingConfig:
    batch_size: int = 16
    epochs: int = 20
    # converges within the 8-epoch ablation schedule; over training seeds 0-9, 4e-3 and 5e-3 pass the no-harm gate, 3e-3 and 7e-3 do not
    learning_rate: float = 5e-3
    seed: int = 0

    def __post_init__(self):
        check_bounds("training", self, {"batch_size": 1, "epochs": 1, "learning_rate": 0, "seed": 0},
                     above=("learning_rate",))


@dataclass
class AblationConfig:
    share_text_projection: bool = True
    attentive_reference: bool = True
    use_alignment: bool = True
    use_reasoning: bool = True


@dataclass
class SynthConfig:
    latent_dim: int = 7
    n_train: int = 512
    n_val: int = 128
    n_attributes: int = 4
    noise_sigma: float = 0.05
    seed: int = 7


@dataclass
class PathsConfig:
    train_set: str = "data/train.jsonl"
    val_set: str = "data/val.jsonl"
    checkpoint: str = "out/checkpoint.json"
    train_log: str = "out/train_log.jsonl"
    report: str = "out/report.json"


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    objective: ObjectiveConfig = field(default_factory=ObjectiveConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    ablation: AblationConfig = field(default_factory=AblationConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)


def _from_dict(cls, data: dict, prefix: str = ""):
    if not isinstance(data, dict):
        where = f"section {prefix[:-1]!r}" if prefix else "top level"
        raise ValueError(f"config {where} must be a JSON object, got {data!r}")
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(prefix + k for k in unknown)}")
    kwargs = {}
    for key, value in data.items():
        if cls is RunConfig:
            kwargs[key] = _from_dict(_SECTION_TYPES[key], value, prefix=f"{key}.")
        else:
            kwargs[key] = _coerce(value, _FIELD_TYPES[cls][key], prefix + key)
    return cls(**kwargs)


# RunConfig's fields are its sections; a section's fields are scalars typed by their defaults
_SECTION_TYPES = {f.name: f.default_factory for f in dataclasses.fields(RunConfig)}

_FIELD_TYPES = {
    cls: {f.name: f.default.__class__ for f in dataclasses.fields(cls)}
    for cls in _SECTION_TYPES.values()
}


def _coerce(value, expected, key: str):
    if expected is str:
        if not isinstance(value, str):  # not str(value): a null checkpoint path named a file 'None'
            raise ValueError(f"{key}: expected a string, got {value!r}")
        return value
    if expected is bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.lower() in ("true", "false"):
            return value.lower() == "true"
        raise ValueError(f"{key}: expected a boolean, got {value!r}")
    accepted, kind = ((int, str), "an integer") if expected is int else ((int, float, str), "a number")
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(f"{key}: expected {kind}, got {value!r}")
    try:
        number = expected(value)
    except ValueError:
        raise ValueError(f"{key}: expected {kind}, got {value!r}") from None
    if expected is float and not math.isfinite(number):
        raise ValueError(f"{key}: expected a finite number, got {value!r}")
    return number


def config_from_dict(data: dict) -> RunConfig:
    return _from_dict(RunConfig, data)


def load_config(path) -> RunConfig:
    with Path(path).open("r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


def apply_override(cfg: RunConfig, assignment: str) -> RunConfig:
    """Apply one `section.key=value` override, returning a new RunConfig.

    The value goes through `config_from_dict`, so an override is looked up,
    coerced and checked exactly as the same key in a config file is.
    """
    if "=" not in assignment:
        raise ValueError(f"override {assignment!r} is not of the form key=value")
    dotted, raw = assignment.split("=", 1)
    section, _, key = dotted.strip().partition(".")
    data = dataclasses.asdict(cfg)
    data.setdefault(section, {})[key] = raw.strip()
    return config_from_dict(data)
