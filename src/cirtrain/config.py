"""Run configuration: nested dataclasses, strict JSON parsing, dotted overrides.

Unknown keys are rejected everywhere so a typo fails the run instead of
silently training with a default.  Each section checks itself when built, with
one `check_bounds` call, so a JSON file, a `--set` override and a section built
in code meet one rule; parsing only reads a str given for a bool, int or float.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
import sys
from dataclasses import dataclass, field
from pathlib import Path

_KINDS = {bool: "a boolean", int: "an integer", float: "a finite number", str: "a string"}


def check_bounds(section: str, values, least: dict | None = None, above=()):
    """Refuse a field of `values` that has not the type of its default (a bool; an int that is
    not a bool; a finite real that is not a bool; a str) or is below its least value in `least`
    (at or below it, for a key in `above`), naming `section.key`.  The fields checked are the
    keys of `least`, or every field when it is not given.  A float field keeps its value as a
    float, so a JSON 1 and 1.0 build equal sections."""
    defaults = {f.name: f.default for f in dataclasses.fields(values)}
    for key in defaults if least is None else least:
        value, kind = getattr(values, key), type(defaults[key])
        # a float is finite: abs() refuses NaN, inf and an int past the float range
        fits = (isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max
                if kind is float else isinstance(value, kind))
        if not fits or isinstance(value, bool) != (kind is bool):
            raise ValueError(f"{section}.{key}: expected {_KINDS[kind]}, got {value!r}")
        op = ">" if key in above else ">="
        if least is not None and not (value > least[key] if op == ">" else value >= least[key]):
            raise ValueError(f"{section}.{key} must be {op} {least[key]}, got {value!r}")
        if kind is float:
            object.__setattr__(values, key, float(value))


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
        check_bounds("training", self, {"batch_size": 2, "epochs": 1, "learning_rate": 0, "seed": 0},
                     above=("learning_rate",))


@dataclass
class AblationConfig:
    share_text_projection: bool = True
    attentive_reference: bool = True
    use_alignment: bool = True
    use_reasoning: bool = True

    def __post_init__(self):
        check_bounds("ablation", self)


@dataclass(frozen=True)  # so that the frozen `data.SynthSpec` can extend it
class SynthConfig:
    latent_dim: int = 7
    n_train: int = 512
    n_val: int = 128
    n_attributes: int = 4
    noise_sigma: float = 0.05
    seed: int = 7

    def __post_init__(self):
        check_bounds("synth", self, {"latent_dim": 1, "n_train": 1, "n_val": 1, "n_attributes": 1,
                                     "noise_sigma": 0, "seed": 0})


@dataclass
class PathsConfig:
    train_set: str = "data/train.jsonl"
    val_set: str = "data/val.jsonl"
    checkpoint: str = "out/checkpoint.json"
    train_log: str = "out/train_log.jsonl"
    report: str = "out/report.json"

    def __post_init__(self):
        check_bounds("paths", self)


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    objective: ObjectiveConfig = field(default_factory=ObjectiveConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    ablation: AblationConfig = field(default_factory=AblationConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if not isinstance(section := getattr(self, f.name), kind := f.default_factory):
                raise ValueError(f"config section {f.name}: expected a {kind.__name__}, got {section!r}")


def _from_dict(cls, data: dict, prefix: str = ""):
    if not isinstance(data, dict):
        where = f"section {prefix[:-1]!r}" if prefix else "top level"
        raise ValueError(f"config {where} must be a JSON object, got {data!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(prefix + k for k in unknown)}")
    # RunConfig's fields are its sections; a section's fields are scalars typed by their defaults
    return cls(**{key: _from_dict(fields[key].default_factory, value, f"{key}.") if cls is RunConfig
                  else _coerce(value, type(fields[key].default), prefix + key)
                  for key, value in data.items()})


def _coerce(value, expected, key: str):
    """`value` parsed as `expected` if it is text for a bool, int or float key, else as given."""
    if not isinstance(value, str) or expected is str:
        return value
    if expected is bool:
        if value.lower() in ("true", "false"):
            return value.lower() == "true"
        raise ValueError(f"{key}: expected a boolean, got {value!r}")
    try:
        return expected(value)
    except ValueError:
        raise ValueError(f"{key}: expected {'an integer' if expected is int else 'a number'}, "
                         f"got {value!r}") from None


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
