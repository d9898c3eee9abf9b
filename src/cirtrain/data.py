"""Triplet records, the synthetic benchmark generator, and deterministic batching.

The generator plants a known compositional structure.  Every image token
sequence encodes an integer latent vector (one token per coordinate, token
id = coordinate * bins + bin).  The first `n_attributes` coordinates are
attribute flags that sit at 0 in every reference image; the remaining
coordinates hold free visual content.  The text names one of the
`n_attributes` modification directions, and the target's latent is the
reference latent plus that direction's unit vector (flag raised to 1) plus
optional Gaussian noise before re-quantization.  Matching therefore needs
both inputs: the reference supplies the content coordinates, the text
supplies the raised flag, and the combination is linearly decodable from
token indicators, so the toy encoders can represent it.  A nearest-
neighbour search in latent space solves the noise-free benchmark exactly,
which the tests exploit as an oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig

JSONL_FIELDS = ("id", "ref_tokens", "text_tokens", "target_tokens", "subset_ids")
SUBSET_SIZE = 5


@dataclass(frozen=True)
class TripletRecord:
    """One (reference image, modification text, target image) example."""

    id: str
    ref_tokens: tuple
    text_tokens: tuple
    target_tokens: tuple
    subset_ids: tuple | None = None

    def __post_init__(self):
        for name in ("ref_tokens", "text_tokens", "target_tokens"):
            value = tuple(int(t) for t in getattr(self, name))
            if not value:
                raise ValueError(f"{name} must be non-empty")
            object.__setattr__(self, name, value)
        if self.subset_ids is not None:
            subset = tuple(str(s) for s in self.subset_ids)
            if self.id not in subset:
                raise ValueError(f"subset of {self.id} does not contain its own target")
            if len(set(subset)) != len(subset):
                raise ValueError(f"subset of {self.id} repeats a candidate id: {subset}")
            object.__setattr__(self, "subset_ids", subset)


@dataclass(frozen=True)
class SynthSpec:
    """Knobs of the synthetic benchmark."""

    image_vocab: int = 28
    text_vocab: int = 16
    latent_dim: int = 7
    n_train: int = 512
    n_val: int = 128
    n_attributes: int = 4
    noise_sigma: float = 0.05
    seed: int = 7

    def __post_init__(self):
        for name in ("image_vocab", "text_vocab", "latent_dim", "n_train", "n_val", "n_attributes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.n_attributes >= self.latent_dim:
            raise ValueError("need at least one content coordinate beyond the attribute flags")
        if self.bins < 2:
            raise ValueError(
                f"image vocabulary {self.image_vocab} too small to encode "
                f"{self.latent_dim} coordinates with at least 2 bins each"
            )
        if self.text_vocab < 2 * self.n_attributes:
            raise ValueError(
                f"text vocabulary {self.text_vocab} too small for {self.n_attributes} attributes"
            )

    @property
    def bins(self) -> int:
        return self.image_vocab // self.latent_dim


def synth_spec_from_config(cfg: RunConfig) -> SynthSpec:
    """The SynthSpec a run config describes (vocabularies come from `cfg.model`)."""
    return SynthSpec(
        image_vocab=cfg.model.image_vocab,
        text_vocab=cfg.model.text_vocab,
        latent_dim=cfg.synth.latent_dim,
        n_train=cfg.synth.n_train,
        n_val=cfg.synth.n_val,
        n_attributes=cfg.synth.n_attributes,
        noise_sigma=cfg.synth.noise_sigma,
        seed=cfg.synth.seed,
    )


def tokens_of_latent(latent, bins: int) -> tuple:
    """Token id of coordinate j at bin b is j * bins + b."""
    return tuple(int(j * bins + b) for j, b in enumerate(latent))


def latent_of_tokens(tokens, bins: int) -> tuple:
    """Inverse of tokens_of_latent; validates the coordinate layout."""
    latent = []
    for j, t in enumerate(tokens):
        coord, b = divmod(int(t), bins)
        if coord != j:
            raise ValueError(f"token {t} at position {j} does not encode coordinate {j}")
        latent.append(b)
    return tuple(latent)


def text_tokens_of_attribute(attribute: int, n_attributes: int) -> tuple:
    return (int(attribute), int(n_attributes + attribute))


def _sample_triplet(rng: np.random.Generator, spec: SynthSpec):
    """Draw (ref latent, attribute, target latent).

    Flag coordinates (the first n_attributes) are 0 in the reference; the
    direction raises exactly one of them to 1, so the +1 step always stays
    in range.  Content coordinates are uniform over the available bins.
    """
    bins = spec.bins
    attr = int(rng.integers(0, spec.n_attributes))
    ref = np.zeros(spec.latent_dim, dtype=int)
    ref[spec.n_attributes:] = rng.integers(0, bins, size=spec.latent_dim - spec.n_attributes)
    target = ref.astype(float)
    target[attr] += 1.0
    if spec.noise_sigma > 0:
        target = target + rng.normal(0.0, spec.noise_sigma, size=spec.latent_dim)
    target = np.clip(np.rint(target), 0, bins - 1).astype(int)
    return tuple(int(v) for v in ref), attr, tuple(int(v) for v in target)


def generate(spec: SynthSpec):
    """Deterministically build (train, val) record lists.

    Validation target latents are kept distinct (rejection sampling) so the
    latent-space retrieval oracle has a unique answer, and each validation
    record gets the ids of its 5 nearest target latents (itself included)
    as the fine-grained candidate subset.
    """
    rng = np.random.default_rng(spec.seed)
    bins = spec.bins

    train = []
    for i in range(spec.n_train):
        ref, attr, target = _sample_triplet(rng, spec)
        train.append(
            TripletRecord(
                id=f"train-{i:05d}",
                ref_tokens=tokens_of_latent(ref, bins),
                text_tokens=text_tokens_of_attribute(attr, spec.n_attributes),
                target_tokens=tokens_of_latent(target, bins),
            )
        )

    val_rows = []
    seen_targets = set()
    attempts = 0
    while len(val_rows) < spec.n_val:
        attempts += 1
        if attempts > 100 * spec.n_val:
            raise ValueError("latent space too small for distinct validation targets")
        ref, attr, target = _sample_triplet(rng, spec)
        if target in seen_targets:
            continue
        seen_targets.add(target)
        val_rows.append((ref, attr, target))

    target_latents = np.array([row[2] for row in val_rows], dtype=float)
    ids = [f"val-{i:05d}" for i in range(spec.n_val)]
    id_keys = np.array(ids)
    val = []
    for i, (ref, attr, target) in enumerate(val_rows):
        dists = np.linalg.norm(target_latents - target_latents[i], axis=1)
        # nearest first, ties by ascending id
        subset = tuple(id_keys[np.lexsort((id_keys, dists))[:SUBSET_SIZE]].tolist())
        val.append(
            TripletRecord(
                id=ids[i],
                ref_tokens=tokens_of_latent(ref, bins),
                text_tokens=text_tokens_of_attribute(attr, spec.n_attributes),
                target_tokens=tokens_of_latent(target, bins),
                subset_ids=subset,
            )
        )
    return train, val


def write_records(path, records):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for r in records:
            row = {
                "id": r.id,
                "ref_tokens": list(r.ref_tokens),
                "text_tokens": list(r.text_tokens),
                "target_tokens": list(r.target_tokens),
            }
            if r.subset_ids is not None:
                row["subset_ids"] = list(r.subset_ids)
            fh.write(json.dumps(row) + "\n")


def read_records(path):
    records = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            unknown = set(row) - set(JSONL_FIELDS)
            if unknown:
                raise ValueError(f"unknown dataset fields: {sorted(unknown)}")
            records.append(
                TripletRecord(
                    id=str(row["id"]),
                    ref_tokens=tuple(row["ref_tokens"]),
                    text_tokens=tuple(row["text_tokens"]),
                    target_tokens=tuple(row["target_tokens"]),
                    subset_ids=tuple(row["subset_ids"]) if "subset_ids" in row else None,
                )
            )
    return records


def batches(records, batch_size: int, seed: int, epoch: int = 0):
    """Yield shuffled batches for one epoch; the short final batch is dropped.

    The order is a pure function of (seed, epoch), so training runs are
    reproducible batch for batch.
    """
    records = list(records)
    if not records:
        raise ValueError("cannot batch an empty dataset")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if len(records) < batch_size:
        raise ValueError(f"batch_size {batch_size} exceeds the {len(records)} records: no batch fits")
    perm = np.random.default_rng([seed, epoch]).permutation(len(records))
    for start in range(0, len(records) - batch_size + 1, batch_size):
        yield [records[int(i)] for i in perm[start:start + batch_size]]
