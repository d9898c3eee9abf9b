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
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .config import ModelConfig, RunConfig, SynthConfig, check_bounds

TOKEN_FIELDS = ("ref_tokens", "text_tokens", "target_tokens")
JSONL_FIELDS = ("id", *TOKEN_FIELDS, "subset_ids")
SUBSET_SIZE = 5


def integer_tokens(name: str, tokens) -> tuple:
    """`tokens`, a list or tuple of ints, as a tuple; bytes or a set is never iterated into ids."""
    if not isinstance(tokens, (list, tuple)):
        held = "a numpy array" if isinstance(tokens, np.ndarray) else repr(tokens)
        raise ValueError(f"{name} holds {held}; token ids are lists or tuples of ints")
    value = tuple(tokens)
    if {*map(type, value)} <= {int}:  # exact ints pass on one type scan; the rest is walked
        return value
    # refused, not rounded: int() would read 1.7 as 1, true as 1 and "3" as 3
    for t in value:
        if isinstance(t, bool) or not isinstance(t, int):
            raise ValueError(f"{name}: token id {t!r} is not an integer")
    return value


@dataclass(frozen=True)
class TripletRecord:
    """One (reference image, modification text, target image) example."""

    id: str
    ref_tokens: tuple
    text_tokens: tuple
    target_tokens: tuple
    subset_ids: tuple | None = None

    def __post_init__(self):
        # a string or a set is never iterated into ids: a set's order is the hash seed's
        if self.subset_ids is not None and not isinstance(self.subset_ids, (list, tuple)):
            raise ValueError(f"subset_ids holds {self.subset_ids!r}; ids are lists or tuples of strings")
        # refused, not stringified: str() would read null as 'None' and 7 as '7'
        for name, ids in (("id", (self.id,)), ("subset_ids", self.subset_ids or ())):
            for s in ids:
                if not isinstance(s, str):
                    raise ValueError(f"{name}: {s!r} is not a string")
        for name in TOKEN_FIELDS:
            value = integer_tokens(name, getattr(self, name))
            if not value:
                raise ValueError(f"{name} must be non-empty")
            object.__setattr__(self, name, value)
        if self.subset_ids is not None:
            subset = tuple(self.subset_ids)
            if self.id not in subset:
                raise ValueError(f"subset of {self.id} does not contain its own target")
            if len(set(subset)) != len(subset):
                raise ValueError(f"subset of {self.id} repeats a candidate id: {subset}")
            object.__setattr__(self, "subset_ids", subset)


@dataclass(frozen=True)
class SynthSpec(SynthConfig):
    """Knobs of the synthetic benchmark: the run config's `synth` section and its vocabularies."""

    image_vocab: int = ModelConfig.image_vocab
    text_vocab: int = ModelConfig.text_vocab

    def __post_init__(self):
        super().__post_init__()
        check_bounds("model", self, {"image_vocab": 1, "text_vocab": 1})
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
    return SynthSpec(image_vocab=cfg.model.image_vocab, text_vocab=cfg.model.text_vocab,
                     **asdict(cfg.synth))


def tokens_of_latent(latent, bins: int) -> tuple:
    """Token id of coordinate j at bin b is j * bins + b."""
    return tuple(int(j * bins + b) for j, b in enumerate(latent))


def text_tokens_of_attribute(attribute: int, n_attributes: int) -> tuple:
    return (int(attribute), int(n_attributes + attribute))


def _sample_triplet(rng: np.random.Generator, spec: SynthSpec):
    """Draw (ref latent, attribute, target latent).

    Flag coordinates (the first n_attributes) are 0 in the reference; the
    direction raises exactly one of them to 1, so the +1 step always stays
    in range.  Content coordinates are uniform over the available bins.
    """
    bins, flags = spec.bins, spec.n_attributes
    attr = int(rng.integers(0, flags))
    ref = (0,) * flags + tuple(rng.integers(0, bins, size=spec.latent_dim - flags).tolist())
    target = [float(v + (j == attr)) for j, v in enumerate(ref)]
    if spec.noise_sigma > 0:
        noise = rng.normal(0.0, spec.noise_sigma, size=spec.latent_dim).tolist()
        target = [t + e for t, e in zip(target, noise)]
    # clipped first, so infinite noise lands on an end bin; round() takes halves to even
    # (np.rint's rule), which the pinned datasets were drawn with
    return ref, attr, tuple(round(min(max(t, 0.0), bins - 1.0)) for t in target)


def generate(spec: SynthSpec):
    """Deterministically build (train, val) record lists.

    Validation target latents are kept distinct (rejection sampling) so the
    latent-space retrieval oracle has a unique answer.  Each validation
    record's fine-grained candidate subset is the ids of the `SUBSET_SIZE`
    records whose integer target latents are nearest its own by Euclidean
    distance: nearest first, ties by ascending id string, itself included.
    """
    rng = np.random.default_rng(spec.seed)

    def record(name, ref, attr, target, subset_ids=None):
        return TripletRecord(id=name, ref_tokens=tokens_of_latent(ref, spec.bins),
                             text_tokens=text_tokens_of_attribute(attr, spec.n_attributes),
                             target_tokens=tokens_of_latent(target, spec.bins), subset_ids=subset_ids)

    train = [record(f"train-{i:05d}", *_sample_triplet(rng, spec)) for i in range(spec.n_train)]

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

    ids = [f"val-{i:05d}" for i in range(spec.n_val)]
    subsets = _nearest_subsets([row[2] for row in val_rows], ids)
    val = [record(ids[i], *row, subsets[i]) for i, row in enumerate(val_rows)]
    return train, val


def id_ranks(ids: list) -> np.ndarray:
    """Each id's 0-based place in ascending Python string order: the one id order of ties."""
    ranks = np.empty(len(ids), dtype=np.int64)
    ranks[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return ranks


def _nearest_subsets(latents, ids: list) -> list:
    """Per row of the integer `latents`, the ids of its `SUBSET_SIZE` nearest rows.

    The key d² · n + `id_ranks` is exact in int64 and unique within a row,
    so k argmin passes over each block of rows pick the subset in order,
    ties by id string, without an (n, n) array.
    """
    n, k, id_rank = len(ids), min(SUBSET_SIZE, len(ids)), id_ranks(ids)
    columns = np.asarray(latents, dtype=np.int64).T.copy()  # one contiguous row per coordinate
    subsets = []
    for start in range(0, n, 16):  # 16 rows of n int64 keys stay in cache up to n ~ 4k
        block = columns[:, start:start + 16]
        key = np.zeros((block.shape[1], n), dtype=np.int64)
        diff = np.empty_like(key)
        for row, column in zip(block, columns):
            key += np.square(np.subtract(row[:, None], column, out=diff), out=diff)
        key *= n
        key += id_rank
        nearest = np.empty((len(key), k), dtype=np.int64)
        for j in range(k):
            nearest[:, j] = key.argmin(axis=1)
            key[np.arange(len(key)), nearest[:, j]] = np.iinfo(np.int64).max
        subsets += [tuple(ids[c] for c in near) for near in nearest.tolist()]
    return subsets


def write_records(path, records):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for r in records:
            # tuples dump as JSON lists; a record without a subset has no subset_ids key
            row = {name: value for name in JSONL_FIELDS if (value := getattr(r, name)) is not None}
            fh.write(json.dumps(row) + "\n")


def read_records(path):
    """The records of a JSONL dataset; a bad line or record is refused by its 1-based number."""
    records = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as err:
                raise ValueError(f"line {number}: {err.msg} at column {err.colno}") from None
            if type(row) is not dict:
                raise ValueError(f"line {number}: {type(row).__name__} is not a JSON object")
            for name, value in row.items():
                if name not in JSONL_FIELDS:
                    raise ValueError(f"line {number}: unknown dataset field {name!r}")
                if type(value) is not list and name != "id":
                    raise ValueError(f"line {number}: {name} is {type(value).__name__}, not a list")
            if len(row) - ("subset_ids" in row) < 4:  # every name is known, so one is missing
                missing = [name for name in JSONL_FIELDS[:4] if name not in row]
                raise ValueError(f"line {number}: missing fields {missing}")
            # the fields are known, present and lists where lists go: the record checks the rest
            try:
                records.append(TripletRecord(**row))
            except ValueError as err:
                raise ValueError(f"line {number}: {err}") from None
    return records


def check_batch(entry: str, **fields):
    """Refuse token fields that cannot be stacked as one batch, naming `entry` and the field.

    Each keyword is a token field holding one id tuple per record.  Every
    loss is in-batch over stacked features, and nothing is padded, so a
    batch must be non-empty, its fields must hold one tuple per record
    each, and the tuples of one field must have one length.
    """
    counts = {name: len(ids) for name, ids in fields.items()}
    if len(set(counts.values())) > 1:
        held = ", ".join(f"{name} {n}" for name, n in counts.items())
        raise ValueError(f"{entry}: the fields hold different numbers of records: {held}")
    if not any(counts.values()):
        raise ValueError(f"{entry}: the batch is empty")
    for name, ids in fields.items():
        lengths = set(map(len, ids))
        if len(lengths) > 1:
            raise ValueError(f"{entry}: {name} lengths differ: {sorted(lengths)} tokens; "
                             f"a batch is stacked, never padded")


def batches(records, batch_size: int, seed: int, epoch: int = 0):
    """Shuffled batches for one epoch, yielded lazily; the short final batch is dropped.

    The arguments are checked at the call, not at the first batch.  The
    order is a pure function of (seed, epoch), so training runs are
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
    return ([records[int(i)] for i in perm[start:start + batch_size]]
            for start in range(0, len(records) - batch_size + 1, batch_size))
