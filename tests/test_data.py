import json

import numpy as np
import pytest

from cirtrain.data import (
    SUBSET_SIZE,
    SynthSpec,
    TripletRecord,
    batches,
    generate,
    latent_of_tokens,
    read_records,
    text_tokens_of_attribute,
    tokens_of_latent,
    write_records,
)

SPEC = SynthSpec(n_train=64, n_val=32)


def test_record_validation():
    with pytest.raises(ValueError):
        TripletRecord("a", (), (1,), (2,))
    with pytest.raises(ValueError):
        TripletRecord("a", (1,), (1,), (2,), subset_ids=("b", "c"))
    # a repeated candidate would be counted once per copy when ranking within the subset
    with pytest.raises(ValueError, match="repeats a candidate"):
        TripletRecord("a", (1,), (1,), (2,), subset_ids=("a", "b", "b"))


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(n_attributes=7, latent_dim=7)  # no content coordinate left
    with pytest.raises(ValueError):
        SynthSpec(image_vocab=7, latent_dim=7)  # below 2 bins per coordinate
    with pytest.raises(ValueError):
        SynthSpec(text_vocab=4, n_attributes=4)
    with pytest.raises(ValueError):
        SynthSpec(noise_sigma=-1.0)


def test_token_latent_round_trip():
    latent = (0, 1, 0, 0, 3, 2, 1)
    tokens = tokens_of_latent(latent, bins=4)
    assert latent_of_tokens(tokens, bins=4) == latent


def test_same_seed_identical_datasets():
    a_train, a_val = generate(SPEC)
    b_train, b_val = generate(SPEC)
    assert a_train == b_train
    assert a_val == b_val


def test_different_seed_differs():
    a_train, _ = generate(SPEC)
    b_train, _ = generate(SynthSpec(n_train=64, n_val=32, seed=99))
    assert a_train != b_train


def test_noise_free_target_is_reference_plus_direction():
    spec = SynthSpec(n_train=32, n_val=16, noise_sigma=0.0)
    train, val = generate(spec)
    for r in train + val:
        ref = np.array(latent_of_tokens(r.ref_tokens, spec.bins))
        tgt = np.array(latent_of_tokens(r.target_tokens, spec.bins))
        attr = r.text_tokens[0]
        direction = np.zeros(spec.latent_dim, dtype=int)
        direction[attr] = 1
        assert np.array_equal(tgt, ref + direction), r.id
        assert r.text_tokens == text_tokens_of_attribute(attr, spec.n_attributes)


def test_reference_flags_are_zero():
    train, val = generate(SPEC)
    for r in train + val:
        ref = latent_of_tokens(r.ref_tokens, SPEC.bins)
        assert all(v == 0 for v in ref[: SPEC.n_attributes]), r.id


def test_latent_space_oracle_recall_is_one_without_noise():
    # brute-force nearest neighbour on true latents, before any training
    spec = SynthSpec(n_train=8, n_val=64, noise_sigma=0.0)
    _, val = generate(spec)
    targets = np.array([latent_of_tokens(r.target_tokens, spec.bins) for r in val], dtype=float)
    hits = 0
    for i, r in enumerate(val):
        query = np.array(latent_of_tokens(r.ref_tokens, spec.bins), dtype=float)
        query[r.text_tokens[0]] += 1.0
        dists = np.linalg.norm(targets - query, axis=1)
        if int(np.argmin(dists)) == i:
            hits += 1
    assert hits == len(val)


def test_validation_targets_distinct():
    _, val = generate(SPEC)
    latents = {latent_of_tokens(r.target_tokens, SPEC.bins) for r in val}
    assert len(latents) == len(val)


def test_train_val_id_sets_disjoint():
    train, val = generate(SPEC)
    assert {r.id for r in train}.isdisjoint({r.id for r in val})
    assert len({r.id for r in train}) == len(train)


def test_subsets_have_five_near_candidates_including_target():
    _, val = generate(SPEC)
    targets = {r.id: np.array(latent_of_tokens(r.target_tokens, SPEC.bins)) for r in val}
    for r in val:
        assert len(r.subset_ids) == SUBSET_SIZE
        assert r.id in r.subset_ids
        # candidates are genuinely near: no excluded id is strictly closer
        # than the farthest chosen one
        dists = {i: float(np.linalg.norm(targets[i] - targets[r.id])) for i in targets}
        chosen = max(dists[i] for i in r.subset_ids)
        others = [dists[i] for i in targets if i not in r.subset_ids]
        assert min(others) >= chosen or np.isclose(min(others), chosen)


def test_jsonl_round_trip(tmp_path):
    train, val = generate(SPEC)
    path = tmp_path / "val.jsonl"
    write_records(path, val)
    assert read_records(path) == val
    write_records(tmp_path / "train.jsonl", train)
    assert read_records(tmp_path / "train.jsonl") == train


def test_jsonl_field_names(tmp_path):
    _, val = generate(SPEC)
    path = tmp_path / "val.jsonl"
    write_records(path, val)
    row = json.loads(path.read_text().splitlines()[0])
    assert set(row) == {"id", "ref_tokens", "text_tokens", "target_tokens", "subset_ids"}


def test_jsonl_rejects_unknown_fields(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "ref_tokens": [1], "text_tokens": [0], '
                    '"target_tokens": [2], "bogus": 1}\n')
    with pytest.raises(ValueError):
        read_records(path)


def test_jsonl_rejects_repeated_subset_ids(tmp_path):
    path = tmp_path / "val.jsonl"
    path.write_text('{"id": "a", "ref_tokens": [1], "text_tokens": [0], '
                    '"target_tokens": [2], "subset_ids": ["a", "b", "b"]}\n')
    with pytest.raises(ValueError, match="repeats a candidate"):
        read_records(path)


def test_batches_count_and_drop_last():
    train, _ = generate(SPEC)
    got = list(batches(train[:10], 4, seed=0))
    assert len(got) == 2
    assert all(len(b) == 4 for b in got)


def test_batches_dataset_smaller_than_one_batch_rejected():
    train, _ = generate(SPEC)
    with pytest.raises(ValueError, match="batch_size 16 exceeds the 10 records"):
        list(batches(train[:10], 16, seed=0))
    assert len(list(batches(train[:16], 16, seed=0))) == 1


def test_batches_deterministic_per_seed_and_epoch():
    train, _ = generate(SPEC)
    a = [[r.id for r in b] for b in batches(train, 8, seed=5, epoch=2)]
    b = [[r.id for r in b] for b in batches(train, 8, seed=5, epoch=2)]
    c = [[r.id for r in b] for b in batches(train, 8, seed=5, epoch=3)]
    assert a == b
    assert a != c


def test_batches_cover_dataset_without_repeats():
    train, _ = generate(SPEC)
    seen = []
    for batch in batches(train[:30], 8, seed=1):
        seen.extend(r.id for r in batch)
    assert len(seen) == len(set(seen)) == 24  # 30 minus dropped remainder of 6
    assert set(seen) <= {r.id for r in train[:30]}


def test_batches_empty_dataset_rejected():
    with pytest.raises(ValueError):
        list(batches([], 4, seed=0))
