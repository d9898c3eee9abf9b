import enum
import hashlib
import json
import re

import numpy as np
import pytest
from oracles import latent_of_tokens, nearest_subsets_oracle

from cirtrain.config import RunConfig
from cirtrain.data import (
    SUBSET_SIZE,
    SynthSpec,
    TOKEN_FIELDS,
    TripletRecord,
    _nearest_subsets,
    batches,
    generate,
    id_ranks,
    integer_tokens,
    read_records,
    synth_spec_from_config,
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


@pytest.mark.parametrize("tokens, held", [
    (b"\x01\x02\x03", r"b'\x01\x02\x03'"),
    ({1, 2, 3}, "{1, 2, 3}"),
    ({1: "a", 2: "b"}, "{1: 'a', 2: 'b'}"),
    (range(1, 4), "range(1, 4)"),
    ("123", "'123'"),
    (np.array([1, 2, 3]), "a numpy array"),
], ids=["bytes", "set", "dict", "range", "str", "numpy"])
@pytest.mark.parametrize("field", ["ref_tokens", "text_tokens", "target_tokens"])
def test_record_refuses_token_ids_that_are_not_a_list_or_tuple(field, tokens, held):
    # iterating would read bytes as ids, a set or a dict in its own order, a str as characters
    fields = {"ref_tokens": (1,), "text_tokens": (0,), "target_tokens": (2,), field: tokens}
    message = f"{field} holds {held}; token ids are lists or tuples of ints"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TripletRecord("a", **fields)


@pytest.mark.parametrize("subset", ["ab", {"a", "b"}, frozenset({"a"}), {"a": 1}, range(2)],
                         ids=["str", "set", "frozenset", "dict", "range"])
def test_record_refuses_subset_ids_that_are_not_a_list_or_tuple(subset):
    # a str would be read as characters, a set in the order of the hash seed
    message = f"subset_ids holds {subset!r}; ids are lists or tuples of strings"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TripletRecord("a", (1,), (1,), (2,), subset_ids=subset)
    assert TripletRecord("a", (1,), (1,), (2,), subset_ids=["a", "b"]).subset_ids == ("a", "b")


class _Token(enum.IntEnum):
    A = 1


def test_an_int_subclass_token_is_walked_and_accepted():
    # only exact ints pass on the one type scan; an IntEnum is read id by id, as before
    assert integer_tokens("ref_tokens", [_Token.A, 2]) == (_Token.A, 2)
    assert TripletRecord("a", (_Token.A,), (1,), (2,)).ref_tokens == (_Token.A,)


@pytest.mark.parametrize("tokens, shown", [((1, True), "True"), ((1, 2.0), "2.0"), ((1.5,), "1.5")],
                         ids=["bool", "float", "only a float"])
@pytest.mark.parametrize("container", [tuple, list])
@pytest.mark.parametrize("field", TOKEN_FIELDS)
def test_record_refuses_a_bool_or_float_id(field, container, tokens, shown):
    fields = {"ref_tokens": (1,), "text_tokens": (0,), "target_tokens": (2,), field: container(tokens)}
    with pytest.raises(ValueError, match=f"^{field}: token id {re.escape(shown)} is not an integer$"):
        TripletRecord("a", **fields)


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(n_attributes=7, latent_dim=7)  # no content coordinate left
    with pytest.raises(ValueError):
        SynthSpec(image_vocab=7, latent_dim=7)  # below 2 bins per coordinate
    with pytest.raises(ValueError):
        SynthSpec(text_vocab=4, n_attributes=4)
    with pytest.raises(ValueError):
        SynthSpec(noise_sigma=-1.0)
    # a NaN noise would generate a noise-free dataset without a word, since `nan > 0` is False
    with pytest.raises(ValueError, match="noise_sigma: expected a finite number, got nan"):
        SynthSpec(noise_sigma=float("nan"))
    # checks name the run config key: vocabularies are `model.*`, the rest `synth.*`
    for kwargs, message in (({"n_val": float("nan")}, "synth.n_val: expected an integer, got nan"),
                            ({"image_vocab": 0}, "model.image_vocab must be >= 1, got 0"),
                            ({"seed": -1}, "synth.seed must be >= 0, got -1"),
                            ({"seed": None}, "synth.seed: expected an integer, got None")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SynthSpec(**kwargs)
    # counts and the seed are refused by type, not truncated or read as 1 by numpy
    for name, value in (("synth.n_val", 2.5), ("synth.seed", 1.5), ("synth.latent_dim", 7.0),
                        ("synth.n_train", True), ("model.image_vocab", 80.0)):
        with pytest.raises(ValueError, match=f"^{name}: expected an integer, got {value!r}$"):
            SynthSpec(**{name.split(".")[1]: value})
    with pytest.raises(ValueError, match="^synth.noise_sigma: expected a finite number, got True$"):
        SynthSpec(noise_sigma=True)
    # the spec's defaults are the run config's
    assert SynthSpec() == synth_spec_from_config(RunConfig())


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


@pytest.mark.parametrize("spec", [
    SynthSpec(),
    SynthSpec(image_vocab=16, latent_dim=8, n_val=40),  # 2 bins: 35 of 40 tie at the fifth place
    SynthSpec(n_val=3),  # fewer records than SUBSET_SIZE
    SynthSpec(n_val=1),
], ids=["default", "tie-heavy", "n_val=3", "n_val=1"])
def test_subsets_equal_the_plain_loop_oracle(spec):
    _, val = generate(spec)
    latents = [latent_of_tokens(r.target_tokens, spec.bins) for r in val]
    assert [r.subset_ids for r in val] == nearest_subsets_oracle(
        latents, [r.id for r in val], SUBSET_SIZE)


def test_nearest_subsets_break_ties_by_id_string_not_by_index():
    # string order is not index order: "val-100000" < "val-99999", "val-10" < "val-2"
    ids = ["val-99999", "val-100000", "c", "b", "val-100001", "a0", "a"]
    same = np.zeros((len(ids), 3), dtype=int)
    assert _nearest_subsets(same, ids) == [("a", "a0", "b", "c", "val-100000")] * len(ids)
    latents = np.array([[0, 0], [1, 0], [0, 1], [1, 1], [0, 0], [2, 2], [0, 2]])
    assert _nearest_subsets(latents, ids) == nearest_subsets_oracle(latents, ids, SUBSET_SIZE)
    # several row blocks, the last one partial, and unpadded ids
    ids = [f"val-{i}" for i in range(150)]
    latents = np.random.default_rng(0).integers(0, 3, size=(150, 3))
    assert _nearest_subsets(latents, ids) == nearest_subsets_oracle(latents, ids, SUBSET_SIZE)


def test_nearest_subsets_order_ids_differing_by_trailing_nuls_as_strings():
    # numpy's string order drops trailing NULs; the one id order is Python's: "a" < "a\0" < "a\0\0"
    ids = ["a\x00", "b", "a\x00\x00", "a", "a\x00b"]
    assert id_ranks(ids).tolist() == [1, 4, 2, 0, 3]
    same = np.zeros((len(ids), 2), dtype=int)
    assert _nearest_subsets(same, ids) == [("a", "a\x00", "a\x00\x00", "a\x00b", "b")] * len(ids)
    latents = np.array([[0, 0], [0, 0], [1, 0], [0, 0], [1, 0]])
    assert _nearest_subsets(latents, ids) == nearest_subsets_oracle(latents, ids, SUBSET_SIZE)


# sha256 of the write_records bytes, measured with numpy 2.4.6; a change of
# these is a change of every dataset the generator writes
GOLDEN_DATASETS = [
    (SynthSpec(),
     "b9f220c890f1063827062b8784474e0c4df11ff470e0d1168c8bb157e5c08b71",
     "4b76c4a55a9bcf6148fadb828c5a49b7391a352af760de5aea24ba33c0c9b352"),
    (SynthSpec(image_vocab=48, latent_dim=8, n_val=1024),
     "c8db0ada3359cb6046b1a2a575a5df3c4c461e023bf083fcc551b3054988ee30",
     "fe8dc0517d2f3681cbb6f1dd6206e8ba2c9b60a8385db8984df8f6acfa1df57e"),
]


@pytest.mark.parametrize("spec, train_sha, val_sha", GOLDEN_DATASETS, ids=["default", "n_val=1024"])
def test_generated_datasets_are_pinned_byte_for_byte(tmp_path, spec, train_sha, val_sha):
    train, val = generate(spec)
    for name, records, sha in (("train", train, train_sha), ("val", val, val_sha)):
        write_records(tmp_path / f"{name}.jsonl", records)
        assert hashlib.sha256((tmp_path / f"{name}.jsonl").read_bytes()).hexdigest() == sha, name


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
    with pytest.raises(ValueError, match=r"^line 1: unknown dataset field 'bogus'$"):
        read_records(path)


def test_jsonl_rejects_repeated_subset_ids(tmp_path):
    path = tmp_path / "val.jsonl"
    path.write_text('{"id": "a", "ref_tokens": [1], "text_tokens": [0], '
                    '"target_tokens": [2], "subset_ids": ["a", "b", "b"]}\n')
    with pytest.raises(ValueError, match="repeats a candidate"):
        read_records(path)


@pytest.mark.parametrize("field,tokens,shown", [
    ("ref_tokens", "[1.7, 2.2]", "1.7"),
    ("text_tokens", "[true, 1]", "True"),
    ("target_tokens", '[2, "3"]', "'3'"),
], ids=["float", "bool", "string"])
def test_jsonl_refuses_token_ids_that_are_not_integers(tmp_path, field, tokens, shown):
    row = {"id": '"a"', "ref_tokens": "[1]", "text_tokens": "[0]", "target_tokens": "[2]"}
    row[field] = tokens
    path = tmp_path / "bad.jsonl"
    path.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in row.items()) + "}\n")
    with pytest.raises(ValueError, match=f"^line 1: {field}: token id {shown} is not an integer$"):
        read_records(path)


GOOD_LINE = '{"id": "a", "ref_tokens": [1], "text_tokens": [0], "target_tokens": [2]}'


def _read_with_bad_third_line(tmp_path, bad: str):
    """Read a file whose third line, after two good ones and a blank, is `bad`."""
    path = tmp_path / "bad.jsonl"
    path.write_text(f"{GOOD_LINE}\n\n{bad}\n{GOOD_LINE}\n")
    return read_records(path)


def test_jsonl_refuses_a_line_that_is_not_an_object(tmp_path):
    with pytest.raises(ValueError, match=r"^line 3: int is not a JSON object$"):
        _read_with_bad_third_line(tmp_path, "5")


def test_jsonl_refuses_a_line_missing_a_field(tmp_path):
    bad = '{"id": "b", "ref_tokens": [1], "text_tokens": [0]}'
    with pytest.raises(ValueError, match=r"^line 3: missing fields \['target_tokens'\]$"):
        _read_with_bad_third_line(tmp_path, bad)


def test_jsonl_refuses_token_ids_that_are_not_a_list(tmp_path):
    bad = '{"id": "b", "ref_tokens": 3, "text_tokens": [0], "target_tokens": [2]}'
    with pytest.raises(ValueError, match=r"^line 3: ref_tokens is int, not a list$"):
        _read_with_bad_third_line(tmp_path, bad)


@pytest.mark.parametrize("field,value,message", [
    ("id", "null", "id: None is not a string"),
    ("id", "7", "id: 7 is not a string"),
    ("subset_ids", '["b", null]', "subset_ids: None is not a string"),
    ("subset_ids", "[7, null]", "subset_ids: 7 is not a string"),
    ("ref_tokens", "[]", "ref_tokens must be non-empty"),
    ("subset_ids", '["c"]', "subset of b does not contain its own target"),
    ("subset_ids", '["b", "c", "c"]', "subset of b repeats a candidate id: ('b', 'c', 'c')"),
], ids=["null id", "integer id", "null subset member", "integer subset member", "empty field",
        "subset without its target", "repeated candidate"])
def test_jsonl_refuses_a_bad_record_by_its_own_number(tmp_path, field, value, message):
    # ids are read as given, never stringified: str() would read null as 'None'
    row = {"id": '"b"', "ref_tokens": "[1]", "text_tokens": "[0]", "target_tokens": "[2]"}
    row[field] = value
    bad = "{" + ", ".join(f'"{k}": {v}' for k, v in row.items()) + "}"
    with pytest.raises(ValueError, match=f"^line 3: {re.escape(message)}$"):
        _read_with_bad_third_line(tmp_path, bad)


def test_jsonl_refuses_a_line_that_is_not_json_by_its_own_number(tmp_path):
    # each line is parsed alone, so json's own position would always read "line 1"
    with pytest.raises(ValueError, match=r"^line 3: Expecting value at column 1$"):
        _read_with_bad_third_line(tmp_path, "not json")


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


def test_batches_refuse_a_batch_size_below_one_at_the_call():
    train, _ = generate(SPEC)
    with pytest.raises(ValueError, match="^batch_size must be >= 1$"):
        batches(train, 0, seed=0)


def test_generate_clips_noise_past_the_float_range_to_the_end_bins():
    # a sigma this large draws infinite noise past about 1.8 sigma; it lands on an end bin, as in range
    spec = SynthSpec(n_train=16, n_val=8, noise_sigma=1e308)
    train, val = generate(spec)
    assert {t % spec.bins for r in train + val for t in r.target_tokens} == {0, spec.bins - 1}


def test_generate_refuses_more_validation_targets_than_the_latent_space_holds():
    # one content coordinate in 2 bins and one attribute flag leave too few distinct targets
    spec = SynthSpec(latent_dim=2, n_attributes=1, image_vocab=4, n_train=4, n_val=20)
    with pytest.raises(ValueError, match="^latent space too small for distinct validation targets$"):
        generate(spec)
