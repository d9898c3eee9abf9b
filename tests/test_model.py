import dataclasses
import enum
import json
import re
from collections import Counter

import numpy as np
import pytest

from cirtrain import tensor as T
from cirtrain.bridge import BridgeParams, alignment_loss
from cirtrain.compositor import CompositorParams, reasoning_loss
from cirtrain.config import RunConfig
from cirtrain.data import (
    SynthSpec,
    TripletRecord,
    batches,
    generate,
    integer_tokens,
    read_records,
    synth_spec_from_config,
    write_records,
)
from cirtrain.encoders import TokenSeq
from cirtrain.model import RetrievalModel, _batch, load_checkpoint, save_checkpoint
from cirtrain.objective import score_query_against_gallery
from cirtrain.tensor import no_grad
from cirtrain.train import ABLATION_VARIANTS, Adam, train_model
from graph import STEP_CENSUS, graph_nodes


def small_config(**training_kw):
    cfg = RunConfig()
    cfg.model = dataclasses.replace(cfg.model, dim=8, prompts=4, compositor_layers=2)
    cfg.training = dataclasses.replace(cfg.training, batch_size=3, **training_kw)
    return cfg


def small_records(n=6):
    train, _ = generate(SynthSpec(n_train=n, n_val=4, seed=3))
    return train


def test_parameter_names_unique_and_frozen_policy():
    model = RetrievalModel(small_config())
    params = model.parameters()
    frozen = {name for name, p in params.items() if p.frozen}
    assert all(name.startswith(("ref_encoder.", "tgt_encoder.")) for name in frozen)
    assert {name for name in params if name.startswith(("ref_encoder.", "tgt_encoder."))} == frozen
    trainable_prefixes = {name.split(".")[0] for name, p in params.items() if not p.frozen}
    assert trainable_prefixes == {"text_encoder", "cross_encoder", "fusion", "bridge", "compositor"}


def test_batch_losses_breakdown_consistent():
    model = RetrievalModel(small_config())
    total, breakdown = model.batch_losses(small_records(3))
    w = model.cfg.objective
    expected = breakdown.matching + w.alpha * breakdown.alignment + w.beta * breakdown.reasoning
    assert total.item() == pytest.approx(expected, abs=1e-12)
    assert total.item() == pytest.approx(breakdown.total, abs=1e-12)


def test_empty_batch_rejected():
    with pytest.raises(ValueError, match="^batch_losses: the batch is empty$"):
        RetrievalModel(small_config()).batch_losses([])


@pytest.mark.parametrize("entry,args", [("target_embedding", ([],)),
                                        ("query_embedding", ([], []))])
def test_embeddings_refuse_an_empty_batch(entry, args):
    # an empty list is an empty batch, not one record without tokens
    with pytest.raises(ValueError, match=f"^{entry}: the batch is empty$"):
        getattr(RetrievalModel(small_config()), entry)(*args)


_RECORD = TripletRecord("a", (1, 2, 3), (0, 1), (4, 5, 6))
IDS = "token ids are lists or tuples of ints$"


def _with(**fields):
    return [_RECORD, dataclasses.replace(_RECORD, id="b", **fields)]


UNSTACKABLE = [
    ("empty", "batch_losses", ([],), "the batch is empty$"),
    ("ragged refs", "batch_losses", (_with(ref_tokens=(1, 2, 3, 7)),),
     r"ref_tokens lengths differ: \[3, 4\] tokens"),
    ("ragged texts", "batch_losses", (_with(text_tokens=(2,)),),
     r"text_tokens lengths differ: \[1, 2\] tokens"),
    ("ragged targets", "batch_losses", (_with(target_tokens=(4, 5)),),
     r"target_tokens lengths differ: \[2, 3\] tokens"),
    ("empty", "query_embedding", ([], []), "the batch is empty$"),
    ("ragged refs", "query_embedding", ([(1, 2, 3), (1, 2, 3, 7)], [(0, 1), (2, 3)]),
     r"ref_tokens lengths differ: \[3, 4\] tokens"),
    ("ragged texts", "query_embedding", ([(1, 2, 3)] * 2, [(0, 1), (2,)]),
     r"text_tokens lengths differ: \[1, 2\] tokens"),
    ("counts", "query_embedding", ([(1, 2, 3)] * 2, [(0, 1)] * 3),
     "the fields hold different numbers of records: ref_tokens 2, text_tokens 3$"),
    ("one text", "query_embedding", ([(1, 2, 3)] * 2, (0, 1)),
     "text_tokens holds one record's ids but ref_tokens a list of records' ids$"),
    ("one ref", "query_embedding", ((1, 2, 3), [(0, 1)] * 2),
     "ref_tokens holds one record's ids but text_tokens a list of records' ids$"),
    ("empty", "target_embedding", ([],), "the batch is empty$"),
    ("ragged targets", "target_embedding", ([(4, 5, 6), (4, 5)],),
     r"target_tokens lengths differ: \[2, 3\] tokens"),
    # ids are a list or tuple of ints, in every entry of a batch: anything else is refused,
    # never iterated into ids or measured by check_batch
    ("an int entry", "target_embedding", ([(1, 2, 3), 5],), "target_tokens holds 5; " + IDS),
    ("one int", "target_embedding", (5,), "target_tokens holds 5; " + IDS),
    ("one bytes", "target_embedding", (b"\x01\x02\x03",),
     re.escape(r"target_tokens holds b'\x01\x02\x03'; ") + IDS),
    ("a bytes entry", "target_embedding", ([(1, 2, 3), b"\x01\x02\x03"],),
     re.escape(r"target_tokens holds b'\x01\x02\x03'; ") + IDS),
    ("a bool id", "target_embedding", ([(4, 5, 6), (1, True, 3)],),
     "target_tokens: token id True is not an integer$"),
    ("a bool ref id", "query_embedding", ((1, True, 3), (0, 1)),
     "ref_tokens: token id True is not an integer$"),
    ("a range", "target_embedding", (range(1, 4),),
     re.escape("target_tokens holds range(1, 4); ") + IDS),
    ("a set", "query_embedding", ({1, 2, 3}, (0, 1)), "ref_tokens holds {1, 2, 3}; " + IDS),
    ("a dict", "query_embedding", ((1, 2, 3), {0: "a", 1: "b"}),
     "text_tokens holds {0: 'a', 1: 'b'}; " + IDS),
]


NUMPY_ARRAYS = "holds a numpy array; " + IDS

# records hold tuples, so only the embeddings can be handed numpy ids
NUMPY_IDS = [
    ("list of arrays", "target_embedding", ([np.array([1, 2, 3])],), "target_tokens " + NUMPY_ARRAYS),
    ("2-D array", "target_embedding", (np.array([[1, 2, 3]]),), "target_tokens " + NUMPY_ARRAYS),
    ("1-D array", "target_embedding", (np.array([1, 2, 3]),), "target_tokens " + NUMPY_ARRAYS),
    ("array ref", "query_embedding", (np.array([1, 2, 3]), (0, 1)), "ref_tokens " + NUMPY_ARRAYS),
    ("list of array texts", "query_embedding", ([(1, 2, 3)], [np.array([0, 1])]),
     "text_tokens " + NUMPY_ARRAYS),
    ("0-d array ids", "target_embedding", ([(np.array(4), np.array(5))],),
     re.escape("target_tokens: token id array(4) is not an integer") + "$"),
]


@pytest.mark.parametrize("entry, args, message", [case[1:] for case in UNSTACKABLE + NUMPY_IDS],
                         ids=[f"{entry}-{case}" for case, entry, *_ in UNSTACKABLE + NUMPY_IDS])
def test_every_entry_refuses_an_unstackable_batch_by_entry_and_field(entry, args, message):
    # one id rule, data.integer_tokens, and one batch rule, data.check_batch, applied before
    # a frozen encoder computes any rows
    model = RetrievalModel(small_config())
    with pytest.raises(ValueError, match=f"^{entry}: {message}"):
        getattr(model, entry)(*args)
    assert model.ref_encoder._rows == model.tgt_encoder._rows == {}


class _Token(enum.IntEnum):
    A, B, C = 1, 2, 3


@pytest.mark.parametrize("ids", [[[1, 2, 3], [4, 5, 6]], [(_Token.A, _Token.B), (_Token.C, 2)],
                                 [[1, 2], (3, 4)], [(1, 2), (3, 4)]],
                         ids=["lists", "int enums", "a list and a tuple", "records' tuples"])
def test_batch_returns_the_ids_integer_tokens_returns(ids):
    # records hold exact tuples of exact ints and pass in bulk; anything else is walked
    expected = [integer_tokens("target_embedding: target_tokens", t) for t in ids]
    got = _batch("target_embedding", target_tokens=ids)["target_tokens"]
    assert [(type(t), [*map(type, t)]) for t in got] == [(type(t), [*map(type, t)]) for t in expected]
    assert got == expected


def _op_census(loss) -> Counter:
    """Recorded graph nodes reachable from `loss`, counted by op."""
    return Counter(node.op for node in graph_nodes(loss) if node.requires_grad and node.op != "leaf")


@pytest.mark.parametrize("variant,use_alignment,use_reasoning", ABLATION_VARIANTS,
                         ids=[name for name, *_ in ABLATION_VARIANTS])
def test_every_attention_site_is_one_fused_node(variant, use_alignment, use_reasoning):
    cfg = RunConfig()
    cfg.ablation = dataclasses.replace(cfg.ablation, use_alignment=use_alignment,
                                       use_reasoning=use_reasoning)
    model = RetrievalModel(cfg)
    records = small_records(4)
    census = _op_census(model.batch_losses(records)[0])
    nodes, by_op = STEP_CENSUS[variant]
    assert census == by_op and sum(census.values()) == nodes
    frozen = model.ref_encoder.encode(TokenSeq(records[0].ref_tokens))
    assert not frozen.requires_grad and not frozen._parents


@pytest.mark.parametrize("variant,use_alignment,use_reasoning", ABLATION_VARIANTS,
                         ids=[name for name, *_ in ABLATION_VARIANTS])
def test_backward_leaves_grads_on_the_reached_params_only(variant, use_alignment, use_reasoning):
    cfg = RunConfig()
    cfg.ablation = dataclasses.replace(cfg.ablation, use_alignment=use_alignment,
                                       use_reasoning=use_reasoning)
    model = RetrievalModel(cfg)
    total, _ = model.batch_losses(small_records(4))
    total.backward()
    nodes = graph_nodes(total)
    assert all(node.grad is None for node in nodes if node._backprop is not None)
    reached = {id(node) for node in nodes if node._backprop is None and node.requires_grad}
    trainable = model.trainable()
    assert {id(p) for p in trainable} >= reached
    assert [p.name for p in trainable if (p.grad is not None) != (id(p) in reached)] == []


def test_disabled_auxiliaries_leave_their_params_unchanged():
    cfg = small_config()
    cfg.objective = dataclasses.replace(cfg.objective, alpha=0.0, beta=0.0)
    model = RetrievalModel(cfg)
    bridge_names = {p.name for p in model.bridge.params()}
    comp_names = {p.name for p in model.compositor.params()}
    before = {name: p.data.copy() for name, p in model.parameters().items()}

    total, breakdown = model.batch_losses(small_records(3))
    assert breakdown.alignment is None and breakdown.reasoning is None
    total.backward()
    opt = Adam(model.trainable(), lr=0.05)
    opt.step()

    for name, p in model.parameters().items():
        if name in bridge_names | comp_names:
            assert p.grad is None, name
            assert np.array_equal(p.data, before[name]), name
    # matching-loss path did move
    assert not np.array_equal(model.parameters()["fusion.wv"].data, before["fusion.wv"])


def test_pure_reference_flag_changes_alignment_loss():
    records = small_records(3)
    attentive = RetrievalModel(small_config())
    _, with_cross = attentive.batch_losses(records)

    cfg = small_config()
    cfg.ablation = dataclasses.replace(cfg.ablation, attentive_reference=False)
    pure = RetrievalModel(cfg)
    _, without_cross = pure.batch_losses(records)

    # same init (same seed), so matching term agrees and only alignment differs
    assert with_cross.matching == pytest.approx(without_cross.matching, abs=1e-12)
    assert with_cross.alignment != pytest.approx(without_cross.alignment, abs=1e-9)


def test_a_default_step_skips_the_input_gradients_of_frozen_features():
    # the 8 compositor layers and the cross encoder take frozen query rows; each branch's
    # first layer and query fusion take frozen key/value rows
    total, _ = RetrievalModel(RunConfig()).batch_losses(small_records(4))
    skipped = Counter()
    for node in graph_nodes(total):
        if node.op == "attention" and node.requires_grad:
            slots = node._backprop(np.ones(node.shape))
            for side, slot, parent in zip(("x_q", "x_kv"), slots, node._parents):
                assert (slot is None) == (not parent.requires_grad)
                skipped[side] += slot is None
    assert skipped == Counter(x_q=9, x_kv=3)


def test_frozen_params_bitwise_stable_over_training_steps():
    model = RetrievalModel(small_config())
    frozen_before = {name: p.data.copy() for name, p in model.parameters().items() if p.frozen}
    opt = Adam(model.trainable(), lr=0.05)
    records = small_records(6)
    for _ in range(3):
        model.zero_grad()
        total, _ = model.batch_losses(records[:3])
        total.backward()
        opt.step()
    for name, p in model.parameters().items():
        if p.frozen:
            assert np.array_equal(p.data, frozen_before[name]), name


def test_inference_never_reads_training_only_params():
    model = RetrievalModel(small_config())
    records = small_records(4)
    training_only = model.bridge.params() + model.compositor.params()
    baseline = {p.name: p.reads for p in training_only}

    with no_grad():
        gallery = np.vstack([model.target_embedding(r.target_tokens).data for r in records])
        for r in records:
            q = model.query_embedding(r.ref_tokens, r.text_tokens)
            score_query_against_gallery(q, gallery)
        model.target_embedding([r.target_tokens for r in records])
        model.query_embedding([r.ref_tokens for r in records], [r.text_tokens for r in records])

    for p in training_only:
        assert p.reads == baseline[p.name], p.name
    # sanity: a training step does read them
    total, _ = model.batch_losses(records[:3])
    assert any(p.reads > baseline[p.name] for p in training_only)


def test_checkpoint_round_trip_is_value_exact(tmp_path):
    cfg = small_config()
    model = RetrievalModel(cfg)
    # make values non-trivial decimals
    opt = Adam(model.trainable(), lr=0.013)
    total, _ = model.batch_losses(small_records(3))
    total.backward()
    opt.step()
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path)

    restored = RetrievalModel(cfg, seed=999)  # different init, then load
    load_checkpoint(restored, path)
    for name, p in model.parameters().items():
        q = restored.parameters()[name]
        assert np.array_equal(p.data, q.data), name
        assert p.frozen == q.frozen


def test_encode_after_loading_other_frozen_values_returns_the_new_rows(tmp_path):
    cfg = small_config()
    model, source = RetrievalModel(cfg, seed=1), RetrievalModel(cfg, seed=2)
    targets = [r.target_tokens for r in small_records(4)]
    stale = model.target_embedding(targets).data  # fills the target encoder's memo
    path = tmp_path / "ckpt.json"
    save_checkpoint(source, path)
    load_checkpoint(model, path)
    rows = model.target_embedding(targets).data
    assert np.array_equal(rows, source.target_embedding(targets).data)
    assert not np.array_equal(rows, stale)


def test_memo_holds_one_row_per_distinct_tuple_after_an_epoch():
    cfg = RunConfig()
    cfg.training = dataclasses.replace(cfg.training, epochs=1)
    train, _ = generate(synth_spec_from_config(cfg))
    model = RetrievalModel(cfg)
    train_model(model, train, cfg)
    refs, targets = {r.ref_tokens for r in train}, {r.target_tokens for r in train}
    assert (len(refs), len(targets)) == (64, 222)
    # the target encoder also re-encodes every reference for the reasoning loss
    assert len(model.ref_encoder._rows) == len(refs)
    assert len(model.tgt_encoder._rows) == len(targets | refs)


def test_checkpoint_mismatch_detected(tmp_path):
    cfg = small_config()
    model = RetrievalModel(cfg)
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path)
    other_cfg = small_config()
    other_cfg.model = dataclasses.replace(other_cfg.model, dim=16)
    other = RetrievalModel(other_cfg)
    with pytest.raises(ValueError):
        load_checkpoint(other, path)


def test_checkpoint_with_other_param_names_refused_by_name(tmp_path):
    # a shared text projection saves no bridge.w_text_query; an unshared model expects one
    cfg = small_config()
    cfg.ablation = dataclasses.replace(cfg.ablation, share_text_projection=True)
    path = tmp_path / "ckpt.json"
    save_checkpoint(RetrievalModel(cfg), path)
    cfg.ablation = dataclasses.replace(cfg.ablation, share_text_projection=False)
    with pytest.raises(ValueError, match=re.escape(
            "checkpoint mismatch: missing ['bridge.w_text_query'], unexpected []")):
        load_checkpoint(RetrievalModel(cfg), path)


def test_query_and_target_embeddings_unit_norm():
    model = RetrievalModel(small_config())
    r = small_records(1)[0]
    q = model.query_embedding(r.ref_tokens, r.text_tokens)
    t = model.target_embedding(r.target_tokens)
    assert q.shape == t.shape == (1, 8)
    assert np.linalg.norm(q.data) == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.norm(t.data) == pytest.approx(1.0, abs=1e-9)


def test_batched_embeddings_equal_single_record_calls_bitwise():
    model = RetrievalModel(small_config())
    records = small_records(5)
    with no_grad():
        queries = model.query_embedding([r.ref_tokens for r in records],
                                        [r.text_tokens for r in records])
        targets = model.target_embedding([r.target_tokens for r in records])
        assert queries.shape == targets.shape == (5, 8)
        for i, r in enumerate(records):
            single = model.query_embedding(r.ref_tokens, r.text_tokens)
            assert single.data.tobytes() == queries.data[i:i + 1].tobytes()
            single = model.target_embedding(r.target_tokens)
            assert single.data.tobytes() == targets.data[i:i + 1].tobytes()


@pytest.mark.parametrize("ref, text, message", [
    ((1.9, 2.2, 3), (0, 1), "query_embedding: ref_tokens: token id 1.9 is not an integer"),
    ((1, 2, 3), (True, 2.5), "query_embedding: text_tokens: token id True is not an integer"),
    ((1, 2, 3), ("3", 1), "query_embedding: text_tokens: token id '3' is not an integer"),
])
def test_query_embedding_refuses_non_integer_token_ids(ref, text, message):
    # refused by the rule TripletRecord applies, never rounded to an id
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RetrievalModel(small_config()).query_embedding(ref, text)


@pytest.mark.parametrize("tokens, message", [
    ((1, True, 3), "target_embedding: target_tokens: token id True is not an integer"),
    ([1, 2, 28], "take_rows: id 28 outside [0, 28)"),
    (tuple(range(17)), "sequence length 17 exceeds maximum 16"),
    ((), "token sequence must be non-empty"),
])
def test_target_embedding_refuses_what_a_record_or_the_lookup_refuses(tokens, message):
    # the field's integer rule first, then the table's rows and the encoder's length
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RetrievalModel(small_config()).target_embedding(tokens)


def _default_layout():
    d, img, txt, n = 20, 28, 16, 16  # RunConfig defaults
    square = (d, d)
    layout = {}
    for enc, vocab, frozen in (("ref_encoder", img, True), ("tgt_encoder", img, True)):
        layout[f"{enc}.embedding"] = ((vocab, d), frozen)
        layout[f"{enc}.cls"] = ((1, d), frozen)
        layout[f"{enc}.positions"] = ((n + 1, d), frozen)
    layout["text_encoder.embedding"] = ((txt, d), False)
    layout["text_encoder.positions"] = ((n, d), False)
    layout["fusion.prompts"] = ((8, d), False)
    for prefix, frozen in (("ref_encoder.attn", True), ("tgt_encoder.attn", True),
                           ("text_encoder.attn", False), ("cross_encoder", False),
                           ("fusion", False), ("compositor.target_branch", False),
                           ("compositor.reference_branch", False)):
        for w in ("wq", "wk", "wv"):
            layout[f"{prefix}.{w}"] = (square, frozen)
    for w in ("w_ref", "w_text", "w_target", "w_value"):
        layout[f"bridge.{w}"] = (square, False)
    return layout


def test_default_checkpoint_layout_pinned(tmp_path):
    # names, shapes and frozen flags are the checkpoint format; saved files depend on them
    path = tmp_path / "ckpt.json"
    save_checkpoint(RetrievalModel(RunConfig()), path)
    doc = json.loads(path.read_text())
    layout = {name: (tuple(e["shape"]), e["frozen"]) for name, e in doc.items()}
    assert len(layout) == 34
    assert layout == _default_layout()


def test_checkpoint_bytes_are_the_sorted_json_document(tmp_path):
    model = RetrievalModel(RunConfig())
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path)
    doc = {name: {"shape": list(p.shape), "data": p.data.reshape(-1).tolist(), "frozen": p.frozen}
           for name, p in model.parameters().items()}
    assert path.read_text(encoding="utf-8") == json.dumps(doc, sort_keys=True) + "\n"


def _refused_load(tmp_path, edit, message):
    """Save a model, `edit` the document in place or return a replacement, load
    it into another: refused with a ValueError matching `message`, every
    parameter left as it was."""
    cfg = small_config()
    path = tmp_path / "ckpt.json"
    save_checkpoint(RetrievalModel(cfg), path)
    doc = json.loads(path.read_text())
    replaced = edit(doc)
    # NaN / Infinity become literals, which json.load accepts
    path.write_text(json.dumps(doc if replaced is None else replaced))

    target = RetrievalModel(cfg, seed=999)
    before = {n: p.data.copy() for n, p in target.parameters().items()}
    with pytest.raises(ValueError, match=message):
        load_checkpoint(target, path)
    for n, p in target.parameters().items():
        assert np.array_equal(p.data, before[n]), n


@pytest.mark.parametrize("name,field,bad", [
    ("tgt_encoder.positions", "shape", [3, 8]),
    ("fusion.wq", "frozen", True),
    ("compositor.reference_branch.wv", "data", [0.0]),
    ("compositor.reference_branch.wv", "data", [1.0] * 63 + ["x"]),
    ("compositor.reference_branch.wv", "data", None),  # the entry has no data at all
])
def test_failed_load_leaves_every_parameter_unchanged(tmp_path, name, field, bad):
    def edit(doc):
        doc[name][field] = bad
        if bad is None:
            del doc[name][field]

    _refused_load(tmp_path, edit, f"^{re.escape(name)}: ")


@pytest.mark.parametrize("malform", [
    lambda entry: {k: v for k, v in entry.items() if k != "shape"},
    lambda entry: {k: v for k, v in entry.items() if k != "frozen"},
    lambda entry: list(entry.values()),
    lambda entry: dict(entry, shape=20),
], ids=["no shape", "no frozen", "entry is a list", "shape is a number"])
def test_malformed_checkpoint_entry_is_refused_by_name(tmp_path, malform):
    def edit(doc):
        doc["text_encoder.positions"] = malform(doc["text_encoder.positions"])

    _refused_load(tmp_path, edit, "^text_encoder.positions: checkpoint ")


@pytest.mark.parametrize("doc,kind", [([{"a": 1}], "list"), (5, "int"), ("x", "str")])
def test_checkpoint_that_is_not_an_object_is_refused(tmp_path, doc, kind):
    _refused_load(tmp_path, lambda _: doc, f"^checkpoint is a {kind}, not an object$")


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_checkpoint_values_refused(tmp_path, bad):
    def edit(doc):
        doc["fusion.wq"]["data"][5] = bad

    _refused_load(tmp_path, edit, "^fusion.wq: checkpoint holds non-finite values$")


def test_checkpoint_integer_beyond_the_float_range_refused(tmp_path):
    # a JSON integer is exact, so float64 conversion overflows rather than giving inf
    def edit(doc):
        doc["fusion.wq"]["data"][5] = 10**400

    _refused_load(tmp_path, edit, "^fusion.wq: checkpoint holds an integer beyond the float range$")


@pytest.mark.parametrize("loss", ["alignment", "reasoning", "full step", "matching-only step"])
def test_auxiliary_loss_graphs_do_not_grow_with_the_batch(loss):
    # a loss built per item or per (query, candidate) pair would grow with B;
    # so would a training step whose encoders or fusion ran per triplet
    d, rng = 6, np.random.default_rng(0)
    bridge = BridgeParams(d, np.random.default_rng(1), share_text_projection=True)
    comp = CompositorParams(d, np.random.default_rng(2), layers=2)
    cfg = small_config()
    if loss == "matching-only step":
        cfg.ablation = dataclasses.replace(cfg.ablation, use_alignment=False, use_reasoning=False)
    model, records = RetrievalModel(cfg), small_records(16)
    counts = []
    for b in (2, 16):
        f_r, f_c, f_t = (T.Tensor(rng.normal(size=(b, n, d))) for n in (4, 2, 4))
        if loss == "alignment":
            total = alignment_loss(f_r, f_c, f_t, bridge, 0.1)
        elif loss == "reasoning":
            total = reasoning_loss(f_r, f_t, f_c, comp, 0.1)
        else:
            total, _ = model.batch_losses(records[:b])
        counts.append(sum(_op_census(total).values()))
    assert counts[0] == counts[1] > 0


def _ragged_batch(tmp_path):
    """Two records whose images have 3 and 4 tokens, through a JSONL round trip."""
    records = [
        TripletRecord("a", (1, 2, 3), (0, 1), (4, 5, 6)),
        TripletRecord("b", (1, 2, 3, 7), (2, 3), (4, 5, 6, 8)),
    ]
    write_records(tmp_path / "ragged.jsonl", records)
    return read_records(tmp_path / "ragged.jsonl")


def test_ragged_batch_fails_clearly_with_the_full_objective(tmp_path):
    model = RetrievalModel(small_config())
    # a direct call skips train_model's check: images of 3 and 4 tokens, then
    # images that agree and texts of 2 and 1 tokens
    ragged_texts = [TripletRecord("a", (1, 2, 3), (0, 1), (4, 5, 6)),
                    TripletRecord("b", (1, 2, 3), (2,), (4, 5, 6))]
    for batch, message in (
        (_ragged_batch(tmp_path), r"^batch_losses: ref_tokens lengths differ: \[3, 4\] tokens"),
        (ragged_texts, r"^batch_losses: text_tokens lengths differ: \[1, 2\] tokens"),
    ):
        with pytest.raises(ValueError, match=message):
            model.batch_losses(batch)


def test_ragged_batch_fails_clearly_with_the_matching_loss_alone(tmp_path):
    # the matching loss stacks the batch too: there is no per-triplet path left
    cfg = small_config()
    cfg.ablation = dataclasses.replace(cfg.ablation, use_alignment=False, use_reasoning=False)
    with pytest.raises(ValueError, match=r"^batch_losses: ref_tokens lengths differ: \[3, 4\] tokens"):
        RetrievalModel(cfg).batch_losses(_ragged_batch(tmp_path))


def _ragged_set_and_config():
    """Two 3-token-image records and one 4-token one; at batch size 2 the
    first epoch's remainder drops the 4-token record."""
    records = [
        TripletRecord("a", (1, 2, 3), (0, 1), (4, 5, 6)),
        TripletRecord("b", (1, 2, 3, 7), (2, 3), (4, 5, 6)),
        TripletRecord("c", (1, 2, 3), (2, 3), (4, 5, 6)),
    ]
    cfg = small_config(epochs=3)
    cfg.training = dataclasses.replace(cfg.training, batch_size=2, seed=next(
        seed for seed in range(100)
        if all(r.id != "b" for batch in batches(records, 2, seed, 0) for r in batch)
    ))
    return records, cfg


def test_ragged_records_are_refused_before_the_first_step(tmp_path):
    records, cfg = _ragged_set_and_config()
    matching_only = dataclasses.replace(cfg, ablation=dataclasses.replace(
        cfg.ablation, use_alignment=False, use_reasoning=False))
    for run_cfg in (cfg, matching_only):
        model = RetrievalModel(run_cfg)
        before = model.parameters()["fusion.wv"].data.copy()
        log_path = tmp_path / "train_log.jsonl"
        with pytest.raises(ValueError, match=r"^train_model: ref_tokens lengths differ: \[3, 4\] tokens"):
            train_model(model, records, run_cfg, log_path=log_path)
        assert not log_path.exists()
        assert np.array_equal(model.parameters()["fusion.wv"].data, before)
