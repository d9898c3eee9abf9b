import dataclasses
import json

import numpy as np
import pytest

from cirtrain.config import RunConfig
from cirtrain.data import SynthSpec, generate
from cirtrain.model import RetrievalModel, load_checkpoint, save_checkpoint
from cirtrain.objective import score_query_against_gallery
from cirtrain.tensor import no_grad
from cirtrain.train import Adam


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
    with pytest.raises(ValueError, match="concat: need at least one tensor"):
        RetrievalModel(small_config()).batch_losses([])


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


def test_query_and_target_embeddings_unit_norm():
    model = RetrievalModel(small_config())
    r = small_records(1)[0]
    q = model.query_embedding(r.ref_tokens, r.text_tokens)
    t = model.target_embedding(r.target_tokens)
    assert q.shape == t.shape == (1, 8)
    assert np.linalg.norm(q.data) == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.norm(t.data) == pytest.approx(1.0, abs=1e-9)


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


@pytest.mark.parametrize("name,field,bad", [
    ("tgt_encoder.positions", "shape", [3, 8]),
    ("fusion.wq", "frozen", True),
    ("compositor.reference_branch.wv", "data", [0.0]),
])
def test_failed_load_leaves_every_parameter_unchanged(tmp_path, name, field, bad):
    cfg = small_config()
    path = tmp_path / "ckpt.json"
    save_checkpoint(RetrievalModel(cfg), path)
    doc = json.loads(path.read_text())
    doc[name][field] = bad
    path.write_text(json.dumps(doc))

    target = RetrievalModel(cfg, seed=999)
    before = {n: p.data.copy() for n, p in target.parameters().items()}
    with pytest.raises(ValueError):
        load_checkpoint(target, path)
    for n, p in target.parameters().items():
        assert np.array_equal(p.data, before[n]), n
