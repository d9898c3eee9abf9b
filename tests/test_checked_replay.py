"""The training forward runs unchecked and is replayed checked on any flag.

`RetrievalModel.batch_losses` first runs its forward under `tensor.unchecked`;
the checked forward it falls back to is the one every op's own check gives.
These tests compare the two: patching `cirtrain.model.unchecked` to a null
context makes the first attempt the checked forward itself.
"""

import contextlib
import dataclasses
from collections import Counter

import numpy as np
import pytest

import cirtrain.model
from cirtrain import tensor as T
from cirtrain.config import RunConfig
from cirtrain.data import generate, synth_spec_from_config
from cirtrain.model import RetrievalModel
from cirtrain.train import ABLATION_VARIANTS


def variant_config(use_alignment=True, use_reasoning=True, attentive_reference=True) -> RunConfig:
    cfg = RunConfig()
    cfg.ablation = dataclasses.replace(cfg.ablation, use_alignment=use_alignment,
                                       use_reasoning=use_reasoning,
                                       attentive_reference=attentive_reference)
    return cfg


VARIANTS = {name: variant_config(a, r) for name, a, r in ABLATION_VARIANTS}
VARIANTS["pure_reference"] = variant_config(attentive_reference=False)
MATCHING_ONLY = VARIANTS["baseline"]


def records_for(cfg: RunConfig, n: int = 4):
    train, _ = generate(dataclasses.replace(synth_spec_from_config(cfg), n_train=n, n_val=2))
    return train


def step_outcome(model, records):
    """A step's observable result: the op a `NonFiniteError` names, or the breakdown's repr
    (exact for floats) and every gradient's bytes after backward."""
    model.zero_grad()
    try:
        total, breakdown = model.batch_losses(records)
    except T.NonFiniteError as err:
        return err.op
    total.backward()
    return repr(breakdown), {name: None if p.grad is None else p.grad.tobytes()
                             for name, p in model.parameters().items()}


def checked_outcome(model, records):
    """`step_outcome` with the checked forward alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cirtrain.model, "unchecked", contextlib.nullcontext)
        return step_outcome(model, records)


@pytest.fixture
def forward_modes(monkeypatch):
    """The engine mode of every `_forward` call, in call order."""
    modes = []
    original = RetrievalModel._forward

    def recording(self, ids):
        modes.append("checked" if T._checked else "unchecked")
        return original(self, ids)

    monkeypatch.setattr(RetrievalModel, "_forward", recording)
    return modes


@pytest.mark.parametrize("variant", VARIANTS)
def test_fast_forward_equals_the_checked_forward_bitwise(variant, forward_modes):
    cfg = VARIANTS[variant]
    model, records = RetrievalModel(cfg), records_for(cfg)
    fast = step_outcome(model, records)
    assert forward_modes == ["unchecked"]  # a clean step is not replayed
    checked = checked_outcome(model, records)
    assert forward_modes == ["unchecked", "checked"]
    assert not isinstance(fast, str) and fast == checked


def poison(param, index, value):
    """Write `value` at `index` of the param: in place if trainable, through `assign` (the
    frozen arrays' one writer, which refuses a non-finite value) if frozen."""
    data = param.data.copy()
    data[index] = value
    if param.frozen:
        param.assign(data)
    else:
        param.data[...] = data


@pytest.mark.parametrize("cfg", [VARIANTS["full"], MATCHING_ONLY], ids=["default", "matching_only"])
def test_poisoned_parameters_give_the_checked_outcome(cfg):
    # NaN, ±inf or a value from 1e155 to 1e300 in one element of a random parameter: every
    # trial names the op the checked forward names or gives its losses and gradients bit for bit
    rng = np.random.default_rng(20)
    model, records = RetrievalModel(cfg), records_for(cfg)
    params = list(model.parameters().values())
    outcomes = Counter()
    for _ in range(150):
        p = params[rng.integers(len(params))]
        huge = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(155, 300)
        value = huge if p.frozen else rng.choice([np.nan, np.inf, -np.inf, huge])
        index = tuple(int(rng.integers(n)) for n in p.shape)
        original = p.data.copy()
        poison(p, index, value)
        fast, checked = step_outcome(model, records), checked_outcome(model, records)
        poison(p, ..., original)
        assert fast == checked, (p.name, index, value)
        outcomes[fast if isinstance(fast, str) else "finite"] += 1
    # the trials reach both a clean step and errors named by more than one op
    assert outcomes["finite"] and len(outcomes) >= 4, outcomes


def test_a_nan_caught_by_a_later_norm_check_is_named_at_its_lookup(forward_modes):
    # the unchecked attempt stops at l2_normalize_rows' own check; the replay names take_rows
    cfg = VARIANTS["full"]
    model, records = RetrievalModel(cfg), records_for(cfg)
    assert any(0 in r.text_tokens for r in records)
    poison(model.text_encoder.embedding, (0, 0), np.nan)
    assert step_outcome(model, records) == checked_outcome(model, records) == "take_rows"
    assert forward_modes[:2] == ["unchecked", "checked"]


def test_a_nan_in_a_tensor_no_enabled_loss_reads_is_named(forward_modes):
    # matching alone never reads the cross encoder's output, so its NaN leaves the loss finite
    model, records = RetrievalModel(MATCHING_ONLY), records_for(MATCHING_ONLY)
    poison(model.cross_encoder.wq, (0, 0), np.nan)
    assert step_outcome(model, records) == checked_outcome(model, records) == "attention"
    assert forward_modes[:2] == ["unchecked", "checked"]


def test_the_fast_forward_checks_no_tensor_and_the_checked_one_each_once(monkeypatch):
    cfg = VARIANTS["full"]
    records = records_for(cfg)
    checked_arrays, built = [], []
    isfinite, init = np.isfinite, T.Tensor.__init__

    def counting_isfinite(x, *args, **kwargs):
        checked_arrays.append(x)
        return isfinite(x, *args, **kwargs)

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(np, "isfinite", counting_isfinite)
    monkeypatch.setattr(T.Tensor, "__init__", recording_init)
    for run, checks_per_tensor in ((step_outcome, 0), (checked_outcome, 1)):
        model = RetrievalModel(cfg)  # a fresh memo, so the frozen encoders run in both
        checked_arrays.clear()
        built.clear()
        run(model, records)
        calls = Counter(id(x) for x in checked_arrays)
        assert len(built) > 100
        assert {calls[id(t.data)] for t in built} == {checks_per_tensor}
