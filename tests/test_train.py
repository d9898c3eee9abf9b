import dataclasses
import math

import numpy as np
import pytest

from cirtrain import tensor as T
from cirtrain.config import RunConfig
from cirtrain.data import generate, synth_spec_from_config
from cirtrain.model import RetrievalModel
from cirtrain.train import (
    GRADCHECK_TOLERANCE,
    Adam,
    gradcheck_config,
    gradcheck_passed,
    relative_error,
    run_gradient_check,
    train_model,
)
from graph import graph_nodes
from scalarize import scalarize


def test_adam_minimizes_quadratic():
    p = T.Param("x", np.array([[5.0, -3.0]]))
    opt = Adam([p], lr=0.1)
    for _ in range(200):
        p.grad = None
        x = p
        loss = T.matmul(x, T.transpose(x))  # the squared norm of the 1 x 2 row
        loss.backward()
        opt.step()
    assert np.all(np.abs(p.data) < 1e-2)


def test_adam_skips_frozen_and_gradless():
    frozen = T.Param("f", np.ones((2, 2)), frozen=True)
    idle = T.Param("i", np.ones((2, 2)))
    active = T.Param("a", np.ones((2, 2)))
    opt = Adam([frozen, idle, active], lr=0.5)
    scalarize(active).backward()
    opt.step()
    assert np.array_equal(frozen.data, np.ones((2, 2)))
    assert np.array_equal(idle.data, np.ones((2, 2)))
    assert not np.array_equal(active.data, np.ones((2, 2)))


@pytest.mark.parametrize("at", [0, 1, 2], ids=["first", "middle", "last"])
def test_adam_names_an_overflowed_moment_and_writes_nothing(at):
    # 1e200 squared overflows the second moment; its update would silently be 0
    params = [T.Param(f"p{i}", np.ones((i + 1, 2))) for i in range(3)]
    for i, p in enumerate(params):
        scalarize(T.scalar_mul(p, 1e200 if i == at else 1.0)).backward()
    opt = Adam(params, lr=0.1)
    with pytest.raises(T.NonFiniteError, match=rf"output of 'Adam.step\[p{at}\]'$"):
        opt.step()
    assert all(np.array_equal(p.data, np.ones((i + 1, 2))) for i, p in enumerate(params))
    assert not opt.m.any() and not opt.v.any() and opt.step_count == 0


class PerGroupAdam:
    """Reference: Adam run param by param, skipping a param without a gradient."""

    def __init__(self, params, lr):
        self.params, self.lr, self.t = [p for p in params if not p.frozen], lr, 0
        self.m = [np.zeros(p.shape) for p in self.params]
        self.v = [np.zeros(p.shape) for p in self.params]

    def step(self):
        self.t += 1
        for i, p in enumerate(self.params):
            if p.grad is not None:
                self.m[i] = self.m[i] * 0.9 + (1 - 0.9) * p.grad
                self.v[i] = self.v[i] * 0.999 + (1 - 0.999) * p.grad * p.grad
                m_hat = self.m[i] / (1 - 0.9 ** self.t)
                v_hat = self.v[i] / (1 - 0.999 ** self.t)
                p.data[...] -= self.lr * m_hat / (np.sqrt(v_hat) + 1e-8)


def test_adam_matches_a_per_group_reference_bit_for_bit():
    shapes = [(3, 4), (5,), (2, 3, 2), (1, 1), (4, 4)]  # the last never gets a gradient
    rng = np.random.default_rng(0)
    start = [rng.normal(size=s) for s in shapes]
    frozen = T.Param("frozen", np.ones((2, 2)), frozen=True)
    flat = [T.Param(f"p{i}", x) for i, x in enumerate(start)]
    ref = [T.Param(f"p{i}", x) for i, x in enumerate(start)]
    opt, ref_opt = Adam([frozen, *flat], lr=0.03), PerGroupAdam([frozen, *ref], lr=0.03)
    for _ in range(25):
        for params in (flat, ref):
            for p in params:
                p.grad = None
        for p, q in zip(flat[:-1], ref[:-1]):
            # gradients of very different sizes, the same for both optimizers
            w = rng.normal(size=p.data.size) * 10.0 ** rng.integers(-6, 4)
            scalarize(p, w).backward()
            scalarize(q, w).backward()
        opt.step()
        ref_opt.step()
    assert all(np.array_equal(p.data, q.data) for p, q in zip(flat, ref))
    assert np.array_equal(flat[-1].data, start[-1]) and opt.step_count == 25
    assert np.array_equal(frozen.data, np.ones((2, 2))) and opt.m.size == sum(x.size for x in start)


def test_adam_with_no_params_still_steps():
    opt = Adam([], lr=0.1)
    opt.step()
    assert opt.step_count == 1


def test_a_param_whose_gradient_disappears_moves_by_its_momentum():
    # a param without a gradient steps with a zero gradient, not a skip
    fading, idle = T.Param("fading", np.zeros((2, 3))), T.Param("idle", np.zeros((2, 3)))
    w = np.array([1.0, -2.0, 3.0, -4.0, 5.0, -6.0])
    opt = Adam([fading, idle], lr=0.1)
    scalarize(fading, w).backward()
    opt.step()
    after_one = fading.data.copy()
    fading.grad = None
    opt.step()
    assert np.array_equal(np.sign(fading.data - after_one).reshape(-1), -np.sign(w))
    assert np.array_equal(idle.data, np.zeros((2, 3)))


@pytest.mark.parametrize("tau, op", [(1e-300, "Adam.step[text_encoder.embedding]"),
                                     (1e-308, "diagonal_nll")])
def test_training_at_the_smallest_temperatures_aborts_by_name(tmp_path, tau, op):
    # at tau = 1e-300 every op stays finite but the gradients reach 1e300, whose square
    # overflows in Adam; at 1e-308 the first loss itself passes the float range
    cfg = RunConfig()
    cfg.objective = dataclasses.replace(cfg.objective, tau=tau)
    cfg.synth = dataclasses.replace(cfg.synth, n_train=64)
    records, _ = generate(synth_spec_from_config(cfg))
    model = RetrievalModel(cfg)
    before = {name: p.data.copy() for name, p in model.parameters().items()}
    with pytest.raises(RuntimeError) as err:
        train_model(model, records, cfg, log_path=tmp_path / "log.jsonl")
    assert str(err.value) == ("training aborted at epoch 0, step 0: non-finite values in output "
                              f"of op '{op}'")
    assert isinstance(err.value.__cause__, T.NonFiniteError)
    assert not (tmp_path / "log.jsonl").exists()
    assert all(np.array_equal(p.data, before[name]) for name, p in model.parameters().items())


def test_training_at_a_small_temperature_stays_finite():
    # at tau = 1e-3 the in-batch softmax underflows on the first batches
    cfg = RunConfig()
    cfg.objective = dataclasses.replace(cfg.objective, tau=0.001)
    cfg.synth = dataclasses.replace(cfg.synth, n_train=64)
    cfg.training = dataclasses.replace(cfg.training, epochs=2)
    records, _ = generate(synth_spec_from_config(cfg))
    history = train_model(RetrievalModel(cfg), records, cfg)
    assert len(history) == 2
    assert all(math.isfinite(row[key]) for row in history
               for key in ("matching", "alignment", "reasoning", "total"))


def test_relative_error_clamps_denominator():
    assert relative_error(0.0, 0.0) == 0.0
    assert relative_error(1e-12, 0.0) == pytest.approx(1e-4)
    assert relative_error(2.0, 1.0) == 0.5


class TestGradientCheck:
    def test_all_trainable_groups_pass(self, gradient_sweep):
        rows, _ = gradient_sweep
        failures = [r for r in rows if r["status"] == "FAIL"]
        assert not failures, failures
        assert gradcheck_passed(rows)
        checked = [r for r in rows if r["max_rel_err"] is not None]
        assert checked and max(r["max_rel_err"] for r in checked) < GRADCHECK_TOLERANCE

    def test_frozen_groups_reported_skipped(self, gradient_sweep):
        rows, _ = gradient_sweep
        skipped = {r["name"] for r in rows if r["status"] == "skipped (frozen)"}
        assert skipped
        assert all(name.startswith(("ref_encoder.", "tgt_encoder.")) for name in skipped)

    def test_runtime_budget(self, gradient_sweep):
        _, elapsed = gradient_sweep
        assert elapsed < 60.0

    def test_corrupted_gradient_detected(self, monkeypatch):
        # a fault injected from outside the library: bridge.w_ref's analytic gradient reads
        # 1e-2 off every entry; a small geometry shows it without the full sweep
        backward = T.Tensor.backward

        def corrupting_backward(loss):
            backward(loss)
            for node in graph_nodes(loss):
                if isinstance(node, T.Param) and node.name == "bridge.w_ref":
                    node.grad = node.grad + 1e-2

        monkeypatch.setattr(T.Tensor, "backward", corrupting_backward)
        cfg = gradcheck_config()
        cfg.model = dataclasses.replace(cfg.model, dim=4)
        cfg.training = dataclasses.replace(cfg.training, batch_size=2)
        corrupted = run_gradient_check(cfg)
        assert not gradcheck_passed(corrupted)
        failing = {r["name"] for r in corrupted if r["status"] == "FAIL"}
        assert failing == {"bridge.w_ref"}
