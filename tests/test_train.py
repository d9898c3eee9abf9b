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
from scalarize import scalarize


def test_adam_minimizes_quadratic():
    p = T.Param("x", np.array([[5.0, -3.0]]))
    opt = Adam([p], lr=0.1)
    for _ in range(200):
        p.zero_grad()
        x = p.tensor
        loss = T.matmul(x, T.transpose(x))  # the squared norm of the 1 x 2 row
        loss.backward()
        opt.step()
    assert np.all(np.abs(p.data) < 1e-2)


def test_adam_skips_frozen_and_gradless():
    frozen = T.Param("f", np.ones((2, 2)), frozen=True)
    idle = T.Param("i", np.ones((2, 2)))
    active = T.Param("a", np.ones((2, 2)))
    opt = Adam([frozen, idle, active], lr=0.5)
    scalarize(active.tensor).backward()
    opt.step()
    assert np.array_equal(frozen.data, np.ones((2, 2)))
    assert np.array_equal(idle.data, np.ones((2, 2)))
    assert not np.array_equal(active.data, np.ones((2, 2)))


def test_adam_names_an_overflowed_moment_and_writes_nothing():
    # 1e200 squared overflows the second moment; its update would silently be 0
    ok, huge = T.Param("ok", np.ones((1, 2))), T.Param("huge", np.ones((2, 2)))
    scalarize(ok.tensor).backward()
    scalarize(T.scalar_mul(huge.tensor, 1e200)).backward()
    opt = Adam([ok, huge], lr=0.1)
    with pytest.raises(T.NonFiniteError, match=r"output of 'Adam.step\[huge\]'$"):
        opt.step()
    assert np.array_equal(ok.data, np.ones((1, 2))) and np.array_equal(huge.data, np.ones((2, 2)))
    assert opt.step_count == 0


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

    def test_corrupted_gradient_detected(self):
        # the checker's own fault injection needs no full sweep: a small geometry shows it
        cfg = gradcheck_config()
        cfg.model = dataclasses.replace(cfg.model, dim=4)
        cfg.training = dataclasses.replace(cfg.training, batch_size=2)
        corrupted = run_gradient_check(cfg, corrupt="bridge.w_ref")
        assert not gradcheck_passed(corrupted)
        failing = {r["name"] for r in corrupted if r["status"] == "FAIL"}
        assert failing == {"bridge.w_ref"}

    def test_unknown_corruption_target_rejected(self):
        with pytest.raises(ValueError):
            run_gradient_check(corrupt="no.such.param")
