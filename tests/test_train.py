import time

import numpy as np
import pytest

from cirtrain import tensor as T
from cirtrain.train import (
    GRADCHECK_TOLERANCE,
    Adam,
    gradcheck_passed,
    relative_error,
    run_gradient_check,
)


def test_adam_minimizes_quadratic():
    p = T.Param("x", np.array([[5.0, -3.0]]))
    opt = Adam([p], lr=0.1)
    for _ in range(200):
        p.zero_grad()
        loss = T.sum_all(T.mul(p.tensor, p.tensor))
        loss.backward()
        opt.step()
    assert np.all(np.abs(p.data) < 1e-2)


def test_adam_skips_frozen_and_gradless():
    frozen = T.Param("f", np.ones((2, 2)), frozen=True)
    idle = T.Param("i", np.ones((2, 2)))
    active = T.Param("a", np.ones((2, 2)))
    opt = Adam([frozen, idle, active], lr=0.5)
    T.sum_all(active.tensor).backward()
    opt.step()
    assert np.array_equal(frozen.data, np.ones((2, 2)))
    assert np.array_equal(idle.data, np.ones((2, 2)))
    assert not np.array_equal(active.data, np.ones((2, 2)))


def test_relative_error_clamps_denominator():
    assert relative_error(0.0, 0.0) == 0.0
    assert relative_error(1e-12, 0.0) == pytest.approx(1e-4)
    assert relative_error(2.0, 1.0) == 0.5


@pytest.fixture(scope="module")
def rows():
    started = time.time()
    result = run_gradient_check()
    result_elapsed[0] = time.time() - started
    return result


result_elapsed = [None]


class TestGradientCheck:
    def test_all_trainable_groups_pass(self, rows):
        failures = [r for r in rows if r["status"] == "FAIL"]
        assert not failures, failures
        assert gradcheck_passed(rows)
        checked = [r for r in rows if r["max_rel_err"] is not None]
        assert checked and max(r["max_rel_err"] for r in checked) < GRADCHECK_TOLERANCE

    def test_frozen_groups_reported_skipped(self, rows):
        skipped = {r["name"] for r in rows if r["status"] == "skipped (frozen)"}
        assert skipped
        assert all(name.startswith(("ref_encoder.", "tgt_encoder.")) for name in skipped)

    def test_runtime_budget(self, rows):
        assert result_elapsed[0] < 60.0

    def test_corrupted_gradient_detected(self):
        corrupted = run_gradient_check(corrupt="bridge.w_ref")
        assert not gradcheck_passed(corrupted)
        failing = {r["name"] for r in corrupted if r["status"] == "FAIL"}
        assert "bridge.w_ref" in failing

    def test_unknown_corruption_target_rejected(self):
        with pytest.raises(ValueError):
            run_gradient_check(corrupt="no.such.param")
