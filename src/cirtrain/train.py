"""Adam-style optimization of the joint loss, plus the finite-difference
gradient checker used as the engine's acceptance gate."""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
import operator
import time
from pathlib import Path

import numpy as np

from .config import RunConfig
from .data import batches, generate, synth_spec_from_config
from .model import RetrievalModel
from .tensor import NonFiniteError, no_grad

log = logging.getLogger(__name__)


class Adam:
    """Plain Adam on a list of Params; frozen params are never handed to it."""

    def __init__(self, params, lr: float):
        self.params = [p for p in params if not p.frozen]
        self.lr = lr
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.step_count = 0
        self._m = [np.zeros(p.shape) for p in self.params]
        self._v = [np.zeros(p.shape) for p in self.params]

    def step(self):
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            if g is None:
                continue
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1 ** self.step_count)
            v_hat = v / (1 - b2 ** self.step_count)
            p.data[...] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def train_model(model: RetrievalModel, records, cfg: RunConfig, log_path=None):
    """Run the configured number of epochs; returns per-epoch mean breakdowns.

    Aborts with a diagnostic naming the offending op if any engine output
    turns non-finite.
    """
    tc = cfg.training
    optimizer = Adam(model.trainable(), lr=tc.learning_rate)
    history = []
    log_fh = None
    try:
        for epoch in range(tc.epochs):
            steps = []
            for batch in batches(records, tc.batch_size, tc.seed, epoch):
                model.zero_grad()
                try:
                    total, breakdown = model.batch_losses(batch)
                    total.backward()
                except NonFiniteError as err:
                    raise RuntimeError(
                        f"training aborted at epoch {epoch}: {err} "
                        f"(first non-finite tensor came from op '{err.op}')"
                    ) from err
                optimizer.step()
                steps.append(dataclasses.asdict(breakdown))
            row = {"epoch": epoch, "batches": len(steps)}
            for key in steps[0]:
                values = [step[key] for step in steps if step[key] is not None]
                # summed left to right on every Python: from 3.12 the builtin sum compensates
                summed = functools.reduce(operator.add, values, 0.0)
                row[key] = summed / len(values) if values else None
            history.append(row)
            line = json.dumps(row)
            log.info("epoch %d: %s", epoch, line)
            if log_path is not None:
                if log_fh is None:
                    # opened at the first row, so a run refused before it leaves no log
                    Path(log_path).parent.mkdir(parents=True, exist_ok=True)
                    log_fh = Path(log_path).open("w", encoding="utf-8")
                log_fh.write(line + "\n")
    finally:
        if log_fh is not None:
            log_fh.close()
    return history


# ------------------------------------------------------------------ gradient check

GRADCHECK_TOLERANCE = 1e-4
FD_STEP = 1e-5


def gradcheck_config() -> RunConfig:
    """The small exact-arithmetic-friendly setup the gradient suite runs at."""
    cfg = RunConfig()
    cfg.model = dataclasses.replace(
        cfg.model, dim=8, image_vocab=16, text_vocab=12, max_tokens=8,
        prompts=4, compositor_layers=2,
    )
    cfg.training = dataclasses.replace(cfg.training, batch_size=3, seed=11)
    cfg.synth = dataclasses.replace(
        cfg.synth, latent_dim=4, n_train=8, n_val=4, n_attributes=2,
        noise_sigma=0.1, seed=11,
    )
    return cfg


def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)


def run_gradient_check(cfg: RunConfig | None = None, corrupt: str | None = None):
    """Compare every trainable parameter's analytic gradient of the joint loss
    against central finite differences on one small batch.

    Returns a list of report rows {name, status, max_rel_err}.  Frozen
    parameter groups are reported as skipped.  `corrupt` names a parameter
    whose analytic gradient is deliberately perturbed (a fault-injection
    hook for tests of the checker itself).
    """
    cfg = gradcheck_config() if cfg is None else cfg
    train_records, _ = generate(synth_spec_from_config(cfg))
    batch = train_records[: cfg.training.batch_size]
    model = RetrievalModel(cfg)

    model.zero_grad()
    total, _ = model.batch_losses(batch)
    total.backward()

    analytic = {}
    for name, p in model.parameters().items():
        if p.frozen:
            continue
        analytic[name] = np.zeros(p.shape) if p.grad is None else p.grad.copy()
    if corrupt is not None:
        if corrupt not in analytic:
            raise ValueError(f"unknown parameter {corrupt!r}")
        analytic[corrupt] = analytic[corrupt] + 1e-2

    def loss_value() -> float:
        with no_grad():
            value, _ = model.batch_losses(batch)
        return value.item()

    started = time.time()
    rows = []
    for name, p in sorted(model.parameters().items()):
        if p.frozen:
            rows.append({"name": name, "status": "skipped (frozen)", "max_rel_err": None})
            continue
        worst = 0.0
        flat = p.data.reshape(-1)
        grads = analytic[name].reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + FD_STEP
            up = loss_value()
            flat[i] = original - FD_STEP
            down = loss_value()
            flat[i] = original
            numeric = (up - down) / (2 * FD_STEP)
            worst = max(worst, relative_error(float(grads[i]), numeric))
        rows.append({
            "name": name,
            "status": "ok" if worst < GRADCHECK_TOLERANCE else "FAIL",
            "max_rel_err": worst,
        })
    log.info("gradient check over %d groups took %.1fs",
             len(rows), time.time() - started)
    return rows


def gradcheck_passed(rows) -> bool:
    return all(r["status"] != "FAIL" for r in rows)


# ------------------------------------------------------------------ ablations

ABLATION_VARIANTS = (
    ("baseline", False, False),
    ("+alignment", True, False),
    ("+reasoning", False, True),
    ("full", True, True),
)


def compare_ablations(cfg: RunConfig, train_records, val_records, evaluate):
    """Train the four standard variants on one seed and collect their metrics.

    `evaluate` maps (model, val_records) to a metrics dict; it is injected so
    this stays importable without the CLI module.
    """
    results = {}
    for name, use_alignment, use_reasoning in ABLATION_VARIANTS:
        variant = dataclasses.replace(
            cfg,
            ablation=dataclasses.replace(
                cfg.ablation, use_alignment=use_alignment, use_reasoning=use_reasoning
            ),
        )
        model = RetrievalModel(variant)
        train_model(model, train_records, variant)
        results[name] = evaluate(model, val_records)
    return results


def format_ablation_table(results: dict) -> str:
    keys = ("recall_at_1", "recall_at_5", "recall_subset_at_1")
    header = "variant".ljust(12) + "".join(k.rjust(20) for k in keys)
    lines = [header]
    for name, _, _ in ABLATION_VARIANTS:
        row = results[name]
        lines.append(name.ljust(12) + "".join(f"{100 * row[k]:19.2f}%" for k in keys))
    return "\n".join(lines)
