"""Adam-style optimization of the joint loss, plus the finite-difference
gradient checker used as the engine's acceptance gate."""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
import math
import operator
import time
from pathlib import Path

import numpy as np

from .config import RunConfig
from .data import TOKEN_FIELDS, batches, check_batch, generate, synth_spec_from_config
from .model import RetrievalModel
from .tensor import NonFiniteError, no_grad

log = logging.getLogger(__name__)


class Adam:
    """Plain Adam over the trainable params as one flat vector: `m` and `v` in
    `params` order, param i owning `offsets[i]:offsets[i + 1]`.  A param with no
    gradient steps with a zero gradient, bit for bit no step while its moments are
    zero, as in `train_model`, whose config fixes which params a step reaches."""

    def __init__(self, params, lr: float):
        self.params = [p for p in params if not p.frozen]
        self.lr = lr
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.step_count = 0
        self.offsets = np.cumsum([0] + [p.data.size for p in self.params]).tolist()
        self.m, self.v = np.zeros(self.offsets[-1]), np.zeros(self.offsets[-1])

    def step(self):
        """Update every param.  A second moment that overflows (a huge or non-finite gradient
        squared) raises NonFiniteError naming its param, and nothing is written."""
        b1, b2, bounds = self.beta1, self.beta2, self.offsets
        g = np.zeros(bounds[-1])
        for p, lo, hi in zip(self.params, bounds, bounds[1:]):
            if p.grad is not None:
                g[lo:hi] = p.grad.reshape(-1)
        with np.errstate(over="ignore", invalid="ignore"):
            m = self.m * b1
            m += (1 - b1) * g
            v = self.v * b2
            v += (1 - b2) * g * g
        # v >= 0 and max propagates NaN, so a finite max means every entry is finite
        if not math.isfinite(v.max(initial=0.0)):
            owner = self.params[np.searchsorted(bounds, np.argmin(np.isfinite(v)), "right") - 1]
            raise NonFiniteError(f"Adam.step[{owner.name}]")  # the first non-finite element's param
        self.m, self.v = m, v
        self.step_count += 1
        t = self.step_count
        update = self.lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + self.eps)
        for p, lo, hi in zip(self.params, bounds, bounds[1:]):
            p.data[...] -= update[lo:hi].reshape(p.shape)


def train_model(model: RetrievalModel, records, cfg: RunConfig, log_path=None):
    """Run the configured number of epochs; returns per-epoch mean breakdowns.

    Aborts, naming the epoch, step and op, if any engine output or Adam
    moment turns non-finite.  Any batch may draw any records, so the whole set
    must pass `data.check_batch` ("train_model: ...") before the first step.
    """
    tc = cfg.training
    check_batch("train_model", **{name: [getattr(r, name) for r in records] for name in TOKEN_FIELDS})
    optimizer = Adam(model.trainable(), lr=tc.learning_rate)
    history = []
    for epoch in range(tc.epochs):
        steps = []
        for step, batch in enumerate(batches(records, tc.batch_size, tc.seed, epoch)):
            model.zero_grad()
            try:
                total, breakdown = model.batch_losses(batch)
                total.backward()
                del total  # nothing reads its graph now: free it before the next forward
                optimizer.step()
            except NonFiniteError as err:
                raise RuntimeError(f"training aborted at epoch {epoch}, step {step}: non-finite "
                                   f"values in output of op '{err.op}'") from err
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
            # opened for each row, new at the first, so a run refused before it leaves no log
            Path(log_path).parent.mkdir(parents=True, exist_ok=True)
            with Path(log_path).open("w" if epoch == 0 else "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
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


def run_gradient_check(cfg: RunConfig | None = None):
    """Compare every trainable parameter's analytic gradient of the joint loss
    against central finite differences on one small batch.

    Returns a list of report rows {name, status, max_rel_err}.  Frozen
    parameter groups are reported as skipped.
    """
    cfg = gradcheck_config() if cfg is None else cfg
    train_records, _ = generate(synth_spec_from_config(cfg))
    batch = train_records[: cfg.training.batch_size]
    model = RetrievalModel(cfg)

    model.zero_grad()
    total, _ = model.batch_losses(batch)
    total.backward()

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
        # the sweep runs under no_grad, so it leaves every gradient as backward wrote it
        grads = np.zeros(flat.size) if p.grad is None else p.grad.reshape(-1)
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
