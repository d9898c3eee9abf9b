"""Workload set-up, the untraced closed loops and their traced counterparts.

Every workload is a closed loop: the next step or pass starts only after
the previous one returned.  A loop starts another operation only
while it is expected to end inside the time budget, and always runs at
least one.  `run` returns the end-to-end metrics (trace 0) or the per-layer
metrics (trace 1) together with the operation counts and details.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import resource
import statistics
import tempfile
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

from cirtrain.cli import evaluate_model, synth_spec_from_config
from cirtrain.config import RunConfig, apply_override
from cirtrain.data import batches, generate, read_records, write_records
from cirtrain.model import RetrievalModel
from cirtrain.tensor import NonFiniteError, no_grad
from cirtrain.train import Adam

import checks
from host import BASELINE_S, HostReference
from probes import frozen_encode_recorder, probing, silent
from spans import Tracer, graph_census, layer_ms, read_totals

SPEC = json.loads(Path(__file__).with_name("spec.json").read_text(encoding="utf-8"))
SETUP_REPS = 9
WARMUP_STEPS = 3
REFERENCE_TICKS = 5  # host-reference samples between two eval passes
READ_GROUPS = (
    "ref_encoder", "tgt_encoder", "text_encoder", "cross_encoder", "fusion", "bridge", "compositor",
)
NODE_OPS = (
    "matmul", "transpose", "softmax_rows", "l2_normalize_rows", "scalar_mul",
    "mean_axis", "concat", "slice_rows", "add",
)
STEP_LAYERS = (
    "encoders.image", "encoders.text", "encoders.cross", "encoders.fusion",
    "objective.matching", "bridge.alignment", "compositor.reasoning",
    "tensor.backward", "train.adam", "data.batches", "train.step",
)
EVAL_LAYERS = (
    "encoders.image", "encoders.text", "encoders.fusion", "objective.score",
    "metrics.rank", "metrics.subset_rank", "metrics.summarize", "cli.evaluate",
)
EVAL_EMBEDDINGS = ("encoders.gallery_embed", "encoders.query_embed")  # inclusive times
SETUP_SPANS = (
    "data.synth", "data.write", "data.read", "model.init",
    "model.checkpoint_save", "model.checkpoint_load",
)


class NullTracer:
    """Stands in for Tracer when tracing is off."""

    def span(self, name):
        return nullcontext()


NULL_TRACER = NullTracer()


def make_config(workload: str, seed: int) -> RunConfig:
    cfg = RunConfig()
    for assignment in SPEC["workloads"][workload]["overrides"] + [
        f"synth.seed={seed}", f"training.seed={seed}",
    ]:
        cfg = apply_override(cfg, assignment)
    return cfg


@dataclasses.dataclass
class Setup:
    workload: str
    cfg: RunConfig
    train: list
    val: list
    model: RetrievalModel
    exact: bool
    checkpoint_bytes: int = 0


def set_up(workload: str, cfg: RunConfig, workdir: Path, tracer) -> Setup:
    """Synth, JSONL round trip, model init and, for eval, the checkpoint round trip."""
    with tracer.span("data.synth"):
        train, val = generate(synth_spec_from_config(cfg))
    with tracer.span("data.write"):
        write_records(workdir / "train.jsonl", train)
        write_records(workdir / "val.jsonl", val)
    with tracer.span("data.read"):
        train_read = read_records(workdir / "train.jsonl")
        val_read = read_records(workdir / "val.jsonl")
    with tracer.span("model.init"):
        model = RetrievalModel(cfg)
    setup = Setup(workload, cfg, train_read, val_read, model,
                  train_read == train and val_read == val)
    if SPEC["workloads"][workload]["kind"] == "eval":
        path = workdir / "checkpoint.json"
        setup.model, exact = checks.checkpoint_round_trip(model, cfg, path, tracer)
        setup.exact = setup.exact and exact
        setup.checkpoint_bytes = path.stat().st_size
    return setup


def timed_setups(workload, seed, workdir, tracer):
    """Set up SETUP_REPS times, each between two host-reference samples;
    returns (last Setup, median seconds, median time over reference time)."""
    cfg = make_config(workload, seed)
    reference = host_reference(workload)
    seconds, relative = [], []
    for _ in range(SETUP_REPS):
        setup, raw, rel = reference.around(lambda: set_up(workload, cfg, workdir, tracer))
        seconds.append(raw)
        relative.append(rel)
    return setup, statistics.median(seconds), statistics.median(relative)


def host_reference(workload: str) -> HostReference:
    """The reference job spec.json names for the workload."""
    return HostReference(SPEC["workloads"][workload]["reference"])


def closed_loop(op, seconds: float, keep_going=lambda: False, between=None):
    """Run `op` back to back, calling `between` (untimed) before each call;
    returns the (start, end) of each call."""
    windows = []
    started = time.perf_counter()
    while True:
        if between is not None:
            between()
        t0 = time.perf_counter()
        op()
        t1 = time.perf_counter()
        windows.append((t0, t1))
        if t1 - started + (t1 - t0) > seconds and not keep_going():
            return windows


def p50_ms(samples) -> float:
    return 1000.0 * statistics.median(samples)


def timing(reference: HostReference, windows, items_per_op: int):
    """(gated metrics, host-dependent figures) of one closed loop."""
    busy = [end - start for start, end in windows]
    raw = {
        "items_per_s": items_per_op * len(busy) / sum(busy),
        "op_ms_p50": p50_ms(busy),
        "op_samples": len(busy),
        "reference_ms_p50": p50_ms([end - start for start, end in reference.samples]),
    }
    if len(busy) >= 100:  # ten samples beyond the 90th percentile
        raw["op_ms_p90"] = 1000.0 * statistics.quantiles(busy, n=10)[-1]
    return {"op_rel_p50": relative_p50(reference, windows)}, raw


def relative_p50(reference: HostReference, windows) -> float:
    return statistics.median(reference.relative(windows))


def probe_check(tracer, expected, details) -> bool:
    """True when every expected layer's probe fired; a probe that stays
    silent means the library no longer calls that entry point."""
    details["silent_probes"] = silent(tracer, expected)
    return not details["silent_probes"]


# ------------------------------------------------------------------ training


class Trainer:
    """Plain Adam steps over whole shuffled epochs, as `train_model` runs them."""

    def __init__(self, setup: Setup):
        self.setup = setup
        self.model = setup.model
        self.tc = setup.cfg.training
        self.optimizer = Adam(self.model.trainable(), lr=self.tc.learning_rate)
        self.steps_per_epoch = len(setup.train) // self.tc.batch_size
        self.attempted = 0
        self.failed = 0
        self.epoch_totals = {}
        self._stream = self.epoch_batches(0)

    def epoch_batches(self, epoch):
        """(epoch, batch) pairs from `epoch` on, in `batches` order."""
        for e in itertools.count(epoch):
            for batch in batches(self.setup.train, self.tc.batch_size, self.tc.seed, e):
                yield e, batch

    def next_step(self):
        self.step(*next(self._stream))

    def step(self, epoch, batch):
        """One optimizer step; returns the loss tensor, or None on a NonFiniteError."""
        self.attempted += 1
        self.model.zero_grad()
        try:
            total, breakdown = self.model.batch_losses(batch)
            total.backward()
        except NonFiniteError:
            self.failed += 1
            return None
        self.optimizer.step()
        self.epoch_totals.setdefault(epoch, []).append(breakdown.total)
        return total

    def first_epoch_done(self) -> bool:
        return len(self.epoch_totals.get(0, ())) >= self.steps_per_epoch


def graph_free_losses(model, batch):
    with no_grad():
        return model.batch_losses(batch)[1]


def step_layers(cfg: RunConfig):
    """STEP_LAYERS without the loss terms the config switches off."""
    ab, obj = cfg.ablation, cfg.objective
    off = set()
    if not (ab.use_alignment and obj.alpha > 0):
        off.add("bridge.alignment")
    if not (ab.use_reasoning and obj.beta > 0):
        off.add("compositor.reasoning")
    return [name for name in STEP_LAYERS if name not in off]


def run_train(setup: Setup, seconds: float, trace: bool, tracer):
    trainer = Trainer(setup)
    model, batch_size = trainer.model, trainer.tc.batch_size
    reference = host_reference(setup.workload)
    for _ in range(WARMUP_STEPS):
        trainer.next_step()
    untraced = closed_loop(trainer.next_step, seconds / 3 if trace else seconds,
                           keep_going=lambda: not trainer.first_epoch_done(),
                           between=reference.tick)
    details = {
        "train_loss_epoch0": statistics.fmean(trainer.epoch_totals[0]),
        "epochs_started": max(trainer.epoch_totals) + 1,
    }
    if not trace:
        metrics, details["raw"] = timing(reference, untraced, batch_size)
        return metrics, trainer.attempted, trainer.failed, details

    # traced phase: whole epochs of the library's own steps, inside the probes
    census, reads, frozen_per_step, epoch_calls, traced = [], [], [], [], []
    calls = []
    stream = trainer.epoch_batches(max(trainer.epoch_totals) + 1)
    remaining = seconds - (untraced[-1][1] - untraced[0][0])
    phase_start = time.perf_counter()
    with probing(tracer, {"encoders.image": frozen_encode_recorder(calls)}):
        for step_id in itertools.count():
            if step_id and step_id % trainer.steps_per_epoch == 0:
                now = time.perf_counter()
                if (now - phase_start) * (1 + trainer.steps_per_epoch / step_id) > remaining:
                    break
            reference.tick()
            tracer.op = step_id
            calls.clear()
            before = read_totals(model)
            t0 = time.perf_counter()
            with tracer.span("train.step"):
                with tracer.span("data.batches"):
                    epoch, batch = next(stream)
                total = trainer.step(epoch, batch)
            traced.append((t0, time.perf_counter()))
            after = read_totals(model)
            if total is None:
                continue
            census.append(graph_census(total))
            reads.append({g: after[g] - before[g] for g in READ_GROUPS})
            frozen_per_step.append(len(calls))
            if step_id < trainer.steps_per_epoch:
                epoch_calls += calls
        tracer.op = None
        probed = graph_free_losses(model, batch)
    # the probes must leave the arithmetic alone, and each must have fired
    trainer.attempted += 2
    trainer.failed += (probed != graph_free_losses(model, batch))
    trainer.failed += not probe_check(tracer, step_layers(setup.cfg), details)

    steps = step_id
    metrics = _layer_metrics(tracer, list(range(steps)), STEP_LAYERS)
    metrics["train.step_other_ms"] = metrics.pop("train.step_ms")
    metrics["tensor.nodes_per_step"] = statistics.median(sum(c.values()) for c in census)
    for op in NODE_OPS:
        metrics[f"tensor.nodes.{op}"] = statistics.median(c[op] for c in census)
    for group in READ_GROUPS:
        metrics[f"model.reads.{group}"] = statistics.median(r[group] for r in reads)
    metrics["encoders.frozen_encodes_per_step"] = statistics.median(frozen_per_step)
    # one full epoch visits every record once, whichever epoch it is
    metrics["encoders.frozen_unique_frac"] = len(set(epoch_calls)) / len(epoch_calls)
    metrics["trace.overhead_frac"] = (
        relative_p50(reference, traced) / relative_p50(reference, untraced) - 1.0
    )
    details.update(
        traced_steps=steps,
        census_repeats=all(c == census[0] for c in census),
        reads_repeat=all(r == reads[0] for r in reads),
    )
    return metrics, trainer.attempted, trainer.failed, details


# ------------------------------------------------------------------ evaluation


def run_eval(setup: Setup, seconds: float, trace: bool, tracer):
    model, val = setup.model, setup.val
    oracle = checks.eval_report_oracle(model, val)  # also warms the embedding path
    counts = Counter()

    def check(report):
        counts["attempted"] += len(val)
        counts["failed"] += len(val) * (report != oracle)

    def library_pass():
        check(evaluate_model(model, val))

    reference = host_reference(setup.workload)

    def references():
        for _ in range(REFERENCE_TICKS):
            reference.tick()

    before = read_totals(model)
    library_pass()  # warm-up
    after = read_totals(model)
    details = {"report": oracle}
    untraced = closed_loop(library_pass, seconds / 3 if trace else seconds, between=references)
    if not trace:
        metrics, details["raw"] = timing(reference, untraced, len(val))
        return metrics, counts["attempted"], counts["failed"], details

    pass_ids = itertools.count()
    calls = []

    def next_query(*args, **kwargs):
        pass_id, query = tracer.op
        tracer.op = (pass_id, 0 if query is None else query + 1)

    def traced_pass():
        tracer.op = (next(pass_ids), None)
        calls.clear()
        with tracer.span("cli.evaluate"):
            check(evaluate_model(model, val))

    hooks = {"encoders.image": frozen_encode_recorder(calls), "encoders.query_embed": next_query}
    with probing(tracer, hooks):
        traced = closed_loop(traced_pass, seconds - (untraced[-1][1] - untraced[0][0]),
                             between=references)
    tracer.op = None
    counts["attempted"] += 1
    counts["failed"] += not probe_check(tracer, EVAL_LAYERS + EVAL_EMBEDDINGS, details)

    passes = list(range(len(traced)))
    metrics = _layer_metrics(tracer, passes, EVAL_LAYERS, key=lambda op: op[0])
    metrics.update(_layer_metrics(tracer, passes, EVAL_EMBEDDINGS, key=lambda op: op[0],
                                  inclusive=True))
    metrics["cli.eval_other_ms"] = metrics.pop("cli.evaluate_ms")
    for group in READ_GROUPS:
        metrics[f"model.reads.{group}"] = (after[group] - before[group]) / len(val)
    metrics["encoders.frozen_encodes_per_step"] = len(calls)
    metrics["encoders.frozen_unique_frac"] = len(set(calls)) / len(calls)
    metrics["trace.overhead_frac"] = (
        relative_p50(reference, traced) / relative_p50(reference, untraced) - 1.0
    )
    details["traced_passes"] = len(traced)
    return metrics, counts["attempted"], counts["failed"], details


# ------------------------------------------------------------------ shared


def _layer_metrics(tracer, ops, names, key=lambda op: op, inclusive=False):
    return {
        f"{name}_ms": value
        for name, value in layer_ms(tracer, names, ops, key, inclusive).items()
    }


RUNNERS = {"train": run_train, "eval": run_eval}


def run(workload: str, seed: int, seconds: float, trace: bool, imports, root: Path):
    """Set up and run one workload; `imports` is (median seconds, median
    time over reference time) of the library's import.  Returns (metrics,
    attempted, failed, details)."""
    tracer = Tracer() if trace else NULL_TRACER
    out_dir = root / ".cirbench"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        setup, setup_raw, setup_rel = timed_setups(workload, seed, Path(tmp), tracer)
        metrics, attempted, failed, details = RUNNERS[SPEC["workloads"][workload]["kind"]](
            setup, seconds, trace, tracer
        )
    attempted += 1
    failed += not setup.exact
    details["setup_round_trips_exact"] = setup.exact
    if trace:
        metrics.update(_setup_metrics(tracer, setup))
        tracer.write(out_dir / f"trace-{workload}.jsonl")
        details["spans"] = len(tracer.spans)
    else:
        import_raw, import_rel = imports
        job = SPEC["workloads"][workload]["reference"]
        metrics["setup_s"] = BASELINE_S[job] * (import_rel + setup_rel)
        details["raw"]["setup_wall_s"] = import_raw + setup_raw
        details["import_s"] = import_raw
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, attempted, failed, details


def _setup_metrics(tracer, setup):
    def median_ms(name):
        durations = tracer.durations(name)
        return 1000.0 * statistics.median(durations) if durations else 0.0

    metrics = {f"{name}_ms": median_ms(name) for name in SETUP_SPANS}
    metrics["data.synth_s"] = metrics.pop("data.synth_ms") / 1000.0
    metrics["model.checkpoint_bytes"] = setup.checkpoint_bytes
    return metrics
