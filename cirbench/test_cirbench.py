"""Tests of the benchmark itself: python -m pytest cirbench/test_cirbench.py"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cirtrain.cli import evaluate_model  # noqa: E402
from cirtrain.config import apply_override  # noqa: E402
from cirtrain.tensor import no_grad  # noqa: E402

import checks  # noqa: E402
import probes  # noqa: E402
import workloads  # noqa: E402
from cirtrain.encoders import ImageEncoder  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _setup(tmp_path, workload, *overrides):
    cfg = workloads.make_config(workload, 3)
    for assignment in overrides:
        cfg = apply_override(cfg, assignment)
    return workloads.set_up(workload, cfg, tmp_path, Tracer())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "cirbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170, env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )


FORWARD_LAYERS = ("encoders.image", "encoders.text", "encoders.cross", "encoders.fusion",
                  "objective.matching", "bridge.alignment", "compositor.reasoning")


@pytest.mark.parametrize("overrides, off", [
    ((), set()),
    (("ablation.attentive_reference=false", "ablation.share_text_projection=false"), set()),
    (("ablation.use_alignment=false", "ablation.use_reasoning=false"),
     {"bridge.alignment", "compositor.reasoning"}),
])
def test_probes_leave_batch_losses_bit_for_bit_and_fire(tmp_path, overrides, off):
    setup = _setup(tmp_path, "train_full", "synth.n_train=8", "training.batch_size=4", *overrides)
    batch = setup.train[:4]
    expected = workloads.graph_free_losses(setup.model, batch)
    tracer, calls = Tracer(), []
    original = vars(ImageEncoder)["encode"]
    with probes.probing(tracer, {"encoders.image": probes.frozen_encode_recorder(calls)}):
        assert vars(ImageEncoder)["encode"] is not original
        assert workloads.graph_free_losses(setup.model, batch) == expected
    assert vars(ImageEncoder)["encode"] is original
    assert len(calls) == 3 * len(batch)
    assert set(workloads.STEP_LAYERS) - set(workloads.step_layers(setup.cfg)) == off
    assert probes.silent(tracer, FORWARD_LAYERS) == sorted(off)


def test_patched_restores_the_original_after_an_error():
    original = vars(ImageEncoder)["encode"]
    with pytest.raises(RuntimeError):
        with probes.patched(ImageEncoder, "encode", lambda f: None):
            raise RuntimeError
    assert vars(ImageEncoder)["encode"] is original
    with pytest.raises(KeyError):  # an entry point that is gone fails at once
        with probes.patched(ImageEncoder, "no_such_method", lambda f: f):
            pass


def test_oracle_and_probed_pass_match_evaluate_model(tmp_path):
    setup = _setup(tmp_path, "eval_gallery", "synth.n_val=48")
    assert setup.exact and setup.checkpoint_bytes > 0
    report = evaluate_model(setup.model, setup.val)
    assert checks.eval_report_oracle(setup.model, setup.val) == report
    tracer, calls = Tracer(), []
    with probes.probing(tracer, {"encoders.image": probes.frozen_encode_recorder(calls)}):
        assert evaluate_model(setup.model, setup.val) == report
    assert len(calls) == 2 * len(setup.val)
    expected = [n for n in workloads.EVAL_LAYERS + workloads.EVAL_EMBEDDINGS if n != "cli.evaluate"]
    assert probes.silent(tracer, expected) == []
    assert probes.silent(tracer, ["encoders.cross"]) == ["encoders.cross"]


def test_census_and_reads_repeat_exactly(tmp_path):
    """Two fresh models take a step on the same batch: identical node and read counts."""
    from spans import graph_census, read_totals

    counts = []
    for _ in range(2):
        setup = _setup(tmp_path, "train_full", "synth.n_train=8", "training.batch_size=4")
        model = setup.model
        for batch in (setup.train[:4], setup.train[4:8]):
            before = read_totals(model)
            total, _ = model.batch_losses(batch)
            reads = read_totals(model)
            reads.subtract(before)
            counts.append((graph_census(total), reads))
    assert all(c == counts[0] for c in counts)
    census, reads = counts[0]
    assert census["matmul"] > 0 and reads["bridge"] > 0
    with no_grad():
        total, _ = model.batch_losses(setup.train[:4])
    assert not graph_census(total)


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.op = 7
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            with tracer.span("leaf"):
                pass
    for span, (start, end) in zip(tracer.spans, [(0, 10), (1, 3), (4, 9), (5, 6)]):
        span[1], span[2] = start, end
    assert tracer.self_times() == [3, 2, 4, 1]
    assert all(span[4] == 7 for span in tracer.spans)
    assert dict(tracer.per_op({"outer", "inner"})[7]) == {"outer": 3, "inner": 6}


def test_host_reference_ratios():
    from host import HostReference

    reference = HostReference("engine")
    reference.samples = [(0.0, 1.0), (5.0, 6.0), (7.0, 9.0)]
    # each window over the median of the last two samples ended before it started
    assert reference.relative([(6.5, 8.0), (9.5, 10.5)], k=2) == [1.5, 1.0 / 1.5]
    result, seconds, relative = reference.around(lambda: 42)
    assert result == 42 and len(reference.samples) == 5 and 0 < seconds
    durations = [e - s for s, e in reference.samples[-2:]]
    assert relative == pytest.approx(2 * seconds / sum(durations))


def test_benchmark_json_matches_the_spec():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.SPEC["workloads"])
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert {"setup_s", "op_rel_p50", "peak_rss_mb"} == {
        m["name"] for m in BENCH["end_to_end"]
    }


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric_and_counts_repeat(trace):
    runs = [_run("--workload", "train_matching", "--seed", "5", "--seconds", "1",
                 "--trace", str(trace)) for _ in range(2 if trace else 1)]
    results = []
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        listed = BENCH["per_layer" if trace else "end_to_end"]
        assert list(result["metrics"]) == [m["name"] for m in listed]
        results.append({k: v["value"] for k, v in result["metrics"].items()})
    if trace:
        counts = ("tensor.nodes", "model.reads", "encoders.frozen")
        exact = [n for n in results[0] if n.startswith(counts)]
        assert all(results[0][n] == results[1][n] for n in exact)
        assert results[0]["model.reads.cross_encoder"] > 0  # computed, yet no enabled loss uses it
        assert results[0]["bridge.alignment_ms"] == 0 and results[0]["encoders.image_ms"] > 0
        assert (ROOT / ".cirbench" / "trace-train_matching.jsonl").stat().st_size > 0
    else:
        assert all(v > 0 for v in results[0].values())


def test_run_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "cirbench", tmp_path / "cirbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "train_full", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
