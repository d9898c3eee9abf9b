"""Run the benchmark on two revisions in interleaved pairs and print one JSON summary.

    python tools/abpairs.py <parent-rev> <change-rev> --workload W [--workload W2 ...] \
        --pairs N --seconds S [--trace 1]

Each run extracts its revision with `git archive` into a new temporary
directory, so no `__pycache__` left by an earlier run or an edited tree
reaches it, and runs that copy's `cirbench/run.py`.  Pair i runs both sides
with seed i + 1; the parent runs first in even pairs and the change first
in odd ones, so a drift of the host over time weighs on both sides alike.
Given more than once, `--workload` runs all pairs of one workload, then all
of the next, in the order given.  A workload the parent's `BENCHMARK.json`
does not list is refused with status 2 before any run; a run that exits
non-zero ends the script with status 1, naming the workload, pair and side
on one line followed by that run's stderr.  Nothing is written into the
repository.

The document names both commits and the run settings, and holds one summary
per workload under "workloads".  A summary gives, per metric, every run's
value, each side's median and quartiles, the parent's quartile distance (its
run-to-run spread), the relative change of the median, and in how many pairs
the change was better (ties count for neither side), plus the attempted and
failed operations of every run.  Two fields state the benchmark's rules:
`gain_resolved` is true when the change was better in at least 90% of the
pairs and its median moved the better way by more than the parent's quartile
distance (the rule a claimed gain must meet), and `beyond_bound`, for an
end-to-end metric, is true when the change's median is worse than the
parent's by more than the metric's `bound` in the parent's `BENCHMARK.json`
(null for a per-layer metric, which has no bound).
With `--trace 1` the metrics are the benchmark's per-layer ones.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def archive(rev: str) -> tuple:
    """(full commit id, tar bytes) of `rev` in this repository."""
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         check=True, capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", sha],
                         check=True, capture_output=True).stdout
    return sha, tar


def run_once(tar: bytes, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result line of one `cirbench/run.py` run in a fresh copy of `tar`; a run that
    exits non-zero raises `subprocess.CalledProcessError`, holding its stderr."""
    with tempfile.TemporaryDirectory(prefix="abpairs-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(tar)) as archive_file:
            archive_file.extractall(tmp, filter="data")
        proc = subprocess.run(
            [sys.executable, "cirbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=tmp, capture_output=True, text=True,
        )
    proc.check_returncode()
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile), inclusive of the extremes."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent_runs, change_runs, better: dict, bounds=None) -> dict:
    """Per-metric medians, quartiles, pair wins and the two rule fields of paired result lines.

    `better` maps a metric name to "lower" or "higher"; a metric it does
    not name counts as lower-is-better.  `bounds` maps an end-to-end metric
    to its relative bound; a metric it does not name gets `beyond_bound` null.
    """
    bounds = bounds or {}
    metrics = {}
    for name in parent_runs[0]["metrics"]:
        a = [run["metrics"][name]["value"] for run in parent_runs]
        b = [run["metrics"][name]["value"] for run in change_runs]
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(a), quartiles(b)
        wins, worse_by = sum(sign * (y - x) < 0 for x, y in zip(a, b)), sign * (cmed - pmed)
        metrics[name] = {
            "better": better.get(name, "lower"),
            "parent": {"median": pmed, "q1": pq1, "q3": pq3},
            "change": {"median": cmed, "q1": cq1, "q3": cq3},
            "runs": {"parent": a, "change": b},
            "parent_iqr": pq3 - pq1,
            "median_delta_frac": (cmed - pmed) / pmed if pmed else None,
            "change_wins": wins,
            "ties": sum(x == y for x, y in zip(a, b)),
            "gain_resolved": 10 * wins >= 9 * len(a) and -worse_by > pq3 - pq1,
            "beyond_bound": (worse_by > bounds[name] * abs(pmed)) if name in bounds else None,
        }
    return {
        "metrics": metrics,
        "attempted": {"parent": [r["attempted"] for r in parent_runs],
                      "change": [r["attempted"] for r in change_runs]},
        "failed": {"parent": [r["failed"] for r in parent_runs],
                   "change": [r["failed"] for r in change_runs]},
    }


def document(runs: dict, better: dict, bounds=None, **header) -> dict:
    """The printed JSON object: the `header` entries (both commits and the run
    settings), then under "workloads" one summary per workload of `runs`, which
    maps a workload to its {"parent": [...], "change": [...]} result lines."""
    return {**header, "workloads": {
        workload: summarize(sides["parent"], sides["change"], better, bounds)
        for workload, sides in runs.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    # a NaN or infinite run length would never end a run's closed loop
    if not 0 < args.seconds < math.inf:
        parser.error("--seconds must be a finite number > 0")

    sides = {"parent": archive(args.parent), "change": archive(args.change)}
    with tarfile.open(fileobj=io.BytesIO(sides["parent"][1])) as parent_tar:
        bench = json.loads(parent_tar.extractfile("BENCHMARK.json").read())
    listed = [w["name"] for w in bench["workloads"]]
    if unknown := [w for w in args.workload if w not in listed]:
        parser.error(f"--workload {', '.join(unknown)}: the parent's BENCHMARK.json lists only "
                     f"{', '.join(listed)}")
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {workload: {"parent": [], "change": []} for workload in args.workload}
    for workload, results in runs.items():
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                try:
                    result = run_once(sides[side][1], workload, pair + 1, args.seconds, args.trace)
                except subprocess.CalledProcessError as failed:
                    print(f"abpairs: {workload} pair {pair + 1} {side}: cirbench/run.py exited "
                          f"with {failed.returncode}\n{failed.stderr}", end="", file=sys.stderr)
                    return 1
                results[side].append(result)
                print(f"{workload} pair {pair + 1}/{args.pairs} {side}: failed {result['failed']} "
                      f"of {result['attempted']}", file=sys.stderr)
    print(json.dumps(document(runs, better, bounds, parent=sides["parent"][0],
                              change=sides["change"][0], pairs=args.pairs, seconds=args.seconds,
                              trace=args.trace), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
