"""A host-speed reference, interleaved with the measured work.

On a shared host the speed this process gets can change by a factor of two
within a minute, and raw times from runs minutes apart disagree by that
much.  A fixed reference job is timed between the measured operations (and
around each set-up), and an operation's time divided by the reference times
taken next to it stays steady while the host's speed moves.
Different work slows by different amounts, so each workload uses the job
that does the same kind of work it does (spec.json names it):

- "engine": a pure-Python loop plus tiny numpy ops, like the autodiff
  engine's per-op dispatch (training steps);
- "ranking": the per-query ranking pattern of the eval pass at its gallery
  size (score list, key sort, id tuple, index, dict), written out here so
  that a change to the library's ranking does not change the reference.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_N = 1024
_VALUES = [((i * 7919) % 1009) / 1009 for i in range(_N)]
_IDS = [f"v{i:05d}" for i in range(_N)]
_MATRIX = np.linspace(0.0, 1.0, 16).reshape(4, 4)


def engine_job():
    total = 0
    for i in range(30_000):
        total += i
    for _ in range(600):
        np.tanh(_MATRIX @ _MATRIX + _MATRIX)
    return total


def ranking_job():
    for query in range(3):
        scores = [float(v) for v in _VALUES]
        order = sorted(range(_N), key=lambda i: (-scores[i], _IDS[i]))
        ordered = tuple(_IDS[i] for i in order)
        ordered.index(_IDS[query * 37])
        lookup = dict(zip(_IDS, scores))
    return len(lookup)


JOBS = {"engine": engine_job, "ranking": ranking_job}
# each job's typical time on the baseline host (shared 2-core x86_64 VM,
# Python 3.11.7, numpy 2.4.6): set-up time is reported as (time / job time)
# times this, i.e. in seconds of that host, so that the host's speed drops out
BASELINE_S = {"engine": 0.0033, "ranking": 0.0018}


class HostReference:
    """Times the named job on every tick and keeps (start, end) of each."""

    def __init__(self, job: str):
        self.job = JOBS[job]
        self.samples = []

    def tick(self):
        started = time.perf_counter()
        self.job()
        self.samples.append((started, time.perf_counter()))

    def around(self, fn):
        """Run `fn` between two ticks; returns (its result, its seconds, its time
        over the mean of those two samples)."""
        self.tick()
        started = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - started
        self.tick()
        reference = statistics.fmean(e - s for s, e in self.samples[-2:])
        return result, seconds, seconds / reference

    def relative(self, windows, k: int = 5):
        """Per (start, end) window: its length over the median of the last `k`
        samples that ended before it started."""
        return [
            (end - start) / statistics.median([e - s for s, e in self.samples if e <= start][-k:])
            for start, end in windows
        ]
