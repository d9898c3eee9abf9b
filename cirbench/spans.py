"""In-memory span recorder, self-time derivation and graph/read census.

Spans are opened by the benchmark's wrappers around the library's layer
entry points (probes.py); no file of `cirtrain` is changed.  They stay in
memory while the workload runs and are written once, at the end.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Records (name, start, end, parent, op) spans.  `op` is the operation
    the span belongs to: whatever the caller last set `self.op` to (the step
    id, or [pass, query index] on eval; None during set-up)."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self.origin = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def self_times(self):
        """Per span index: duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def per_op(self, names, key=lambda op: op, inclusive=False):
        """{key(op): {span name: summed self (or inclusive) time in seconds}}
        over spans named in `names` that belong to an op."""
        out = defaultdict(lambda: defaultdict(float))
        if inclusive:
            times = [end - start for _, start, end, _, _ in self.spans]
        else:
            times = self.self_times()
        for (name, _, _, _, op), own in zip(self.spans, times):
            if op is not None and name in names:
                out[key(op)][name] += own
        return out

    def durations(self, name: str):
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def write(self, path):
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({
                    "name": name,
                    "start": start - self.origin,
                    "end": end - self.origin,
                    "parent": parent,
                    "op": op,
                }) + "\n")


def layer_ms(tracer: Tracer, names, ops, key=lambda op: op, inclusive=False):
    """Median over `ops` of each span name's per-op self (or inclusive) time,
    in ms (0 if absent)."""
    if not ops:
        return {name: 0.0 for name in names}
    table = tracer.per_op(set(names), key, inclusive)
    return {
        name: 1000.0 * statistics.median(table[op][name] for op in ops)
        for name in names
    }


def graph_census(loss) -> Counter:
    """Count the recorded graph nodes reachable from `loss` through their parents, by op.

    A node is a non-leaf tensor that requires grad.  The engine exposes its
    parent links only as `_parents`; a forward under no_grad records none, so
    it counts zero.
    """
    counts = Counter()
    seen = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        if node.op != "leaf":
            counts[node.op] += 1
        stack.extend(node._parents)
    return counts


def read_totals(model) -> Counter:
    """Sum of `Param.reads` per parameter group (the name before the first dot)."""
    totals = Counter()
    for name, p in model.parameters().items():
        totals[name.split(".", 1)[0]] += p.reads
    return totals
