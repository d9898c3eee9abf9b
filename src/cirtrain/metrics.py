"""Retrieval metrics: Recall@K over the full gallery and over candidate subsets.

All fractions live in [0, 1] internally; the CLI multiplies by 100 for
display.  Ties are broken by ascending gallery id so ranks (and hence
every metric) are deterministic.  A rank is counted, not sorted: it is one
plus the number of candidates that order ahead of the target, and the
metrics need nothing else from a ranking.  Both rankers take a whole chunk
of queries at once, a B x G score matrix; one query is a chunk of one row.
"""

from __future__ import annotations

import itertools
import operator

import numpy as np


def rank_gallery(scores, ids, target):
    """1-based rank of each row's `target` column under descending score,
    ties by ascending id: one plus the count of columns that score higher,
    or score the same with a smaller id.  `scores` is B x G, `ids` holds the
    G columns' ids and `target` one column index per row; the result is B
    ranks.  The target always ties with itself, so only rows with a second
    column at the target's score have ties to count."""
    scores, ids, target = np.asarray(scores, dtype=float), np.asarray(ids), np.asarray(target)
    if scores.ndim != 2 or ids.shape != scores.shape[1:] or target.shape != scores.shape[:1]:
        raise ValueError(f"scores must be B x G with G = len(ids), and target one column per row; "
                         f"got scores {scores.shape}, {ids.size} ids and target {target.shape}")
    outside = np.flatnonzero((target < 0) | (target >= ids.size))
    if outside.size:
        row = outside[0]
        raise ValueError(f"row {row}: target column {target[row]} outside a gallery of {ids.size}")
    s_t = np.take_along_axis(scores, target[:, None], axis=-1)
    ranks = 1 + np.count_nonzero(scores > s_t, axis=-1)
    tied = np.flatnonzero(np.count_nonzero(scores == s_t, axis=-1) > 1)
    ranks[tied] += np.count_nonzero((scores[tied] == s_t[tied]) & (ids < ids[target[tied, None]]),
                                    axis=-1)
    return ranks


def rank_within_subset(scores, position, subset_ids, target_id):
    """Rank among the candidate subset only; `position` maps a gallery id to
    its column of the B x G `scores`; `subset_ids` and `target_id` hold one
    entry per row, and each target must be a candidate of its row.  The
    ranks of the rows whose subset is not None come back in row order.  All
    candidates are looked up and compared in one flat pass over the chained
    subsets; the rows are walked one by one only to name the first at fault."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2:
        raise ValueError(f"scores must be a B x G chunk, got shape {scores.shape}")
    kept = [(row, subset, target) for row, (subset, target)
            in enumerate(zip(subset_ids, target_id, strict=True)) if subset is not None]
    rows, subsets, targets = [*zip(*kept)] or [(), (), ()]
    rows = np.array(rows, dtype=int)
    candidates = list(itertools.chain.from_iterable(subsets))
    columns = list(map(position.get, candidates))
    if None in columns or not all(map(operator.contains, subsets, targets)):
        for subset, target in zip(subsets, targets):
            if target not in subset:
                raise ValueError(f"target {target!r} missing from its candidate subset")
            missing = [s for s in subset if s not in position]
            if missing:
                raise ValueError(f"candidate subset ids {missing} missing from the gallery")
    sizes = list(map(len, subsets))
    row, column = np.repeat(rows, sizes), np.array(columns, dtype=int)
    target_column = np.repeat(np.array([*map(position.get, targets)], dtype=int), sizes)
    target_ids = itertools.chain.from_iterable(map(itertools.repeat, targets, sizes))
    smaller_id = np.fromiter(map(operator.lt, candidates, target_ids), dtype=bool, count=column.size)
    s, s_t = scores[row, column], scores[row, target_column]
    ahead = (s > s_t) | ((s == s_t) & smaller_id)
    return 1 + np.bincount(row[ahead], minlength=len(scores))[rows]


def recall_at_k(ranks, k: int) -> float:
    """Fraction of queries whose target ranks within the top k (full gallery or subsets)."""
    ranks = np.asarray(ranks)
    if not ranks.size:
        raise ValueError("recall over an empty rank list is undefined")
    if k < 1:
        raise ValueError("k must be >= 1")
    return int(np.count_nonzero(ranks <= k)) / ranks.size


def challenge_metric(r10: float, r50: float) -> float:
    """Mean of Recall@10 and Recall@50, both given as fractions."""
    for v in (r10, r50):
        if not (0.0 <= v <= 1.0):
            raise ValueError(f"recall {v} outside [0, 1]")
    return (r10 + r50) / 2.0


def avg_metric(r5: float, rsub1: float) -> float:
    """Mean of Recall@5 and subset Recall@1 (any consistent scale)."""
    return (r5 + rsub1) / 2.0


def summarize(full_ranks, subset_ranks) -> dict:
    """The standard report: full-gallery and subset recalls plus their average."""
    report = {
        "recall_at_1": recall_at_k(full_ranks, 1),
        "recall_at_5": recall_at_k(full_ranks, 5),
        "recall_at_10": recall_at_k(full_ranks, 10),
        "recall_subset_at_1": recall_at_k(subset_ranks, 1),
        "recall_subset_at_2": recall_at_k(subset_ranks, 2),
        "recall_subset_at_3": recall_at_k(subset_ranks, 3),
    }
    report["avg_recall5_subset1"] = avg_metric(
        report["recall_at_5"], report["recall_subset_at_1"]
    )
    return report


def format_report(report: dict) -> str:
    """Human-readable aligned table, values as percentages."""
    width = max(len(k) for k in report)
    lines = [f"{k.ljust(width)}  {100.0 * v:7.3f}" for k, v in report.items()]
    return "\n".join(lines)
