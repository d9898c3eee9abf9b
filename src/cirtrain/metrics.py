"""Retrieval metrics: Recall@K over the full gallery and over candidate subsets.

All fractions live in [0, 1] internally; the CLI multiplies by 100 for
display.  Ties are broken by ascending gallery id, given as sort keys (an
evaluation passes the integer `data.id_ranks`, so no ranker reads a string).
A rank is counted, not sorted: one plus the number of candidates that
order ahead of the target.  Both rankers take a whole chunk of queries at
once, a B x G score matrix addressed by column; one query is one row.
"""

from __future__ import annotations

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


def rank_within_subset(scores, ids, target, rows, columns):
    """Rank among each row's candidate subset only, by `rank_gallery`'s rule
    and keys: `ids` holds the G columns' sort keys and `target` one column
    per row of the B x G `scores`; `rows` and `columns` list every candidate
    as a (row, column) pair, rows ascending.  The ranks of the rows that have
    candidates come back in row order."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2:
        raise ValueError(f"scores must be a B x G chunk, got shape {scores.shape}")
    rows, columns = np.asarray(rows, dtype=int), np.asarray(columns, dtype=int)
    ids, own = np.asarray(ids), np.asarray(target)[rows]
    s, s_t = scores[rows, columns], scores[rows, own]
    ahead = (s > s_t) | ((s == s_t) & (ids[columns] < ids[own]))
    return 1 + np.bincount(rows[ahead], minlength=len(scores))[np.unique(rows)]


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
