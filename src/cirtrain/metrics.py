"""Retrieval metrics: Recall@K over the full gallery and over candidate subsets.

All fractions live in [0, 1] internally; the CLI multiplies by 100 for
display.  Ties are broken by ascending gallery id so ranks (and hence
every metric) are deterministic.  A rank is counted, not sorted: it is one
plus the number of candidates that order ahead of the target, and the
metrics need nothing else from a ranking.
"""

from __future__ import annotations

import numpy as np


def rank_gallery(scores, ids, target: int) -> int:
    """1-based rank of column `target` under descending score, ties by
    ascending id: one plus the count of columns that score higher, or score
    the same with a smaller id."""
    scores, ids = np.asarray(scores, dtype=float), np.asarray(ids)
    if scores.ndim != 1 or scores.shape != ids.shape:
        raise ValueError("scores and ids must be 1-D and of equal length")
    if not 0 <= target < len(scores):
        raise ValueError(f"target column {target} outside a gallery of {len(scores)}")
    s_t, id_t = scores[target], ids[target]
    ahead = (scores > s_t) | ((scores == s_t) & (ids < id_t))
    return 1 + int(np.count_nonzero(ahead))


def rank_within_subset(scores, position, subset_ids, target_id: str) -> int:
    """Rank among the candidate subset only; `position` maps a gallery id to
    its column of the `scores` array, and the target must be a candidate."""
    subset_ids = list(subset_ids)
    if target_id not in subset_ids:
        raise ValueError(f"target {target_id!r} missing from its candidate subset")
    missing = [s for s in subset_ids if s not in position]
    if missing:
        raise ValueError(f"candidate subset ids {missing} missing from the gallery")
    columns = [position[s] for s in subset_ids]
    return rank_gallery(scores[columns], subset_ids, subset_ids.index(target_id))


def recall_at_k(ranks, k: int) -> float:
    """Fraction of queries whose target ranks within the top k (full gallery or subsets)."""
    ranks = list(ranks)
    if not ranks:
        raise ValueError("recall over an empty rank list is undefined")
    if k < 1:
        raise ValueError("k must be >= 1")
    return sum(1 for r in ranks if r <= k) / len(ranks)


def challenge_metric(r10: float, r50: float) -> float:
    """Mean of Recall@10 and Recall@50, both given as fractions."""
    for v in (r10, r50):
        if not (0.0 <= v <= 1.0):
            raise ValueError(f"recall {v} outside [0, 1]")
    return (r10 + r50) / 2.0


def avg_metric(r5: float, rsub1: float) -> float:
    """Mean of Recall@5 and subset Recall@1 (any consistent scale)."""
    return (r5 + rsub1) / 2.0


METRIC_KEYS = (
    "recall_at_1",
    "recall_at_5",
    "recall_at_10",
    "recall_subset_at_1",
    "recall_subset_at_2",
    "recall_subset_at_3",
    "avg_recall5_subset1",
)


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
