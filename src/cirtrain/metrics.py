"""Retrieval metrics: Recall@K over the full gallery and over candidate subsets.

All fractions live in [0, 1] internally; the CLI multiplies by 100 for
display.  Ties are broken by ascending gallery id so rankings (and hence
every metric) are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RankingResult:
    """One query's gallery ordering and where the true target landed (1-based)."""

    query_id: str
    ordered_ids: tuple
    rank_of_target: int

    def __post_init__(self):
        if not (1 <= self.rank_of_target <= len(self.ordered_ids)):
            raise ValueError(
                f"rank {self.rank_of_target} outside [1, {len(self.ordered_ids)}]"
            )


def rank_gallery(query_id: str, gallery_ids, scores, target_id: str) -> RankingResult:
    """Order gallery ids by descending score, ties by ascending id."""
    gallery_ids = list(gallery_ids)
    scores = [float(s) for s in scores]
    if len(gallery_ids) != len(scores):
        raise ValueError("gallery ids and scores must have equal length")
    if target_id not in gallery_ids:
        raise ValueError(f"target {target_id!r} missing from gallery")
    order = sorted(range(len(gallery_ids)), key=lambda i: (-scores[i], gallery_ids[i]))
    ordered = tuple(gallery_ids[i] for i in order)
    return RankingResult(query_id, ordered, ordered.index(target_id) + 1)


def rank_within_subset(query_id: str, subset_ids, score_of, target_id: str) -> RankingResult:
    """Re-rank only the candidate subset; the target must be one of them."""
    subset_ids = list(subset_ids)
    if target_id not in subset_ids:
        raise ValueError(f"target {target_id!r} missing from candidate subset of {query_id!r}")
    return rank_gallery(query_id, subset_ids, [score_of[s] for s in subset_ids], target_id)


def recall_at_k(results, k: int) -> float:
    """Fraction of queries whose target ranks within the top k (full gallery or subsets)."""
    results = list(results)
    if not results:
        raise ValueError("recall over an empty result list is undefined")
    if k < 1:
        raise ValueError("k must be >= 1")
    return sum(1 for r in results if r.rank_of_target <= k) / len(results)


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


def summarize(full_results, subset_results) -> dict:
    """The standard report: full-gallery and subset recalls plus their average."""
    report = {
        "recall_at_1": recall_at_k(full_results, 1),
        "recall_at_5": recall_at_k(full_results, 5),
        "recall_at_10": recall_at_k(full_results, 10),
        "recall_subset_at_1": recall_at_k(subset_results, 1),
        "recall_subset_at_2": recall_at_k(subset_results, 2),
        "recall_subset_at_3": recall_at_k(subset_results, 3),
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
