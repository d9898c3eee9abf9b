import numpy as np
import pytest

from cirtrain.metrics import (
    METRIC_KEYS,
    avg_metric,
    challenge_metric,
    format_report,
    rank_gallery,
    rank_within_subset,
    recall_at_k,
    summarize,
)
from oracles import rank_oracle


def test_rank_gallery_basic():
    # order b, c, a
    assert rank_gallery([0.1, 0.9, 0.5], ["a", "b", "c"], 2) == 2
    assert rank_gallery([0.1, 0.9, 0.5], ["a", "b", "c"], 1) == 1
    assert rank_gallery([0.1, 0.9, 0.5], ["a", "b", "c"], 0) == 3


def test_rank_gallery_ties_break_by_ascending_id():
    # order a, b, c
    assert rank_gallery([0.5, 0.5, 0.5], ["b", "a", "c"], 0) == 2
    assert rank_gallery([0.5, 0.5, 0.5], ["b", "a", "c"], 1) == 1
    assert rank_gallery([0.5, 0.5, 0.5], ["b", "a", "c"], 2) == 3


def test_rank_gallery_target_must_exist():
    with pytest.raises(ValueError):
        rank_gallery([1.0], ["a"], 1)
    with pytest.raises(ValueError):
        rank_gallery([1.0], ["a"], -1)
    with pytest.raises(ValueError):
        rank_gallery([1.0, 2.0], ["a"], 0)


def test_ranking_kernel_matches_full_sort_oracle_with_ties():
    rng = np.random.default_rng(0)
    for trial in range(100):
        n = int(rng.integers(2, 30))
        ids = [f"g{i:03d}" for i in range(n)]
        scores = rng.integers(0, 5, size=n).astype(float)  # coarse grid forces ties
        target = int(rng.integers(0, n))
        _, rank = rank_oracle(ids, scores.tolist(), ids[target])
        assert rank_gallery(scores, ids, target) == rank


def test_recall_counting():
    assert recall_at_k([1, 1], 1) == 1.0
    assert recall_at_k([1, 3, 7], 5) == pytest.approx(2 / 3)


def test_recall_matches_brute_force_on_random_matrices():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n_queries, n_gallery = int(rng.integers(2, 8)), int(rng.integers(3, 12))
        ids = [f"g{i:02d}" for i in range(n_gallery)]
        scores = rng.integers(0, 4, size=(n_queries, n_gallery)).astype(float)
        targets = [int(rng.integers(0, n_gallery)) for _ in range(n_queries)]
        ranks = [rank_gallery(scores[i], ids, targets[i]) for i in range(n_queries)]
        for k in (1, 2, 5):
            expected = np.mean([
                rank_oracle(ids, scores[i].tolist(), ids[targets[i]])[1] <= k
                for i in range(n_queries)
            ])
            assert recall_at_k(ranks, k) == pytest.approx(float(expected))


def test_recall_monotone_in_k_and_saturates():
    rng = np.random.default_rng(2)
    size = 9
    ranks = [int(rng.integers(1, size + 1)) for _ in range(20)]
    values = [recall_at_k(ranks, k) for k in range(1, size + 1)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert values[-1] == 1.0


def test_recall_rejects_bad_input():
    with pytest.raises(ValueError):
        recall_at_k([], 1)
    with pytest.raises(ValueError):
        recall_at_k([1], 0)


def test_subset_rerank_and_error_on_missing_target():
    scores = np.array([0.3, 0.9, 0.5, 0.1])
    position = {"a": 0, "b": 1, "c": 2, "d": 3}
    # the subset orders b, c, a
    assert rank_within_subset(scores, position, ["a", "b", "c"], "c") == 2
    assert rank_within_subset(scores, position, ["c", "d"], "d") == 2
    with pytest.raises(ValueError, match="'d' missing from its candidate subset"):
        rank_within_subset(scores, position, ["a", "b"], "d")


def test_subset_id_outside_gallery_rejected():
    scores = np.array([0.3, 0.9])
    with pytest.raises(ValueError, match=r"\['zz'\] missing from the gallery"):
        rank_within_subset(scores, {"a": 0, "b": 1}, ["a", "zz", "b"], "a")


def test_subset_recall_never_below_full_recall():
    # fewer competitors can only improve the target's rank
    rng = np.random.default_rng(3)
    ids = [f"g{i:02d}" for i in range(12)]
    position = {gid: i for i, gid in enumerate(ids)}
    for _ in range(25):
        scores = rng.normal(size=12)
        target = int(rng.integers(0, 12))
        subset = sorted(set(rng.choice(ids, size=4, replace=False).tolist()) | {ids[target]})
        full = rank_gallery(scores, ids, target)
        sub = rank_within_subset(scores, position, subset, ids[target])
        assert sub <= full
        for k in (1, 2, 3):
            assert recall_at_k([sub], k) >= recall_at_k([full], k)


def test_challenge_metric_arithmetic():
    assert challenge_metric(0.4, 0.6) == 0.5
    assert challenge_metric(0.0, 0.0) == 0.0
    # published-scale sanity: mean recalls 46.69% and 69.22% give 57.895%
    assert challenge_metric(0.4669, 0.6922) == pytest.approx(0.57955, abs=5e-4)
    assert challenge_metric(0.4657, 0.6922) == pytest.approx(0.57895, abs=1e-12)
    with pytest.raises(ValueError):
        challenge_metric(1.4, 0.0)


def test_avg_metric_arithmetic():
    assert avg_metric(81.21, 76.27) == 78.74
    assert avg_metric(0.0, 0.0) == 0.0
    rng = np.random.default_rng(4)
    for _ in range(10):
        a, b = rng.uniform(0, 1, 2)
        assert avg_metric(a, b) == pytest.approx((a + b) / 2, abs=1e-15)


def test_summarize_has_all_keys_and_format():
    report = summarize([1, 6, 11], [1, 2, 4])
    assert tuple(report) == METRIC_KEYS
    assert report["recall_at_1"] == pytest.approx(1 / 3)
    assert report["recall_subset_at_2"] == pytest.approx(2 / 3)
    text = format_report(report)
    assert "recall_subset_at_1" in text
    # percentages in the human-readable table
    assert f"{100 * report['recall_at_1']:7.3f}" in text
