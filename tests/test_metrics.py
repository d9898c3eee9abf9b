import numpy as np
import pytest

from cirtrain.metrics import (
    METRIC_KEYS,
    RankingResult,
    avg_metric,
    challenge_metric,
    format_report,
    rank_gallery,
    rank_within_subset,
    recall_at_k,
    summarize,
)
from oracles import rank_oracle


def result(rank, size=10, qid="q"):
    ids = tuple(f"g{i}" for i in range(size))
    return RankingResult(qid, ids, rank)


def test_ranking_result_validates_rank():
    with pytest.raises(ValueError):
        result(0)
    with pytest.raises(ValueError):
        result(11)


def test_rank_gallery_basic():
    r = rank_gallery("q", ["a", "b", "c"], [0.1, 0.9, 0.5], "c")
    assert r.ordered_ids == ("b", "c", "a")
    assert r.rank_of_target == 2


def test_rank_gallery_ties_break_by_ascending_id():
    r = rank_gallery("q", ["b", "a", "c"], [0.5, 0.5, 0.5], "b")
    assert r.ordered_ids == ("a", "b", "c")
    assert r.rank_of_target == 2


def test_rank_gallery_target_must_exist():
    with pytest.raises(ValueError):
        rank_gallery("q", ["a"], [1.0], "zz")


def test_ranking_kernel_matches_full_sort_oracle_with_ties():
    rng = np.random.default_rng(0)
    for trial in range(100):
        n = int(rng.integers(2, 30))
        ids = [f"g{i:03d}" for i in range(n)]
        scores = rng.integers(0, 5, size=n).astype(float)  # coarse grid forces ties
        target = ids[int(rng.integers(0, n))]
        ours = rank_gallery("q", ids, scores, target)
        ordered, rank = rank_oracle(ids, scores.tolist(), target)
        assert list(ours.ordered_ids) == ordered
        assert ours.rank_of_target == rank


def test_recall_counting():
    assert recall_at_k([result(1), result(1)], 1) == 1.0
    ranks = [result(1), result(3), result(7)]
    assert recall_at_k(ranks, 5) == pytest.approx(2 / 3)


def test_recall_matches_brute_force_on_random_matrices():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n_queries, n_gallery = int(rng.integers(2, 8)), int(rng.integers(3, 12))
        ids = [f"g{i:02d}" for i in range(n_gallery)]
        scores = rng.integers(0, 4, size=(n_queries, n_gallery)).astype(float)
        targets = [ids[int(rng.integers(0, n_gallery))] for _ in range(n_queries)]
        results = [rank_gallery(f"q{i}", ids, scores[i], targets[i])
                   for i in range(n_queries)]
        for k in (1, 2, 5):
            expected = np.mean([
                rank_oracle(ids, scores[i].tolist(), targets[i])[1] <= k
                for i in range(n_queries)
            ])
            assert recall_at_k(results, k) == pytest.approx(float(expected))


def test_recall_monotone_in_k_and_saturates():
    rng = np.random.default_rng(2)
    size = 9
    results = [result(int(rng.integers(1, size + 1)), size=size) for _ in range(20)]
    values = [recall_at_k(results, k) for k in range(1, size + 1)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert values[-1] == 1.0


def test_recall_rejects_bad_input():
    with pytest.raises(ValueError):
        recall_at_k([], 1)
    with pytest.raises(ValueError):
        recall_at_k([result(1)], 0)


def test_subset_rerank_and_error_on_missing_target():
    score_of = {"a": 0.3, "b": 0.9, "c": 0.5, "d": 0.1}
    r = rank_within_subset("q", ["a", "b", "c"], score_of, "c")
    assert r.ordered_ids == ("b", "c", "a")
    assert r.rank_of_target == 2
    with pytest.raises(ValueError):
        rank_within_subset("q", ["a", "b"], score_of, "d")


def test_subset_recall_never_below_full_recall():
    # fewer competitors can only improve the target's rank
    rng = np.random.default_rng(3)
    ids = [f"g{i:02d}" for i in range(12)]
    for _ in range(25):
        scores = rng.normal(size=12)
        score_of = dict(zip(ids, scores.tolist()))
        target = ids[int(rng.integers(0, 12))]
        subset = sorted(set(rng.choice(ids, size=4, replace=False).tolist()) | {target})
        full = rank_gallery("q", ids, scores, target)
        sub = rank_within_subset("q", subset, score_of, target)
        assert sub.rank_of_target <= full.rank_of_target
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
    full = [result(1), result(6), result(11, size=20)]
    sub = [result(1, size=5), result(2, size=5), result(4, size=5)]
    report = summarize(full, sub)
    assert tuple(report) == METRIC_KEYS
    assert report["recall_at_1"] == pytest.approx(1 / 3)
    assert report["recall_subset_at_2"] == pytest.approx(2 / 3)
    text = format_report(report)
    assert "recall_subset_at_1" in text
    # percentages in the human-readable table
    assert f"{100 * report['recall_at_1']:7.3f}" in text
