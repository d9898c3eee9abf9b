import numpy as np
import pytest

from cirtrain.data import id_ranks
from cirtrain.metrics import (
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
    # order b, c, a; one query is a chunk of one row
    assert rank_gallery([[0.1, 0.9, 0.5]], ["a", "b", "c"], [2]).tolist() == [2]
    assert rank_gallery([[0.1, 0.9, 0.5]], ["a", "b", "c"], [1]).tolist() == [1]
    assert rank_gallery([[0.1, 0.9, 0.5]], ["a", "b", "c"], [0]).tolist() == [3]


def test_rank_gallery_ties_break_by_ascending_id():
    # order a, b, c
    assert rank_gallery([[0.5, 0.5, 0.5]] * 3, ["b", "a", "c"], [0, 1, 2]).tolist() == [2, 1, 3]


def test_rank_gallery_target_must_exist():
    for target in (1, -1):
        with pytest.raises(ValueError, match=f"^row 0: target column {target} outside a gallery of 1$"):
            rank_gallery([[1.0]], ["a"], [target])
    # the first row out of range is named, not the whole target array
    with pytest.raises(ValueError, match="^row 4: target column 4 outside a gallery of 4$"):
        rank_gallery(np.zeros((6, 4)), ["a", "b", "c", "d"], [0, 1, 2, 3, 4, -1])


@pytest.mark.parametrize("shape,n_ids,target", [
    ((2, 5), 4, [0, 1]),      # the columns are not the ids
    ((2, 5), 5, [[0], [1]]),  # a column of targets, not one per row
    ((2, 5), 5, [0]),         # fewer targets than rows
    ((5,), 5, 0),             # a bare row, not a chunk
])
def test_rank_gallery_refuses_what_is_not_a_chunk_with_one_target_per_row(shape, n_ids, target):
    with pytest.raises(ValueError, match=r"^scores must be B x G with G = len\(ids\), and target "
                                         r"one column per row; got scores"):
        rank_gallery(np.zeros(shape), [f"g{i}" for i in range(n_ids)], target)


def test_ranking_kernel_matches_full_sort_oracle_with_ties():
    rng = np.random.default_rng(0)
    for trial in range(100):
        n = int(rng.integers(2, 30))
        ids = [f"g{i:03d}" for i in range(n)]
        scores = rng.integers(0, 5, size=n).astype(float)  # coarse grid forces ties
        target = int(rng.integers(0, n))
        _, rank = rank_oracle(ids, scores.tolist(), ids[target])
        assert rank_gallery(scores[None], ids, [target]).tolist() == [rank]


def test_batched_ranks_match_full_sort_oracle_per_row():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n_queries, n_gallery = int(rng.integers(1, 9)), int(rng.integers(2, 30))
        ids = [f"g{i:03d}" for i in rng.permutation(n_gallery)]
        scores = rng.integers(0, 4, size=(n_queries, n_gallery)).astype(float)  # forced ties
        targets = rng.integers(0, n_gallery, size=n_queries)
        ranks = rank_gallery(scores, ids, targets)
        assert ranks.shape == (n_queries,)
        for row, target, rank in zip(scores, targets, ranks):
            assert rank == rank_oracle(ids, row.tolist(), ids[target])[1]


def test_ranks_of_a_full_size_chunk_match_full_sort_oracle_per_row():
    # 256 x 1024, the size of an eval chunk against its gallery: a quarter of the rows
    # untied, a quarter tied away from the target, half tied with it on either side by id
    rng = np.random.default_rng(7)
    n_queries, n_gallery = 256, 1024
    ids = [f"g{i:04d}" for i in rng.permutation(n_gallery)]
    scores = rng.normal(size=(n_queries, n_gallery))
    targets = rng.integers(0, n_gallery, size=n_queries)
    for row in range(64, n_queries):
        others = rng.choice(np.setdiff1d(np.arange(n_gallery), targets[row]), size=5, replace=False)
        source = others[0] if row < 128 else targets[row]
        scores[row, others] = scores[row, source]
    ties = (scores == np.take_along_axis(scores, targets[:, None], axis=1)).sum(axis=1)
    assert (ties[:128] == 1).all() and (ties[128:] == 6).all()
    smaller = [sum(ids[c] < ids[t] for c in np.flatnonzero(r == r[t]))
               for r, t in zip(scores[128:], targets[128:])]
    assert min(smaller) == 0 and max(smaller) == 5
    ranks = rank_gallery(scores, ids, targets)
    for row, target, rank in zip(scores, targets, ranks):
        assert rank == rank_oracle(ids, row.tolist(), ids[target])[1]


def flat_candidates(subsets):
    """The (rows, columns) pairs rank_within_subset takes, for subsets given as column lists."""
    rows = [row for row, subset in enumerate(subsets) for _ in subset or ()]
    return rows, [column for subset in subsets for column in subset or ()]


def test_batched_subset_ranks_match_full_sort_oracle_per_row():
    rng = np.random.default_rng(6)
    ids = [f"g{i:02d}" for i in rng.permutation(12)]  # column order is not id order
    keys = id_ranks(ids)
    sizes = set()
    for _ in range(30):
        scores = rng.integers(0, 3, size=(6, 12)).astype(float)  # forced ties
        targets = rng.integers(0, 12, size=6)
        # 1-6 candidates, the target among them, or no subset at all
        subsets = [None if rng.random() < 0.3 else
                   rng.permutation(sorted({t} | set(rng.choice(12, size=int(rng.integers(0, 6))))))
                   .tolist() for t in targets]
        sizes |= {len(sub) for sub in subsets if sub is not None}
        expected = [rank_oracle([ids[c] for c in sub], row[sub].tolist(), ids[t])[1]
                    for row, sub, t in zip(scores, subsets, targets) if sub is not None]
        ranks = rank_within_subset(scores, keys, targets, *flat_candidates(subsets))
        assert ranks.tolist() == expected
    assert sizes == {1, 2, 3, 4, 5, 6}


def test_ids_differing_by_a_trailing_nul_tie_in_string_order():
    # numpy's string order drops trailing NULs and reads "a\0" as "a"; Python's puts "a" first
    ids = ["a\x00", "a", "z"]
    scores = np.array([[0.5, 0.5, 0.1]])
    _, rank = rank_oracle(ids, scores[0].tolist(), "a\x00")
    assert rank == 2
    assert rank_gallery(scores, id_ranks(ids), [0]).tolist() == [rank]
    assert rank_within_subset(scores, id_ranks(ids), [0], [0, 0], [0, 1]).tolist() == [rank]


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
        ranks = rank_gallery(scores, ids, targets)
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


def test_subset_rerank():
    scores = np.array([[0.3, 0.9, 0.5, 0.1]])
    keys = [0, 1, 2, 3]
    # the subset orders b, c, a
    assert rank_within_subset(scores, keys, [2], [0, 0, 0], [0, 1, 2]).tolist() == [2]
    assert rank_within_subset(scores, keys, [3], [0, 0], [2, 3]).tolist() == [2]


def test_subset_rank_of_a_chunk_without_subsets_is_empty():
    ranks = rank_within_subset(np.zeros((3, 2)), [0, 1], [0, 1, 0], [], [])
    assert ranks.shape == (0,) and ranks.dtype.kind == "i"


def test_subset_rank_refuses_a_bare_row():
    with pytest.raises(ValueError, match=r"^scores must be a B x G chunk, got shape \(2,\)$"):
        rank_within_subset(np.array([0.3, 0.9]), [0, 1], [0], [0, 0], [0, 1])


def test_subset_recall_never_below_full_recall():
    # fewer competitors can only improve the target's rank
    rng = np.random.default_rng(3)
    ids = [f"g{i:02d}" for i in range(12)]
    for _ in range(25):
        scores = rng.normal(size=(1, 12))
        target = int(rng.integers(0, 12))
        subset = sorted(set(rng.choice(12, size=4, replace=False).tolist()) | {target})
        [full] = rank_gallery(scores, ids, [target])
        [sub] = rank_within_subset(scores, id_ranks(ids), [target], [0] * len(subset), subset)
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
    assert tuple(report) == ("recall_at_1", "recall_at_5", "recall_at_10", "recall_subset_at_1",
                             "recall_subset_at_2", "recall_subset_at_3", "avg_recall5_subset1")
    assert report["recall_at_1"] == pytest.approx(1 / 3)
    assert report["recall_subset_at_2"] == pytest.approx(2 / 3)
    text = format_report(report)
    assert "recall_subset_at_1" in text
    # percentages in the human-readable table
    assert f"{100 * report['recall_at_1']:7.3f}" in text
