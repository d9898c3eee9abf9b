"""Independent checks of the library's outputs."""

from __future__ import annotations

import numpy as np

from cirtrain.model import RetrievalModel, load_checkpoint, save_checkpoint
from cirtrain.tensor import no_grad


def _rank(scores: np.ndarray, id_order: np.ndarray, target: int) -> int:
    # np.lexsort sorts by its last key first: descending score, then ascending id
    order = np.lexsort((id_order, -scores))
    return int(np.flatnonzero(order == target)[0]) + 1


def eval_report_oracle(model, val_records) -> dict:
    """The `evaluate_model` report recomputed with numpy: one Q @ Gᵀ score
    matrix, lexsort rankings with the ascending-id tie-break, and subset
    re-ranking on the same scores."""
    ids = [r.id for r in val_records]
    index = {rid: i for i, rid in enumerate(ids)}
    id_order = np.argsort(np.argsort(np.array(ids)))
    with no_grad():
        queries = np.vstack([
            model.query_embedding(r.ref_tokens, r.text_tokens).data for r in val_records
        ])
        gallery = np.vstack([model.target_embedding(r.target_tokens).data for r in val_records])
    scores = queries @ gallery.T

    full, subset = [], []
    for i, record in enumerate(val_records):
        full.append(_rank(scores[i], id_order, i))
        members = np.array([index[s] for s in record.subset_ids])
        own = int(np.flatnonzero(members == i)[0])
        subset.append(_rank(scores[i, members], id_order[members], own))
    full, subset = np.array(full), np.array(subset)

    def recall(ranks, k):
        return int((ranks <= k).sum()) / len(ranks)

    report = {
        "recall_at_1": recall(full, 1),
        "recall_at_5": recall(full, 5),
        "recall_at_10": recall(full, 10),
        "recall_subset_at_1": recall(subset, 1),
        "recall_subset_at_2": recall(subset, 2),
        "recall_subset_at_3": recall(subset, 3),
    }
    report["avg_recall5_subset1"] = (report["recall_at_5"] + report["recall_subset_at_1"]) / 2.0
    return report


def checkpoint_round_trip(model, cfg, path, tracer):
    """Save `model`, load it into a model initialised from another seed, and
    return (loaded model, whether every parameter came back bit for bit)."""
    with tracer.span("model.checkpoint_save"):
        save_checkpoint(model, path)
    loaded = RetrievalModel(cfg, seed=cfg.training.seed + 1)
    with tracer.span("model.checkpoint_load"):
        load_checkpoint(loaded, path)
    mine, theirs = model.parameters(), loaded.parameters()
    exact = mine.keys() == theirs.keys() and all(
        mine[n].data.tobytes() == theirs[n].data.tobytes() for n in mine
    )
    return loaded, exact
