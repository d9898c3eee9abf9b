"""Independent straight-line reimplementations used as test oracles.

Everything here is deliberately written with plain numpy loops and no reuse
of the library's graph ops, so agreement is evidence rather than tautology.
"""

import numpy as np


def finite_diff(loss_fn, array: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function w.r.t. one array."""
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + step
        up = loss_fn()
        flat[i] = original - step
        down = loss_fn()
        flat[i] = original
        gflat[i] = (up - down) / (2 * step)
    return grad


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def np_softmax_rows(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def np_l2n(x, eps=1e-12):
    n = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.where(n < eps, 1.0, n)


def np_cosine(a, b, eps=1e-12):
    na = max(np.linalg.norm(a), eps)
    nb = max(np.linalg.norm(b), eps)
    return float(np.dot(a, b) / (na * nb))


def bridged_chain(f_r_bar, f_c, f_t, w_ref, w_text, w_text_query, w_target, w_value):
    """One query-target chain: cosine hops, scaled product softmax, value query."""
    q_r = np_l2n(f_r_bar @ w_ref)
    k_c = np_l2n(f_c @ w_text)
    a_r2c = q_r @ k_c.T
    q_c = np_l2n(f_c @ w_text_query)
    k_t = np_l2n(f_t @ w_target)
    a_c2t = q_c @ k_t.T
    a_r2t = np_softmax_rows((a_r2c @ a_c2t) / np.sqrt(f_r_bar.shape[1]))
    return a_r2t @ (f_t @ w_value)


def alignment_loss_oracle(triplets, w_ref, w_text, w_text_query, w_target, w_value, tau):
    """Mean NLL over every query of the in-batch target softmax, chains recomputed
    per query-target pair."""
    b = len(triplets)
    nll = 0.0
    for i in range(b):
        f_r_bar, f_c, _ = triplets[i]
        pooled_ref = f_r_bar.mean(axis=0)
        sims = []
        for j in range(b):
            f_t = triplets[j][2]
            bridged = bridged_chain(f_r_bar, f_c, f_t, w_ref, w_text, w_text_query,
                                    w_target, w_value)
            sims.append(np_cosine(pooled_ref, bridged.mean(axis=0)))
        logits = np.array(sims) / tau
        logits -= logits.max()
        probs = np.exp(logits) / np.exp(logits).sum()
        nll -= np.log(probs[i])
    return nll / b


def attention_oracle(x_q, x_kv, wq, wk, wv):
    """Single-head scaled dot-product attention, one row of queries at a time."""
    k, v = x_kv @ wk, x_kv @ wv
    out = np.zeros((x_q.shape[0], v.shape[1]))
    for i, q in enumerate(x_q @ wq):
        logits = np.array([np.dot(q, k[j]) for j in range(k.shape[0])]) / np.sqrt(q.size)
        weights = np.exp(logits - logits.max())
        weights /= weights.sum()
        out[i] = sum(w * v[j] for j, w in enumerate(weights))
    return out


def fuse_branch_oracle(anchor, other, wq, wk, wv, layers):
    state = other
    for _ in range(layers):
        q, k, v = anchor @ wq, state @ wk, state @ wv
        attn = np_softmax_rows((q @ k.T) / np.sqrt(q.shape[1]))
        state = attn @ v
    return state


def compose_oracle(f_r_prime, f_t, tgt_w, ref_w, layers):
    """tgt_w/ref_w are (wq, wk, wv) triples for the two branches."""
    h_t = fuse_branch_oracle(f_r_prime, f_t, *tgt_w, layers)
    h_r = fuse_branch_oracle(f_t, f_r_prime, *ref_w, layers)
    mean_cls = (h_t[0] + h_r[0]) / 2.0
    return np_l2n(mean_cls.reshape(1, -1)).reshape(-1)


def reasoning_loss_oracle(triplets, tgt_w, ref_w, layers, tau):
    b = len(triplets)
    composites = [compose_oracle(f_r_prime, f_t, tgt_w, ref_w, layers)
                  for f_r_prime, f_t, _ in triplets]
    texts = [np_l2n(f_c.mean(axis=0, keepdims=True)).reshape(-1) for _, _, f_c in triplets]
    nll = 0.0
    for i in range(b):
        logits = np.array([float(np.dot(composites[i], texts[j])) for j in range(b)]) / tau
        logits -= logits.max()
        probs = np.exp(logits) / np.exp(logits).sum()
        nll -= np.log(probs[i])
    return nll / b


def matching_loss_oracle(queries, targets, tau):
    b = len(queries)
    nll = 0.0
    for i in range(b):
        logits = np.array([float(np.dot(queries[i], targets[j])) for j in range(b)]) / tau
        logits -= logits.max()
        probs = np.exp(logits) / np.exp(logits).sum()
        nll -= np.log(probs[i])
    return nll / b


def rank_oracle(gallery_ids, scores, target_id):
    """Full sort with the same (-score, id) tie rule; independent of the kernel."""
    pairs = sorted(zip(scores, gallery_ids), key=lambda p: (-p[0], p[1]))
    ordered = [gid for _, gid in pairs]
    return ordered, ordered.index(target_id) + 1
