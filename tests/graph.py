"""Walk the graph an engine output recorded, for tests that count or inspect its nodes, and
pin the census of one training step."""


def graph_nodes(out) -> list:
    """Every distinct tensor reachable from `out` through recorded parents, `out` first."""
    nodes, seen, stack = [], set(), [out]
    while stack:
        node = stack.pop()
        if node not in seen:  # tensors hash by identity
            seen.add(node)
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


# one step's recorded graph at the default geometry, nodes by op: text, cross and fusion
# attention plus 4 layers in each compositor branch, and matching only reads the text
# encoder and fusion; each loss is one diagonal_nll node, the bridge's hinge is the only
# softmax left outside the fused attention op and scales its own logits, so scalar_mul only
# weighs the auxiliary terms in the total; every op is batched, so the census is the same
# at the model tests' B=4 and at train_matching's B=64 in tools/workcount.py
STEP_CENSUS = {
    "baseline": (16, dict(add=3, attention=2, concat=1, diagonal_nll=1, l2_normalize_rows=1,
                          matmul=2, mean_axis=2, reshape=1, take_rows=3)),
    "+alignment": (47, dict(add=5, attention=3, concat=1, diagonal_nll=2, l2_normalize_rows=7,
                            matmul=12, mean_axis=4, reshape=4, scalar_mul=1, softmax_rows=1,
                            take_rows=3, transpose=4)),
    "+reasoning": (35, dict(add=5, attention=10, concat=1, diagonal_nll=2, first_row=2,
                            l2_normalize_rows=3, matmul=3, mean_axis=3, reshape=1, scalar_mul=1,
                            take_rows=3, transpose=1)),
    "full": (66, dict(add=7, attention=11, concat=1, diagonal_nll=3, first_row=2,
                      l2_normalize_rows=9, matmul=13, mean_axis=5, reshape=4, scalar_mul=2,
                      softmax_rows=1, take_rows=3, transpose=5)),
}
