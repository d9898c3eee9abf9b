"""Walk the graph an engine output recorded, for tests that count or inspect its nodes."""


def graph_nodes(out) -> list:
    """Every distinct tensor reachable from `out` through recorded parents, `out` first."""
    nodes, seen, stack = [], set(), [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes
