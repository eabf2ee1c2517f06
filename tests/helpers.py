"""Shared test fixtures and independent brute-force oracles.

The oracles deliberately avoid the package's algorithms: chordless cycles
are found by scanning vertex subsets for induced 2-regular connected
subgraphs, cliques by scanning subsets, so agreement is a real cross-check.
"""

from itertools import combinations

import numpy as np

from psdcomplete import (
    Graph,
    PartialSymmetricMatrix,
    partially_positive,
    shortest_induced_cycle,
)


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def subgraph_is_chordless_cycle(g: Graph, subset) -> bool:
    """Oracle: the induced subgraph on subset is a connected 2-regular graph."""
    subset = set(subset)
    if len(subset) < 4:
        return False
    deg = {}
    for v in subset:
        deg[v] = sum(1 for u in subset if u != v and g.has_edge(u, v))
    if any(d != 2 for d in deg.values()):
        return False
    start = min(subset)
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u in subset:
            if u not in seen and g.has_edge(u, v):
                seen.add(u)
                stack.append(u)
    return seen == subset


def brute_chordless_cycle_sets(g: Graph):
    """All vertex sets carrying a chordless cycle of length >= 4 (n <= ~12)."""
    out = []
    verts = range(g.n)
    for size in range(4, g.n + 1):
        for subset in combinations(verts, size):
            if subgraph_is_chordless_cycle(g, subset):
                out.append(frozenset(subset))
    return out


def brute_shortest_chordless_cycle_length(g: Graph):
    best = None
    for subset in brute_chordless_cycle_sets(g):
        if best is None or len(subset) < best:
            best = len(subset)
    return best


def brute_is_chordal(g: Graph) -> bool:
    verts = range(g.n)
    for size in range(4, g.n + 1):
        for subset in combinations(verts, size):
            if subgraph_is_chordless_cycle(g, subset):
                return False
    return True


def brute_maximal_cliques(g: Graph):
    """Oracle: subset scan for maximal cliques (n <= ~12)."""
    cliques = []
    verts = range(g.n)
    for size in range(1, g.n + 1):
        for subset in combinations(verts, size):
            if all(g.has_edge(u, v) for u, v in combinations(subset, 2)):
                cliques.append(set(subset))
    return sorted(
        tuple(sorted(c)) for c in cliques
        if not any(c < other for other in cliques)
    )


def brute_mcs_order(g: Graph) -> list:
    """Oracle: maximum cardinality search by scanning every unvisited vertex
    for the most visited neighbours, ties broken by lowest index."""
    weight = [0] * g.n
    visited = [False] * g.n
    order = []
    for _ in range(g.n):
        v = -max((w, -u) for u, w in enumerate(weight) if not visited[u])[1]
        visited[v] = True
        order.append(v)
        for u in range(g.n):
            if not visited[u] and g.has_edge(u, v):
                weight[u] += 1
    return order


def all_graphs(n: int):
    """Every labeled graph on n vertices (use only for small n)."""
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph.from_edges(n, [pairs[t] for t in range(len(pairs)) if bits >> t & 1])


def random_graph(rng, n: int, p: float = 0.4) -> Graph:
    edges = [(i, j) for i, j in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_chordal(rng, n: int, attach_hi: int = 4) -> Graph:
    """Random chordal graph: each new vertex attaches to a clique subset."""
    edges = []
    cliques = [[0]]
    for v in range(1, n):
        base = cliques[rng.integers(0, len(cliques))]
        size = int(rng.integers(0, min(len(base), attach_hi) + 1))
        anchor = list(rng.choice(base, size=size, replace=False)) if size else []
        edges += [(v, u) for u in anchor]
        cliques.append(anchor + [v])
    return Graph.from_edges(n, edges)


def random_psd_partial(rng, g: Graph, rank=None):
    """Pattern projection of B^T B for random B, so a PSD completion exists."""
    r = rank if rank is not None else g.n
    b = rng.standard_normal((r, g.n))
    return PartialSymmetricMatrix.from_full(g, b.T @ b)


def perturbed_partially_positive(rng, g: Graph, eps: float = 0.02):
    """Strictly partially positive data that need not admit any completion.

    Starts from the projection of a random PSD matrix, then nudges every edge
    value, halving the nudge until all clique blocks stay strictly PD.
    """
    base = random_psd_partial(rng, g)
    scale = 1.0 + base.max_abs()
    for _ in range(8):
        entries = {e: v + rng.uniform(-eps, eps) * scale
                   for e, v in base.entries.items()}
        cand = PartialSymmetricMatrix(g.n, base.diag, entries)
        if partially_positive(g, cand, strict=True):
            return cand
        eps *= 0.5
    return base


def hard_cycle_instance(g: Graph) -> PartialSymmetricMatrix:
    """Unit diagonal, 1 on a shortest chordless cycle except -1 on its wrap
    edge, 0 on all other edges. Partially positive but not completable."""
    cyc = shortest_induced_cycle(g)
    assert cyc is not None, "needs a non-chordal pattern"
    vs = cyc.vertices
    m = len(vs)
    entries = {e: 0.0 for e in g.edges}
    for t in range(m - 1):
        entries[tuple(sorted((vs[t], vs[t + 1])))] = 1.0
    entries[tuple(sorted((vs[0], vs[m - 1])))] = -1.0
    return PartialSymmetricMatrix(g.n, np.ones(g.n), entries)
