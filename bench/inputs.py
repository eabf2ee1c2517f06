"""Seeded input generation.

Every generator draws from a ``numpy.random.Generator`` that the caller
seeds, so one benchmark seed fixes every graph and every matrix. Patterns
are built with networkx, which the benchmark also uses as its independent
oracle; the program under test receives only the ``Graph`` and
``PartialSymmetricMatrix`` objects made at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import networkx as nx
import numpy as np

from psdcomplete import Graph, PartialSymmetricMatrix


@dataclass
class Instance:
    """One pattern with its data, in the benchmark's own form and the program's.

    ``data`` is the dense symmetric matrix whose entries on ``mask`` (the
    diagonal and the pattern edges) are the specified values; the rest is 0.
    ``cycle`` is the hard cycle's vertex sequence when the data carries one.
    """

    label: str
    G: nx.Graph
    data: np.ndarray
    mask: np.ndarray
    graph: Graph
    partial: PartialSymmetricMatrix
    cycle: Optional[tuple] = None


def make_instance(label: str, G: nx.Graph, full: np.ndarray, cycle=None) -> Instance:
    """Project a full symmetric matrix onto G's pattern and build the program inputs."""
    n = G.number_of_nodes()
    data = np.diag(np.diagonal(full)).astype(float)
    mask = np.eye(n, dtype=bool)
    entries = {}
    for i, j in G.edges():
        data[i, j] = data[j, i] = full[i, j]
        mask[i, j] = mask[j, i] = True
        entries[(i, j)] = float(full[i, j])
    graph = Graph.from_edges(n, G.edges())
    partial = PartialSymmetricMatrix(n, np.diagonal(data).copy(), entries)
    return Instance(label, G, data, mask, graph, partial, cycle)


def relabel(rng, G: nx.Graph) -> tuple[nx.Graph, list]:
    """The same graph under a random permutation of 0..n-1, and the permutation."""
    perm = [int(p) for p in rng.permutation(G.number_of_nodes())]
    H = nx.Graph()
    H.add_nodes_from(range(G.number_of_nodes()))
    H.add_edges_from((perm[i], perm[j]) for i, j in G.edges())
    return H, perm


def random_chordal_graph(rng, n: int, max_clique: int) -> nx.Graph:
    """Connected chordal graph grown one simplicial vertex at a time.

    Each new vertex joins a random subset of a random maximal clique built so
    far, so the reverse insertion order is a perfect elimination ordering and
    no clique exceeds ``max_clique`` vertices. Subsets hold at least half of
    ``max_clique - 1`` vertices (when the clique has them), which keeps the
    edge and clique counts, and so the cost of analysing the graph, close to
    the same for every seed.
    """
    k0 = min(max_clique, n)
    G = nx.complete_graph(k0)
    cliques = [list(range(k0))]
    for v in range(k0, n):
        c = cliques[int(rng.integers(len(cliques)))]
        hi = min(len(c), max_clique - 1)
        s = int(rng.integers(min(hi, max_clique // 2), hi + 1))
        nbrs = sorted(int(u) for u in rng.choice(c, size=s, replace=False))
        G.add_edges_from((v, u) for u in nbrs)
        if len(nbrs) == len(c):
            c.append(v)
        else:
            cliques.append(nbrs + [v])
    return relabel(rng, G)[0]


def planted_cycle_graph(rng, m: int, extra: int) -> tuple[nx.Graph, tuple]:
    """An m-cycle with ``extra`` simplicial vertices hung on random cliques.

    A simplicial vertex lies on no chordless cycle of length >= 4, so the
    planted cycle stays the graph's only one. Returns the relabelled graph
    and the cycle's vertices in cycle order.
    """
    G = nx.cycle_graph(m)
    for v in range(m, m + extra):
        size = int(rng.integers(1, 4))
        clique = [int(rng.integers(v))]
        common = set(G[clique[0]])
        while len(clique) < size and common:
            u = int(rng.choice(sorted(common)))
            clique.append(u)
            common &= set(G[u])
        G.add_edges_from((v, u) for u in clique)
    H, perm = relabel(rng, G)
    return H, tuple(perm[:m])


def random_nonchordal_graph(rng, n: int, edges: int) -> nx.Graph:
    """Connected non-chordal G(n, M) graph, redrawn until it is both."""
    while True:
        G = nx.gnm_random_graph(n, edges, seed=int(rng.integers(2**31)))
        if nx.is_connected(G) and not nx.is_chordal(G):
            return G


def atlas_nonchordal() -> list:
    """Every connected non-chordal graph on at most 6 vertices, in atlas order."""
    return [G for G in nx.graph_atlas_g()
            if 0 < G.number_of_nodes() <= 6 and nx.is_connected(G)
            and not nx.is_chordal(G)]


def gram(rng, n: int, rank: int, ridge: float = 0.0) -> np.ndarray:
    """``B^T B / rank + ridge * I`` for a Gaussian ``rank x n`` matrix B.

    A positive ridge puts the matrix strictly inside the PSD cone: it is
    ``C^T C`` for the full-rank ``C = [B / sqrt(rank); sqrt(ridge) I]``.
    """
    b = rng.standard_normal((rank, n))
    return b.T @ b / rank + ridge * np.eye(n)


def hard_cycle_matrix(G: nx.Graph, cycle, negative: int, value: float = 1.0) -> np.ndarray:
    """Unit diagonal, ``value`` on the cycle's edges except ``-value`` on edge
    ``negative``, 0 elsewhere.

    Every clique block is PSD (PD when ``value < 1``), yet at ``value = 1``
    the cycle's extreme ray pairs to -4/(m-1) with this data, and for
    ``value`` near 1 still negatively, so no PSD completion exists.
    """
    n = G.number_of_nodes()
    a = np.eye(n)
    m = len(cycle)
    for t in range(m):
        i, j = cycle[t], cycle[(t + 1) % m]
        a[i, j] = a[j, i] = -value if t == negative else value
    return a
