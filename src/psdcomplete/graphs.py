"""Undirected graphs: chordality, cliques, clique trees, induced cycles, index bounds.

Vertices are 0..n-1. Edges are unordered pairs stored as sorted tuples.
All algorithms break ties deterministically (lowest vertex index first),
so repeated runs produce identical witnesses.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass, field

from .errors import InputError, InvalidCycleLength, NotChordal

__all__ = [
    "Graph",
    "EliminationOrdering",
    "InducedCycle",
    "CliqueTree",
    "cycle_graph",
    "is_chordal",
    "maximal_cliques",
    "clique_number",
    "clique_tree",
    "rooted_clique_order",
    "shortest_induced_cycle",
    "induced_cycles_of_length",
    "green_lazarsfeld_index",
    "hankel_index",
]


def edge_key(i: int, j: int) -> tuple[int, int]:
    """Canonical (min, max) form of an undirected edge."""
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with a deduplicated edge set."""

    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise InputError("vertex count must be a positive integer", code="schema")
        canon = set()
        for e in self.edges:
            i, j = e
            try:
                if isinstance(i, bool) or isinstance(j, bool):
                    raise TypeError
                i, j = operator.index(i), operator.index(j)
            except TypeError:
                raise InputError(f"edge {e!r} has non-integer endpoints",
                                 code="schema") from None
            if i == j:
                raise InputError(f"self-loop at vertex {i}", code="value")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise InputError(f"edge {e!r} out of range for n={self.n}", code="value")
            canon.add(edge_key(i, j))
        object.__setattr__(self, "edges", frozenset(canon))

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        return cls(n, frozenset(tuple(e) for e in edges))

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def has_edge(self, i: int, j: int) -> bool:
        return edge_key(i, j) in self.edges


def cycle_graph(m: int) -> Graph:
    """The m-cycle 0-1-...-(m-1)-0."""
    if m < 3:
        raise InvalidCycleLength(f"cycle needs at least 3 vertices, got {m}")
    return Graph.from_edges(m, [(i, (i + 1) % m) for i in range(m)])


@dataclass(frozen=True)
class EliminationOrdering:
    """A perfect elimination ordering: later neighbors of each vertex form a clique."""

    order: tuple


@dataclass(frozen=True)
class InducedCycle:
    """A chordless cycle, stored once in canonical vertex order.

    Canonical form: the smallest vertex first, then the smaller of its two
    cycle neighbors, so each cycle has exactly one representative.
    """

    vertices: tuple

    def __len__(self):
        return len(self.vertices)


@dataclass(frozen=True)
class CliqueTree:
    """Maximal cliques joined into a tree whose edges carry the clique intersections.

    Built so that the running intersection property holds: the cliques
    containing any fixed vertex form a connected subtree.
    """

    cliques: tuple
    tree_edges: tuple
    separators: tuple


def _adjacency(g: Graph) -> list:
    adj = [set() for _ in range(g.n)]
    for i, j in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def _mcs_order(g: Graph, adj) -> list:
    """Maximum cardinality search visit order; ties broken by lowest index."""
    weight = [0] * g.n
    visited = [False] * g.n
    order = []
    for _ in range(g.n):
        v = max((w, -u) for u, w in enumerate(weight) if not visited[u])[1]
        v = -v
        visited[v] = True
        order.append(v)
        for u in adj[v]:
            if not visited[u]:
                weight[u] += 1
    return order


def _is_peo(g: Graph, adj, order) -> bool:
    """Check the perfect elimination property via the standard follower test."""
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [u for u in adj[v] if pos[u] > pos[v]]
        if not later:
            continue
        f = min(later, key=lambda u: pos[u])
        rest = set(later) - {f}
        if not rest <= adj[f]:
            return False
    return True


def _chordal_analysis(g: Graph):
    """Adjacency sets and, when g is chordal, a perfect elimination ordering.

    One maximum cardinality search: its reversed visit order is a perfect
    elimination ordering exactly when g is chordal. Returns ``(adj, peo)``
    with ``peo`` None on non-chordal graphs.
    """
    adj = _adjacency(g)
    peo = list(reversed(_mcs_order(g, adj)))
    return adj, (peo if _is_peo(g, adj, peo) else None)


def _maximal_cliques(g: Graph, adj, peo) -> list:
    """Maximal cliques from a ``_chordal_analysis`` result, as in maximal_cliques."""
    if peo is not None:
        pos = {v: i for i, v in enumerate(peo)}
        cands = []
        for v in peo:
            c = {v} | {u for u in adj[v] if pos[u] > pos[v]}
            cands.append(frozenset(c))
        cands.sort(key=len, reverse=True)
        kept = []
        for c in cands:
            if not any(c < k for k in kept):
                kept.append(c)
        return sorted(tuple(sorted(c)) for c in kept)

    out = []

    def expand(r, p, x):
        if not p and not x:
            out.append(tuple(sorted(r)))
            return
        pivot = max(p | x, key=lambda u: (len(p & adj[u]), -u))
        for v in sorted(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    expand(set(), set(range(g.n)), set())
    return sorted(out)


def is_chordal(g: Graph):
    """Decide chordality of g.

    Returns ``(True, EliminationOrdering)`` with a perfect elimination
    ordering, or ``(False, InducedCycle)`` with a shortest chordless cycle
    of length >= 4 as witness.
    """
    _, peo = _chordal_analysis(g)
    if peo is not None:
        return True, EliminationOrdering(tuple(peo))
    return False, shortest_induced_cycle(g)


def maximal_cliques(g: Graph) -> list:
    """All maximal cliques as sorted tuples, in sorted order.

    Chordal graphs use the elimination ordering (at most n cliques); general
    graphs fall back to Bron-Kerbosch with pivoting.
    """
    return _maximal_cliques(g, *_chordal_analysis(g))


def clique_number(g: Graph) -> int:
    return max(len(c) for c in maximal_cliques(g))


class _UnionFind:
    def __init__(self, k):
        self.parent = list(range(k))

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def clique_tree(g: Graph) -> CliqueTree:
    """Clique tree of a chordal graph via a maximum-weight spanning tree.

    Tree edges maximize total separator size, which yields the running
    intersection property. Deterministic: candidate edges are taken in
    (-weight, i, j) order.
    """
    adj, peo = _chordal_analysis(g)
    if peo is None:
        raise NotChordal("clique trees are defined for chordal graphs only")
    return _clique_tree(_maximal_cliques(g, adj, peo))


def _clique_tree(cliques: list) -> CliqueTree:
    """clique_tree from the maximal cliques of a chordal graph."""
    k = len(cliques)
    sets = [set(c) for c in cliques]
    cand = sorted(
        (-(len(sets[i] & sets[j])), i, j) for i in range(k) for j in range(i + 1, k)
    )
    uf = _UnionFind(k)
    tree_edges = []
    separators = []
    for negw, i, j in cand:
        if uf.union(i, j):
            tree_edges.append((i, j))
            separators.append(tuple(sorted(sets[i] & sets[j])))
            if len(tree_edges) == k - 1:
                break
    return CliqueTree(tuple(cliques), tuple(tree_edges), tuple(separators))


def rooted_clique_order(tree: CliqueTree):
    """Breadth-first clique ordering from the largest clique.

    Returns ``(order, parent)`` where ``order`` lists clique indices root
    first and ``parent[i]`` is the parent index (-1 for the root).
    """
    k = len(tree.cliques)
    root = max(range(k), key=lambda i: (len(tree.cliques[i]), -i))
    nbrs = [[] for _ in range(k)]
    for i, j in tree.tree_edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    for lst in nbrs:
        lst.sort()
    parent = [-1] * k
    seen = [False] * k
    seen[root] = True
    order = [root]
    q = deque([root])
    while q:
        i = q.popleft()
        for j in nbrs[i]:
            if not seen[j]:
                seen[j] = True
                parent[j] = i
                order.append(j)
                q.append(j)
    return order, parent


def _shortest_cycle_length(g: Graph, adj):
    """Length of a shortest chordless cycle >= 4, or None.

    Per-edge search: for edge (u, v), a shortest u-v path avoiding their
    common neighbors (and the edge itself) closes into a chordless cycle.
    """
    nbrs = [sorted(s) for s in adj]
    best = None
    for u, v in g.sorted_edges():
        blocked = adj[u] & adj[v]
        dist = {u: 0}
        q = deque([u])
        while q:
            x = q.popleft()
            if x == v:
                break
            for y in nbrs[x]:
                if y in dist or y in blocked:
                    continue
                if x == u and y == v:
                    continue
                dist[y] = dist[x] + 1
                q.append(y)
        if v in dist:
            length = dist[v] + 1
            if best is None or length < best:
                best = length
    return best


def induced_cycles_of_length(g: Graph, length: int, limit=None) -> list:
    """Chordless cycles of exactly the given length, in canonical lex order.

    Each cycle appears once: smallest vertex first, second entry smaller
    than the last. Stops after ``limit`` cycles when given.
    """
    if length < 4:
        raise InvalidCycleLength("induced cycles have length >= 4")
    return _induced_cycles(g, _adjacency(g), length, limit)


def _induced_cycles(g: Graph, adj, length: int, limit) -> list:
    """induced_cycles_of_length over precomputed adjacency sets."""
    nbrs = [sorted(s) for s in adj]
    found = []
    for a in range(g.n):
        # Static distance to a inside {v > a} is a lower bound used for pruning.
        dist = {a: 0}
        q = deque([a])
        while q:
            x = q.popleft()
            for y in adj[x]:
                if y > a and y not in dist:
                    dist[y] = dist[x] + 1
                    q.append(y)

        seq = [a]
        used = {a}

        def extend():
            t = len(seq)
            x = seq[-1]
            for w in nbrs[x]:
                if w <= a or w in used:
                    continue
                if t + 1 == length:
                    if a not in adj[w]:
                        continue
                    if seq[1] >= w:
                        continue
                elif t >= 2 and a in adj[w]:
                    # Interior vertices beyond position 1 may not touch the start.
                    continue
                if any(w in adj[p] for p in seq[1 : t - 1]):
                    continue
                if dist.get(w, math.inf) > length - t:
                    continue
                seq.append(w)
                used.add(w)
                if t + 1 == length:
                    found.append(InducedCycle(tuple(seq)))
                else:
                    extend()
                seq.pop()
                used.remove(w)
                if limit is not None and len(found) >= limit:
                    return

        extend()
        if limit is not None and len(found) >= limit:
            break
    return found


def shortest_induced_cycle(g: Graph):
    """A shortest chordless cycle of length >= 4, or None if the graph is chordal.

    Ties are broken by the lexicographically smallest canonical vertex list.
    """
    adj = _adjacency(g)
    length = _shortest_cycle_length(g, adj)
    if length is None:
        return None
    cycles = _induced_cycles(g, adj, length, limit=1)
    assert cycles, "per-edge search found a cycle, enumeration must too"
    return cycles[0]


def green_lazarsfeld_index(g: Graph):
    """Shortest chordless cycle length minus 3; infinity for chordal graphs."""
    cyc = shortest_induced_cycle(g)
    if cyc is None:
        return math.inf
    return len(cyc) - 3


def hankel_index(g: Graph):
    """Shortest chordless cycle length minus 2; infinity for chordal graphs.

    Always exceeds the Green-Lazarsfeld index by exactly one.
    """
    cyc = shortest_induced_cycle(g)
    if cyc is None:
        return math.inf
    return len(cyc) - 2
