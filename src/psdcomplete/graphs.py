"""Undirected graphs: chordality, cliques, clique trees, induced cycles, index bounds.

Vertices are 0..n-1. Edges are unordered pairs stored as sorted tuples.
All algorithms break ties deterministically (lowest vertex index first),
so repeated runs produce identical witnesses.
"""

from __future__ import annotations

import heapq
import math
import operator
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InputError, InvalidCycleLength, NotChordal

__all__ = [
    "Graph",
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

# Shortest chordless cycles a Graph keeps, in canonical order; the cycle
# certificate of the completion module tries each of them.
_CYCLE_LIMIT = 64


def index_pair(e) -> tuple[int, int]:
    """The pair e as two ints by operator.index; TypeError or ValueError when e
    is not a pair, or holds a bool or a non-integer."""
    i, j = e
    if isinstance(i, bool) or isinstance(j, bool):
        raise TypeError(f"{e!r} holds a bool")
    return operator.index(i), operator.index(j)


def edge_key(i: int, j: int) -> tuple[int, int]:
    """Canonical (min, max) form of an undirected edge."""
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with a deduplicated edge set.

    The pattern's analysis is fixed by the graph alone, so each part is
    computed on first use and cached on the instance. The caches are not
    fields: equality and hashing see only ``n`` and ``edges``. One maximum
    cardinality search yields the ``peo``, and on a chordal graph also its
    ``cliques`` and ``clique_tree``.

    - ``adjacency``: the neighbour set of each vertex, a tuple of frozensets.
    - ``peo``: a perfect elimination ordering (tuple), None when not chordal.
    - ``cliques``: the maximal cliques as sorted tuples, in sorted order;
      read off the search when chordal, Bron-Kerbosch otherwise.
    - ``clique_tree``: the ``CliqueTree``, None when not chordal.
    - ``_cliques_by_size`` and ``_clique_levels``: the cliques as read-only
      index arrays, grouped for the completion module's clique-block scan
      and Gram propagation.
    - ``shortest_cycles``: the first 64 shortest chordless cycles
      (``InducedCycle``) in canonical order, empty when chordal; the ``peo``
      proves that at once, so a chordal graph never runs the cycle search.
    - ``shortest_cycle``: the first of them, None when chordal.
    """

    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1:
            raise InputError("vertex count must be a positive integer", code="schema")
        canon = set()
        for e in self.edges:
            try:
                i, j = index_pair(e)
            except (TypeError, ValueError):
                raise InputError(f"edge {e!r} is not a pair of integers",
                                 code="schema") from None
            if i == j:
                raise InputError(f"self-loop at vertex {i}", code="value")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise InputError(f"edge {e!r} out of range for n={self.n}", code="value")
            canon.add(edge_key(i, j))
        object.__setattr__(self, "edges", frozenset(canon))

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        try:
            edges = frozenset(tuple(e) for e in edges)
        except TypeError:
            raise InputError("edges must be an iterable of pairs", code="schema") from None
        return cls(n, edges)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def has_edge(self, i: int, j: int) -> bool:
        return edge_key(i, j) in self.edges

    @cached_property
    def adjacency(self) -> tuple:
        adj = [set() for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return tuple(frozenset(s) for s in adj)

    @cached_property
    def _search(self):
        return _mcs_order(self)

    @cached_property
    def peo(self):
        # The reversed maximum cardinality search order is a perfect
        # elimination ordering exactly when the graph is chordal.
        peo = tuple(reversed(self._search[0]))
        return peo if _is_peo(self, peo) else None

    @cached_property
    def cliques(self) -> tuple:
        if self.peo is None:
            return tuple(_maximal_cliques(self))
        return tuple(sorted(tuple(sorted(c)) for c in self._search[1]))

    @cached_property
    def clique_tree(self):
        # Each clique the search started hangs from its parent clique; the
        # edges are renumbered into the sorted clique order.
        if self.peo is None:
            return None
        _, found, parent = self._search
        cliques = self.cliques
        index = {c: t for t, c in enumerate(cliques)}
        key = [index[tuple(sorted(c))] for c in found]
        tree_edges = sorted(edge_key(key[t], key[p]) for t, p in enumerate(parent) if p >= 0)
        separators = (tuple(sorted(set(cliques[i]) & set(cliques[j]))) for i, j in tree_edges)
        return CliqueTree(cliques, tuple(tree_edges), tuple(separators))

    @cached_property
    def _cliques_by_size(self) -> tuple:
        # Per clique size, in order of first appearance: the clique indices
        # and the cliques' vertices, one row each.
        by_size = {}
        for t, K in enumerate(self.cliques):
            by_size.setdefault(len(K), []).append(t)
        return tuple((_frozen(idx), _frozen([self.cliques[t] for t in idx]))
                     for idx in by_size.values())

    @cached_property
    def _clique_levels(self) -> tuple:
        # Per level of rooted_clique_order: its clique indices, and each
        # clique's vertices padded with n to the level's largest clique.
        cliques = self.clique_tree.cliques
        out = []
        for level in rooted_clique_order(self.clique_tree):
            width = max(len(cliques[t]) for t in level)
            rows = [cliques[t] + (self.n,) * (width - len(cliques[t])) for t in level]
            out.append((_frozen(level), _frozen(rows)))
        return tuple(out)

    @cached_property
    def shortest_cycles(self) -> tuple:
        if self.peo is not None:
            return ()
        length = _shortest_cycle_length(self)
        return tuple(induced_cycles_of_length(self, length, limit=_CYCLE_LIMIT))

    @cached_property
    def shortest_cycle(self):
        return self.shortest_cycles[0] if self.shortest_cycles else None


def _frozen(rows) -> np.ndarray:
    """rows as a read-only integer array, safe to share between calls."""
    a = np.array(rows, dtype=np.intp)
    a.flags.writeable = False
    return a


def cycle_graph(m: int) -> Graph:
    """The m-cycle 0-1-...-(m-1)-0."""
    if m < 3:
        raise InvalidCycleLength(f"cycle needs at least 3 vertices, got {m}")
    return Graph.from_edges(m, [(i, (i + 1) % m) for i in range(m)])


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

    ``cliques`` are sorted tuples in sorted order; ``tree_edges`` are sorted
    ``(i, j)`` index pairs with ``i < j``, and ``separators[t]`` is the sorted
    intersection of the two cliques of ``tree_edges[t]``. The running
    intersection property holds: the cliques containing any fixed vertex form
    a connected subtree. The cliques of different components are joined by
    edges with empty separators, so the tree always spans every clique.
    """

    cliques: tuple
    tree_edges: tuple
    separators: tuple


def _mcs_order(g: Graph) -> tuple:
    """Maximum cardinality search, split into cliques as it numbers the vertices.

    The next vertex has the most numbered neighbours, ties broken by lowest
    index; a heap with lazy deletion finds it. Following Blair-Peyton, a
    vertex with no more numbered neighbours than the vertex before it starts
    a new clique of itself and those neighbours, whose parent is the clique
    of the neighbour numbered last, or the previous clique when there is
    none; any other vertex joins the current clique. On a chordal graph the
    cliques are exactly the maximal cliques and the parents form a clique
    tree.

    Returns (visit order, cliques as vertex lists, parent clique index or -1).
    """
    adj = g.adjacency
    weight = [0] * g.n
    pos = [-1] * g.n
    heap = [(0, v) for v in range(g.n)]
    order, cliques, parent, home = [], [], [], [0] * g.n
    prev = 0
    while heap:
        w, v = heapq.heappop(heap)
        if pos[v] >= 0 or -w != weight[v]:
            continue
        numbered = [u for u in adj[v] if pos[u] >= 0]
        if len(numbered) <= prev:
            parent.append(home[max(numbered, key=pos.__getitem__)] if numbered
                          else len(cliques) - 1)
            cliques.append([v] + numbered)
        else:
            cliques[-1].append(v)
        home[v] = len(cliques) - 1
        prev = len(numbered)
        pos[v] = len(order)
        order.append(v)
        for u in adj[v]:
            if pos[u] < 0:
                weight[u] += 1
                heapq.heappush(heap, (-weight[u], u))
    return order, cliques, parent


def _is_peo(g: Graph, order) -> bool:
    """Check the perfect elimination property via the standard follower test."""
    adj = g.adjacency
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


def _maximal_cliques(g: Graph) -> list:
    """Maximal cliques of a non-chordal graph as in maximal_cliques, by
    Bron-Kerbosch with pivoting. Chordal graphs read theirs off the search."""
    adj = g.adjacency
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

    Returns ``(True, peo)`` with a perfect elimination ordering (a tuple
    of vertices), or ``(False, InducedCycle)`` with a shortest chordless cycle
    of length >= 4 as witness.
    """
    if g.peo is not None:
        return True, g.peo
    return False, g.shortest_cycle


def maximal_cliques(g: Graph) -> list:
    """All maximal cliques as sorted tuples, in sorted order."""
    return list(g.cliques)


def clique_number(g: Graph) -> int:
    return max(len(c) for c in g.cliques)


def clique_tree(g: Graph) -> CliqueTree:
    """Clique tree of a chordal graph, read off its maximum cardinality search.

    Every clique tree is a maximum-weight spanning tree of the clique
    intersection graph (weights are separator sizes) and has the running
    intersection property.
    """
    if g.clique_tree is None:
        raise NotChordal("clique trees are defined for chordal graphs only")
    return g.clique_tree


def rooted_clique_order(tree: CliqueTree) -> list:
    """Breadth-first levels of the clique tree rooted at the largest clique:
    a list of lists of clique indices, the root's level first.

    Each clique meets the union of the cliques before it inside its tree
    parent, which lies one level up. By the running intersection property,
    two cliques of one level share only vertices of earlier levels.
    """
    k = len(tree.cliques)
    root = max(range(k), key=lambda i: (len(tree.cliques[i]), -i))
    nbrs = [[] for _ in range(k)]
    for i, j in tree.tree_edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    for lst in nbrs:
        lst.sort()
    seen = [False] * k
    seen[root] = True
    levels = [[root]]
    while True:
        nxt = []
        for i in levels[-1]:
            for j in nbrs[i]:
                if not seen[j]:
                    seen[j] = True
                    nxt.append(j)
        if not nxt:
            return levels
        levels.append(nxt)


def _shortest_cycle_length(g: Graph):
    """Length of a shortest chordless cycle >= 4, or None.

    Per-edge search: for edge (u, v), a shortest u-v path avoiding their
    common neighbors (and the edge itself) closes into a chordless cycle.
    """
    adj = g.adjacency
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
    adj = g.adjacency
    nbrs = [sorted(s) for s in adj]
    found = []
    for a in range(g.n):
        # The smallest vertex of a chordless cycle has two non-adjacent
        # neighbours above it, so a vertex whose higher neighbours form a
        # clique starts none.
        up = [u for u in nbrs[a] if u > a]
        if all(v in adj[u] for t, u in enumerate(up) for v in up[t + 1:]):
            continue
        # Static distance to a inside {v > a} is a lower bound used for
        # pruning. A vertex of the cycle lies within length // 2 of a, so the
        # search stops there and farther vertices count as unreachable.
        dist = {a: 0}
        q = deque([a])
        while q:
            x = q.popleft()
            if dist[x] == length // 2:
                continue
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
    return g.shortest_cycle


def green_lazarsfeld_index(g: Graph):
    """Shortest chordless cycle length minus 3; infinity for chordal graphs."""
    cyc = g.shortest_cycle
    return math.inf if cyc is None else len(cyc) - 3


def hankel_index(g: Graph):
    """Shortest chordless cycle length minus 2; infinity for chordal graphs.

    Always exceeds the Green-Lazarsfeld index by exactly one.
    """
    cyc = g.shortest_cycle
    return math.inf if cyc is None else len(cyc) - 2
