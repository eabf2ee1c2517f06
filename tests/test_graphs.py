import math
from itertools import combinations

import networkx as nx
import numpy as np
import pytest

from psdcomplete import (
    Graph,
    InputError,
    InvalidCycleLength,
    NotChordal,
    clique_number,
    clique_tree,
    cycle_graph,
    green_lazarsfeld_index,
    hankel_index,
    induced_cycles_of_length,
    is_chordal,
    maximal_cliques,
    rooted_clique_order,
    shortest_induced_cycle,
)
from psdcomplete import graphs

from helpers import (
    all_graphs,
    brute_is_chordal,
    brute_maximal_cliques,
    brute_mcs_order,
    brute_shortest_chordless_cycle_length,
    complete_graph,
    path_graph,
    petersen,
    random_chordal,
    random_graph,
)


def test_graph_validation():
    g = Graph.from_edges(3, [(0, 1), (1, 0), (1, 2)])
    assert g.sorted_edges() == [(0, 1), (1, 2)]
    with pytest.raises(InputError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(InputError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(InputError):
        Graph(0)
    for make in (lambda: Graph(True), lambda: Graph.from_edges(3, [(0, 1, 2)]),
                 lambda: Graph.from_edges(3, [5])):
        with pytest.raises(InputError) as exc:
            make()
        assert exc.value.code == "schema"


def test_triangle_is_chordal():
    flag, witness = is_chordal(complete_graph(3))
    assert flag
    assert sorted(witness) == [0, 1, 2]


def test_c4_not_chordal_with_cycle_witness():
    flag, witness = is_chordal(cycle_graph(4))
    assert not flag
    assert witness.vertices == (0, 1, 2, 3)


def test_c4_plus_chord_is_chordal():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    flag, witness = is_chordal(g)
    assert flag
    _check_elimination_ordering(g, witness)


def _check_elimination_ordering(g, order):
    assert sorted(order) == list(range(g.n))
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [u for u in range(g.n) if g.has_edge(u, v) and pos[u] > pos[v]]
        for a in later:
            for b in later:
                if a < b:
                    assert g.has_edge(a, b), f"order {order} not perfect at {v}"


def test_elimination_ordering_on_random_chordal_graphs():
    rng = np.random.default_rng(7)
    for _ in range(60):
        g = random_chordal(rng, int(rng.integers(1, 14)))
        flag, witness = is_chordal(g)
        assert flag
        _check_elimination_ordering(g, witness)


def test_search_order_matches_brute_force():
    # The tie-break fixes the elimination ordering and the clique order.
    rng = np.random.default_rng(41)
    for t in range(120):
        n = int(rng.integers(1, 41))
        if t % 2:
            g = random_chordal(rng, n, attach_hi=int(rng.integers(1, 9)))
        else:
            g = random_graph(rng, n, p=float(rng.uniform(0.05, 0.6)))
        assert graphs._mcs_order(g)[0] == brute_mcs_order(g)


def test_chordality_matches_brute_force_exhaustive_small():
    for n in range(1, 6):
        for g in all_graphs(n):
            flag, witness = is_chordal(g)
            assert flag == brute_is_chordal(g)
            if not flag:
                assert len(witness.vertices) >= 4


def test_chordality_matches_brute_force_random_n8():
    rng = np.random.default_rng(11)
    for _ in range(200):
        g = random_graph(rng, 8, p=float(rng.uniform(0.1, 0.9)))
        flag, _ = is_chordal(g)
        assert flag == brute_is_chordal(g)


def test_maximal_cliques_examples():
    assert maximal_cliques(cycle_graph(4)) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert maximal_cliques(complete_graph(4)) == [(0, 1, 2, 3)]
    assert maximal_cliques(path_graph(3)) == [(0, 1), (1, 2)]
    assert maximal_cliques(Graph(3)) == [(0,), (1,), (2,)]


def test_maximal_cliques_match_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(80):
        g = random_graph(rng, int(rng.integers(1, 8)), p=float(rng.uniform(0.2, 0.9)))
        assert maximal_cliques(g) == brute_maximal_cliques(g)
    for _ in range(40):
        g = random_chordal(rng, int(rng.integers(1, 10)))
        assert maximal_cliques(g) == brute_maximal_cliques(g)


def test_clique_number():
    assert clique_number(complete_graph(5)) == 5
    assert clique_number(cycle_graph(6)) == 2
    assert clique_number(Graph(4)) == 1


def test_clique_tree_two_triangles():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    tree = clique_tree(g)
    assert tree.cliques == ((0, 1, 2), (1, 2, 3))
    assert tree.tree_edges == ((0, 1),)
    assert tree.separators == ((1, 2),)


def test_clique_tree_requires_chordal():
    with pytest.raises(NotChordal):
        clique_tree(cycle_graph(5))


def _check_running_intersection(g, tree):
    # Cliques cover all vertices and edges.
    covered_vertices = set()
    for c in tree.cliques:
        covered_vertices.update(c)
    assert covered_vertices == set(range(g.n))
    for i, j in g.edges:
        assert any(i in c and j in c for c in (set(c) for c in tree.cliques))
    # Root level first, as Gram propagation walks it: each clique meets the
    # union of the earlier ones inside one clique of the level above, and two
    # cliques of one level share only vertices of earlier levels.
    levels = rooted_clique_order(tree)
    assert len(levels[0]) == 1
    order = [idx for level in levels for idx in level]
    assert sorted(order) == list(range(len(tree.cliques)))
    seen = set()
    for d, level in enumerate(levels):
        for idx in level:
            c = set(tree.cliques[idx])
            if d:
                assert any(c & seen <= set(tree.cliques[j]) for j in levels[d - 1])
        for i, j in combinations(level, 2):
            assert set(tree.cliques[i]) & set(tree.cliques[j]) <= seen
        for idx in level:
            seen |= set(tree.cliques[idx])


def _check_maximum_weight(tree):
    # Oracle: a maximum spanning tree of the clique intersection graph, built
    # over all clique pairs (empty intersections weigh 0, which joins
    # components).
    cliques = [set(c) for c in tree.cliques]
    inter = nx.Graph()
    inter.add_nodes_from(range(len(cliques)))
    inter.add_weighted_edges_from(
        (i, j, len(cliques[i] & cliques[j])) for i, j in combinations(range(len(cliques)), 2))
    best = nx.maximum_spanning_tree(inter).size(weight="weight")
    assert len(tree.tree_edges) == len(cliques) - 1
    assert list(tree.tree_edges) == sorted(tree.tree_edges)
    for (i, j), sep in zip(tree.tree_edges, tree.separators):
        assert i < j
        assert sep == tuple(sorted(cliques[i] & cliques[j]))
    assert sum(len(sep) for sep in tree.separators) == best


def test_clique_tree_running_intersection_random():
    rng = np.random.default_rng(17)
    patterns = [Graph(1), Graph(4), Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])]
    patterns += [random_chordal(rng, int(rng.integers(1, 16))) for _ in range(60)]
    patterns += [random_chordal(rng, int(rng.integers(16, 41)),
                                attach_hi=int(rng.integers(1, 9))) for _ in range(40)]
    # An empty anchor leaves random_chordal disconnected, so empty separators occur.
    assert any(() in clique_tree(g).separators for g in patterns[3:])
    for g in patterns:
        tree = clique_tree(g)
        _check_running_intersection(g, tree)
        _check_maximum_weight(tree)


def test_shortest_induced_cycle_examples():
    assert shortest_induced_cycle(cycle_graph(6)).vertices == (0, 1, 2, 3, 4, 5)
    assert shortest_induced_cycle(path_graph(5)) is None
    assert shortest_induced_cycle(complete_graph(6)) is None


def test_petersen_shortest_cycle_is_5():
    g = petersen()
    # Independent oracle first: frozen value 5.
    assert brute_shortest_chordless_cycle_length(g) == 5
    cyc = shortest_induced_cycle(g)
    assert len(cyc) == 5
    assert cyc.vertices == (0, 1, 2, 3, 4)


def test_petersen_has_twelve_5cycles():
    cycles = induced_cycles_of_length(petersen(), 5)
    assert len(cycles) == 12
    assert len({frozenset(c.vertices) for c in cycles}) == 12


def test_induced_cycles_canonical_and_chordless():
    rng = np.random.default_rng(23)
    for _ in range(60):
        g = random_graph(rng, 8, p=float(rng.uniform(0.15, 0.75)))
        brute = brute_shortest_chordless_cycle_length(g)
        cyc = shortest_induced_cycle(g)
        if brute is None:
            assert cyc is None
            continue
        assert len(cyc) == brute
        vs = cyc.vertices
        assert vs[0] == min(vs)
        assert vs[1] < vs[-1]
        m = len(vs)
        for s in range(m):
            for t in range(s + 1, m):
                adjacent = (t - s == 1) or (s == 0 and t == m - 1)
                assert g.has_edge(vs[s], vs[t]) == adjacent


def test_induced_cycle_enumeration_matches_brute_sets():
    rng = np.random.default_rng(29)
    for _ in range(40):
        g = random_graph(rng, 7, p=float(rng.uniform(0.2, 0.7)))
        from helpers import brute_chordless_cycle_sets

        brute = brute_chordless_cycle_sets(g)
        for length in range(4, 8):
            mine = induced_cycles_of_length(g, length)
            expected = {s for s in brute if len(s) == length}
            assert {frozenset(c.vertices) for c in mine} == expected


def test_induced_cycles_rejects_short_lengths():
    with pytest.raises(InvalidCycleLength):
        induced_cycles_of_length(cycle_graph(4), 3)


@pytest.mark.parametrize("m", range(4, 13))
def test_cycle_indices(m):
    g = cycle_graph(m)
    assert green_lazarsfeld_index(g) == m - 3
    assert hankel_index(g) == m - 2


def test_chordal_indices_are_infinite():
    g = path_graph(6)
    assert green_lazarsfeld_index(g) == math.inf
    assert hankel_index(g) == math.inf


def test_hankel_exceeds_gl_by_one():
    rng = np.random.default_rng(31)
    for _ in range(40):
        g = random_graph(rng, int(rng.integers(2, 10)))
        assert hankel_index(g) == green_lazarsfeld_index(g) + 1


def test_determinism():
    rng = np.random.default_rng(37)
    for _ in range(20):
        g = random_graph(rng, 9, p=0.4)
        assert is_chordal(g) == is_chordal(g)
        assert maximal_cliques(g) == maximal_cliques(g)
        c1, c2 = shortest_induced_cycle(g), shortest_induced_cycle(g)
        assert (c1 is None and c2 is None) or c1.vertices == c2.vertices
