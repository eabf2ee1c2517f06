"""A Graph analyses itself once: every public entry point reads the same cache."""

import json
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from psdcomplete import (
    CompletionReport,
    ExtremeRayCertificate,
    Graph,
    MomentOperator,
    PartialSymmetricMatrix,
    PDExistenceVerdict,
    canonical_dumps,
    chordal_complete,
    clique_number,
    clique_tree,
    complete_or_certify,
    cycle_extreme_ray,
    cycle_graph,
    dump_graph,
    green_lazarsfeld_index,
    hankel_index,
    is_chordal,
    maximal_cliques,
    pd_completion_exists,
    rooted_clique_order,
    shortest_induced_cycle,
)
from psdcomplete import completion, graphs, linalg
from psdcomplete.cli import main

from helpers import hard_cycle_instance, petersen, random_chordal, random_psd_partial


@pytest.fixture
def calls(monkeypatch):
    """Counts of the maximum cardinality search, the shortest-cycle search and
    the enumeration of shortest chordless cycles."""
    counts = Counter()
    for name in ("_mcs_order", "_shortest_cycle_length", "induced_cycles_of_length"):
        fn = getattr(graphs, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        for mod in (graphs, completion):
            if vars(mod).get(name) is fn:
                monkeypatch.setattr(mod, name, counted)
    return counts


def _query_all(g):
    is_chordal(g)
    maximal_cliques(g)
    clique_number(g)
    shortest_induced_cycle(g)
    green_lazarsfeld_index(g)
    hankel_index(g)


def test_non_chordal_graph_is_analysed_once(calls):
    part = hard_cycle_instance(petersen())
    calls.clear()
    g = petersen()
    _query_all(g)
    for _ in range(2):
        assert complete_or_certify(g, part).verdict == "infeasible"
        assert pd_completion_exists(g, part).answer == "no"
    _query_all(g)
    assert calls == {"_mcs_order": 1, "_shortest_cycle_length": 1,
                     "induced_cycles_of_length": 1}


def test_chordal_graph_is_analysed_once(calls):
    rng = np.random.default_rng(5)
    g = random_chordal(rng, 12)
    part = random_psd_partial(rng, g)
    _query_all(g)
    clique_tree(g)
    for _ in range(2):
        assert complete_or_certify(g, part).verdict == "completed"
        assert pd_completion_exists(g, part).answer == "yes"
        chordal_complete(g, part)
    _query_all(g)
    clique_tree(g)
    # The elimination ordering already proves that no chordless cycle exists.
    assert calls == {"_mcs_order": 1}


def test_chordal_blocks_are_decomposed_once(monkeypatch):
    """The block scan's stacked eigh is the only decomposition of the clique
    blocks, and only the scattered data and the result are symmetry-checked."""
    counts = Counter()

    def count(mod, name):
        fn = getattr(mod, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    for name in ("gram_factor", "check_symmetric"):
        for mod in (linalg, completion):
            if name in vars(mod):
                count(mod, name)
    count(np.linalg, "eigh")

    rng = np.random.default_rng(5)
    g = random_chordal(rng, 12)
    part = random_psd_partial(rng, g)
    sizes = len({len(K) for K in maximal_cliques(g)})
    assert sizes > 1
    for run in (complete_or_certify, pd_completion_exists):
        counts.clear()
        run(g, part)
        assert counts["gram_factor"] == 0
        assert counts["eigh"] <= sizes
        assert counts["check_symmetric"] <= 2


def test_chordal_propagation_makes_one_svd_per_level(monkeypatch):
    """Gram propagation aligns a whole clique-tree level with one stacked SVD."""
    svds = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        svds.append(1)
        return svd(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted)
    rng = np.random.default_rng(5)
    g = random_chordal(rng, 30)
    part = random_psd_partial(rng, g)
    levels = len(rooted_clique_order(clique_tree(g)))
    assert levels < len(maximal_cliques(g))
    for run in (complete_or_certify, pd_completion_exists):
        svds.clear()
        run(g, part)
        assert 0 < len(svds) <= levels


@pytest.fixture
def decompositions(monkeypatch):
    """(name, operand shape) of every eigh, eigvalsh and svd, in call order."""
    seen = []
    for name in ("eigh", "eigvalsh", "svd"):
        def recorded(a, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            seen.append((_name, np.shape(a)))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recorded)
    return seen


def test_chordal_completion_decomposes_nothing_larger_than_a_clique(decompositions):
    rng = np.random.default_rng(5)
    g = random_chordal(rng, 30)
    omega = clique_number(g)
    assert omega < g.n
    for r in (0, 1, 3, g.n):
        decompositions.clear()
        rep = complete_or_certify(g, random_psd_partial(rng, g, rank=r))
        assert rep.verdict == "completed"
        assert decompositions
        assert all(max(shape[-2:]) <= omega for _, shape in decompositions)


def test_zero_fill_completion_is_decomposed_once(decompositions):
    g = petersen()
    part = PartialSymmetricMatrix(g.n, np.full(g.n, 4.0), {e: 1.0 for e in g.edges})
    rep = complete_or_certify(g, part)
    assert rep.verdict == "completed"
    assert np.array_equal(rep.completion, part.scatter())
    full = [(name, shape) for name, shape in decompositions if shape[-2:] == (g.n, g.n)]
    assert full == [("eigvalsh", (g.n, g.n))]


def test_analyze_graph_analyses_once(calls, capsys, tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(canonical_dumps(dump_graph(petersen())))
    assert main(["analyze-graph", "--graph", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["hankel_index"] == 3
    assert calls == {"_mcs_order": 1, "_shortest_cycle_length": 1,
                     "induced_cycles_of_length": 1}


def test_returned_lists_do_not_alias_the_cache():
    g = cycle_graph(5)
    first = maximal_cliques(g)
    want = list(first)
    first.append((0, 2))
    first.sort(reverse=True)
    assert maximal_cliques(g) == want


def test_analysed_graph_equals_and_hashes_like_a_fresh_one():
    rng = np.random.default_rng(5)
    chordal = random_chordal(rng, 12)
    data = {petersen().n: hard_cycle_instance(petersen()),
            chordal.n: random_psd_partial(rng, chordal)}
    for make in (petersen, lambda: Graph.from_edges(chordal.n, chordal.edges)):
        g = make()
        _query_all(g)
        part = data[g.n]
        complete_or_certify(g, part)
        pd_completion_exists(g, part)
        fresh = make()
        assert g == fresh
        assert hash(g) == hash(fresh)
        assert repr(g) == repr(fresh)
        assert {fresh: "pattern"}[g] == "pattern"
        # The data's cached slots are not a field either.
        same = PartialSymmetricMatrix(part.n, part.diag, part.entries)
        assert "_slots" in vars(part) and "_slots" not in vars(same)
        assert repr(part) == repr(same)
    assert [f.name for f in fields(PartialSymmetricMatrix)] == ["n", "diag", "entries"]
    # The data compare by identity; their fields agree with a fresh copy's.
    part, same = (PartialSymmetricMatrix(1, [2.0], {}) for _ in range(2))
    assert part.scatter()[0, 0] == part.max_abs() == 2.0
    assert "_slots" in vars(part) and part != same
    assert (part.n, part.entries) == (same.n, same.entries)
    assert np.array_equal(part.diag, same.diag)


def test_array_holding_types_compare_and_hash_by_identity():
    rng = np.random.default_rng(9)
    g = random_chordal(rng, 8)
    data = random_psd_partial(rng, g)
    makers = {
        PartialSymmetricMatrix: lambda: PartialSymmetricMatrix(data.n, data.diag, data.entries),
        CompletionReport: lambda: complete_or_certify(g, data),
        PDExistenceVerdict: lambda: pd_completion_exists(g, data),
        ExtremeRayCertificate: lambda: cycle_extreme_ray(5),
        MomentOperator: lambda: MomentOperator(np.eye(6), 3, 2),
    }
    for cls, make in makers.items():
        a, b = make(), make()
        assert type(a) is cls and type(b) is cls
        assert a == a and not a != a
        assert a != b and not a == b
        assert hash(a) == hash(a)
        table = {a: "a", b: "b"}
        assert len(table) == 2 and table[a] == "a" and table[b] == "b"
