import math

import numpy as np
import pytest

from psdcomplete import (
    Graph,
    NotChordal,
    NotPartiallyPositive,
    PartialSymmetricMatrix,
    PatternMismatch,
    chordal_complete,
    clique_number,
    complete_or_certify,
    cycle_extreme_ray,
    cycle_graph,
    embed_certificate,
    induced_cycles_of_length,
    is_chordal,
    maximal_cliques,
    numeric_rank,
    pair,
    partially_positive,
    pd_completion_exists,
    psd_min_eig,
    shortest_induced_cycle,
    verify_certificate,
)
from psdcomplete import completion
from psdcomplete.completion import _best_cycle_layout, _clique_block_scan

from helpers import (
    hard_cycle_instance,
    path_graph,
    petersen,
    random_chordal,
    random_graph,
    random_psd_partial,
)


def c4_patterns():
    g = cycle_graph(4)
    zeros = PartialSymmetricMatrix(4, np.ones(4), {e: 0.0 for e in g.edges})
    ones = PartialSymmetricMatrix(4, np.ones(4), {e: 1.0 for e in g.edges})
    return g, zeros, ones


def test_partial_matrix_validation():
    with pytest.raises(PatternMismatch):
        PartialSymmetricMatrix(2, np.ones(3), {})
    with pytest.raises(PatternMismatch):
        PartialSymmetricMatrix(2, np.ones(2), {(0, 0): 1.0})
    with pytest.raises(PatternMismatch):
        PartialSymmetricMatrix(2, np.array([1.0, np.nan]), {})
    g = path_graph(3)
    part = PartialSymmetricMatrix(3, np.ones(3), {(0, 1): 1.0})
    with pytest.raises(PatternMismatch):
        part.validate_against(g)  # edge (1,2) carries no value
    extra = PartialSymmetricMatrix(3, np.ones(3), {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0})
    with pytest.raises(PatternMismatch):
        extra.validate_against(g)


def test_partially_positive_examples():
    g = cycle_graph(4)
    hard = hard_cycle_instance(g)
    assert partially_positive(g, hard)
    assert not partially_positive(g, hard, strict=True)  # edge blocks are singular
    _, zeros, ones = c4_patterns()
    assert partially_positive(g, zeros, strict=True)
    assert partially_positive(g, ones)
    bad = PartialSymmetricMatrix(4, np.ones(4),
                                 {(0, 1): 2.0, (1, 2): 0.0, (2, 3): 0.0, (0, 3): 0.0})
    assert not partially_positive(g, bad)


def test_chordal_complete_forced_path():
    g = path_graph(3)
    part = PartialSymmetricMatrix(3, np.ones(3), {(0, 1): 1.0, (1, 2): 1.0})
    a, rank = chordal_complete(g, part)
    assert np.max(np.abs(a - np.ones((3, 3)))) <= 1e-8
    assert rank == 1


def test_chordal_complete_orthogonal_path():
    g = path_graph(3)
    part = PartialSymmetricMatrix(3, np.ones(3), {(0, 1): 0.0, (1, 2): 0.0})
    a, rank = chordal_complete(g, part)
    assert np.max(np.abs(np.diagonal(a) - 1.0)) <= 1e-8
    assert abs(a[0, 1]) <= 1e-8 and abs(a[1, 2]) <= 1e-8
    assert psd_min_eig(a) >= -1e-9 * 2.0
    assert rank <= clique_number(g) == 2


def test_chordal_complete_full_clique_unchanged():
    g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    b = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
    part = PartialSymmetricMatrix.from_full(g, b)
    a, rank = chordal_complete(g, part)
    assert np.max(np.abs(a - b)) <= 1e-8 * (1.0 + 2.0)
    assert rank == numeric_rank(b) == 3


def test_chordal_complete_rejects():
    g = cycle_graph(4)
    with pytest.raises(NotChordal):
        chordal_complete(g, hard_cycle_instance(g))
    p = path_graph(2)
    bad = PartialSymmetricMatrix(2, np.ones(2), {(0, 1): 2.0})
    with pytest.raises(NotPartiallyPositive) as err:
        chordal_complete(p, bad)
    assert err.value.clique == (0, 1)
    assert err.value.min_eig == pytest.approx(-1.0, abs=1e-12)


def test_chordal_complete_random_instances():
    rng = np.random.default_rng(41)
    for _ in range(60):
        n = int(rng.integers(1, 15))
        g = random_chordal(rng, n)
        rank_in = int(rng.integers(1, n + 1))
        part = random_psd_partial(rng, g, rank=rank_in)
        a, rank = chordal_complete(g, part)
        scale = 1.0 + part.max_abs()
        assert np.max(np.abs(np.diagonal(a) - part.diag)) <= 1e-8 * scale
        for (i, j), v in part.entries.items():
            assert abs(a[i, j] - v) <= 1e-8 * scale
        assert psd_min_eig(a) >= -1e-9 * scale
        assert rank <= clique_number(g)


def test_complete_or_certify_hard_c4():
    g = cycle_graph(4)
    rep = complete_or_certify(g, hard_cycle_instance(g))
    assert rep.verdict == "infeasible"
    assert rep.certificate is not None
    assert verify_certificate(rep.certificate, g)
    assert rep.separating_value == pytest.approx(-4.0 / 3.0, abs=1e-9)
    assert rep.separating_value == pytest.approx(
        pair(rep.certificate, g, hard_cycle_instance(g)), abs=1e-12
    )


def test_complete_or_certify_easy_c4():
    g, zeros, _ = c4_patterns()
    rep = complete_or_certify(g, zeros)
    assert rep.verdict == "completed"
    assert rep.rank == 4
    assert np.max(np.abs(rep.completion - np.eye(4))) <= 1e-7


def test_complete_or_certify_chordal_routes():
    g = path_graph(3)
    ok = PartialSymmetricMatrix(3, np.ones(3), {(0, 1): 1.0, (1, 2): 1.0})
    rep = complete_or_certify(g, ok)
    assert rep.verdict == "completed" and rep.rank == 1

    bad = PartialSymmetricMatrix(3, np.ones(3), {(0, 1): 2.0, (1, 2): 0.0})
    rep = complete_or_certify(g, bad)
    assert rep.verdict == "infeasible"
    assert rep.certificate is None
    assert rep.violating_clique == (0, 1)
    assert rep.separating_value == pytest.approx(-1.0, abs=1e-12)


def test_complete_or_certify_non_chordal_completable():
    rng = np.random.default_rng(43)
    for n, p in ((5, 0.5), (6, 0.4)):
        for _ in range(10):
            g = random_graph(rng, n, p)
            part = random_psd_partial(rng, g)
            rep = complete_or_certify(g, part)
            assert rep.verdict == "completed"
            scale = 1.0 + part.max_abs()
            assert np.max(np.abs(np.diagonal(rep.completion) - part.diag)) <= 1e-8 * scale
            for (i, j), v in part.entries.items():
                assert abs(rep.completion[i, j] - v) <= 1e-8 * scale


def test_every_small_nonchordal_pattern_has_infeasible_instance():
    # Constructive half of the chordality equivalence on small graphs.
    rng = np.random.default_rng(47)
    graphs = [cycle_graph(m) for m in (4, 5, 6, 7)]
    for _ in range(12):
        g = random_graph(rng, 8, p=0.35)
        if not is_chordal(g)[0]:
            graphs.append(g)
    for g in graphs:
        rep = complete_or_certify(g, hard_cycle_instance(g), max_iter=3000)
        assert rep.verdict == "infeasible"
        assert rep.certificate is not None
        assert verify_certificate(rep.certificate, g)
        assert rep.separating_value < 0.0


def test_infeasible_certificates_are_sound():
    rng = np.random.default_rng(53)
    g = cycle_graph(5)
    rep = complete_or_certify(g, hard_cycle_instance(g), max_iter=3000)
    assert rep.verdict == "infeasible"
    for _ in range(200):
        b = rng.standard_normal((5, 5))
        a = b.T @ b
        completable = PartialSymmetricMatrix.from_full(g, a)
        assert pair(rep.certificate, g, completable) >= -1e-8 * (1.0 + np.max(np.abs(a)))


def test_petersen_hard_instance_certified():
    g = petersen()
    rep = complete_or_certify(g, hard_cycle_instance(g), max_iter=3000)
    assert rep.verdict == "infeasible"
    assert rep.separating_value == pytest.approx(-1.0, abs=1e-9)  # -4/(m-1), m=5


def test_pd_exists_c4_zeros():
    g, zeros, _ = c4_patterns()
    verdict = pd_completion_exists(g, zeros)
    assert verdict.answer == "yes"
    assert psd_min_eig(verdict.witness) > 0.0
    assert numeric_rank(verdict.witness) == 4
    assert np.max(np.abs(np.diagonal(verdict.witness) - 1.0)) <= 1e-8
    for i, j in g.edges:
        assert abs(verdict.witness[i, j]) <= 1e-8


def test_pd_exists_c4_all_ones():
    g, _, ones = c4_patterns()
    verdict = pd_completion_exists(g, ones)
    assert verdict.answer == "no"
    assert verdict.failed_condition == "clique_block"


def test_pd_exists_hard_c4():
    g = cycle_graph(4)
    verdict = pd_completion_exists(g, hard_cycle_instance(g))
    assert verdict.answer == "no"
    assert verdict.failed_condition == "clique_block"


def test_pd_exists_strictly_infeasible_cycle():
    # Soften the hard pattern so every block is PD but the pairing stays negative.
    g = cycle_graph(4)
    entries = {(0, 1): 0.9, (1, 2): 0.9, (2, 3): 0.9, (0, 3): -0.9}
    part = PartialSymmetricMatrix(4, np.ones(4), entries)
    assert partially_positive(g, part, strict=True)
    verdict = pd_completion_exists(g, part)
    assert verdict.answer == "no"
    assert verdict.failed_condition == "rank_bound"


def test_pd_exists_chordal():
    g = path_graph(3)
    part = PartialSymmetricMatrix(3, np.array([1.0, 2.0, 1.0]), {(0, 1): 0.5, (1, 2): -0.5})
    verdict = pd_completion_exists(g, part)
    assert verdict.answer == "yes"
    assert psd_min_eig(verdict.witness) > 0.0
    assert np.max(np.abs(np.diagonal(verdict.witness) - part.diag)) <= 1e-8
    for (i, j), v in part.entries.items():
        assert abs(verdict.witness[i, j] - v) <= 1e-8

    singular = PartialSymmetricMatrix(3, np.ones(3), {(0, 1): 1.0, (1, 2): 0.0})
    verdict = pd_completion_exists(g, singular)
    assert verdict.answer == "no"
    assert verdict.failed_condition == "clique_block"


def test_pd_witness_agrees_with_psd_route():
    rng = np.random.default_rng(59)
    for _ in range(20):
        g = random_chordal(rng, int(rng.integers(2, 10)))
        part = random_psd_partial(rng, g)
        shifted = part.with_diag(part.diag + 0.5)  # push blocks strictly PD
        verdict = pd_completion_exists(g, shifted)
        assert verdict.answer == "yes"
        rep = complete_or_certify(g, shifted)
        assert rep.verdict == "completed"


def planted_six_cycle() -> Graph:
    """A 6-cycle with a simplicial vertex on each of three of its edges."""
    edges = [(i, (i + 1) % 6) for i in range(6)]
    for t, (i, j) in enumerate([(0, 1), (2, 3), (4, 5)]):
        edges += [(6 + t, i), (6 + t, j)]
    return Graph.from_edges(9, edges)


@pytest.mark.parametrize("make", [lambda: cycle_graph(5), petersen, planted_six_cycle])
def test_refutable_data_is_certified_without_the_search(monkeypatch, make):
    def no_search(*args, **kwargs):
        raise AssertionError("the feasibility search ran on refutable data")

    monkeypatch.setattr(completion, "affine_psd_feasibility", no_search)
    g = make()
    part = hard_cycle_instance(g)
    rep = complete_or_certify(g, part)
    assert rep.verdict == "infeasible"
    assert verify_certificate(rep.certificate, g)
    assert rep.separating_value == pair(rep.certificate, g, part)
    m = len(shortest_induced_cycle(g))
    assert rep.separating_value == pytest.approx(-4.0 / (m - 1), abs=1e-12)


def brute_best_layout(g, part, cycles):
    """Reference: every rotation and reflection, embedded and paired."""
    base = cycle_extreme_ray(len(cycles[0]))
    best_val, best_lay = math.inf, None
    for cycle in cycles:
        vs = list(cycle.vertices)
        layouts = [vs[i:] + vs[:i] for i in range(len(vs))]
        layouts += [list(reversed(lay)) for lay in layouts]
        for lay in layouts:
            val = pair(embed_certificate(base, lay, g.n), g, part)
            if val < best_val:
                best_val, best_lay = val, tuple(lay)
    return best_val, best_lay


def test_closed_form_cycle_pairing_matches_brute_force():
    networkx = pytest.importorskip("networkx")
    rng = np.random.default_rng(61)
    graphs = []
    for h in networkx.graph_atlas_g():
        if 0 < h.number_of_nodes() <= 6 and networkx.is_connected(h) \
                and not networkx.is_chordal(h):
            g = Graph.from_edges(h.number_of_nodes(), h.edges())
            graphs.append(g)
    assert len(graphs) == 61
    for g in graphs:
        cycles = induced_cycles_of_length(g, len(shortest_induced_cycle(g)), limit=64)
        random = PartialSymmetricMatrix(
            g.n, rng.uniform(0.5, 2.0, g.n), {e: rng.uniform(-1.0, 1.0) for e in g.edges}
        )
        for part in (hard_cycle_instance(g), random):
            want_val, want_lay = brute_best_layout(g, part, cycles)
            val, lay = _best_cycle_layout(part.scatter(0.0), cycles)
            assert abs(val - want_val) <= 1e-12 * (1.0 + part.max_abs())
            assert lay == want_lay


def loop_block_scan(g, part, strict, tol=1e-9):
    """Reference: one eigvalsh per maximal clique block, in clique order."""
    a = part.scatter(0.0)
    worst_clique, worst = None, math.inf
    for K in maximal_cliques(g):
        b = a[np.ix_(K, K)]
        lam = float(np.linalg.eigvalsh(b)[0])
        scale = 1.0 + float(np.max(np.abs(b)))
        if (lam <= tol * scale) if strict else (lam < -tol * scale):
            return False, K, lam
        if lam < worst:
            worst_clique, worst = K, lam
    return True, worst_clique, worst


@pytest.mark.parametrize("strict", [False, True])
def test_batched_block_scan_matches_per_block_loop(strict):
    rng = np.random.default_rng(67)
    # Cliques (0, 1), (1, 2, 3), (3, 4). Unit diagonal; an edge value v gives
    # an edge block eigenvalue 1 - |v|, and 1.5 on the triangle gives -0.5.
    g = Graph.from_edges(5, [(0, 1), (1, 2), (1, 3), (2, 3), (3, 4)])
    tri = {(1, 2): 1.5, (1, 3): 1.5, (2, 3): 1.5}
    cases = [
        (g, PartialSymmetricMatrix(5, np.ones(5), {(0, 1): 1.2, **tri, (3, 4): 0.0})),
        (g, PartialSymmetricMatrix(5, np.ones(5), {(0, 1): 0.0, **tri, (3, 4): 3.0})),
        (g, PartialSymmetricMatrix(5, np.ones(5), {(0, 1): 1.0, (1, 2): 0.0, (1, 3): 0.0,
                                                   (2, 3): 0.0, (3, 4): 0.5})),
    ]
    for _ in range(20):
        h = random_graph(rng, int(rng.integers(3, 10)), 0.5)
        cases.append((h, random_psd_partial(rng, h, rank=int(rng.integers(1, h.n + 1)))))
        k = random_chordal(rng, int(rng.integers(3, 12)))
        cases.append((k, random_psd_partial(rng, k)))
    for h, part in cases:
        a = part.scatter(0.0)
        assert _clique_block_scan(a, maximal_cliques(h), strict, 1e-9) == \
            loop_block_scan(h, part, strict)
    # Two violating cliques: the first in sorted order is reported, not the worst.
    assert _clique_block_scan(cases[0][1].scatter(0.0), maximal_cliques(g), strict,
                              1e-9)[:2] == (False, (0, 1))
    assert _clique_block_scan(cases[1][1].scatter(0.0), maximal_cliques(g), strict,
                              1e-9)[:2] == (False, (1, 2, 3))
