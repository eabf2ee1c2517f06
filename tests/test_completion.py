import itertools
import math
from collections import Counter

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
    clique_tree,
    complete_or_certify,
    completion_residual,
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
    rooted_clique_order,
    shortest_induced_cycle,
    verify_certificate,
)
from psdcomplete import affine_psd_feasibility, completion
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
    with pytest.raises(PatternMismatch):
        PartialSymmetricMatrix(2.0, np.ones(2), {})
    for entries in ({(0.0, 1): 0.5}, {(True, 2): 0.5, (0, 1): 0.5}):
        with pytest.raises(PatternMismatch):
            PartialSymmetricMatrix(3, np.ones(3), entries)
    g = path_graph(3)
    part = PartialSymmetricMatrix(3, np.ones(3), {(0, 1): 1.0})
    with pytest.raises(PatternMismatch):
        part.validate_against(g)  # edge (1,2) carries no value
    extra = PartialSymmetricMatrix(3, np.ones(3), {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0})
    with pytest.raises(PatternMismatch):
        extra.validate_against(g)


def loop_scatter(part):
    """Reference: the data scattered entry by entry."""
    a = np.zeros((part.n, part.n))
    np.fill_diagonal(a, part.diag)
    for (i, j), v in part.entries.items():
        a[i, j] = a[j, i] = v
    return a


def loop_residual(part, a):
    """Reference: the largest deviation from the data, entry by entry."""
    dev = float(np.max(np.abs(np.diagonal(a) - part.diag)))
    for (i, j), v in part.entries.items():
        dev = max(dev, abs(float(a[i, j]) - v))
    return dev


def test_cached_slots_match_entry_loops():
    rng = np.random.default_rng(83)
    cases = [PartialSymmetricMatrix(1, [-2.5], {}), c4_patterns()[2]]
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(2, 9)), 0.5)
        # Entries in random key order and orientation; the slots sort them.
        edges = [g.sorted_edges()[t] for t in rng.permutation(len(g.edges))]
        entries = {(e[::-1] if rng.random() < 0.5 else e): float(rng.normal())
                   for e in edges}
        cases.append(PartialSymmetricMatrix(g.n, rng.normal(size=g.n), entries))
    for part in cases:
        a = part.scatter()
        assert np.array_equal(a, loop_scatter(part))
        assert np.array_equal(a, a.T)
        want = max([abs(v) for v in part.entries.values()] + [float(np.max(np.abs(part.diag)))])
        assert part.max_abs() == want
        other = a + rng.normal(size=a.shape) * 1e-3
        assert completion_residual(part, other) == loop_residual(part, other)
        assert completion_residual(part, a) == 0.0
        # The scattered matrix is new on every call; the cached slots are read-only.
        a[0, 0] = 99.0
        assert np.array_equal(part.scatter(), loop_scatter(part))
        for x in part._slots:
            with pytest.raises(ValueError):
                x[0] = 1
    with pytest.raises(PatternMismatch):
        completion_residual(cases[1], np.eye(5))
    # The diagonal is a read-only copy: neither the caller's array nor the
    # data's own can change the data after its slots were cached.
    d = np.ones(3)
    part = PartialSymmetricMatrix(3, d, {(0, 1): 0.5})
    want = part.scatter()
    d[0] = 5.0
    with pytest.raises(ValueError):
        part.diag[1] = 5.0
    assert np.array_equal(part.scatter(), want)


def test_mutated_completion_leaves_the_next_call_unchanged():
    rng = np.random.default_rng(89)
    g, zeros, _ = c4_patterns()
    k = random_chordal(rng, 10)
    for h, part in ((g, zeros), (k, random_psd_partial(rng, k, rank=2))):
        first = complete_or_certify(h, part)
        want = first.completion.copy()
        first.completion[...] = 7.0
        again = complete_or_certify(h, part)
        assert np.array_equal(again.completion, want)
        assert again.rank == first.rank


def search_path(g, part, tol):
    """Which check the search ends on: the zero fill's, or after Newton."""
    scale = 1.0 + part.max_abs()
    zero_fill = np.linalg.eigvalsh(part.scatter())[0] >= -10 * tol * scale
    return "zero-fill" if zero_fill else "newton"


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
def test_reported_rank_is_numeric_rank_of_the_completion(tol):
    rng = np.random.default_rng(97)
    cases = []
    for _ in range(12):
        g = random_chordal(rng, int(rng.integers(2, 16)))
        for r in sorted({0, 1, g.n // 2, g.n}):
            cases.append((g, random_psd_partial(rng, g, rank=r)))
    for g in EDGE_CASE_PATTERNS.values():
        for r in sorted({0, 1, g.n}):
            cases.append((g, random_psd_partial(rng, g, rank=r)))
    chordal = len(cases)
    while len(cases) < chordal + 16:
        g = random_graph(rng, int(rng.integers(4, 9)), 0.5)
        if is_chordal(g)[0]:
            continue
        # Diagonally dominant data passes the zero-fill check as it stands;
        # rank-2 Gram data has only singular completions, found by Newton.
        dominant = PartialSymmetricMatrix(
            g.n, g.n + rng.uniform(0.0, 1.0, g.n), {e: rng.uniform(-1, 1) for e in g.edges})
        cases += [(g, dominant), (g, random_psd_partial(rng, g, rank=2))]
    paths = Counter()
    for t, (g, part) in enumerate(cases):
        rep = complete_or_certify(g, part, tol)
        assert rep.verdict in ("completed", "undetermined")
        if t < chordal:
            assert rep.verdict == "completed"
        else:
            paths[search_path(g, part, tol), rep.verdict] += 1
        if rep.verdict == "completed":
            assert rep.rank == numeric_rank(rep.completion, tol)
    assert paths["zero-fill", "completed"] == 8
    assert paths["newton", "completed"] >= 5


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


# A lone vertex; a forest (empty separators) with an isolated vertex; and a
# root K4 whose child level mixes a triangle and an edge, with one more level.
EDGE_CASE_PATTERNS = {
    "single": Graph(1),
    "forest": Graph.from_edges(7, [(0, 1), (1, 2), (3, 4), (3, 5)]),
    "mixed-level": Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                                        (0, 4), (1, 4), (2, 5), (4, 6)]),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASE_PATTERNS))
@pytest.mark.parametrize("rank", [0, 1, None])
def test_gram_propagation_edge_cases(name, rank):
    g = EDGE_CASE_PATTERNS[name]
    rng = np.random.default_rng(71)
    b = rng.standard_normal((g.n if rank is None else rank, g.n))
    part = PartialSymmetricMatrix.from_full(g, b.T @ b)
    tol = 1e-9
    scale = 1.0 + part.max_abs()
    omega = clique_number(g)
    rep = complete_or_certify(g, part, tol)
    assert rep.verdict == "completed"
    assert rep.rank <= omega
    if rank is not None:
        assert rep.rank == rank
    # Gram propagation at floor 0, and at half the smallest block eigenvalue
    # when that is positive: the shifted part keeps rank <= omega.
    _, _, lam, eig = _clique_block_scan(part.scatter(), g, False, tol)
    for shift in [0.0] + [0.5 * lam] * (lam > tol * scale):
        c, r = completion._propagate(g, eig, shift, tol)
        assert completion_residual(part, c) <= 1e-12 * scale
        assert psd_min_eig(c, tol) >= shift - tol * scale
        assert numeric_rank(c - shift * np.eye(g.n), tol) <= omega
        assert r <= omega
        if not shift:
            assert r == rep.rank == numeric_rank(c, tol)


def test_edge_case_patterns_mix_clique_sizes_in_one_level():
    tree = clique_tree(EDGE_CASE_PATTERNS["mixed-level"])
    levels = rooted_clique_order(tree)
    assert len(levels) == 3
    assert sorted(len(tree.cliques[t]) for t in levels[1]) == [2, 3]
    forest = clique_tree(EDGE_CASE_PATTERNS["forest"])
    assert () in forest.separators


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


@pytest.fixture
def searches(monkeypatch):
    """The eigenvalue floor of each feasibility search, in call order."""
    shifts = []
    search = completion._psd_search

    def counted(*args, **kwargs):
        shifts.append(kwargs["shift"])
        return search(*args, **kwargs)
    monkeypatch.setattr(completion, "_psd_search", counted)
    return shifts


def test_pd_exists_c4_zeros(searches):
    g, zeros, _ = c4_patterns()
    verdict = pd_completion_exists(g, zeros)
    assert verdict.answer == "yes"
    # One search at 2 * (10 * tol) * (1 + max|data|), below half the edge
    # blocks' eigenvalue 1; the zero-filled data already clears it.
    assert searches == [4e-08]
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
    # The second data set has block margin 5e-9, just above tol: its floor
    # 0.5 * lam lies below 2 * (10 * tol) * (1 + max|data|), and Gram
    # propagation must still reach it and give a witness.
    near = 1.0 - 5e-9
    for part in (
        PartialSymmetricMatrix(3, np.array([1.0, 2.0, 1.0]), {(0, 1): 0.5, (1, 2): -0.5}),
        PartialSymmetricMatrix(3, np.ones(3), {(0, 1): near, (1, 2): near}),
    ):
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


def signed_c4(c):
    g = cycle_graph(4)
    return g, PartialSymmetricMatrix(4, np.ones(4), {(0, 1): c, (1, 2): c, (2, 3): c,
                                                     (0, 3): -c})


@pytest.mark.parametrize("c, answer", [
    (0.7, "yes"),
    (math.cos(math.pi / 4), "undetermined"),
])
def test_pd_exists_signed_c4(searches, c, answer):
    # Unit diagonal with (c, c, c, -c) around C4 has a PD completion iff
    # arccos c > pi/4 (the cycle inequalities of Barrett-Johnson-Loewy).
    # At c = cos(pi/4) the data is PSD- but not PD-completable. Either way
    # one search runs, at the default max_iter and at the floor
    # 2 * (10 * tol) * (1 + max|data|) = 4e-8, below half the blocks'
    # smallest eigenvalue 1 - c.
    g, part = signed_c4(c)
    verdict = pd_completion_exists(g, part)
    assert verdict.answer == answer
    assert searches == [4e-08]
    if answer == "yes":
        assert psd_min_eig(verdict.witness) > 0.0
        assert completion_residual(part, verdict.witness) <= 1e-8
    else:
        assert verdict.witness is None


def test_pd_exists_searches_at_half_a_small_block_eigenvalue(searches):
    # Every edge block of C4 with edges 1 - 5e-9 has smallest eigenvalue
    # 5e-9, so half of it lies below 2 * (10 * tol) * 2 and is the floor.
    g = cycle_graph(4)
    near = 1.0 - 5e-9
    part = PartialSymmetricMatrix(4, np.ones(4), {e: near for e in g.sorted_edges()})
    verdict = pd_completion_exists(g, part)
    assert verdict.answer == "yes"
    assert searches == [pytest.approx(2.5e-9, rel=1e-6)]
    assert psd_min_eig(verdict.witness) > 0.0
    assert completion_residual(part, verdict.witness) <= 1e-8


def test_pd_witness_is_zero_filled_data_that_clears_the_floor(searches):
    # Every edge of C4 is 0.5 - 2.5e-8: the blocks' smallest eigenvalue is
    # about 0.5, but the zero-filled data's is 1 - 2 * 0.5 + 5e-8 = 5e-8. It
    # clears the floor 4e-8 less the search tolerance 2e-8, so it is the
    # witness as it stands, nearly singular although better conditioned
    # completions exist.
    g = cycle_graph(4)
    part = PartialSymmetricMatrix(4, np.ones(4), {e: 0.5 - 2.5e-8 for e in g.sorted_edges()})
    verdict = pd_completion_exists(g, part)
    assert verdict.answer == "yes"
    assert searches == [4e-08]
    assert np.array_equal(verdict.witness, part.scatter())
    assert psd_min_eig(verdict.witness) == pytest.approx(5e-8, rel=1e-6)


def near_margin_instance(seed):
    """Rank-2 Gram data + 1e-6 * I on the connected non-chordal G(16, 28) of seed."""
    networkx = pytest.importorskip("networkx")
    g = Graph.from_edges(16, networkx.gnm_random_graph(16, 28, seed=seed).edges())
    v = np.random.default_rng((seed, 2)).standard_normal((16, 2))
    return g, PartialSymmetricMatrix.from_full(g, v @ v.T + 1e-6 * np.eye(16))


@pytest.mark.parametrize("seed", [29, 44, 78])
def test_pd_exists_near_the_data_pd_margin(seed):
    # The data is PD with margin 1e-6, so every floor below it has a witness.
    # There S^-1 is too ill-conditioned for the search's stop test: the line
    # search collapses and the polish stalls at an iterate that is already a
    # witness, which the final eigenvalue check must accept.
    g, part = near_margin_instance(seed)
    assert pd_completion_exists(g, part).answer == "yes"
    scale = 1.0 + part.max_abs()
    for s in np.geomspace(1e-8, 5e-7, 12):
        w = affine_psd_feasibility(g, part, shift=s)
        assert w is not None, s
        assert psd_min_eig(w) >= s - 1e-8 * scale
        assert completion_residual(part, w) == 0.0


def test_cycle_inequalities_decide_random_cycle_data():
    # Unit-diagonal data with edge entries cos(theta) on C_m has a PSD
    # completion iff, for every odd set S of edges, sum_S theta - sum_rest
    # theta <= (|S| - 1) pi, and a PD one iff every such inequality is strict
    # (Barrett-Johnson-Loewy, Mem. AMS 584, 1996). slack is the least margin.
    rng = np.random.default_rng(16)
    seen = Counter()
    for m in (4, 5, 6, 8):
        g = cycle_graph(m)
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=m)))
        odd = np.sum(signs > 0, axis=1)
        signs, odd = signs[odd % 2 == 1], odd[odd % 2 == 1]
        for _ in range(60):
            theta = rng.uniform(0.01, math.pi - 0.01, m)
            slack = float(np.min((odd - 1) * math.pi - signs @ theta))
            part = PartialSymmetricMatrix(m, np.ones(m),
                                          dict(zip(g.sorted_edges(), np.cos(theta))))
            answer = pd_completion_exists(g, part).answer
            verdict = complete_or_certify(g, part).verdict
            if slack > 1e-3:
                seen["inside"] += 1
                assert (answer, verdict) == ("yes", "completed"), (m, theta)
            elif slack < -1e-3:
                seen["outside"] += 1
                assert answer != "yes" and verdict != "completed", (m, theta)
    assert seen["inside"] > 150 and seen["outside"] > 10, seen


def test_boundary_c4_completes_at_rank_two():
    # At c = cos(pi/4) the only completions are singular: rank 2.
    g, part = signed_c4(math.cos(math.pi / 4))
    rep = complete_or_certify(g, part)
    assert rep.verdict == "completed"
    assert rep.rank == 2
    assert completion_residual(part, rep.completion) <= 1e-8 * 2.0
    assert psd_min_eig(rep.completion) >= -1e-8 * 2.0


def test_chordal_complete_honours_tol():
    # The block scan accepts the first edge at tol = 1e-7; Gram propagation
    # must then align the second block at that tol, not at a fixed one.
    g = path_graph(3)
    part = PartialSymmetricMatrix(3, np.ones(3), {(0, 1): 1.0 + 5e-8, (1, 2): 1.0})
    c, rank = chordal_complete(g, part, tol=1e-7)
    assert rank == 1
    assert completion_residual(part, c) <= 1e-7


def test_complete_just_infeasible_c4_within_tol():
    # Just past the boundary cos(pi/4), but within tol = 1e-6 of it: the
    # search must run at that tol and accept a completion.
    c = math.cos(math.pi / 4) + 1e-7
    g, part = signed_c4(c)
    tol = 1e-6
    rep = complete_or_certify(g, part, tol=tol)
    assert rep.verdict == "completed"
    assert completion_residual(part, rep.completion) == 0.0
    assert psd_min_eig(rep.completion) >= -10 * tol * (1.0 + part.max_abs())


def test_zero_diagonal_vertex_completes():
    # Vertex 0 has diagonal 0, so its row of any PSD completion is 0; the
    # other three vertices carry forced all-ones data on a path.
    g = cycle_graph(4)
    part = PartialSymmetricMatrix(4, np.array([0.0, 1.0, 1.0, 1.0]),
                                  {(0, 1): 0.0, (1, 2): 1.0, (2, 3): 1.0, (0, 3): 0.0})
    rep = complete_or_certify(g, part)
    assert rep.verdict == "completed"
    assert rep.rank == 1
    want = np.zeros((4, 4))
    want[1:, 1:] = 1.0
    assert np.max(np.abs(rep.completion - want)) <= 1e-7
    assert psd_min_eig(rep.completion) >= -1e-8 * 2.0


def atlas_nonchordal():
    """Connected non-chordal graphs on at most 6 vertices, in atlas order."""
    networkx = pytest.importorskip("networkx")
    return [Graph.from_edges(h.number_of_nodes(), h.edges())
            for h in networkx.graph_atlas_g()
            if 0 < h.number_of_nodes() <= 6 and networkx.is_connected(h)
            and not networkx.is_chordal(h)]


@pytest.mark.parametrize("k", [3, 9, 12, 13, 14, 22])
def test_rank_two_boundary_data_completes(k):
    # Rank-2 Gram data has only singular completions on these patterns.
    g = atlas_nonchordal()[k]
    b = np.random.default_rng((1607, k)).standard_normal((2, g.n))
    part = PartialSymmetricMatrix.from_full(g, b.T @ b / 2)
    rep = complete_or_certify(g, part)
    assert rep.verdict == "completed"
    scale = 1.0 + part.max_abs()
    assert completion_residual(part, rep.completion) <= 1e-8 * scale
    assert psd_min_eig(rep.completion) >= -1e-8 * scale


def test_hard_cycle_off_the_shortest_cycle_stops_early(monkeypatch):
    # A hard C6 joined by an edge to a benign C4: the only cycle ray tried
    # lies on the C4 and does not refute the data, so the search runs. An
    # early Newton iterate pairs negatively with the data and ends it.
    edges = [(i, (i + 1) % 6) for i in range(6)]
    edges += [(6 + i, 6 + (i + 1) % 4) for i in range(4)] + [(5, 6)]
    g = Graph.from_edges(10, edges)
    entries = {e: 0.0 for e in g.edges}
    entries.update({(t, t + 1): 1.0 for t in range(5)})
    entries[(0, 5)] = -1.0
    part = PartialSymmetricMatrix(10, np.ones(10), entries)

    calls = Counter()
    for name in ("eigh", "eigvalsh", "cholesky", "inv", "solve", "lstsq"):
        def counted(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    assert complete_or_certify(g, part).verdict == "undetermined"
    # One solve per Newton step; every other factorisation is counted too.
    assert 0 < calls["solve"] <= 10
    assert sum(calls.values()) <= 50


def test_pd_witness_agrees_with_psd_route():
    rng = np.random.default_rng(59)
    for _ in range(20):
        g = random_chordal(rng, int(rng.integers(2, 10)))
        part = random_psd_partial(rng, g)
        shifted = PartialSymmetricMatrix(part.n, part.diag + 0.5, part.entries)  # strictly PD
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

    monkeypatch.setattr(completion, "_psd_search", no_search)
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
            val, lay = _best_cycle_layout(part.scatter(), cycles)
            assert abs(val - want_val) <= 1e-12 * (1.0 + part.max_abs())
            assert lay == want_lay


def loop_block_scan(g, part, strict, tol=1e-9):
    """Reference: one eigh (eigvalsh when g is not chordal) per maximal clique
    block, in clique order."""
    a = part.scatter()
    worst_clique, worst = None, math.inf
    for K in maximal_cliques(g):
        b = a[np.ix_(K, K)]
        w = np.linalg.eigh(b)[0] if is_chordal(g)[0] else np.linalg.eigvalsh(b)
        lam = float(w[0])
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
        a = part.scatter()
        ok, clique, lam, eig = _clique_block_scan(a, h, strict, 1e-9)
        assert (ok, clique, lam) == loop_block_scan(h, part, strict)
        if not is_chordal(h)[0]:
            assert eig == []
            continue
        # One stack per clique size; each block's eigenpairs rebuild it.
        cliques = maximal_cliques(h)
        assert sorted(t for idx, _, _ in eig for t in idx) == list(range(len(cliques)))
        for idx, ws, vs in eig:
            for t, w, v in zip(idx, ws, vs):
                b = a[np.ix_(cliques[t], cliques[t])]
                assert np.max(np.abs(v * w @ v.T - b)) <= 1e-12 * (1.0 + np.max(np.abs(b)))
    # Two violating cliques: the first in sorted order is reported, not the worst.
    assert _clique_block_scan(cases[0][1].scatter(), g, strict, 1e-9)[:2] == \
        (False, (0, 1))
    assert _clique_block_scan(cases[1][1].scatter(), g, strict, 1e-9)[:2] == \
        (False, (1, 2, 3))
