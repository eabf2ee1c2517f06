"""End-to-end acceptance checks, one per numbered guarantee.

Every test prints a single PASS or FAIL line (written past pytest's capture,
so it is visible in normal runs) along with the elapsed time, and enforces
its runtime budget. Expected values are computed by independent oracles:
exact fraction arithmetic for the cycle certificates and pairings, subset
scans for chordless cycles, and the graph atlas for the small-graph sweep.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

networkx = pytest.importorskip("networkx")

from psdcomplete import (
    Graph,
    PartialSymmetricMatrix,
    affine_psd_feasibility,
    align_gram,
    boundary_lattice_points,
    chordal_complete,
    clique_number,
    complete_or_certify,
    completion_residual,
    cycle_extreme_ray,
    cycle_graph,
    extreme_ray_from_points,
    gram_factor,
    green_lazarsfeld_index,
    hankel_index,
    is_chordal,
    moment_representable,
    MomentOperator,
    numeric_rank,
    pair,
    partially_positive,
    pd_completion_exists,
    point_evaluation_vector,
    psd_min_eig,
    LatticePolygon,
    toric_gl_index,
    toric_hankel_lower_bound,
    verify_certificate,
)

from helpers import (
    brute_shortest_chordless_cycle_length,
    hard_cycle_instance,
    path_graph,
    perturbed_partially_positive,
    petersen,
    random_chordal,
    random_psd_partial,
)


@contextmanager
def criterion(capsys, num, description, budget):
    """Time a criterion body and print its one-line verdict past capture."""
    start = time.perf_counter()
    failed = True
    try:
        yield
        failed = False
    finally:
        elapsed = time.perf_counter() - start
        status = "FAIL" if failed or elapsed >= budget else "PASS"
        with capsys.disabled():
            print(f"{status}  criterion {num} [{elapsed:6.2f}s / {budget:.0f}s]: "
                  f"{description}", flush=True)
    if elapsed >= budget:
        raise AssertionError(f"criterion {num} exceeded its {budget}s budget")


def exact_cycle_tau(m):
    """Fraction-valued m-cycle extreme ray, written out independently."""
    tau = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        tau[i][i] = Fraction(m - 2, m - 1) if i in (0, m - 1) else Fraction(2)
    for i in range(m - 1):
        tau[i][i + 1] = tau[i + 1][i] = Fraction(-1)
    tau[0][m - 1] = tau[m - 1][0] = Fraction(1, m - 1)
    return tau


def exact_pairing(tau, diag, entries):
    total = sum(tau[i][i] * d for i, d in enumerate(diag))
    for (i, j), v in entries.items():
        total += 2 * tau[i][j] * v
    return total


def c4_hard_reference_matrix():
    return PartialSymmetricMatrix(
        4, np.ones(4), {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (0, 3): -1.0}
    )


def atlas_connected_graphs(max_n=6):
    out = []
    for h in networkx.graph_atlas_g():
        if 0 < h.number_of_nodes() <= max_n and networkx.is_connected(h):
            h = networkx.convert_node_labels_to_integers(h)
            out.append(Graph.from_edges(h.number_of_nodes(), h.edges()))
    return out


def test_criterion_1_c4_hard_instance(capsys):
    with criterion(capsys, 1, "hard 4-cycle data certified infeasible at -4/3", 1.0):
        # oracle first: exact pairing of the closed-form ray with the data
        expected = exact_pairing(
            exact_cycle_tau(4), [1] * 4,
            {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): -1},
        )
        assert expected == Fraction(-4, 3)

        g = cycle_graph(4)
        part = c4_hard_reference_matrix()
        assert partially_positive(g, part)
        rep = complete_or_certify(g, part)
        assert rep.verdict == "infeasible"
        assert rep.certificate is not None
        assert rep.certificate.rank == 2
        assert verify_certificate(rep.certificate, g)
        assert abs(rep.separating_value - float(expected)) <= 1e-9


def test_criterion_2_cycle_certificate_fidelity(capsys):
    with criterion(capsys, 2, "cycle certificates match the closed form, m = 4..12", 1.0):
        for m in range(4, 13):
            cert = cycle_extreme_ray(m)
            expected = np.array([[float(x) for x in row] for row in exact_cycle_tau(m)])
            assert np.array_equal(cert.tau, expected)
            assert psd_min_eig(cert.tau) >= -1e-10
            assert numeric_rank(cert.tau) == m - 2 == cert.rank
            rebuilt = extreme_ray_from_points(cert.points)
            assert np.max(np.abs(rebuilt.tau - cert.tau)) <= 1e-12
            assert np.max(np.abs(rebuilt.weights - cert.weights)) <= 1e-12


def test_criterion_3_chordal_completion_soundness(capsys):
    with criterion(capsys, 3, "200 random chordal completions, oracle cross-check", 30.0):
        rng = np.random.default_rng(101)
        for _ in range(200):
            n = int(rng.integers(1, 21))
            g = random_chordal(rng, n)
            b = np.vstack([rng.standard_normal((n, n)), 0.5 * np.eye(n)])
            part = PartialSymmetricMatrix.from_full(g, b.T @ b)
            a, rank = chordal_complete(g, part)
            scale = 1.0 + part.max_abs()
            assert completion_residual(part, a) <= 1e-8 * scale
            assert psd_min_eig(a) >= -1e-8 * scale
            assert rank <= clique_number(g)
            assert affine_psd_feasibility(g, part, max_iter=20000) is not None


def test_criterion_4_chordality_equivalence_small_graphs(capsys):
    with criterion(capsys, 4, "completability matches chordality on all graphs <= 6", 60.0):
        rng = np.random.default_rng(404)
        graphs = atlas_connected_graphs()
        assert len(graphs) == 143
        seen_nonchordal = 0
        for g in graphs:
            chordal = is_chordal(g)[0]
            infeasible_found = False
            for k in range(50):
                part = (random_psd_partial(rng, g) if k % 2 == 0
                        else perturbed_partially_positive(rng, g))
                assert partially_positive(g, part)
                rep = complete_or_certify(g, part, max_iter=2500)
                assert rep.verdict != "undetermined"
                if rep.verdict == "completed":
                    scale = 1.0 + part.max_abs()
                    assert completion_residual(part, rep.completion) <= 1e-7 * scale
                    assert psd_min_eig(rep.completion) >= -1e-7 * scale
                elif rep.verdict == "infeasible":
                    infeasible_found = True
                    assert rep.certificate is not None
                    assert verify_certificate(rep.certificate, g)
                    assert pair(rep.certificate, g, part) < 0.0
            if not chordal:
                seen_nonchordal += 1
                rep = complete_or_certify(g, hard_cycle_instance(g), max_iter=2500)
                assert rep.verdict == "infeasible"
                assert rep.certificate is not None
                assert verify_certificate(rep.certificate, g)
                infeasible_found = True
            assert chordal == (not infeasible_found)
        assert seen_nonchordal == 61


def test_criterion_5_index_formulas(capsys):
    with criterion(capsys, 5, "index formulas on cycles, the Petersen graph, chordal", 5.0):
        for m in range(4, 13):
            assert hankel_index(cycle_graph(m)) == m - 2
            assert green_lazarsfeld_index(cycle_graph(m)) == m - 3
        pet = petersen()
        assert brute_shortest_chordless_cycle_length(pet) == 5
        assert hankel_index(pet) == 3
        rng = np.random.default_rng(55)
        chordal_examples = [path_graph(5), Graph.from_edges(1, [])]
        chordal_examples += [random_chordal(rng, 9) for _ in range(10)]
        for g in chordal_examples:
            assert hankel_index(g) == math.inf
            assert green_lazarsfeld_index(g) == math.inf


def test_criterion_6_pd_existence(capsys):
    with criterion(capsys, 6, "positive definite completability decisions on C4", 1.0):
        g = cycle_graph(4)
        zeros = PartialSymmetricMatrix(4, np.ones(4), {e: 0.0 for e in g.edges})
        verdict = pd_completion_exists(g, zeros)
        assert verdict.answer == "yes"
        assert psd_min_eig(verdict.witness) > 0.0
        assert numeric_rank(verdict.witness) == 4 > 2
        assert completion_residual(zeros, verdict.witness) <= 1e-7

        ones = PartialSymmetricMatrix(4, np.ones(4), {e: 1.0 for e in g.edges})
        verdict = pd_completion_exists(g, ones)
        assert verdict.answer == "no"
        assert verdict.failed_condition == "clique_block"

        verdict = pd_completion_exists(g, c4_hard_reference_matrix())
        assert verdict.answer == "no"


def test_criterion_7_toric_and_moment_formulas(capsys):
    with criterion(capsys, 7, "boundary counts, embedding indices, representability", 5.0):
        for d in range(1, 11):
            tri = LatticePolygon(((0, 0), (d, 0), (0, d)))
            assert boundary_lattice_points(tri) == 3 * d
        for a in range(1, 6):
            for b in range(1, 6):
                rect = LatticePolygon(((0, 0), (a, 0), (a, b), (0, b)))
                assert boundary_lattice_points(rect) == 2 * a + 2 * b
        for d in range(2, 6):
            tri = LatticePolygon(((0, 0), (d, 0), (0, d)))
            assert toric_gl_index(tri) == 3 * d - 3
            assert toric_hankel_lower_bound(tri) == 3 * d - 2

        rng = np.random.default_rng(77)
        bound = toric_hankel_lower_bound(LatticePolygon(((0, 0), (2, 0), (0, 2))))
        assert bound == 4
        for _ in range(100):
            atoms = int(rng.integers(1, bound))
            mat = np.zeros((6, 6))
            for _ in range(atoms):
                v = point_evaluation_vector(rng.uniform(-2, 2, size=3), 2)
                mat += rng.uniform(0.2, 2.0) * np.outer(v, v)
            op = MomentOperator(mat, num_vars=3, degree=2)
            assert moment_representable(op, bound) == "representable"


def test_criterion_8_property_suites(capsys):
    with criterion(capsys, 8, "consolidated module property suites", 120.0):
        rng = np.random.default_rng(88)

        # Gram round-trip on random PSD matrices
        for _ in range(50):
            n = int(rng.integers(1, 13))
            b = rng.standard_normal((int(rng.integers(1, n + 1)), n))
            a = b.T @ b
            fac = gram_factor(a)
            scale = 1.0 + float(np.max(np.abs(a)))
            assert np.max(np.abs(fac @ fac.T - a)) <= 1e-8 * scale
            assert fac.shape[1] == numeric_rank(a)

        # Procrustes alignment returns an orthogonal map
        for _ in range(50):
            n, r = int(rng.integers(1, 9)), int(rng.integers(1, 6))
            p = rng.standard_normal((n, r))
            q_rot, _ = np.linalg.qr(rng.standard_normal((r, r)))
            t = align_gram(p, p @ q_rot)
            assert np.max(np.abs(t.T @ t - np.eye(r))) <= 1e-9

        # pairing nonnegativity: cycle rays against 1000 random PSD matrices
        for m in range(4, 13):
            cert = cycle_extreme_ray(m)
            g = cycle_graph(m)
            for _ in range(1000 // 9 + 1):
                b = rng.standard_normal((m, m))
                a = b.T @ b
                part = PartialSymmetricMatrix.from_full(g, a)
                assert pair(cert, g, part) >= -1e-8 * float(np.max(np.abs(a)))

        # scaling covariance of the ray constructor, kernel unchanged
        for m in (4, 5, 7):
            base = cycle_extreme_ray(m)
            s = float(rng.uniform(0.5, 4.0))
            scaled = extreme_ray_from_points(base.points, s * base.weights[:-1])
            assert np.max(np.abs(scaled.tau - s * base.tau)) <= 1e-10 * s
            k0 = base.kernel_form / np.linalg.norm(base.kernel_form)
            k1 = scaled.kernel_form / np.linalg.norm(scaled.kernel_form)
            assert min(np.max(np.abs(k1 - k0)), np.max(np.abs(k1 + k0))) <= 1e-10

        # strict positivity of the certificate form off its kernel
        cert = cycle_extreme_ray(6)
        span = np.linalg.svd(cert.points.T, full_matrices=False)[0][:, :cert.rank + 1]
        ell = cert.kernel_form / np.linalg.norm(cert.kernel_form)
        for _ in range(100):
            y = span @ rng.standard_normal(span.shape[1])
            y -= (ell @ y) * ell
            if np.linalg.norm(y) < 1e-12:
                continue
            assert y @ cert.tau @ y > 0.0
