from fractions import Fraction

import numpy as np
import pytest

from psdcomplete import (
    CertificateNotSupported,
    DegenerateConfiguration,
    ExtremeRayCertificate,
    Graph,
    InvalidCycleLength,
    NotEnoughPoints,
    PartialSymmetricMatrix,
    PatternMismatch,
    cycle_extreme_ray,
    cycle_graph,
    embed_certificate,
    extreme_ray_from_points,
    numeric_rank,
    pair,
    verify_certificate,
)

from psdcomplete.linalg import SUPPORT_TOL
from psdcomplete.rays import _support_violation

from helpers import complete_graph, hard_cycle_instance, random_graph


def exact_cycle_ray_entries(m: int):
    """Oracle: the closed-form certificate entries as exact fractions."""
    tau = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        tau[i][i] = Fraction(2)
    tau[0][0] = tau[m - 1][m - 1] = Fraction(m - 2, m - 1)
    for i in range(m - 1):
        tau[i][i + 1] = tau[i + 1][i] = Fraction(-1)
    tau[0][m - 1] = tau[m - 1][0] = Fraction(1, m - 1)
    return tau


def exact_pairing(tau, diag, entries):
    """Oracle: sum_i tau_ii d_i + 2 sum_edges tau_ij a_ij in exact arithmetic."""
    val = sum(tau[i][i] * d for i, d in enumerate(diag))
    for (i, j), a in entries.items():
        val += 2 * tau[i][j] * a
    return val


def test_cycle_ray_m4_closed_form():
    cert = cycle_extreme_ray(4)
    expected = np.array([
        [2.0 / 3.0, -1.0, 0.0, 1.0 / 3.0],
        [-1.0, 2.0, -1.0, 0.0],
        [0.0, -1.0, 2.0, -1.0],
        [1.0 / 3.0, 0.0, -1.0, 2.0 / 3.0],
    ])
    assert np.array_equal(cert.tau, expected)
    assert cert.rank == 2


@pytest.mark.parametrize("m", range(4, 13))
def test_cycle_ray_matches_exact_fractions(m):
    cert = cycle_extreme_ray(m)
    oracle = exact_cycle_ray_entries(m)
    for i in range(m):
        for j in range(m):
            assert cert.tau[i, j] == pytest.approx(float(oracle[i][j]), abs=1e-15)


@pytest.mark.parametrize("m", range(4, 13))
def test_cycle_ray_invariants(m):
    cert = cycle_extreme_ray(m)
    w = np.linalg.eigvalsh(cert.tau)
    assert w[0] >= -1e-10
    assert numeric_rank(cert.tau) == m - 2 == cert.rank
    assert np.max(np.abs(cert.tau @ cert.kernel_form)) <= 1e-12
    # Dependence and assembly.
    assert np.max(np.abs(cert.relation @ cert.points)) <= 1e-12
    assembled = (cert.points.T * cert.weights) @ cert.points
    assert np.max(np.abs(assembled - cert.tau)) <= 1e-12
    assert verify_certificate(cert, cycle_graph(m))
    assert verify_certificate(cert, complete_graph(m))


def test_cycle_ray_rejects_small_m():
    with pytest.raises(InvalidCycleLength):
        cycle_extreme_ray(3)


@pytest.mark.parametrize("m", range(4, 13))
def test_ray_from_cycle_points_matches_closed_form(m):
    closed = cycle_extreme_ray(m)
    built = extreme_ray_from_points(closed.points, np.ones(m - 1), seed=0)
    assert np.max(np.abs(built.tau - closed.tau)) <= 1e-12
    assert np.max(np.abs(built.weights - closed.weights)) <= 1e-12
    assert np.max(np.abs(built.relation - closed.relation)) <= 1e-12
    assert np.max(np.abs(built.kernel_form - closed.kernel_form)) <= 1e-12
    assert built.rank == closed.rank


def test_ray_from_basis_plus_sum_example():
    pts = np.array([
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [1.0, 1.0, 1.0],
    ])
    cert = extreme_ray_from_points(pts)
    assert np.allclose(cert.relation, [1.0, 1.0, 1.0, -1.0], atol=1e-12)
    # Ellipsoid maximum is 3, so the tail weight is -1/3.
    assert np.allclose(cert.weights, [1.0, 1.0, 1.0, -1.0 / 3.0], atol=1e-12)
    assert np.allclose(cert.tau, np.eye(3) - np.ones((3, 3)) / 3.0, atol=1e-12)
    assert cert.rank == 2
    kernel = cert.kernel_form / np.linalg.norm(cert.kernel_form)
    assert np.allclose(np.abs(kernel), np.ones(3) / np.sqrt(3.0), atol=1e-12)
    assert verify_certificate(cert, complete_graph(3))


def test_ray_random_configurations_verify():
    rng = np.random.default_rng(9)
    for _ in range(30):
        k = int(rng.integers(2, 6))
        span = rng.standard_normal((k + 1, k + 1 + int(rng.integers(0, 3))))
        coeff = rng.uniform(0.5, 2.0, k + 1) * rng.choice([-1.0, 1.0], k + 1)
        last = -coeff @ span  # dependence with all coefficients nonzero
        pts = np.vstack([span, last.reshape(1, -1)])
        cert = extreme_ray_from_points(pts, seed=3)
        n = pts.shape[1]
        assert cert.rank == k
        assert verify_certificate(cert, complete_graph(n))


def test_ray_weight_scaling_covariance():
    closed = cycle_extreme_ray(5)
    base = extreme_ray_from_points(closed.points, np.ones(4))
    scaled = extreme_ray_from_points(closed.points, 3.0 * np.ones(4))
    assert np.max(np.abs(scaled.tau - 3.0 * base.tau)) <= 1e-12
    k1 = base.kernel_form / np.linalg.norm(base.kernel_form)
    k2 = scaled.kernel_form / np.linalg.norm(scaled.kernel_form)
    assert min(np.max(np.abs(k2 - k1)), np.max(np.abs(k2 + k1))) <= 1e-12


def test_ray_rejects_bad_inputs():
    with pytest.raises(NotEnoughPoints):
        extreme_ray_from_points(np.eye(3))
    # Independent points: no dependence at all.
    with pytest.raises(DegenerateConfiguration):
        extreme_ray_from_points(np.eye(4))
    # Two dependences: rank 2 instead of 3.
    degenerate = np.array([
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [1.0, 1.0, 0.0],
        [2.0, 1.0, 0.0],
    ])
    with pytest.raises(DegenerateConfiguration):
        extreme_ray_from_points(degenerate)
    # Unique dependence but with a zero coefficient.
    zero_coeff = np.array([
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [1.0, 1.0, 0.0],
    ])
    with pytest.raises(DegenerateConfiguration):
        extreme_ray_from_points(zero_coeff)
    with pytest.raises(ValueError):
        extreme_ray_from_points(cycle_extreme_ray(4).points, np.array([1.0, -1.0, 1.0]))


def test_pairing_hard_c4_is_minus_four_thirds():
    oracle = exact_pairing(
        exact_cycle_ray_entries(4),
        [1, 1, 1, 1],
        {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): -1},
    )
    assert oracle == Fraction(-4, 3)
    g = cycle_graph(4)
    value = pair(cycle_extreme_ray(4), g, hard_cycle_instance(g))
    assert abs(value - float(oracle)) <= 1e-12


@pytest.mark.parametrize("m", range(4, 13))
def test_pairing_hard_cycle_general(m):
    entries = {(i, i + 1): 1 for i in range(m - 1)}
    entries[(0, m - 1)] = -1
    oracle = exact_pairing(exact_cycle_ray_entries(m), [1] * m, entries)
    assert oracle == Fraction(-4, m - 1)
    g = cycle_graph(m)
    value = pair(cycle_extreme_ray(m), g, hard_cycle_instance(g))
    assert abs(value - float(oracle)) <= 1e-12


def test_pairing_identity_data():
    g = cycle_graph(4)
    part = PartialSymmetricMatrix.from_full(g, np.eye(4))
    value = pair(cycle_extreme_ray(4), g, part)
    assert abs(value - 16.0 / 3.0) <= 1e-12


def test_pairing_equals_trace_against_completions():
    rng = np.random.default_rng(13)
    for m in (4, 5, 6):
        g = cycle_graph(m)
        cert = cycle_extreme_ray(m)
        for _ in range(20):
            a = rng.standard_normal((m, m))
            a = a + a.T
            part = PartialSymmetricMatrix.from_full(g, a)
            assert pair(cert, g, part) == pytest.approx(np.trace(cert.tau @ a), abs=1e-10)


def test_pairing_nonnegative_on_completable_data():
    rng = np.random.default_rng(17)
    for m in (4, 5, 7):
        g = cycle_graph(m)
        cert = cycle_extreme_ray(m)
        for _ in range(100):
            b = rng.standard_normal((m, m))
            a = b.T @ b
            part = PartialSymmetricMatrix.from_full(g, a)
            assert pair(cert, g, part) >= -1e-8 * (1.0 + np.max(np.abs(a)))


def test_pair_support_and_dimension_checks():
    cert = cycle_extreme_ray(4)
    # The wrap edge is missing, so the corner entry breaks support.
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    part = PartialSymmetricMatrix(4, np.ones(4), {(0, 1): 0.0, (1, 2): 0.0, (2, 3): 0.0})
    with pytest.raises(CertificateNotSupported):
        pair(cert, path, part)
    g5 = cycle_graph(5)
    part5 = PartialSymmetricMatrix(5, np.ones(5), {e: 0.0 for e in g5.edges})
    with pytest.raises(PatternMismatch):
        pair(cert, g5, part5)


def test_support_violation_matches_slot_loop():
    def loop(tau, g):
        worst = 0.0
        for i in range(g.n):
            for j in range(i + 1, g.n):
                if not g.has_edge(i, j):
                    worst = max(worst, abs(float(tau[i, j])))
        return worst

    rng = np.random.default_rng(71)
    for n in (1, 2, 5, 9):
        for p in (0.0, 0.5, 1.0):
            g = random_graph(rng, n, p)
            tau = rng.standard_normal((n, n))
            assert _support_violation(tau, g) == loop(tau, g)


def test_pair_support_tolerance_is_exact():
    g = cycle_graph(4)
    part = PartialSymmetricMatrix(4, np.ones(4), {e: 0.0 for e in g.edges})
    cert = cycle_extreme_ray(4)
    for mass, ok in ((SUPPORT_TOL, True), (2.0 * SUPPORT_TOL, False)):
        tau = cert.tau.copy()
        tau[0, 2] = tau[2, 0] = mass
        leaky = ExtremeRayCertificate(tau, cert.points, cert.relation, cert.weights,
                                      cert.kernel_form, cert.rank)
        if ok:
            assert pair(leaky, g, part) == pair(cert, g, part)
        else:
            with pytest.raises(CertificateNotSupported):
                pair(leaky, g, part)


def test_embed_certificate_preserves_validity():
    base = cycle_extreme_ray(4)
    g = Graph.from_edges(6, [(1, 2), (2, 4), (4, 5), (1, 5), (0, 3)])
    cert = embed_certificate(base, [1, 2, 4, 5], 6)
    assert verify_certificate(cert, g)
    assert cert.rank == 2
    with pytest.raises(PatternMismatch):
        embed_certificate(base, [0, 1, 2], 6)
    with pytest.raises(PatternMismatch):
        embed_certificate(base, [0, 1, 2, 9], 6)


def test_verify_rejects_corruption():
    g = cycle_graph(4)
    good = cycle_extreme_ray(4)
    assert verify_certificate(good, g)

    tau = good.tau.copy()
    tau[0, 1] = tau[1, 0] = 5.0
    bad = type(good)(tau=tau, points=good.points, relation=good.relation,
                     weights=good.weights, kernel_form=good.kernel_form, rank=good.rank)
    assert not verify_certificate(bad, g)

    bad = type(good)(tau=good.tau, points=good.points, relation=good.relation,
                     weights=good.weights, kernel_form=np.ones(4), rank=good.rank)
    assert not verify_certificate(bad, g)

    bad = type(good)(tau=good.tau, points=good.points, relation=good.relation,
                     weights=good.weights, kernel_form=good.kernel_form, rank=3)
    assert not verify_certificate(bad, g)

    # Valid certificate, wrong pattern: corner entry not supported on a path.
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert not verify_certificate(good, path)

    with pytest.raises(PatternMismatch):
        verify_certificate(good, cycle_graph(5))


def test_quadratic_positivity_off_kernel():
    rng = np.random.default_rng(21)
    for m in (4, 6, 9):
        cert = cycle_extreme_ray(m)
        span = cert.points  # rows span an (m-1)-dim space containing the kernel form
        ell = cert.kernel_form / np.linalg.norm(cert.kernel_form)
        for _ in range(100):
            y = span.T @ rng.standard_normal(m)
            y = y - (y @ ell) * ell
            if np.linalg.norm(y) < 1e-9:
                continue
            assert y @ cert.tau @ y > 0.0
