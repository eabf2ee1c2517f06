import ast
from pathlib import Path

import numpy as np
import pytest

import psdcomplete
from psdcomplete import (
    Graph,
    GramMismatch,
    NotPSD,
    NotSymmetric,
    PartialSymmetricMatrix,
    affine_psd_feasibility,
    align_gram,
    gram_factor,
    numeric_rank,
    psd_min_eig,
)
from psdcomplete.linalg import check_symmetric

from helpers import hard_cycle_instance, path_graph


def test_rejects_asymmetric():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    for fn in (psd_min_eig, numeric_rank, gram_factor):
        with pytest.raises(NotSymmetric):
            fn(bad)
    with pytest.raises(NotSymmetric):
        check_symmetric(np.zeros((2, 3)))
    with pytest.raises(NotSymmetric):
        check_symmetric(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_symmetry_tolerance_is_relative():
    a = 1e6 * np.ones((2, 2))
    a[0, 1] += 1e-8
    check_symmetric(a)  # asymmetry far below 1e-12 * (1 + 1e6)
    b = np.ones((2, 2))
    b[0, 1] += 1e-8
    with pytest.raises(NotSymmetric):
        check_symmetric(b)


def test_symmetry_check_follows_the_callers_tol():
    # At tol=1e-6 the symmetry threshold is 1e-9 * (1 + max|A|).
    for gap, ok in ((1e-10, True), (1e-8, False)):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        a[0, 1] += gap * (1.0 + 2.0)
        for fn in (numeric_rank, gram_factor):
            if ok:
                fn(a, tol=1e-6)
            else:
                with pytest.raises(NotSymmetric):
                    fn(a, tol=1e-6)


def test_psd_min_eig_golden_ratio():
    # Characteristic polynomial of [[1,-1],[-1,0]] is x^2 - x - 1.
    expected = (1.0 - np.sqrt(5.0)) / 2.0
    assert abs(psd_min_eig(np.array([[1.0, -1.0], [-1.0, 0.0]])) - expected) < 1e-12


def test_numeric_rank_examples():
    assert numeric_rank(np.ones((4, 4))) == 1
    assert numeric_rank(np.eye(5)) == 5
    assert numeric_rank(np.zeros((3, 3))) == 0
    assert numeric_rank(np.diag([1.0, 1e-12, 0.0])) == 1


def test_numeric_rank_rotation_invariant():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(2, 10))
        r = int(rng.integers(1, n + 1))
        b = rng.standard_normal((r, n))
        a = b.T @ b
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        assert numeric_rank(q @ a @ q.T) == numeric_rank(a) == r


def test_gram_factor_examples():
    f = gram_factor(np.eye(3))
    assert f.shape[1] == 3
    assert np.allclose(f @ f.T, np.eye(3))

    f = gram_factor(np.ones((3, 3)))
    assert f.shape[1] == 1
    assert np.allclose(f @ f.T, np.ones((3, 3)))

    a = np.array([[2.0, 1.0], [1.0, 1.0]])
    f = gram_factor(a)
    assert f.shape[1] == 2
    assert np.max(np.abs(f @ f.T - a)) <= 1e-8 * (1 + 2.0)


def test_gram_factor_rejects_indefinite():
    with pytest.raises(NotPSD):
        gram_factor(np.array([[1.0, -1.0], [-1.0, 0.0]]))


def test_gram_factor_round_trip_random():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        r = int(rng.integers(0, n + 1))
        b = rng.standard_normal((r, n))
        a = b.T @ b
        f = gram_factor(a)
        assert f.shape == (n, numeric_rank(a))
        scale = 1.0 + (np.max(np.abs(a)) if a.size else 0.0)
        assert np.max(np.abs(f @ f.T - a)) <= 1e-8 * scale


def test_align_gram_recovers_rotation():
    rng = np.random.default_rng(3)
    for _ in range(30):
        s = int(rng.integers(1, 8))
        r = int(rng.integers(1, 6))
        q = rng.standard_normal((s, r))
        rot, _ = np.linalg.qr(rng.standard_normal((r, r)))
        p = q @ rot.T
        t = align_gram(p, q)
        assert np.max(np.abs(t.T @ t - np.eye(r))) <= 1e-9
        assert np.max(np.abs(q @ t.T - p)) <= 1e-7 * (1.0 + np.max(np.abs(p)))


def test_align_gram_exact_on_rank_deficient_configs():
    rng = np.random.default_rng(4)
    for _ in range(20):
        s, r, true_rank = 6, 5, 2
        base = rng.standard_normal((s, true_rank))
        q = np.zeros((s, r))
        q[:, :true_rank] = base
        rot, _ = np.linalg.qr(rng.standard_normal((r, r)))
        p = q @ rot.T
        t = align_gram(p, q)
        assert np.max(np.abs((q @ t.T) - p)) <= 1e-7 * (1.0 + np.max(np.abs(p)))


def test_align_gram_mismatch():
    p = np.array([[1.0, 0.0]])
    q = np.array([[2.0, 0.0]])
    with pytest.raises(GramMismatch):
        align_gram(p, q)
    with pytest.raises(GramMismatch):
        align_gram(np.zeros((2, 2)), np.zeros((3, 2)))


def test_align_gram_empty():
    t = align_gram(np.zeros((0, 4)), np.zeros((0, 4)))
    assert np.allclose(t, np.eye(4))


def _rotated_stack(rng, g, s, r):
    q = rng.standard_normal((g, s, r))
    rot = np.linalg.qr(rng.standard_normal((g, r, r)))[0]
    return q @ np.swapaxes(rot, 1, 2), q


def test_align_gram_stack_matches_each_block():
    rng = np.random.default_rng(41)
    p, q = _rotated_stack(rng, 5, 6, 4)
    t = align_gram(p, q)
    assert t.shape == (5, 4, 4)
    for k in range(5):
        assert np.max(np.abs(t[k] - align_gram(p[k], q[k]))) <= 1e-12


def test_align_gram_stack_names_the_worst_block():
    rng = np.random.default_rng(42)
    p, q = _rotated_stack(rng, 4, 3, 2)
    p[1, 0] *= 1.5
    p[2, 0] *= 1.01
    with pytest.raises(GramMismatch, match="in block 1$"):
        align_gram(p, q)


def test_align_gram_stack_ignores_zero_padding_rows():
    rng = np.random.default_rng(43)
    p, q = _rotated_stack(rng, 3, 4, 3)
    pad = np.zeros((3, 2, 3))
    t = align_gram(np.concatenate([p, pad], axis=1), np.concatenate([q, pad], axis=1))
    assert np.max(np.abs(t - align_gram(p, q))) <= 1e-12


def test_align_gram_stack_of_rank_zero():
    t = align_gram(np.zeros((3, 5, 0)), np.zeros((3, 5, 0)))
    assert t.shape == (3, 0, 0)
    t = align_gram(np.zeros((3, 0, 4)), np.zeros((3, 0, 4)))
    assert np.allclose(t, np.eye(4))


def test_feasibility_forced_completion():
    g = path_graph(3)
    part = PartialSymmetricMatrix(3, np.ones(3), {(0, 1): 1.0, (1, 2): 1.0})
    w = affine_psd_feasibility(g, part)
    assert w is not None
    # The only PSD completion is the all-ones matrix.
    assert np.max(np.abs(w - np.ones((3, 3)))) <= 1e-6
    assert np.max(np.abs(np.diagonal(w) - 1.0)) <= 1e-12
    assert abs(w[0, 1] - 1.0) <= 1e-12 and abs(w[1, 2] - 1.0) <= 1e-12


def test_feasibility_diagonal_pattern():
    g = Graph(3)
    part = PartialSymmetricMatrix(3, np.array([1.0, 2.0, 3.0]), {})
    w = affine_psd_feasibility(g, part)
    assert np.array_equal(w, np.diag([1.0, 2.0, 3.0]))


def test_feasibility_infeasible_returns_none():
    from psdcomplete import cycle_graph

    g = cycle_graph(4)
    assert affine_psd_feasibility(g, hard_cycle_instance(g), max_iter=2000) is None


def test_feasibility_respects_shift():
    from psdcomplete import cycle_graph

    g = cycle_graph(4)
    part = PartialSymmetricMatrix(4, np.ones(4), {e: 0.0 for e in g.edges})
    w = affine_psd_feasibility(g, part, shift=0.5)
    assert w is not None
    assert psd_min_eig(w) >= 0.5 - 1e-8 * 2.0
    for i, j in g.edges:
        assert abs(w[i, j]) <= 1e-12


def test_feasibility_witness_contract_random():
    rng = np.random.default_rng(5)
    from helpers import random_graph, random_psd_partial

    for _ in range(25):
        g = random_graph(rng, int(rng.integers(2, 10)), p=0.5)
        part = random_psd_partial(rng, g)
        w = affine_psd_feasibility(g, part)
        assert w is not None
        scale = 1.0 + part.max_abs()
        assert np.max(np.abs(np.diagonal(w) - part.diag)) <= 1e-8 * scale
        for (i, j), v in part.entries.items():
            assert abs(w[i, j] - v) <= 1e-8 * scale
        assert psd_min_eig(w) >= -1e-8 * scale


def test_default_tol_is_the_only_tolerance_in_src():
    # Every threshold is a multiple of a caller's tol or of DEFAULT_TOL, so
    # no other float at or below 1e-6 may appear in the package. The 1e-300 in
    # extreme_ray_from_points guards a division by a zero singular value and
    # is not a tolerance.
    small = []
    for path in sorted(Path(psdcomplete.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, float) \
                    and 0.0 < node.value <= 1e-6:
                small.append((path.name, node.value))
    assert small == [("linalg.py", 1e-9), ("rays.py", 1e-300)]
    assert psdcomplete.linalg.DEFAULT_TOL == 1e-9
