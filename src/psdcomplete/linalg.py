"""Symmetric-matrix primitives: eigenvalues, Gram vectors, alignment, feasibility.

``_gram_vectors`` is the one rule that turns eigenpairs into Gram vectors,
for ``gram_factor`` and, a whole stack at once, for the chordal completion's
clique blocks alike. ``_block_eig`` is the clique-block scan's one stacked
decomposition.

Tolerances are relative: a check at tolerance ``tol`` on a matrix ``A`` uses
the scale ``1 + |A|`` (spectral or max-entry norm as appropriate), so all
operations behave uniformly under rescaling of the data.

``DEFAULT_TOL`` is the package's one tolerance value. Every threshold is a
fixed multiple of the ``tol`` its caller passed, or of ``DEFAULT_TOL`` where
a function takes none: ``tol / 1000`` for symmetry, ``tol / 10`` for
certificate support, ``tol`` for eigenvalues, ranks and nonzero tests, and
``10 * tol`` for Gram agreement and the feasibility search. The README
lists every threshold with its multiple.
"""

from __future__ import annotations

import numpy as np

from .errors import GramMismatch, NotPSD, NotSymmetric

__all__ = [
    "DEFAULT_TOL",
    "check_symmetric",
    "psd_min_eig",
    "numeric_rank",
    "gram_factor",
    "align_gram",
    "affine_psd_feasibility",
]

DEFAULT_TOL = 1e-9


def check_symmetric(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Validate symmetry of a square matrix and return its symmetrized copy.

    Raises NotSymmetric when ``max|A - A^T| > tol / 1000 * (1 + max|A|)``.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NotSymmetric("matrix entries must be finite")
    scale = 1.0 + (np.max(np.abs(a)) if a.size else 0.0)
    gap = np.max(np.abs(a - a.T)) if a.size else 0.0
    tol = tol / 1000
    if gap > tol * scale:
        raise NotSymmetric(f"asymmetry {gap:.3e} exceeds {tol:.1e} * {scale:.3e}")
    return 0.5 * (a + a.T)


def psd_min_eig(a, tol: float = DEFAULT_TOL) -> float:
    """Smallest eigenvalue of a symmetric matrix, checked by check_symmetric at tol."""
    a = check_symmetric(a, tol)
    return float(np.linalg.eigvalsh(a)[0])


def numeric_rank(a, tol: float = DEFAULT_TOL) -> int:
    """Number of eigenvalues with ``|w| > tol * max(1, |w|_max)``."""
    return _rank_of(np.linalg.eigvalsh(check_symmetric(a, tol)), tol)


def _rank_of(w, tol: float) -> int:
    """numeric_rank's rule on eigenvalues w: the count with ``|w| > tol * max(1, |w|_max)``."""
    lam = float(np.max(np.abs(w))) if w.size else 0.0
    return int(np.sum(np.abs(w) > tol * max(1.0, lam)))


def gram_factor(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Factor a PSD matrix A as the Gram matrix of n vectors in rank(A) dimensions.

    Eigenvalues below ``-tol * (1 + |A|_2)`` raise NotPSD. Returns the n x
    ``numeric_rank(A)`` array F whose rows are the vectors _gram_vectors
    keeps, so ``F F^T`` reproduces A within the eigendecomposition's
    accuracy.
    """
    a = check_symmetric(a, tol)
    w, v = np.linalg.eigh(a)
    lam = float(np.max(np.abs(w))) if w.size else 0.0
    if w.size and w[0] < -tol * (1.0 + lam):
        raise NotPSD(f"eigenvalue {w[0]:.3e} below -{tol:.1e} * (1 + {lam:.3e})")
    return _gram_vectors(w, v, tol)


def _gram_vectors(w, v, tol: float) -> np.ndarray:
    """Gram vectors, one per row, from an ascending eigendecomposition (w, v).

    Keeps the eigenpairs with ``w > tol * max(1, |w|_max)``, largest first,
    each eigenvector scaled by the square root of its eigenvalue. On a stack
    (w of shape (k, s), v of shape (k, s, s)) each block applies the rule to
    its own eigenvalues and keeps all s columns, zero past its kept ones.
    """
    lam = np.max(np.abs(w), axis=-1, keepdims=True, initial=0.0)
    keep = w > tol * np.maximum(1.0, lam)
    q = (v * np.sqrt(np.where(keep, w, 0.0))[..., None, :])[..., ::-1]
    if w.ndim > 1:
        return q
    return np.ascontiguousarray(q[:, :np.count_nonzero(keep)])


def _block_eig(blocks, vectors: bool):
    """Ascending eigenvalues of a symmetric block or a stack of them, with
    the eigenvectors when vectors is true: one eigh or eigvalsh."""
    return np.linalg.eigh(blocks) if vectors else np.linalg.eigvalsh(blocks)


def align_gram(p, q, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal map T minimizing ``sum_i |T q_i - p_i|^2`` for matched vector lists.

    ``p`` and ``q`` are arrays of shape (s, r), one vector per row, required
    to have equal Gram matrices within ``10 * tol`` relative to ``1 + max``
    Gram entry; then the optimal T aligns the configurations exactly up to
    that mismatch. Stacks of shape (g, s, r) align g pairs at once: each
    block is checked against its own scale, GramMismatch names the worst,
    and one stacked SVD returns the (g, r, r) maps. Zero rows, matched in p
    and q, change neither the check nor the map.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise GramMismatch(f"shape mismatch {p.shape} vs {q.shape}")
    if p.ndim < 2:
        p = p.reshape(len(p), -1)
        q = q.reshape(len(q), -1)
    pt = np.swapaxes(p, -1, -2)
    if p.shape[-2]:
        gp = p @ pt
        gq = q @ np.swapaxes(q, -1, -2)
        scale = 1.0 + np.maximum(np.max(np.abs(gp), axis=(-2, -1)),
                                 np.max(np.abs(gq), axis=(-2, -1)))
        gap = np.max(np.abs(gp - gq), axis=(-2, -1))
        tol = 10 * tol
        if np.any(gap > tol * scale):
            k = int(np.argmax(gap / scale))
            where = f" in block {k}" if gap.ndim else ""
            raise GramMismatch(f"Gram gap {gap.flat[k]:.3e} exceeds {tol:.1e} * "
                               f"{scale.flat[k]:.3e}{where}")
    if p.shape[-1] == 0:
        return np.zeros(p.shape[:-2] + (0, 0))
    u, _, vt = np.linalg.svd(pt @ q)
    return u @ vt


def affine_psd_feasibility(g, partial, shift: float = 0.0, max_iter: int = 10000,
                           tol: float = DEFAULT_TOL):
    """Search for a completion of ``partial`` with all eigenvalues >= shift.

    With ``scale = 1 + max specified magnitude`` and the search's own
    tolerance ``eps = 10 * tol``, the zero-filled data is returned as it
    stands when its smallest eigenvalue is at least ``shift - eps * scale``.
    Otherwise damped Newton runs on the max-det dual ``min <S, A - shift*I>
    - log det S`` over positive definite S supported on the pattern, for at
    most max_iter steps, until ``S^-1`` matches the shifted data within
    ``0.1 * eps * scale``. If the line search collapses because the iterates
    have drifted to the boundary of the PSD cone, a Gauss-Newton polish of a
    Gram factor of ``S^-1`` finishes the job. It also collapses near the
    data's PD margin, where S is too ill-conditioned for ``S^-1`` to meet
    the stop test although it is already a witness: when the polish stalls,
    the iterate itself goes to the final check.

    Returns a witness matrix satisfying the specified entries exactly with
    ``psd_min_eig >= shift - eps * scale``, or None. None comes at once when
    an iterate pairs negatively with the shifted data, ``<S, A - shift*I> <
    -eps * scale * trace S``: S is then PSD and on the pattern, so no
    completion exists. None after max_iter steps or a failed final check is
    NOT an infeasibility certificate.
    """
    return _psd_search(g, partial, shift=shift, max_iter=max_iter, tol=tol)[0]


def _psd_search(g, partial, shift: float, max_iter: int, tol: float):
    """affine_psd_feasibility's witness and its numeric rank, or (None, None).

    The witness is exactly symmetric, so the rank read off the eigenvalues
    of the check that accepted it equals numeric_rank of the witness.
    """
    partial.validate_against(g)
    n = g.n
    eps = 10 * tol
    scale = 1.0 + partial.max_abs()
    a = partial.scatter()
    ev = np.linalg.eigvalsh(a)
    if ev[0] >= shift - eps * scale:
        return a, _rank_of(ev, tol)
    # One slot per diagonal entry and per edge (i < j), the edges in sorted
    # order. An edge slot stands for two symmetric entries, hence its weight
    # 2 in inner products.
    i, j, v = partial._slots
    w = np.where(i == j, 1.0, 2.0)
    target = v - np.where(i == j, shift, 0.0)
    stop = 0.1 * eps * scale

    y = np.where(i == j, 1.0 / np.maximum(target, eps * scale), 0.0)
    s, low, f = _dual_point(n, i, j, w, target, y)
    for _ in range(max_iter):
        if (w * y) @ target < -eps * scale * np.trace(s):
            return None, None
        inv = np.linalg.inv(low)
        x = inv.T @ inv
        r = target - x[i, j]
        if np.max(np.abs(r)) <= stop:
            break
        grad = w * r
        hess = 0.5 * np.outer(w, w) * (x[np.ix_(i, i)] * x[np.ix_(j, j)]
                                       + x[np.ix_(i, j)] * x[np.ix_(j, i)])
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step = None  # forced data: S^-1 has already lost rank
        t = 1.0
        while step is not None and t >= 1e-3:
            cand = _dual_point(n, i, j, w, target, y + t * step)
            if cand is not None and cand[2] <= f + 0.25 * t * (grad @ step):
                break
            t *= 0.5
        else:  # the line search collapsed: S^-1 is near the PSD boundary
            polished = _polish(x, i, j, w, target, stop, eps)
            if polished is not None:
                x = polished
            break
        y = y + t * step
        s, low, f = cand
    else:
        return None, None
    x = 0.5 * (x + x.T) + shift * np.eye(n)
    x[i, j] = x[j, i] = v
    ev = np.linalg.eigvalsh(x)
    if ev[0] >= shift - eps * scale:
        return x, _rank_of(ev, tol)
    return None, None


def _slot_matrix(n, i, j, v) -> np.ndarray:
    """Symmetric n x n matrix holding v on the slots (i, j), zero elsewhere."""
    m = np.zeros((n, n))
    m[i, j] = v
    m[j, i] = v
    return m


def _dual_point(n, i, j, w, target, y):
    """(S, Cholesky factor of S, dual objective) at slot values y, or None when
    S is not positive definite."""
    s = _slot_matrix(n, i, j, y)
    try:
        low = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        return None
    return s, low, (w * y) @ target - 2.0 * np.sum(np.log(np.diagonal(low)))


def _polish(x, i, j, w, target, stop, tol):
    """Gauss-Newton on a numeric-rank Gram factor B of x toward the slot targets.

    Each step is ``B <- (I + L) B`` with L supported on the slots, solving
    the linearised equations ``(L X + X L)[i, j] = target - X[i, j]`` for
    ``X = B B^T`` (least squares: forced data makes them singular). ``B B^T``
    stays PSD by construction. Returns it once within stop of the targets,
    or None when a step fails to halve the residual.
    """
    n = x.shape[0]
    b = gram_factor(x, tol)
    ii, ij = i[:, None] == i, i[:, None] == j
    jj, ji = j[:, None] == j, j[:, None] == i
    prev = np.inf
    while True:
        x = b @ b.T
        r = target - x[i, j]
        res = np.max(np.abs(r))
        if res <= stop:
            return x
        if res > 0.5 * prev:
            return None
        prev = res
        jac = 0.5 * w * (ii * x[np.ix_(j, j)] + ij * x[np.ix_(j, i)]
                         + x[np.ix_(i, i)] * jj + x[np.ix_(i, j)] * ji)
        b = b + _slot_matrix(n, i, j, np.linalg.lstsq(jac, r, rcond=None)[0]) @ b
