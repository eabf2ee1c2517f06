"""Symmetric-matrix primitives: eigendecomposition, Gram factors, alignment, feasibility.

Tolerances are relative: a check at tolerance ``tol`` on a matrix ``A`` uses
the scale ``1 + |A|`` (spectral or max-entry norm as appropriate), so all
operations behave uniformly under rescaling of the data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GramMismatch, NotPSD, NotSymmetric

__all__ = [
    "SYM_TOL",
    "DEFAULT_TOL",
    "GRAM_TOL",
    "SUPPORT_TOL",
    "GramFactor",
    "check_symmetric",
    "psd_min_eig",
    "numeric_rank",
    "gram_factor",
    "align_gram",
    "affine_psd_feasibility",
]

SYM_TOL = 1e-12
DEFAULT_TOL = 1e-9
GRAM_TOL = 1e-8
SUPPORT_TOL = 1e-10


def check_symmetric(a, tol: float = SYM_TOL) -> np.ndarray:
    """Validate symmetry of a square matrix and return its symmetrized copy.

    Raises NotSymmetric when ``max|A - A^T| > tol * (1 + max|A|)``.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NotSymmetric("matrix entries must be finite")
    scale = 1.0 + (np.max(np.abs(a)) if a.size else 0.0)
    gap = np.max(np.abs(a - a.T)) if a.size else 0.0
    if gap > tol * scale:
        raise NotSymmetric(f"asymmetry {gap:.3e} exceeds {tol:.1e} * {scale:.3e}")
    return 0.5 * (a + a.T)


def psd_min_eig(a, tol: float = SYM_TOL) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    a = check_symmetric(a, tol)
    return float(np.linalg.eigvalsh(a)[0])


def numeric_rank(a, tol: float = DEFAULT_TOL) -> int:
    """Number of eigenvalues with ``|w| > tol * max(1, |w|_max)``."""
    a = check_symmetric(a)
    w = np.linalg.eigvalsh(a)
    lam = float(np.max(np.abs(w))) if w.size else 0.0
    return int(np.sum(np.abs(w) > tol * max(1.0, lam)))


@dataclass(frozen=True)
class GramFactor:
    """Vectors (one per row) whose pairwise inner products reproduce a PSD matrix."""

    vectors: np.ndarray
    rank: int

    def padded(self, r: int) -> np.ndarray:
        """Vectors zero-padded on the right to dimension r."""
        n, r0 = self.vectors.shape
        if r < r0:
            raise ValueError(f"cannot pad dimension {r0} down to {r}")
        out = np.zeros((n, r))
        out[:, :r0] = self.vectors
        return out


def gram_factor(a, tol: float = DEFAULT_TOL) -> GramFactor:
    """Factor a PSD matrix A as the Gram matrix of n vectors in rank(A) dimensions.

    Eigenvalues below ``-tol * (1 + |A|_2)`` raise NotPSD; the factor keeps
    the ``numeric_rank`` leading eigenpairs, so ``F F^T`` reproduces A within
    the eigendecomposition's accuracy.
    """
    a = check_symmetric(a)
    w, v = np.linalg.eigh(a)
    lam = float(np.max(np.abs(w))) if w.size else 0.0
    if w.size and w[0] < -tol * (1.0 + lam):
        raise NotPSD(f"eigenvalue {w[0]:.3e} below -{tol:.1e} * (1 + {lam:.3e})")
    thr = tol * max(1.0, lam)
    idx = np.where(w > thr)[0][::-1]
    vectors = v[:, idx] * np.sqrt(w[idx])
    return GramFactor(vectors=vectors, rank=len(idx))


def align_gram(p, q, tol: float = GRAM_TOL) -> np.ndarray:
    """Orthogonal map T minimizing ``sum_i |T q_i - p_i|^2`` for matched vector lists.

    ``p`` and ``q`` are arrays of shape (s, r), one vector per row, required
    to have equal Gram matrices within ``tol``; then the optimal T aligns the
    configurations exactly up to that mismatch.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise GramMismatch(f"shape mismatch {p.shape} vs {q.shape}")
    if p.ndim != 2:
        p = p.reshape(len(p), -1)
        q = q.reshape(len(q), -1)
    s, r = p.shape
    if s:
        gp = p @ p.T
        gq = q @ q.T
        scale = 1.0 + max(np.max(np.abs(gp)), np.max(np.abs(gq)))
        gap = np.max(np.abs(gp - gq))
        if gap > tol * scale:
            raise GramMismatch(f"Gram gap {gap:.3e} exceeds {tol:.1e} * {scale:.3e}")
    if r == 0:
        return np.eye(0)
    u, _, vt = np.linalg.svd(p.T @ q)
    return u @ vt


def affine_psd_feasibility(g, partial, shift: float = 0.0, max_iter: int = 10000,
                           tol: float = GRAM_TOL):
    """Search for a completion of ``partial`` with all eigenvalues >= shift.

    Alternating (Dykstra) projections between the shifted PSD cone and the
    affine set of matrices matching the specified entries. Returns a witness
    matrix satisfying the specified entries exactly with
    ``psd_min_eig >= shift - tol * (1 + max specified magnitude)``, or None
    if max_iter iterations find none. Absence of a witness is NOT an
    infeasibility certificate.
    """
    partial.validate_against(g)
    n = g.n
    target = partial.scatter(0.0)
    mask = partial.mask()
    scale = 1.0 + partial.max_abs()
    x = target.copy()
    err = np.zeros((n, n))
    for _ in range(max_iter):
        z = x + err
        w, v = np.linalg.eigh(0.5 * (z + z.T))
        y = (v * np.clip(w, shift, None)) @ v.T
        y = 0.5 * (y + y.T)
        err = z - y
        res = np.max(np.abs(y[mask] - target[mask]))
        x = y.copy()
        x[mask] = target[mask]
        if res <= tol * scale:
            lam = float(np.linalg.eigvalsh(0.5 * (x + x.T))[0])
            if lam >= shift - tol * scale:
                return 0.5 * (x + x.T)
    return None
