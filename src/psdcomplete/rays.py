"""Extreme-ray certificates separating partial matrices from the completable cone.

A certificate is a PSD matrix tau of rank k assembled from k+2 points with a
single linear dependence. tau vanishes on non-edge slots of a pattern graph,
so its pairing with partial data lower-bounds the pairing with any completion:
a strictly negative pairing rules out every PSD completion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CertificateNotSupported,
    DegenerateConfiguration,
    InvalidCycleLength,
    NotEnoughPoints,
    PatternMismatch,
)
from .graphs import Graph
from .linalg import DEFAULT_TOL, SUPPORT_TOL, check_symmetric, numeric_rank

__all__ = [
    "ExtremeRayCertificate",
    "cycle_extreme_ray",
    "extreme_ray_from_points",
    "embed_certificate",
    "pair",
    "verify_certificate",
]

_NONZERO_TOL = 1e-9


@dataclass(frozen=True)
class ExtremeRayCertificate:
    """Rank-k PSD matrix tau with the data that produced it.

    ``points`` holds k+2 vectors (rows) with a one-dimensional linear
    dependence ``sum_i relation[i] * points[i] = 0`` whose coefficients are
    all nonzero; ``tau = sum_i weights[i] * points[i] points[i]^T``; the
    ``kernel_form`` spans tau's kernel inside the span of the points and is
    nonzero on every point.
    """

    tau: np.ndarray
    points: np.ndarray
    relation: np.ndarray
    weights: np.ndarray
    kernel_form: np.ndarray
    rank: int

    @property
    def n(self) -> int:
        return self.tau.shape[0]


def cycle_extreme_ray(m: int) -> ExtremeRayCertificate:
    """The extreme-ray certificate carried by the m-cycle pattern, m >= 4.

    Closed form: diagonal (m-2)/(m-1) at both cycle ends of the wrap edge and
    2 elsewhere, -1 on consecutive pairs, 1/(m-1) at the wrap corner. It is
    the ray built from the difference vectors e_i - e_{i+1 mod m} with unit
    head weights, has rank m-2, and pairs to -4/(m-1) with the hard m-cycle
    data (unit diagonal, cycle entries 1 except one -1 on the wrap edge).
    """
    if m < 4:
        raise InvalidCycleLength(f"cycle certificates need m >= 4, got {m}")
    corner = 1.0 / (m - 1)
    tau = 2.0 * np.eye(m)
    tau[0, 0] = tau[m - 1, m - 1] = (m - 2.0) / (m - 1.0)
    for i in range(m - 1):
        tau[i, i + 1] = tau[i + 1, i] = -1.0
    tau[0, m - 1] = tau[m - 1, 0] = corner

    points = np.zeros((m, m))
    for i in range(m):
        points[i, i] = 1.0
        points[i, (i + 1) % m] = -1.0

    relation = -np.ones(m)
    weights = np.ones(m)
    weights[m - 1] = -corner
    # Kernel form: arithmetic progression with steps -1/sqrt(m-1), centered.
    root = np.sqrt(m - 1.0)
    kernel = (np.arange(m) - (m - 1.0) / 2.0) / root
    return ExtremeRayCertificate(
        tau=tau,
        points=points,
        relation=relation,
        weights=weights,
        kernel_form=kernel,
        rank=m - 2,
    )


def extreme_ray_from_points(points, head_weights=None, seed: int = 0) -> ExtremeRayCertificate:
    """Build the extreme ray determined by k+2 points with one linear dependence.

    Parameters
    ----------
    points : array-like of shape (k+2, dim), k >= 2
        Points spanning a (k+1)-dimensional space with a unique (up to scale)
        dependence whose coefficients are all nonzero.
    head_weights : optional array of k+1 positive reals
        Coefficients on the first k+1 squares; the last weight is the unique
        negative value keeping the form PSD on the dependence ellipsoid.
    seed : int
        Seed for re-drawing head weights in the rare degenerate case where
        the kernel form vanishes at one of the points.

    Returns
    -------
    ExtremeRayCertificate
        With ``tau = sum_i a_i q_i q_i^T`` PSD of rank k and a kernel form
        that is nonzero on every point.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise NotEnoughPoints(f"expected a 2d point array, got shape {pts.shape}")
    s, dim = pts.shape
    if s < 4:
        raise NotEnoughPoints(f"need at least 4 points (k >= 2), got {s}")
    if not np.all(np.isfinite(pts)):
        raise DegenerateConfiguration("points must be finite")

    u_full, sig, _ = np.linalg.svd(pts, full_matrices=True)
    smax = sig[0] if sig.size else 0.0
    rank = int(np.sum(sig > 1e-10 * max(smax, 1e-300)))
    if rank != s - 1:
        raise DegenerateConfiguration(
            f"points must have exactly one linear dependence: rank {rank}, expected {s - 1}"
        )
    u = u_full[:, s - 1].copy()
    if np.min(np.abs(u)) <= _NONZERO_TOL * np.max(np.abs(u)):
        raise DegenerateConfiguration("dependence has a vanishing coefficient")
    u /= -u[s - 1]
    c = u[:-1].copy()

    if head_weights is not None:
        d = np.asarray(head_weights, dtype=float)
        if d.shape != (s - 1,) or not np.all(d > 0):
            raise ValueError(f"head_weights must be {s - 1} positive reals")
    else:
        d = np.ones(s - 1)

    rng = np.random.default_rng(seed)
    head = pts[:-1]
    for _ in range(64):
        quad = float(np.sum(c * c / d))
        weights = np.append(d, -1.0 / quad)
        tau = (pts.T * weights) @ pts
        tau = 0.5 * (tau + tau.T)
        v = (c / d) / np.sqrt(quad)
        ell = np.linalg.lstsq(head, v, rcond=None)[0]
        vals = pts @ ell
        scales = 1.0 + np.linalg.norm(pts, axis=1) * np.linalg.norm(ell)
        if np.all(np.abs(vals) > _NONZERO_TOL * scales):
            return ExtremeRayCertificate(
                tau=tau,
                points=pts.copy(),
                relation=u,
                weights=weights,
                kernel_form=ell,
                rank=s - 2,
            )
        d = rng.uniform(0.5, 1.5, s - 1)
    raise DegenerateConfiguration("kernel form keeps vanishing at a point after 64 redraws")


def embed_certificate(cert: ExtremeRayCertificate, coords, n: int) -> ExtremeRayCertificate:
    """Push a certificate into an n-vertex ambient space along coordinate slots.

    ``coords[t]`` is the ambient index of local coordinate t. The embedded
    certificate keeps its rank, relation and weights.
    """
    coords = list(coords)
    m = cert.tau.shape[0]
    if len(coords) != m or len(set(coords)) != m or not all(0 <= c < n for c in coords):
        raise PatternMismatch(f"embedding needs {m} distinct coordinates below {n}")
    tau = np.zeros((n, n))
    tau[np.ix_(coords, coords)] = cert.tau
    points = np.zeros((cert.points.shape[0], n))
    points[:, coords] = cert.points
    kernel = np.zeros(n)
    kernel[coords] = cert.kernel_form
    return ExtremeRayCertificate(
        tau=tau,
        points=points,
        relation=cert.relation.copy(),
        weights=cert.weights.copy(),
        kernel_form=kernel,
        rank=cert.rank,
    )


def _support_violation(tau: np.ndarray, g: Graph) -> float:
    """Largest |tau| entry sitting on a non-edge off-diagonal slot."""
    off = np.triu(np.ones((g.n, g.n), dtype=bool), 1)
    if g.edges:
        i, j = np.array(list(g.edges)).T
        off[i, j] = False
    return float(np.max(np.abs(tau[off]), initial=0.0))


def pair(cert: ExtremeRayCertificate, g: Graph, partial) -> float:
    """Pairing of a certificate with partial data on the same pattern.

    Equals ``trace(tau @ A)`` for every completion A of the data, because tau
    vanishes outside the pattern. Nonnegative whenever a PSD completion
    exists, so a negative value refutes completability.
    """
    partial.validate_against(g)
    if cert.tau.shape != (g.n, g.n):
        raise PatternMismatch(
            f"certificate dimension {cert.tau.shape[0]} != pattern dimension {g.n}"
        )
    if _support_violation(cert.tau, g) > SUPPORT_TOL:
        raise CertificateNotSupported("certificate has mass on a non-edge slot")
    val = float(np.sum(np.diagonal(cert.tau) * partial.diag))
    for (i, j), a in partial.entries.items():
        val += 2.0 * float(cert.tau[i, j]) * a
    return val


def verify_certificate(cert: ExtremeRayCertificate, g: Graph, tol: float = DEFAULT_TOL) -> bool:
    """Check every structural invariant of a certificate against a pattern graph.

    Returns False on any failed check; raises PatternMismatch only for
    dimension inconsistencies.
    """
    n = g.n
    if cert.tau.shape != (n, n) or cert.points.ndim != 2 or cert.points.shape[1] != n:
        raise PatternMismatch("certificate and pattern dimensions disagree")
    s = cert.points.shape[0]
    if s < 4 or cert.rank != s - 2:
        return False
    if cert.relation.shape != (s,) or cert.weights.shape != (s,):
        return False
    try:
        tau = check_symmetric(cert.tau)
    except Exception:
        return False

    pts = cert.points
    u = cert.relation
    uscale = float(np.max(np.abs(u))) if u.size else 0.0
    if uscale == 0.0 or np.min(np.abs(u)) <= 1e-12 * uscale:
        return False
    combo = u @ pts
    if np.linalg.norm(combo) > 1e-9 * (1.0 + uscale * float(np.max(np.abs(pts)))):
        return False

    assembled = (pts.T * cert.weights) @ pts
    scale = 1.0 + float(np.max(np.abs(assembled)))
    if np.max(np.abs(assembled - tau)) > 1e-10 * scale:
        return False

    w = np.linalg.eigvalsh(tau)
    lam = float(np.max(np.abs(w))) if w.size else 0.0
    if w[0] < -tol * (1.0 + lam):
        return False
    if numeric_rank(tau, tol) != cert.rank:
        return False

    ell = cert.kernel_form
    if ell.shape != (n,):
        return False
    if np.linalg.norm(tau @ ell) > 1e-8 * (1.0 + lam * float(np.linalg.norm(ell))):
        return False
    vals = pts @ ell
    scales = 1.0 + np.linalg.norm(pts, axis=1) * float(np.linalg.norm(ell))
    if not np.all(np.abs(vals) > _NONZERO_TOL * scales):
        return False

    if _support_violation(tau, g) > SUPPORT_TOL:
        return False
    return True
