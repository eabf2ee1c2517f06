"""Lattice polygons, index bounds for toric surfaces, and truncated moment checks.

The boundary lattice point count of a strictly convex lattice polygon drives
two index bounds (count - 3 and count - 2). A truncated moment operator whose
rank stays below the second bound is representable by an atomic measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .errors import DegeneratePolygon, IndexUndefined, InputError, InvalidDegree
from .linalg import DEFAULT_TOL, check_symmetric, numeric_rank, psd_min_eig

__all__ = [
    "LatticePolygon",
    "MomentOperator",
    "boundary_lattice_points",
    "toric_gl_index",
    "toric_hankel_lower_bound",
    "veronese_p2_indices",
    "park_n2p_bound",
    "moment_basis",
    "point_evaluation_vector",
    "moment_representable",
]


@dataclass(frozen=True)
class LatticePolygon:
    """Strictly convex lattice polygon, vertices in counterclockwise order."""

    vertices: tuple

    def __post_init__(self):
        vs = tuple((int(x), int(y)) for x, y in self.vertices)
        for (x, y), (ox, oy) in zip(vs, self.vertices):
            if x != ox or y != oy:
                raise DegeneratePolygon("vertices must have integer coordinates")
        if len(vs) < 3:
            raise DegeneratePolygon("a polygon needs at least 3 vertices")
        if len(set(vs)) != len(vs):
            raise DegeneratePolygon("vertices must be distinct")
        k = len(vs)
        edges = [(bx - ax, by - ay) for (ax, ay), (bx, by) in zip(vs, vs[1:] + vs[:1])]
        for i in range(k):
            (x1, y1), (x2, y2) = edges[i], edges[(i + 1) % k]
            if x1 * y2 - y1 * x2 <= 0:
                raise DegeneratePolygon(
                    f"vertices must turn strictly left at index {(i + 1) % k}"
                )
        # All-left turns admit star polygons winding several times around. Each
        # turn is below pi, so the edge direction crosses the positive x-axis
        # once per winding, exactly where an edge in the lower half-plane is
        # followed by one in the upper half-plane; a convex polygon crosses once.
        lower = [y < 0 or (y == 0 and x < 0) for x, y in edges]
        if sum(lower[i - 1] and not lower[i] for i in range(k)) != 1:
            raise DegeneratePolygon("vertex sequence winds more than once")
        object.__setattr__(self, "vertices", vs)


def boundary_lattice_points(p: LatticePolygon) -> int:
    """Number of lattice points on the polygon's boundary.

    Each edge from (a, b) to (c, d) carries gcd(|c - a|, |d - b|) of them,
    counting one endpoint.
    """
    vs = p.vertices
    k = len(vs)
    total = 0
    for i in range(k):
        ax, ay = vs[i]
        bx, by = vs[(i + 1) % k]
        total += math.gcd(abs(bx - ax), abs(by - ay))
    return total


def toric_gl_index(p: LatticePolygon) -> int:
    """Boundary lattice point count minus 3; undefined below 4 points."""
    b = boundary_lattice_points(p)
    if b < 4:
        raise IndexUndefined(f"index undefined for {b} < 4 boundary lattice points")
    return b - 3


def toric_hankel_lower_bound(p: LatticePolygon) -> int:
    """Boundary lattice point count minus 2; undefined below 4 points."""
    b = boundary_lattice_points(p)
    if b < 4:
        raise IndexUndefined(f"bound undefined for {b} < 4 boundary lattice points")
    return b - 2


def veronese_p2_indices(d: int):
    """(index, bound) pair (3d - 3, 3d - 2) for the degree-d plane embedding."""
    if not isinstance(d, int) or d < 2:
        raise InvalidDegree(f"degree must be an integer >= 2, got {d!r}")
    return 3 * d - 3, 3 * d - 2


def park_n2p_bound(m: int, k: int):
    """Largest p such that property N_{2,p} holds for the quadrics cutting out
    a rational normal scroll-type variety of codimension m at step k.

    Returns ``k`` when k >= m - 1, ``2k - m + 1`` when m/2 <= k <= m - 2,
    and None when the regime gives no positive bound.
    """
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"m must be an integer >= 2, got {m!r}")
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    if k >= m - 1:
        return k
    if 2 * k >= m and k <= m - 2:
        return 2 * k - m + 1
    return None


def moment_basis(num_vars: int, degree: int) -> list:
    """Exponent tuples of total degree ``degree`` in graded lex order.

    All tuples share the same total degree, so the order is descending
    lexicographic on the exponents.
    """
    if num_vars < 1 or degree < 1:
        raise InputError("num_vars and degree must be positive", code="value")
    out = []
    for combo in combinations_with_replacement(range(num_vars), degree):
        exp = [0] * num_vars
        for i in combo:
            exp[i] += 1
        out.append(tuple(exp))
    out.sort(reverse=True)
    return out


def point_evaluation_vector(point, degree: int) -> np.ndarray:
    """Monomial vector of a point in the degree-``degree`` basis.

    The rank-1 matrix v v^T is the moment operator of a unit atom at the
    point; sums of such terms are representable by construction.
    """
    pt = np.asarray(point, dtype=float).reshape(-1)
    basis = moment_basis(len(pt), degree)
    return np.array([np.prod(pt ** np.array(exp)) for exp in basis])


@dataclass(frozen=True)
class MomentOperator:
    """Symmetric matrix indexed by the degree-k monomials in num_vars variables."""

    matrix: np.ndarray
    num_vars: int
    degree: int
    basis: str = "grlex"

    def __post_init__(self):
        if self.basis != "grlex":
            raise InputError(f"unsupported basis {self.basis!r}", code="schema")
        if self.num_vars < 1 or self.degree < 1:
            raise InputError("num_vars and degree must be positive", code="value")
        mat = check_symmetric(self.matrix)
        size = math.comb(self.num_vars + self.degree - 1, self.degree)
        if mat.shape != (size, size):
            raise InputError(
                f"matrix size {mat.shape[0]} != basis size {size} for "
                f"{self.num_vars} variables at degree {self.degree}",
                code="value",
            )
        object.__setattr__(self, "matrix", mat)


def moment_representable(op: MomentOperator, hankel_bound: int,
                         tol: float = DEFAULT_TOL) -> str:
    """Classify a truncated moment operator against a rank bound.

    Returns "not_psd" when the smallest eigenvalue is below the tolerance,
    "representable" when the operator is PSD with numeric rank strictly
    below ``hankel_bound`` (an atomic representing measure then exists),
    and "indeterminate" otherwise (the test is one-sided).
    """
    if not isinstance(hankel_bound, int) or hankel_bound < 2:
        raise InputError(f"hankel_bound must be an integer >= 2, got {hankel_bound!r}",
                         code="value")
    lam = psd_min_eig(op.matrix, tol)
    scale = 1.0 + float(np.max(np.abs(op.matrix)))
    if lam < -tol * scale:
        return "not_psd"
    if numeric_rank(op.matrix, tol) < hankel_bound:
        return "representable"
    return "indeterminate"
