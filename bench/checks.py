"""Independent checks of the program's outputs.

Nothing here calls into ``psdcomplete``: matrices are checked with NumPy,
graph facts come from networkx, and certificate pairings are recomputed in
exact ``Fraction`` arithmetic. Each check raises ``CheckFailure`` on a wrong
output and returns quietly otherwise.
"""

from __future__ import annotations

from fractions import Fraction

import networkx as nx
import numpy as np

# Relative tolerance for data agreement and positive semidefiniteness. The
# program searches to 1e-8 and completes chordal data to round-off, so a
# tenfold margin separates honest round-off from a wrong entry.
REL_TOL = 1e-7
RANK_TOL = 1e-8


class CheckFailure(Exception):
    """An output of the program is wrong."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def _symmetric(a, what: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    require(a.ndim == 2 and a.shape[0] == a.shape[1], f"{what} is not square")
    require(bool(np.all(np.isfinite(a))), f"{what} has non-finite entries")
    scale = 1.0 + float(np.max(np.abs(a)))
    require(float(np.max(np.abs(a - a.T))) <= REL_TOL * scale, f"{what} is not symmetric")
    return 0.5 * (a + a.T)


def _rank(w: np.ndarray) -> int:
    return int(np.sum(np.abs(w) > RANK_TOL * max(1.0, float(np.max(np.abs(w))))))


def numeric_rank(a) -> int:
    return _rank(np.linalg.eigvalsh(a))


def check_matches(a, data: np.ndarray, mask: np.ndarray, what: str) -> np.ndarray:
    """``a`` is symmetric, of the data's size, and equals the data on the mask."""
    a = _symmetric(a, what)
    require(a.shape == data.shape, f"{what} has shape {a.shape}, data {data.shape}")
    dev = float(np.max(np.abs(a[mask] - data[mask])))
    require(dev <= REL_TOL * (1.0 + float(np.max(np.abs(data)))),
            f"{what} deviates from the data by {dev:.3e}")
    return a


def check_completion(a, data, mask, max_rank=None) -> None:
    """A PSD matrix matching the data, of rank at most ``max_rank`` when given."""
    a = check_matches(a, data, mask, "completion")
    w = np.linalg.eigvalsh(a)
    require(w[0] >= -REL_TOL * (1.0 + float(np.max(np.abs(w)))),
            f"completion has eigenvalue {w[0]:.3e}")
    if max_rank is not None:
        r = _rank(w)
        require(r <= max_rank, f"completion rank {r} exceeds clique number {max_rank}")


def check_pd_witness(a, data, mask) -> None:
    """A matrix matching the data whose smallest eigenvalue is strictly positive."""
    a = check_matches(a, data, mask, "witness")
    lam = float(np.linalg.eigvalsh(a)[0])
    require(lam > 0.0, f"witness has smallest eigenvalue {lam:.3e}")


def chordal_clique_number(G: nx.Graph) -> int:
    require(nx.is_chordal(G), "pattern is not chordal")
    return max(len(c) for c in nx.chordal_graph_cliques(G))


def clique_number(G: nx.Graph) -> int:
    return max(len(c) for c in nx.find_cliques(G))


def shortest_chordless_cycle(G: nx.Graph):
    """Length of a shortest chordless cycle of length >= 4, or None when chordal."""
    if nx.is_chordal(G):
        return None
    for bound in range(4, G.number_of_nodes() + 1):
        if any(len(c) >= 4 for c in nx.chordless_cycles(G, length_bound=bound)):
            return bound
    raise CheckFailure("networkx finds no chordless cycle in a non-chordal graph")


def is_chordless_cycle(G: nx.Graph, vertices) -> bool:
    """``vertices`` induce a cycle of G of length >= 4, visited in order."""
    vs = list(vertices)
    m = len(vs)
    if m < 4 or len(set(vs)) != m or not all(v in G for v in vs):
        return False
    H = G.subgraph(vs)
    ring = all(H.has_edge(vs[t], vs[(t + 1) % m]) for t in range(m))
    return ring and H.number_of_edges() == m


def rational(x: float, limit: int = 4096) -> Fraction:
    """The small-denominator rational a float entry stands for."""
    fr = Fraction(float(x)).limit_denominator(limit)
    require(abs(float(fr) - float(x)) <= 1e-12 * (1.0 + abs(float(x))),
            f"entry {x!r} is not a small-denominator rational")
    return fr


def exact_pairing(tau, data: np.ndarray, G: nx.Graph) -> Fraction:
    """``sum tau_ii d_i + 2 sum_{ij in E} tau_ij a_ij`` in exact arithmetic."""
    n = data.shape[0]
    val = sum((rational(tau[i, i]) * Fraction(float(data[i, i])) for i in range(n)),
              Fraction(0))
    for i, j in G.edges():
        val += 2 * rational(tau[i, j]) * Fraction(float(data[i, j]))
    return val


def check_cycle_certificate(tau, data, G: nx.Graph, m: int) -> None:
    """PSD, zero off the pattern, rank m - 2, and pairing exactly -4/(m-1)."""
    tau = _symmetric(tau, "certificate")
    n = G.number_of_nodes()
    require(tau.shape == (n, n), f"certificate has shape {tau.shape}, pattern n={n}")
    w = np.linalg.eigvalsh(tau)
    lam = float(np.max(np.abs(w)))
    require(w[0] >= -1e-9 * (1.0 + lam), f"certificate has eigenvalue {w[0]:.3e}")
    off = ~np.eye(n, dtype=bool)
    for i, j in G.edges():
        off[i, j] = off[j, i] = False
    require(not np.any(tau[off]), "certificate has mass off the pattern")
    r = _rank(w)
    require(r == m - 2, f"certificate rank {r} != m - 2 = {m - 2}")
    val = exact_pairing(tau, data, G)
    want = Fraction(-4, m - 1)
    require(val == want, f"certificate pairs to {val}, expected {want}")


def cycle_ray(m: int) -> list:
    """The m-cycle extreme ray in closed form, as exact fractions.

    Written out from the formula, not taken from the program: 2 on the
    diagonal except (m-2)/(m-1) at both ends, -1 between consecutive
    vertices, 1/(m-1) at the wrap corner.
    """
    tau = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        tau[i][i] = Fraction(2)
    tau[0][0] = tau[m - 1][m - 1] = Fraction(m - 2, m - 1)
    for i in range(m - 1):
        tau[i][i + 1] = tau[i + 1][i] = Fraction(-1)
    tau[0][m - 1] = tau[m - 1][0] = Fraction(1, m - 1)
    return tau


def hard_cycle_pairing(data: np.ndarray, cycle, negative: int) -> Fraction:
    """Exact pairing of the closed-form ray, laid on the cycle, with the data.

    The layout starts just after the negative edge, so the wrap corner sits
    on it; a negative value proves that no PSD completion exists.
    """
    m = len(cycle)
    lay = [cycle[(negative + 1 + t) % m] for t in range(m)]
    tau = cycle_ray(m)
    val = Fraction(0)
    for s in range(m):
        for t in range(m):
            if tau[s][t]:
                val += tau[s][t] * Fraction(float(data[lay[s], lay[t]]))
    return val


def check_ray_report(report: dict, m: int) -> None:
    """An ``extreme-ray`` report equals the closed form exactly and has rank m - 2."""
    tau = report.get("tau")
    require(isinstance(tau, list) and len(tau) == m, "extreme-ray tau has the wrong size")
    want = cycle_ray(m)
    for i in range(m):
        require(len(tau[i]) == m, "extreme-ray tau row has the wrong length")
        for j in range(m):
            require(rational(tau[i][j]) == want[i][j],
                    f"extreme-ray tau[{i}][{j}] = {tau[i][j]!r}, expected {want[i][j]}")
    require(report.get("rank") == m - 2, f"extreme-ray rank {report.get('rank')} != {m - 2}")
    require(numeric_rank(np.array(tau, dtype=float)) == m - 2, "extreme-ray tau has the wrong rank")


def grlex_basis(num_vars: int, degree: int) -> list:
    """Exponents of total degree ``degree``, descending lexicographic."""
    def parts(k, d):
        if k == 1:
            yield (d,)
            return
        for first in range(d, -1, -1):
            for rest in parts(k - 1, d - first):
                yield (first,) + rest
    return list(parts(num_vars, degree))


def moment_matrix(points, degree: int) -> np.ndarray:
    """Sum over the points of ``v v^T`` with v the grlex monomial vector."""
    basis = grlex_basis(len(points[0]), degree)
    mat = 0.0
    for p in points:
        v = np.array([np.prod([x ** e for x, e in zip(p, exp)]) for exp in basis])
        mat = mat + np.outer(v, v)
    return mat
