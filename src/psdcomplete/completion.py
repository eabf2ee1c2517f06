"""PSD completion of graph-patterned partial matrices, with certificates of failure.

A partial symmetric matrix specifies the diagonal and one value per edge of a
pattern graph. Each call analyses the pattern once and then decides in
stages. A fully specified clique block that is not PSD refutes the data at
once. Chordal patterns then complete constructively by Gram propagation,
with completion rank bounded by the clique number. On non-chordal patterns a
cycle extreme ray on a shortest chordless cycle is tried first, ranked over
all layouts in closed form, and certifies infeasibility when it pairs
negatively with the data; only data it does not refute goes to the
feasibility search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NotChordal, NotPartiallyPositive, PatternMismatch
from .graphs import (
    Graph,
    _chordal_analysis,
    _clique_tree,
    _induced_cycles,
    _maximal_cliques,
    _shortest_cycle_length,
    edge_key,
    rooted_clique_order,
)
from .linalg import (
    DEFAULT_TOL,
    GRAM_TOL,
    affine_psd_feasibility,
    align_gram,
    check_symmetric,
    gram_factor,
    numeric_rank,
    psd_min_eig,
)
from .rays import ExtremeRayCertificate, cycle_extreme_ray, embed_certificate, pair

__all__ = [
    "PartialSymmetricMatrix",
    "CompletionReport",
    "PDExistenceVerdict",
    "partially_positive",
    "completion_residual",
    "chordal_complete",
    "complete_or_certify",
    "pd_completion_exists",
]


@dataclass(frozen=True)
class PartialSymmetricMatrix:
    """Diagonal plus one value per edge of a pattern graph; all entries finite."""

    n: int
    diag: np.ndarray
    entries: dict = field(default_factory=dict)

    def __post_init__(self):
        diag = np.asarray(self.diag, dtype=float).reshape(-1)
        if diag.shape != (self.n,):
            raise PatternMismatch(f"diagonal length {diag.shape[0]} != n={self.n}")
        if not np.all(np.isfinite(diag)):
            raise PatternMismatch("diagonal entries must be finite")
        canon = {}
        for (i, j), a in self.entries.items():
            if i == j or not (0 <= i < self.n and 0 <= j < self.n):
                raise PatternMismatch(f"entry index ({i},{j}) invalid for n={self.n}")
            a = float(a)
            if not np.isfinite(a):
                raise PatternMismatch(f"entry ({i},{j}) must be finite")
            key = edge_key(i, j)
            if key in canon and canon[key] != a:
                raise PatternMismatch(f"conflicting values for entry {key}")
            canon[key] = a
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "entries", canon)

    @classmethod
    def from_full(cls, g: Graph, a) -> "PartialSymmetricMatrix":
        """Project a full symmetric matrix onto the pattern of g."""
        a = np.asarray(a, dtype=float)
        if a.shape != (g.n, g.n):
            raise PatternMismatch(f"matrix shape {a.shape} != ({g.n},{g.n})")
        entries = {(i, j): float(a[i, j]) for i, j in g.sorted_edges()}
        return cls(g.n, np.diagonal(a).copy(), entries)

    def validate_against(self, g: Graph) -> None:
        """Require entry keys to coincide exactly with the pattern's edge set."""
        if self.n != g.n:
            raise PatternMismatch(f"partial matrix n={self.n} != pattern n={g.n}")
        keys = set(self.entries)
        if keys != g.edges:
            extra = sorted(keys - g.edges)
            missing = sorted(g.edges - keys)
            raise PatternMismatch(
                f"entries do not match pattern edges (extra={extra[:4]}, missing={missing[:4]})"
            )

    def scatter(self, fill: float = 0.0) -> np.ndarray:
        """Dense symmetric matrix with unspecified slots set to fill."""
        a = np.full((self.n, self.n), float(fill))
        np.fill_diagonal(a, self.diag)
        for (i, j), v in self.entries.items():
            a[i, j] = a[j, i] = v
        return a

    def mask(self) -> np.ndarray:
        """Boolean matrix marking the specified slots."""
        m = np.zeros((self.n, self.n), dtype=bool)
        np.fill_diagonal(m, True)
        for i, j in self.entries:
            m[i, j] = m[j, i] = True
        return m

    def max_abs(self) -> float:
        vals = [abs(float(v)) for v in self.entries.values()]
        vals.append(float(np.max(np.abs(self.diag))) if self.n else 0.0)
        return max(vals)

    def with_diag(self, diag) -> "PartialSymmetricMatrix":
        return PartialSymmetricMatrix(self.n, np.asarray(diag, dtype=float),
                                      dict(self.entries))


@dataclass(frozen=True)
class CompletionReport:
    """Outcome of complete_or_certify.

    verdict is "completed", "infeasible" or "undetermined". Infeasible
    reports carry either an extreme-ray certificate with its (negative)
    pairing value, or the violating clique of a non-PSD block together with
    that block's smallest eigenvalue as the separating value.
    """

    verdict: str
    completion: Optional[np.ndarray] = None
    rank: Optional[int] = None
    certificate: Optional[ExtremeRayCertificate] = None
    separating_value: Optional[float] = None
    violating_clique: Optional[tuple] = None


@dataclass(frozen=True)
class PDExistenceVerdict:
    """Outcome of pd_completion_exists: answer "yes", "no" or "undetermined".

    Yes carries a positive definite witness. No carries the failed condition:
    "clique_block" (a fully specified block is not PD) or "rank_bound" (no
    PSD completion exists at all, certified by a negative pairing).
    """

    answer: str
    witness: Optional[np.ndarray] = None
    failed_condition: Optional[str] = None


def completion_residual(partial: PartialSymmetricMatrix, a) -> float:
    """Largest absolute deviation of a matrix from the specified data."""
    a = np.asarray(a, dtype=float)
    dev = float(np.max(np.abs(np.diagonal(a) - partial.diag)))
    for (i, j), v in partial.entries.items():
        dev = max(dev, abs(float(a[i, j]) - v))
    return dev


def _clique_block_scan(a: np.ndarray, cliques: list, strict: bool, tol: float):
    """Smallest-eigenvalue scan over the maximal clique blocks of scattered data a.

    Blocks of one size go through one stacked eigvalsh. Returns (ok, clique,
    min_eig) where clique/min_eig describe the first violating block in
    clique order (or the first globally smallest eigenvalue when ok).
    """
    lam = np.empty(len(cliques))
    scale = np.empty(len(cliques))
    by_size = {}
    for t, K in enumerate(cliques):
        by_size.setdefault(len(K), []).append(t)
    for idx in by_size.values():
        rows = np.array([cliques[t] for t in idx])
        blocks = a[rows[:, :, None], rows[:, None, :]]
        lam[idx] = np.linalg.eigvalsh(blocks)[:, 0]
        scale[idx] = 1.0 + np.max(np.abs(blocks), axis=(1, 2))
    bad = lam <= tol * scale if strict else lam < -tol * scale
    t = int(np.argmax(bad)) if bad.any() else int(np.argmin(lam))
    return not bad[t], cliques[t], float(lam[t])


def _analyse(g: Graph, partial: PartialSymmetricMatrix):
    """Validate the data against g and analyse the pattern once.

    Returns (scattered data, adjacency, perfect elimination ordering or None
    when g is not chordal, maximal cliques).
    """
    partial.validate_against(g)
    adj, peo = _chordal_analysis(g)
    a = check_symmetric(partial.scatter(0.0))
    return a, adj, peo, _maximal_cliques(g, adj, peo)


def partially_positive(g: Graph, partial: PartialSymmetricMatrix,
                       strict: bool = False, tol: float = DEFAULT_TOL) -> bool:
    """True iff every fully specified clique block is PSD (strict: PD)."""
    a, _, _, cliques = _analyse(g, partial)
    ok, _, _ = _clique_block_scan(a, cliques, strict, tol)
    return ok


def chordal_complete(g: Graph, partial: PartialSymmetricMatrix,
                     tol: float = DEFAULT_TOL):
    """PSD completion of a partially positive matrix on a chordal pattern.

    Walks the clique tree from the largest clique outward, keeping one Gram
    vector per completed vertex. Each new clique block is factored and its
    separator vectors rotated onto the committed ones (the Gram matrices
    agree, so the alignment is exact); unspecified entries become inner
    products. The result is PSD with rank at most the clique number.

    Returns (completion, rank).
    """
    a, _, peo, cliques = _analyse(g, partial)
    if peo is None:
        raise NotChordal("pattern must be chordal for direct completion")
    ok, clique, lam = _clique_block_scan(a, cliques, strict=False, tol=tol)
    if not ok:
        raise NotPartiallyPositive(
            f"clique block {clique} has eigenvalue {lam:.3e}", clique=clique, min_eig=lam
        )
    return _propagate(a, cliques, tol)


def _propagate(a: np.ndarray, cliques: list, tol: float):
    """Gram propagation of chordal_complete on scattered data a that is
    partially positive on the maximal cliques of a chordal pattern."""
    n = a.shape[0]
    tree = _clique_tree(cliques)
    order, _ = rooted_clique_order(tree)
    vecs = {}
    r = 0
    for idx in order:
        K = tree.cliques[idx]
        fac = gram_factor(a[np.ix_(K, K)], tol)
        r_new = max(r, fac.rank)
        if r_new > r:
            for v in vecs:
                vecs[v] = np.append(vecs[v], np.zeros(r_new - r))
            r = r_new
        q = fac.padded(r)
        sep = [t for t, v in enumerate(K) if v in vecs]
        new = [t for t, v in enumerate(K) if v not in vecs]
        p_sep = np.array([vecs[K[t]] for t in sep]).reshape(len(sep), r)
        rot = align_gram(p_sep, q[sep], tol=GRAM_TOL)
        for t in new:
            vecs[K[t]] = rot @ q[t]
    basis = np.array([vecs[v] for v in range(n)]).reshape(n, r)
    c = basis @ basis.T
    c = 0.5 * (c + c.T)
    return c, numeric_rank(c, tol)


def _best_cycle_layout(a: np.ndarray, cycles: list):
    """Most negative pairing of cycle_extreme_ray over layouts on the cycles.

    Rotation i of cycle vs lays the ray along vs[i:] + vs[:i], so its wrap
    edge is (p, q) = (vs[i-1], vs[i]). With d the diagonal and e the cycle's
    edge values in the scattered data a, that layout pairs in closed form to
    2*sum(d) - 2*sum(e) + m/(m-1) * (2*e_pq - d_p - d_q). Reflections embed
    the same tau and are skipped. Returns (value, layout) for the first
    minimum in (cycle, rotation) order.
    """
    vs = np.array([c.vertices for c in cycles])
    m = vs.shape[1]
    prev = np.roll(vs, 1, axis=1)
    d = np.diagonal(a)
    e = a[prev, vs]
    vals = 2.0 * (d[vs].sum(axis=1) - e.sum(axis=1))[:, None] + \
        m / (m - 1.0) * (2.0 * e - d[prev] - d[vs])
    c, i = divmod(int(np.argmin(vals)), m)
    lay = cycles[c].vertices
    return float(vals[c, i]), lay[i:] + lay[:i]


def _cycle_certificate(g: Graph, partial: PartialSymmetricMatrix, a: np.ndarray,
                       cycles: list, tol: float):
    """Shortest-cycle extreme ray refuting the data, or (None, None).

    The layout is chosen in closed form; only a negative minimum is embedded
    and paired, and the pairing from rays.pair decides. Returns
    (certificate, pairing value).
    """
    if not cycles:
        return None, None
    val, lay = _best_cycle_layout(a, cycles)
    if val >= 0.0:
        return None, None
    cert = embed_certificate(cycle_extreme_ray(len(lay)), lay, g.n)
    val = pair(cert, g, partial)
    if val < -tol * (1.0 + partial.max_abs()):
        return cert, val
    return None, None


def complete_or_certify(g: Graph, partial: PartialSymmetricMatrix,
                        tol: float = DEFAULT_TOL, max_iter: int = 10000,
                        cycle_limit: int = 64) -> CompletionReport:
    """Complete the data to a PSD matrix or certify that no completion exists.

    A non-PSD clique block refutes the data at once. Chordal patterns then
    complete constructively. Otherwise up to cycle_limit shortest chordless
    cycles are tried first: an extreme ray on one of them that pairs
    strictly negatively with the data certifies infeasibility. Only data no
    such ray refutes goes to the alternating projection search. With
    neither a certificate nor a witness the verdict is "undetermined" (the
    search is allowed to give up).
    """
    a, adj, peo, cliques = _analyse(g, partial)
    ok, clique, lam = _clique_block_scan(a, cliques, strict=False, tol=tol)
    if not ok:
        return CompletionReport(
            verdict="infeasible",
            separating_value=lam,
            violating_clique=tuple(clique),
        )
    if peo is not None:
        c, rank = _propagate(a, cliques, tol)
        return CompletionReport(verdict="completed", completion=c, rank=rank)

    m = _shortest_cycle_length(g, adj)
    cycles = _induced_cycles(g, adj, m, limit=cycle_limit)
    cert, val = _cycle_certificate(g, partial, a, cycles, tol)
    if cert is not None:
        return CompletionReport(verdict="infeasible", certificate=cert, separating_value=val)

    witness = affine_psd_feasibility(g, partial, shift=0.0, max_iter=max_iter)
    if witness is not None:
        return CompletionReport(
            verdict="completed", completion=witness, rank=numeric_rank(witness, tol)
        )
    return CompletionReport(verdict="undetermined")


def pd_completion_exists(g: Graph, partial: PartialSymmetricMatrix,
                         tol: float = DEFAULT_TOL, max_iter: int = 10000) -> PDExistenceVerdict:
    """Decide whether the data admits a positive definite completion.

    A PD completion exists iff (a) every fully specified block is PD and
    (b) some PSD completion has rank above n - m + 2, where m is the length
    of a shortest chordless cycle; (b) is vacuous on chordal patterns.
    Chordal patterns get a constructed witness. Non-chordal patterns are
    probed by bisection on the eigenvalue floor; a negative certificate
    pairing proves "no", and an inconclusive search answers "undetermined".
    """
    a, adj, peo, cliques = _analyse(g, partial)
    ok, clique, lam = _clique_block_scan(a, cliques, strict=True, tol=tol)
    if not ok:
        return PDExistenceVerdict(answer="no", failed_condition="clique_block")

    if peo is not None:
        # Shift the diagonal down by half the worst block margin, complete,
        # then shift back up: a PD witness with margin s.
        s = 0.5 * lam
        c, _ = _propagate(a - s * np.eye(g.n), cliques, tol)
        witness = c + s * np.eye(g.n)
        return PDExistenceVerdict(answer="yes", witness=witness)

    m = _shortest_cycle_length(g, adj)
    cert, _ = _cycle_certificate(g, partial, a, _induced_cycles(g, adj, m, limit=64), tol)
    if cert is not None:
        return PDExistenceVerdict(answer="no", failed_condition="rank_bound")

    lo, hi = 0.0, float(np.max(partial.diag))
    witness = None
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        cand = affine_psd_feasibility(g, partial, shift=mid, max_iter=max_iter)
        if cand is not None:
            witness = cand
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * (1.0 + hi):
            break
    if witness is not None and psd_min_eig(witness) > 0.0 and \
            numeric_rank(witness, tol) > g.n - m + 2:
        return PDExistenceVerdict(answer="yes", witness=witness)
    return PDExistenceVerdict(answer="undetermined")
