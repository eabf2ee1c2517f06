"""PSD completion of graph-patterned partial matrices, with certificates of failure.

A partial symmetric matrix specifies the diagonal and one value per edge of a
pattern graph. A `Graph` analyses itself once, the data cache their slot
arrays, and each call decides in stages. A fully specified clique block
that is not PSD refutes the data at once. Chordal patterns then complete
constructively by Gram propagation, one clique-tree level per stacked
alignment, with completion rank bounded by the clique number. On
non-chordal patterns a
cycle extreme ray on a shortest chordless cycle is tried first, ranked over
all layouts in closed form, and certifies infeasibility when it pairs
negatively with the data; only data it does not refute goes to the
feasibility search. That search (``linalg.affine_psd_feasibility``) returns
the zero-filled data when it already meets the floor, and otherwise runs
Newton's method on the max-det dual, which stops at a completion or at a
pattern-supported PSD matrix pairing negatively with the data. Both entry
points reach a completion through one step that asks for every eigenvalue
to be at least a floor: Gram propagation of the shifted data on chordal
patterns, the search elsewhere. A PSD completion asks for floor 0; a
positive definite witness asks once, at half the smallest clique-block
eigenvalue or, off chordal patterns, a lower floor. The block scan is the
only place that decomposes a clique block: on chordal patterns one stacked
eigh per clique size, whose eigenpairs give the verdict and, shifted by the
floor, the Gram vectors; elsewhere a stacked eigvalsh. Both go through
``linalg``. A completion's rank comes from the decomposition that built or
accepted it, never from a second one: propagation's n x R basis B gives it
through the R x R matrix B^T B, the search through the eigenvalues of the
check that accepted its witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import NotChordal, NotPartiallyPositive, PatternMismatch
from .graphs import Graph, edge_key, index_pair
from .linalg import (
    DEFAULT_TOL,
    _block_eig,
    _gram_vectors,
    _psd_search,
    _rank_of,
    _slot_matrix,
    align_gram,
    check_symmetric,
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
    """Diagonal plus one value per edge of a pattern graph; all entries finite.

    ``_slots`` caches the specified slots as read-only (i, j, value) arrays:
    the diagonal, then the entries in sorted order. It is not a field, so
    equality and repr do not see it.
    """

    n: int
    diag: np.ndarray
    entries: dict = field(default_factory=dict)

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, int):
            raise PatternMismatch(f"size n={self.n!r} is not an integer")
        diag = np.array(self.diag, dtype=float).reshape(-1)
        if diag.shape != (self.n,):
            raise PatternMismatch(f"diagonal length {diag.shape[0]} != n={self.n}")
        if not np.all(np.isfinite(diag)):
            raise PatternMismatch("diagonal entries must be finite")
        canon = {}
        for ij, a in self.entries.items():
            try:
                i, j = index_pair(ij)
            except (TypeError, ValueError):
                raise PatternMismatch(f"entry index {ij!r} is not an integer pair") from None
            if i == j or not (0 <= i < self.n and 0 <= j < self.n):
                raise PatternMismatch(f"entry index ({i},{j}) invalid for n={self.n}")
            a = float(a)
            if not np.isfinite(a):
                raise PatternMismatch(f"entry ({i},{j}) must be finite")
            key = edge_key(i, j)
            if key in canon and canon[key] != a:
                raise PatternMismatch(f"conflicting values for entry {key}")
            canon[key] = a
        # A private read-only copy, so that the cached slots cannot go stale.
        diag.flags.writeable = False
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
        if self.entries.keys() != g.edges:
            keys = set(self.entries)
            extra = sorted(keys - g.edges)
            missing = sorted(g.edges - keys)
            raise PatternMismatch(
                f"entries do not match pattern edges (extra={extra[:4]}, missing={missing[:4]})"
            )

    @cached_property
    def _slots(self) -> tuple:
        keys = sorted(self.entries)
        ij = np.array(keys, dtype=np.intp).reshape(-1, 2)
        d = np.arange(self.n)
        out = (np.concatenate([d, ij[:, 0]]), np.concatenate([d, ij[:, 1]]),
               np.concatenate([self.diag, [self.entries[k] for k in keys]]))
        for x in out:
            x.flags.writeable = False
        return out

    def scatter(self) -> np.ndarray:
        """Dense symmetric matrix with unspecified slots set to zero, new on each call."""
        return _slot_matrix(self.n, *self._slots)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self._slots[2]), initial=0.0))


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
    if a.shape != (partial.n, partial.n):
        raise PatternMismatch(f"matrix shape {a.shape} != ({partial.n},{partial.n})")
    i, j, v = partial._slots
    return float(np.max(np.abs(a[i, j] - v), initial=0.0))


def _clique_block_scan(a: np.ndarray, g: Graph, strict: bool, tol: float):
    """Smallest-eigenvalue scan over the maximal clique blocks of scattered data a.

    Blocks of one size go through one stacked eigh, or eigvalsh when g is not
    chordal. Returns (ok, clique, min_eig, eig) where clique/min_eig describe
    the first violating block in clique order (or the first globally
    smallest eigenvalue when ok); eig holds one (clique indices, w, v) per
    clique size, the ascending eigenpairs of those blocks stacked, for
    _propagate, and is empty when g is not chordal.
    """
    cliques = g.cliques
    lam = np.empty(len(cliques))
    scale = np.empty(len(cliques))
    eig = []
    for idx, rows in g._cliques_by_size:
        blocks = a[rows[:, :, None], rows[:, None, :]]
        scale[idx] = 1.0 + np.max(np.abs(blocks), axis=(1, 2))
        if g.peo is None:
            lam[idx] = _block_eig(blocks, vectors=False)[:, 0]
            continue
        w, v = _block_eig(blocks, vectors=True)
        lam[idx] = w[:, 0]
        eig.append((idx, w, v))
    bad = lam <= tol * scale if strict else lam < -tol * scale
    t = int(np.argmax(bad)) if bad.any() else int(np.argmin(lam))
    return not bad[t], cliques[t], float(lam[t]), eig


def _scatter(g: Graph, partial: PartialSymmetricMatrix) -> np.ndarray:
    """Validate the data against g and return it scattered into a dense matrix."""
    partial.validate_against(g)
    return check_symmetric(partial.scatter())


def partially_positive(g: Graph, partial: PartialSymmetricMatrix,
                       strict: bool = False, tol: float = DEFAULT_TOL) -> bool:
    """True iff every fully specified clique block is PSD (strict: PD)."""
    return _clique_block_scan(_scatter(g, partial), g, strict, tol)[0]


def chordal_complete(g: Graph, partial: PartialSymmetricMatrix,
                     tol: float = DEFAULT_TOL):
    """PSD completion of a partially positive matrix on a chordal pattern.

    Returns complete_or_certify's (completion, rank), which Gram propagation
    builds with rank at most the clique number. Raises NotChordal on a
    non-chordal pattern and NotPartiallyPositive on a non-PSD clique block.
    """
    partial.validate_against(g)
    if g.peo is None:
        raise NotChordal("pattern must be chordal for direct completion")
    rep = complete_or_certify(g, partial, tol)
    if rep.verdict == "infeasible":
        clique, lam = rep.violating_clique, rep.separating_value
        raise NotPartiallyPositive(
            f"clique block {clique} has eigenvalue {lam:.3e}", clique=clique, min_eig=lam
        )
    return rep.completion, rep.rank


def _propagate(g: Graph, eig: list, shift: float, tol: float):
    """Completion with every eigenvalue >= shift on the chordal pattern g,
    by Gram propagation from the clique blocks' stacked eigenpairs eig,
    and the numeric rank of its Gram part.

    A block of A - shift*I has the eigenvalues w - shift and the same
    eigenvectors, so no block is decomposed again. Every block's Gram
    vectors fill R columns, R the largest kept count over all blocks, so the
    rank stays <= R. The clique tree is walked from the largest clique
    outward one level at a time: two cliques of one level share only
    vertices that earlier levels placed (running intersection), so a level
    is one stacked align_gram and its writes never overlap. Each clique's
    vertices are padded to the level's widest clique with n, a basis row
    that stays zero and counts as placed. Its placed rows of the basis, the
    rest being zero, are matched with its Gram vectors with the unplaced
    rows zeroed; the Gram matrices agree, so the alignment is exact, and the
    rotated vectors of the unplaced vertices are written. The completion
    less shift*I is B B^T for the n x R basis B; numeric_rank's rule reads
    its rank off the R x R matrix B^T B, which has the same nonzero
    eigenvalues. shift*I is added back, except at 0, where it would turn
    -0.0 into 0.0. Returns (completion, rank).
    """
    omega = max(w.shape[1] for _, w, _ in eig)
    grams = np.zeros((len(g.cliques), omega, omega))
    for idx, w, v in eig:
        size = w.shape[1]
        grams[idx, :size, :size] = _gram_vectors(w - shift, v, tol)
    # Kept columns lead in every block, so R counts the columns in use.
    grams = grams[:, :, :np.count_nonzero(grams.any(axis=(0, 1)))]
    basis = np.zeros((g.n + 1, grams.shape[2]))
    placed = np.zeros(g.n + 1, dtype=bool)
    placed[g.n] = True
    for level, rows in g._clique_levels:
        sep = placed[rows]
        q = grams[level, :rows.shape[1]]
        rot = align_gram(basis[rows], q * sep[:, :, None], tol)
        basis[rows[~sep]] = (q @ np.swapaxes(rot, 1, 2))[~sep]
        placed[rows] = True
    basis = basis[:-1]
    rank = _rank_of(_block_eig(basis.T @ basis, vectors=False), tol)
    c = basis @ basis.T
    c = 0.5 * (c + c.T)
    return (c + shift * np.eye(g.n) if shift else c), rank


def _complete(g: Graph, partial: PartialSymmetricMatrix, eig: list, shift: float,
              tol: float, max_iter: int):
    """A completion with every eigenvalue >= shift and, at shift 0, its
    numeric rank, or (None, None): Gram propagation from the scan's eig on
    chordal patterns, the search at that floor elsewhere. The rank comes
    from the decomposition that built or accepted the completion.
    """
    if g.peo is None:
        return _psd_search(g, partial, shift=shift, max_iter=max_iter, tol=tol)
    return _propagate(g, eig, shift, tol)


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
                       tol: float):
    """An extreme ray that refutes the data, laid on one of the shortest
    chordless cycles that the non-chordal pattern g keeps, or (None, None).

    The layout is chosen in closed form; only a negative minimum is embedded
    and paired, and the pairing from rays.pair decides. Returns
    (certificate, pairing value).
    """
    val, lay = _best_cycle_layout(a, g.shortest_cycles)
    if val >= 0.0:
        return None, None
    cert = embed_certificate(cycle_extreme_ray(len(lay)), lay, g.n)
    val = pair(cert, g, partial)
    if val < -tol * (1.0 + partial.max_abs()):
        return cert, val
    return None, None


def complete_or_certify(g: Graph, partial: PartialSymmetricMatrix,
                        tol: float = DEFAULT_TOL, max_iter: int = 10000) -> CompletionReport:
    """Complete the data to a PSD matrix or certify that no completion exists.

    A non-PSD clique block refutes the data at once. Chordal patterns then
    complete constructively. Otherwise up to 64 shortest chordless cycles
    are tried first: an extreme ray on one of them that pairs
    strictly negatively with the data certifies infeasibility. Only data no
    such ray refutes goes to the feasibility search, where max_iter caps the
    Newton steps on the max-det dual. With neither a certificate nor a
    witness the verdict is "undetermined": the search stopped at an iterate
    that proves infeasibility but is not reported as a certificate, or it
    gave up after max_iter steps or at an iterate that is not a witness.
    """
    a = _scatter(g, partial)
    ok, clique, lam, eig = _clique_block_scan(a, g, strict=False, tol=tol)
    if not ok:
        return CompletionReport(
            verdict="infeasible",
            separating_value=lam,
            violating_clique=tuple(clique),
        )
    if g.peo is None:
        cert, val = _cycle_certificate(g, partial, a, tol)
        if cert is not None:
            return CompletionReport(verdict="infeasible", certificate=cert,
                                    separating_value=val)
    c, rank = _complete(g, partial, eig, 0.0, tol, max_iter)
    if c is None:
        return CompletionReport(verdict="undetermined")
    return CompletionReport(verdict="completed", completion=c, rank=rank)


def pd_completion_exists(g: Graph, partial: PartialSymmetricMatrix,
                         tol: float = DEFAULT_TOL, max_iter: int = 10000) -> PDExistenceVerdict:
    """Decide whether the data admits a positive definite completion.

    A PD completion exists iff (a) every fully specified block is PD and
    (b) some PSD completion has rank above n - m + 2, where m is the length
    of a shortest chordless cycle; (b) is vacuous on chordal patterns. A PD
    witness has rank n, so (b) needs no test of its own: the code looks for
    the witness directly. On non-chordal patterns a negative cycle
    certificate pairing proves "no" first. Then one completion with every
    eigenvalue >= s is sought, s = half the smallest clique-block eigenvalue
    capped off chordal patterns at 2 * (10 * tol) * (1 + max|data|): the
    zero-filled data if it clears s, however near singular, else the max-det
    completion (max_iter Newton steps), PD whenever a PD completion exists
    (Grone-Johnson-Sa-Wolkowicz, 1984). In exact arithmetic no higher floor
    succeeds where s fails; near the data's PD margin the numeric search
    may, so "undetermined" there does not rule out a PD completion.
    """
    a = _scatter(g, partial)
    ok, _, lam, eig = _clique_block_scan(a, g, strict=True, tol=tol)
    if not ok:
        return PDExistenceVerdict(answer="no", failed_condition="clique_block")
    if g.peo is None and _cycle_certificate(g, partial, a, tol)[0] is not None:
        return PDExistenceVerdict(answer="no", failed_condition="rank_bound")

    s = 0.5 * lam
    if g.peo is None:
        s = min(s, 2.0 * (10 * tol) * (1.0 + partial.max_abs()))
    witness, _ = _complete(g, partial, eig, s, tol, max_iter)
    if witness is not None and psd_min_eig(witness, tol) > 0.0:
        return PDExistenceVerdict(answer="yes", witness=witness)
    return PDExistenceVerdict(answer="undetermined")
