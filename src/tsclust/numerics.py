"""Numeric primitives: symmetric eigendecomposition (one connected component
of the sparsity pattern at a time, eigenvalues first and eigenvectors on
demand), minimum-norm least squares, seeded k-means, and sub-stream seed
derivation.

The eigendecomposition and SVD are delegated to LAPACK (via scipy and
numpy): each component is reduced to tridiagonal form once, which gives the
whole spectrum and, later, any number of its smallest eigenvectors.  The
contracts here are the reconstruction/optimality invariants, not the
algorithm.  k-means is implemented directly so that seeding, restart
sub-streams, and tie-breaking are fully pinned down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import eigh_tridiagonal, lapack
from scipy.sparse.csgraph import connected_components

from .errors import InvalidK, NonFinite

_MASK64 = (1 << 64) - 1

#: Relative singular-value cutoff for the minimum-norm least-squares solve.
LSTSQ_RCOND = 1e-10


def _splitmix64(x: int) -> int:
    """One step of the splitmix64 mixer (stable 64-bit integer hash)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(seed: int, index: int) -> int:
    """Derive an independent sub-stream seed from ``(seed, index)``.

    Computes ``mix(seed XOR hash(index))`` where both ``hash`` and ``mix``
    are splitmix64 steps, so derivation is stable across platforms and
    Python processes.  The outer mix keeps nested derivations from
    colliding (a bare XOR chain is symmetric in its indices).  Used for
    k-means restarts, per-subspace draws, and per-trial Monte Carlo seeds.
    """
    inner = ((int(seed) & _MASK64) ^ _splitmix64(int(index) & _MASK64)) & _MASK64
    return _splitmix64(inner)


def _lapack(routine, *args, **kwargs):
    """Call a ``scipy.linalg.lapack`` routine and check its ``info``."""
    *out, info = getattr(lapack, routine)(*args, **kwargs)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed with info={info}")
    return out


@dataclass(frozen=True)
class _Component:
    """One connected component of a symmetric matrix, reduced by ``dsytrd``
    (lower) to the tridiagonal ``T = Q^T M Q`` with diagonal ``d`` and
    off-diagonal ``e``.  ``Q`` is kept as Householder reflectors below the
    subdiagonal of ``reflectors`` with scales ``tau``.  ``nodes`` are the
    component's global indices, ascending; ``columns`` the global position of
    each of its eigenvalues, ascending with them."""

    nodes: np.ndarray
    columns: np.ndarray
    reflectors: np.ndarray
    tau: np.ndarray
    d: np.ndarray
    e: np.ndarray

    def smallest(self, k: int) -> np.ndarray:
        """The eigenvectors of the block's k smallest eigenvalues (n x k)."""
        if self.d.size == 1:
            return np.ones((1, 1))
        # stemr is about twice as fast for the whole spectrum ("a") as by index.
        _, V = eigh_tridiagonal(
            self.d, self.e, select="a" if k == self.d.size else "i",
            select_range=(0, k - 1), lapack_driver="stemr",
        )
        # Q V, as LAPACK's dormtr does it for UPLO='L': the reflectors act on
        # rows 1..n-1 only.
        a = self.reflectors[1:, :-1]
        _, work = _lapack("dormqr", "L", "N", a, self.tau, V[1:], -1)
        V[1:] = _lapack("dormqr", "L", "N", a, self.tau, V[1:], int(work[0]))[0]
        return V


@dataclass(frozen=True)
class SpectralDecomposition:
    """Spectrum of a symmetric matrix, eigenvalues ascending, with the
    eigenvectors computed on demand from each component's tridiagonal form.

    ``leading(k)`` holds the eigenvectors of ``eigenvalues[:k]``, column
    ``i`` paired with ``eigenvalues[i]``; ``eigenvectors`` is ``leading(N)``.
    """

    eigenvalues: np.ndarray
    components: tuple[_Component, ...]

    def leading(self, k: int) -> np.ndarray:
        """N x k matrix of the eigenvectors of the k smallest eigenvalues.

        Each component computes only the columns it owns among the first k;
        eigenvector ``i`` is supported on the component of eigenvalue ``i``.
        """
        N = self.eigenvalues.size
        if not 0 <= k <= N:
            raise ValueError(f"k={k} outside [0, {N}]")
        V = np.zeros((N, k))
        for block in self.components:
            owned = int(np.count_nonzero(block.columns < k))
            if owned:
                V[np.ix_(block.nodes, block.columns[:owned])] = block.smallest(owned)
        return V

    @property
    def eigenvectors(self) -> np.ndarray:
        """All N eigenvectors as an N x N matrix, column ``i`` paired with
        ``eigenvalues[i]``."""
        return self.leading(self.eigenvalues.size)


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of a k-means run.

    ``labels`` are 1-based cluster ids in ``[1, k]``.  ``inertia_history``
    holds the per-iteration inertia of the winning restart (non-increasing).
    """

    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    iterations: int
    inertia_history: tuple[float, ...]


def sym_eig(A) -> SpectralDecomposition:
    """Complete spectrum of a (numerically) symmetric real matrix, dense or
    sparse, with its eigenvectors available on demand.

    The input is symmetrized as ``(A + A^T) / 2`` before factorization, so
    floating-point asymmetry up to the caller's tolerance is absorbed.  The
    symmetrized matrix is split into the connected components of its
    nonzero pattern (a block-diagonal matrix up to a permutation).  Each
    block is densified on its own and reduced once to tridiagonal form
    (LAPACK ``dsytrd``), and ``dsterf`` gives all its eigenvalues; the
    spectrum is therefore exact and complete, and a connected matrix is the
    one-block case.  The N eigenvalues come out ascending, ties in component
    order (components numbered by their lowest index).  No eigenvector is
    computed here: :meth:`SpectralDecomposition.leading` computes the ones
    it is asked for from the kept reductions.

    Raises
    ------
    NonFinite
        If ``A`` contains NaN or Inf.
    numpy.linalg.LinAlgError
        If a LAPACK routine reports failure.
    """
    A = sparse.csr_array(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A.data)):
        raise NonFinite("matrix contains NaN or Inf")
    sym = ((A + A.T) / 2.0).tocsr()
    count, component = connected_components(sym, directed=False)
    # Nodes grouped by component, ascending within each: block c is the
    # contiguous range bounds[c]:bounds[c + 1] of the permuted matrix.
    nodes = np.argsort(component, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(component, minlength=count))))
    permuted = sym[nodes][:, nodes]
    spans = list(zip(bounds[:-1], bounds[1:]))
    reductions, values = [], []
    for lo, hi in spans:
        n = int(hi - lo)
        (lwork,) = _lapack("dsytrd_lwork", n, lower=1)
        c, d, e, tau = _lapack(
            "dsytrd", permuted[lo:hi, lo:hi].toarray(order="F"),
            lower=1, lwork=max(1, int(lwork)), overwrite_a=1,
        )
        reductions.append((c, tau, d, e))
        # dsterf needs n - 1 >= 1 off-diagonal entries; a 1 x 1 block is its value.
        values.append(_lapack("dsterf", d, e)[0] if n > 1 else d.copy())
    values = np.concatenate(values)
    order = np.argsort(values, kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(order.size)
    components = tuple(
        _Component(nodes[lo:hi], column[lo:hi], *reduction)
        for (lo, hi), reduction in zip(spans, reductions)
    )
    return SpectralDecomposition(eigenvalues=values[order], components=components)


def least_squares(B: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution of ``B w ~= y``.

    Computed through the SVD with singular values below
    ``LSTSQ_RCOND * sigma_max`` treated as zero, which extends the
    pseudo-inverse continuously to rank-deficient ``B``.

    Raises
    ------
    NonFinite
        If ``B`` or ``y`` contains NaN or Inf.
    """
    B = np.asarray(B, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if B.ndim != 2:
        raise ValueError(f"B must be 2-D, got shape {B.shape}")
    if B.shape[0] != y.size:
        raise ValueError(f"B has {B.shape[0]} rows but y has {y.size} entries")
    if not (np.all(np.isfinite(B)) and np.all(np.isfinite(y))):
        raise NonFinite("least-squares input contains NaN or Inf")
    U, s, Vt = np.linalg.svd(B, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros(B.shape[1])
    keep = s > LSTSQ_RCOND * s[0]
    coeffs = (U[:, keep].T @ y) / s[keep]
    return Vt[keep].T @ coeffs


def _kmeans_pp_init(rows: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: D^2-weighted sampling of k initial centroids."""
    n = rows.shape[0]
    centroids = np.empty((k, rows.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = rows[first]
    d2 = np.sum((rows - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            # All remaining mass sits on already-chosen locations.
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[i] = rows[idx]
        np.minimum(d2, np.sum((rows - centroids[i]) ** 2, axis=1), out=d2)
    return centroids


def _lloyd(rows: np.ndarray, centroids: np.ndarray, max_iter: int):
    """Lloyd iterations from the given centroids.

    Empty clusters are reseeded deterministically with the point farthest
    from its assigned centroid, so inertia stays non-increasing.
    """
    n = rows.shape[0]
    k = centroids.shape[0]
    labels = np.full(n, -1, dtype=int)
    history: list[float] = []
    iterations = 0
    for _ in range(max_iter):
        # One centroid at a time: an (n, k, p) difference tensor would not fit
        # in memory for large k.
        dists = np.empty((n, k))
        for c in range(k):
            dists[:, c] = np.sum((rows - centroids[c]) ** 2, axis=1)
        new_labels = np.argmin(dists, axis=1)
        point_d2 = dists[np.arange(n), new_labels]
        for c in range(k):
            if not np.any(new_labels == c):
                far = int(np.argmax(point_d2))
                new_labels[far] = c
                point_d2[far] = 0.0
        history.append(float(point_d2.sum()))
        iterations += 1
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            members = rows[labels == c]
            if members.size:
                centroids[c] = members.mean(axis=0)
    inertia = float(
        np.sum((rows - centroids[labels]) ** 2)
    )
    return labels, centroids, inertia, iterations, tuple(history)


def kmeans(
    rows: np.ndarray,
    k: int,
    seed: int,
    restarts: int = 10,
    max_iter: int = 100,
) -> KMeansResult:
    """Seeded k-means over the rows of an ``n x p`` matrix.

    Each restart ``r`` draws from the sub-stream ``derive_seed(seed, r)``;
    the restart with the lowest inertia wins, ties resolved by lowest
    restart index.  Deterministic for fixed inputs.

    Raises
    ------
    InvalidK
        If ``k < 1`` or ``k > n``.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError(f"rows must be 2-D, got shape {rows.shape}")
    n = rows.shape[0]
    if k < 1 or k > n:
        raise InvalidK(f"k={k} outside [1, {n}]")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    best: KMeansResult | None = None
    for r in range(restarts):
        rng = np.random.default_rng(derive_seed(seed, r))
        centroids = _kmeans_pp_init(rows, k, rng)
        labels, centroids, inertia, iters, history = _lloyd(rows, centroids.copy(), max_iter)
        if best is None or inertia < best.inertia:
            best = KMeansResult(
                labels=labels + 1,
                centroids=centroids,
                inertia=inertia,
                iterations=iters,
                inertia_history=history,
            )
    assert best is not None
    return best
