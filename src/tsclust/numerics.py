"""Numeric primitives: symmetric eigendecomposition (one connected component
of the sparsity pattern at a time), minimum-norm least squares, seeded
k-means, and sub-stream seed derivation.

The eigendecomposition and SVD are delegated to LAPACK (via numpy); the
contracts here are the reconstruction/optimality invariants, not the
algorithm.  k-means is implemented directly so that seeding, restart
sub-streams, and tie-breaking are fully pinned down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
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


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending.

    Column ``i`` of ``eigenvectors`` pairs with ``eigenvalues[i]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


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
    """Complete eigendecomposition of a (numerically) symmetric real matrix,
    dense or sparse.

    The input is symmetrized as ``(A + A^T) / 2`` before factorization, so
    floating-point asymmetry up to the caller's tolerance is absorbed.  The
    symmetrized matrix is split into the connected components of its
    nonzero pattern (a block-diagonal matrix up to a permutation) and each
    block is solved with dense ``eigh``; the spectrum is therefore exact and
    complete, and a connected matrix is the one-block case.  The N
    eigenvalues come out ascending, ties in component order (components
    numbered by their lowest index), and eigenvector ``i`` is supported on
    the component of eigenvalue ``i``.  Only the N x N eigenvector matrix is
    dense; each block is densified on its own.

    Raises
    ------
    NonFinite
        If ``A`` contains NaN or Inf.
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
    solved = [np.linalg.eigh(permuted[lo:hi, lo:hi].toarray()) for lo, hi in spans]
    values = np.concatenate([w for w, _ in solved])
    order = np.argsort(values, kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(order.size)
    eigenvectors = np.zeros((order.size, order.size))
    for (lo, hi), (_, V) in zip(spans, solved):
        eigenvectors[np.ix_(nodes[lo:hi], column[lo:hi])] = V
    return SpectralDecomposition(eigenvalues=values[order], eigenvectors=eigenvectors)


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
        dists = np.sum((rows[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
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
