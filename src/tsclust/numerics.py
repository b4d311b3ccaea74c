"""Numeric primitives: symmetric eigendecomposition (one connected component
of the sparsity pattern at a time, a window of the smallest eigenvalues
first and eigenvectors on demand), minimum-norm least squares, seeded
k-means, and sub-stream seed derivation.

The eigendecomposition and SVD are delegated to LAPACK and ARPACK (via scipy
and numpy): a large component gets only its smallest eigenpairs from
Lanczos; any other is reduced to tridiagonal form once, which gives its
eigenvalues and, later, any number of its smallest eigenvectors.  Either
way a component is one record whose ``smallest(j)`` gives those vectors.  The
contracts here are the reconstruction/optimality invariants, not the
algorithm.  k-means is implemented directly so that seeding, restart
sub-streams, and tie-breaking are fully pinned down.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import eigh_tridiagonal, lapack
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .errors import InvalidK, NonFinite

_MASK64 = (1 << 64) - 1

#: Relative singular-value cutoff for the minimum-norm least-squares solve.
LSTSQ_RCOND = 1e-10

#: A connected component asked for its k smallest eigenpairs gets them from
#: Lanczos when it has more than ``LANCZOS_MIN_NODES +
#: LANCZOS_NODES_PER_VALUE * k`` nodes, and from a dense reduction otherwise.
#: The measured crossover on normalized q-NN Laplacians (one BLAS thread)
#: lies near 250 nodes for k = 6, 500 for k = 51 and 900 for k = 101.
LANCZOS_MIN_NODES = 200
LANCZOS_NODES_PER_VALUE = 6

#: In a window of k values, each component first solves for its node share of
#: the window, at least an equal share, plus this many eigenpairs (``sym_eig``).
LANCZOS_BUDGET_MARGIN = 2

#: Seed of the Lanczos start vector.
LANCZOS_SEED = 0


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
    """One connected component of a symmetric matrix: ``nodes``, its global
    indices, ascending, and ``smallest(j)``, the eigenvectors of its j smallest
    computed eigenvalues (n x j, j >= 1), or ``None`` if it computed none."""

    nodes: np.ndarray
    smallest: Callable[[int], np.ndarray] | None


def _tridiagonal(block: sparse.csr_array, k: int):
    """The k smallest eigenvalues of a block by dense reduction, and its
    ``smallest``: ``dsytrd`` (lower) reduces the block once to ``T = Q^T M Q``
    (diagonal ``d``, off-diagonal ``e``, ``Q`` as Householder reflectors with
    scales ``tau``); ``smallest(j)`` solves ``T`` for j vectors (``stemr``)
    and applies ``Q`` (``dormqr``).  k = 0 factorizes nothing: no ``smallest``."""
    n = block.shape[0]
    if k == 0:
        return np.empty(0), None
    (lwork,) = _lapack("dsytrd_lwork", n, lower=1)
    c, d, e, tau = _lapack(
        "dsytrd", block.toarray(order="F"),
        lower=1, lwork=max(1, int(lwork)), overwrite_a=1,
    )
    # dsterf needs n - 1 >= 1 off-diagonal entries; a 1 x 1 block is its value.
    values = _lapack("dsterf", d, e)[0] if n > 1 else d.copy()

    def smallest(j: int) -> np.ndarray:
        if n == 1:
            return np.ones((1, 1))
        # stemr is about twice as fast for the whole spectrum ("a") as by index.
        _, V = eigh_tridiagonal(
            d, e, select="a" if j == n else "i",
            select_range=(0, j - 1), lapack_driver="stemr",
        )
        # Q V, as LAPACK's dormtr does it for UPLO='L': the reflectors act on
        # rows 1..n-1 only.
        a = c[1:, :-1]
        _, work = _lapack("dormqr", "L", "N", a, tau, V[1:], -1)
        V[1:] = _lapack("dormqr", "L", "N", a, tau, V[1:], int(work[0]))[0]
        return V

    return values[:k], smallest


def _lanczos(block: sparse.csr_array, k: int):
    """The k smallest eigenvalues of a block by implicitly restarted Lanczos
    (ARPACK, ``tol=0``: to machine precision) and its ``smallest``, which
    reads the eigenvectors ARPACK returned with them; ``None`` if ARPACK
    does not converge.  The start vector is fixed, and not constant: a
    constant vector is an eigenvector of a regular graph's Laplacian."""
    v0 = np.random.default_rng(LANCZOS_SEED).uniform(-1.0, 1.0, block.shape[0])
    try:
        values, vectors = eigsh(block, k=k, which="SA", tol=0, v0=v0)
    except ArpackNoConvergence:
        return None
    order = np.argsort(values, kind="stable")
    return values[order], lambda j: vectors[:, order[:j]]


def _uses_lanczos(n: int, k: int) -> bool:
    """Whether a component of n nodes gets its k smallest eigenvalues from
    Lanczos rather than from a dense reduction."""
    return 0 < k < n - 1 and n > LANCZOS_MIN_NODES + LANCZOS_NODES_PER_VALUE * k


@dataclass(frozen=True)
class SpectralDecomposition:
    """The smallest eigenvalues of a symmetric matrix, ascending (all N of
    them unless a window was asked for), with their eigenvectors computed on
    demand from each component's solve.

    ``owner[i]`` is the component of the i-th smallest value computed, window
    and beyond, so ``owner.size`` is the number of eigenpairs computed.
    ``leading(k)`` and ``eigenvectors`` pair column ``i`` with ``eigenvalues[i]``.
    """

    eigenvalues: np.ndarray
    components: tuple[_Component, ...]
    owner: np.ndarray
    N: int

    def leading(self, k: int) -> np.ndarray:
        """N x k matrix of the eigenvectors of the k smallest eigenvalues.

        Each component computes only the columns it owns among the first k;
        eigenvector ``i`` is supported on the component of eigenvalue ``i``.
        """
        if not 0 <= k <= self.eigenvalues.size:
            raise ValueError(f"k={k} outside [0, {self.eigenvalues.size}]")
        V = np.zeros((self.N, k))
        for c in np.unique(self.owner[:k]):
            columns = np.flatnonzero(self.owner[:k] == c)
            block = self.components[c]
            V[np.ix_(block.nodes, columns)] = block.smallest(columns.size)
        return V

    @property
    def eigenvectors(self) -> np.ndarray:
        """The eigenvectors of all computed eigenvalues, N x
        ``eigenvalues.size``, column ``i`` paired with ``eigenvalues[i]``."""
        return self.leading(self.eigenvalues.size)


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of a k-means run.

    ``labels`` are 1-based cluster ids in ``[1, k]``.
    """

    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    iterations: int


def sym_eig(A, k: int | None = None) -> SpectralDecomposition:
    """The k smallest eigenvalues of a (numerically) symmetric real matrix,
    dense or sparse, with their eigenvectors available on demand; the whole
    spectrum when ``k`` is ``None``.

    The input is symmetrized as ``(A + A^T) / 2`` before factorization, so
    floating-point asymmetry up to the caller's tolerance is absorbed.  The
    symmetrized matrix is split into the connected components of its
    nonzero pattern (a block-diagonal matrix up to a permutation).  Of its
    ``count`` blocks, block c of ``n_c`` nodes first solves for a budget of
    ``b_c = min(k, n_c, ceil(k * max(n_c / N, 1 / count)) +
    LANCZOS_BUDGET_MARGIN)`` of its smallest eigenvalues:

    - a block with more than ``LANCZOS_MIN_NODES + LANCZOS_NODES_PER_VALUE * b_c``
      nodes gets them, with their eigenvectors, from ARPACK's implicitly
      restarted Lanczos (``eigsh``, smallest algebraic, ``tol=0``, a fixed
      seeded start vector), or from the dense path if that does not converge;
    - any other block is densified on its own and reduced once to
      tridiagonal form (LAPACK ``dsytrd``), and ``dsterf`` gives its
      ``min(k, n_c)`` smallest eigenvalues whatever its budget; its
      eigenvectors come from that reduction on demand; ``k = 0`` reduces none.

    The budgets, each at least the block's node share, add up to at least k.
    Let theta be the k-th smallest of all values computed so far.  A block
    that computed fewer than ``min(k, n_c)`` values, none of them above
    theta, may own window values it has not computed: it solves again with
    its budget doubled (at most k), until no block is in that state.  A
    connected matrix is the one-block case, with budget k.  Without ``k``
    (or with ``k = N``) every budget is ``n_c``, the dense path, so the
    spectrum is complete.  The k smallest of the blocks' eigenvalues come
    out ascending, ties in component order (components numbered by their
    lowest index).

    Raises
    ------
    NonFinite
        If ``A`` contains NaN or Inf.
    ValueError
        If ``k`` is outside ``[0, N]``.
    numpy.linalg.LinAlgError
        If a LAPACK routine reports failure.
    """
    A = sparse.csr_array(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    N = A.shape[0]
    if k is None:
        k = N
    elif not 0 <= k <= N:
        raise ValueError(f"k={k} outside [0, {N}]")
    if not np.all(np.isfinite(A.data)):
        raise NonFinite("matrix contains NaN or Inf")
    sym = ((A + A.T) / 2.0).tocsr()
    count, component = connected_components(sym, directed=False)
    # Nodes grouped by component, ascending within each: block c is the
    # contiguous range bounds[c]:bounds[c + 1] of the permuted matrix.
    nodes = np.argsort(component, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(component, minlength=count))))
    permuted = sym[nodes][:, nodes]
    spans = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
    # Each block owns at most min(k, n_c) of the window and first solves for
    # its node share of it, or an equal share if that is larger.
    sizes = np.diff(bounds)
    owned = np.minimum(k, sizes)
    share = -(-k * np.maximum(count * sizes, N) // (count * N)) + LANCZOS_BUDGET_MARGIN
    budgets = np.minimum(owned, share)
    solves, values = [None] * count, np.empty(0)
    pending = np.arange(count)
    while pending.size:
        for c in pending:
            (lo, hi), budget = spans[c], int(budgets[c])
            block = permuted[lo:hi, lo:hi]
            solve = _lanczos(block, budget) if _uses_lanczos(hi - lo, budget) else None
            solves[c] = solve or _tridiagonal(block, int(owned[c]))
        values = np.concatenate([v for v, _ in solves])
        theta = np.partition(values, k - 1)[k - 1] if k else np.inf
        # A block that stopped short of min(k, n_c) with no value above the
        # k-th smallest so far may own values it has not computed.
        pending = np.flatnonzero(
            [v.size < m and v[-1] <= theta for (v, _), m in zip(solves, owned)]
        )
        budgets[pending] = np.minimum(2 * budgets[pending], k)
    order = np.argsort(values, kind="stable")
    owner = np.repeat(np.arange(count), [v.size for v, _ in solves])[order]
    components = tuple(
        _Component(nodes[lo:hi], smallest) for (lo, hi), (_, smallest) in zip(spans, solves)
    )
    return SpectralDecomposition(values[order[:k]], components, owner, N)


def _min_norm(B: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution of ``B w ~= y`` for finite float
    ``B`` (2-D) and ``y`` (1-D), unchecked: the SVD with singular values below
    ``LSTSQ_RCOND * sigma_max`` treated as zero, which extends the
    pseudo-inverse continuously to rank-deficient ``B``."""
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
        iterations += 1
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            members = rows[labels == c]
            if members.size:
                centroids[c] = members.mean(axis=0)
    inertia = float(np.sum((rows - centroids[labels]) ** 2))
    return labels, centroids, inertia, iterations


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
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    best: KMeansResult | None = None
    for r in range(restarts):
        rng = np.random.default_rng(derive_seed(seed, r))
        centroids = _kmeans_pp_init(rows, k, rng)
        labels, centroids, inertia, iters = _lloyd(rows, centroids.copy(), max_iter)
        if best is None or inertia < best.inertia:
            best = KMeansResult(
                labels=labels + 1,
                centroids=centroids,
                inertia=inertia,
                iterations=iters,
            )
    assert best is not None
    return best
