"""The clustering pipeline: pick each point's q nearest neighbors under the
spherical pseudo-distance, turn the retained correlations into edge weights,
symmetrize into an adjacency matrix, and cluster the normalized-Laplacian
embedding.  The number of clusters is either supplied or estimated from the
largest eigenvalue gap at the small end of the Laplacian spectrum, which is
the only part computed (:data:`DEFAULT_MAX_L`).  The points are normalized
once (:func:`~tsclust.geometry.normalize_columns`); neighbor selection is the
one pass over the float64 |X^T X| kernel,
:func:`~tsclust.geometry.abs_gram_rows`, which runs on every usable CPU, and
the ``exp`` weights read the correlations it picked (:class:`Neighbors`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import ConfigError, NonFinite, QTooLarge, TooFewPoints
from .geometry import CORRELATION_BLOCK, PointSet, abs_gram_rows, normalize_columns, write_csv
from .numerics import SpectralDecomposition, _min_norm, kmeans, sym_eig

#: Node degrees at or below this are treated as zero (isolated node).
DEGREE_TOL = 1e-14

#: Embedding rows with norm at or below this are left as zero rows.
ROW_NORM_TOL = 1e-14

WEIGHT_VARIANTS = ("exp", "ls")

#: The eigengap window: the largest gap index the cluster-count estimate
#: searches when ``max_L`` is None.  ``run_tsc`` computes only the
#: ``max(max_L + 1, L)`` smallest Laplacian eigenvalues (at most N).
DEFAULT_MAX_L = 50


@dataclass(frozen=True)
class TscConfig:
    """Pipeline parameters.

    ``q`` is the neighbor count.  ``weight_variant`` selects between
    ``"exp"`` (edge weight ``exp(-2 arccos |corr|)``) and ``"ls"`` (absolute
    values of the minimum-norm least-squares coefficients of each point on
    its neighbors).  ``num_subspaces`` fixes the cluster count; ``None``
    estimates it with the eigengap heuristic, searching gap indices up to
    ``max_L`` (``None``: :data:`DEFAULT_MAX_L`), which also sizes the
    computed spectrum.  ``correlation_normalize`` divides the columns by
    their norms before the inner products, so unnormalized inputs behave as
    if unit-normalized; disable to rank raw absolute inner products as they
    are (the ``exp`` weights read those above 1 as 1).
    """

    q: int
    weight_variant: str = "exp"
    num_subspaces: int | None = None
    max_L: int | None = None
    seed: int = 0
    kmeans_restarts: int = 10
    kmeans_max_iter: int = 100
    correlation_normalize: bool = True

    def __post_init__(self):
        if self.q < 1:
            raise ConfigError(f"q must be >= 1, got {self.q}")
        if self.weight_variant not in WEIGHT_VARIANTS:
            raise ConfigError(
                f"weight_variant must be one of {WEIGHT_VARIANTS}, got {self.weight_variant!r}"
            )
        if self.num_subspaces is not None and self.num_subspaces < 1:
            raise ConfigError(f"num_subspaces must be >= 1, got {self.num_subspaces}")
        if self.max_L is not None and self.max_L < 1:
            raise ConfigError(f"max_L must be >= 1, got {self.max_L}")
        if self.kmeans_restarts < 1:
            raise ConfigError(f"kmeans_restarts must be >= 1, got {self.kmeans_restarts}")
        if self.kmeans_max_iter < 1:
            raise ConfigError(f"kmeans_max_iter must be >= 1, got {self.kmeans_max_iter}")


@dataclass(frozen=True)
class Neighbors:
    """Row j of the (N, q) ``index`` holds the neighbors of point j in
    descending ``|corr|`` order, ties by index; row j of ``corr`` holds their
    absolute inner products (of unit columns: rounding can give 1 + ulp)."""

    index: np.ndarray
    corr: np.ndarray


@dataclass(frozen=True)
class NeighborGraph:
    """The :class:`Neighbors` it was built from (or ``None``), the weight matrix
    Z (column j supported on the neighbors of point j), and A = Z + Z^T.

    ``Z`` and ``A`` are ``scipy.sparse.csr_array`` of shape (N, N) that store
    at most qN and 2qN entries; call ``.toarray()`` for a dense copy.
    """

    neighbor_sets: Neighbors | None
    Z: sparse.csr_array
    A: sparse.csr_array

    def edges_to_csv(self, path) -> None:
        """Write the nonzero upper-triangle adjacency entries as ``i,j,weight``,
        in row-major order."""
        coo = self.A.tocoo()
        keep = (coo.row < coo.col) & (coo.data != 0.0)
        rows, cols, weights = coo.row[keep], coo.col[keep], coo.data[keep]
        order = np.lexsort((cols, rows))
        write_csv(path, ["i", "j", "weight"], zip(rows[order], cols[order], weights[order]))


@dataclass(frozen=True)
class ClusterResult:
    """Pipeline output: 1-based labels, the cluster count used, the window of
    the smallest Laplacian eigenvalues, ascending (``min(N, max(max_L + 1,
    L))`` of them, solved one connected component of the graph at a time,
    see :func:`tsclust.numerics.sym_eig`), the gap index when the count was
    estimated, and the neighbor graph the clustering was computed from
    (sparse ``Z`` and ``A``, see :class:`NeighborGraph`).  Only the
    ``L_hat`` eigenvectors the clustering used were taken; none is kept."""

    labels: np.ndarray
    L_hat: int
    laplacian_eigenvalues: np.ndarray
    eigengap_index: int | None = None
    graph: NeighborGraph | None = None

    def labels_to_csv(self, path) -> None:
        write_csv(path, ["index", "label"], enumerate(self.labels))

    def to_json_dict(self) -> dict:
        return {
            "N": int(self.labels.size),
            "L_hat": int(self.L_hat),
            "eigengap_index": None if self.eigengap_index is None else int(self.eigengap_index),
            "labels": [int(v) for v in self.labels],
            "laplacian_eigenvalues": [float(v) for v in self.laplacian_eigenvalues],
        }


def default_q(n: int, L_known: bool) -> int:
    """Default neighbor count ``max(3, ceil(n/20))`` for ``n`` points per
    cluster, doubled when the cluster count is estimated rather than given."""
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    q = max(3, -(-n // 20))
    return q if L_known else 2 * q


def _top_q(C: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``C``, the q column indices of largest value in descending
    order (ties to the lower index, NaN above all) and those values.

    ``C`` is scratch: its picked entries are overwritten.  The partition runs
    over row slices of at most ``CORRELATION_BLOCK**2`` entries, so that its
    index array, the one temporary as wide as ``C``, stays small next to the
    kernel's block on every thread."""
    top = np.empty((C.shape[0], q), np.intp)
    step = max(1, CORRELATION_BLOCK**2 // C.shape[1])
    for at in range(0, C.shape[0], step):
        top[at:at + step] = np.argpartition(C[at:at + step], C.shape[1] - q, axis=1)[:, -q:]
    top.sort(axis=1)
    vals = np.take_along_axis(C, top, axis=1)
    # A row's q-th value recurs outside the partition's pick exactly when the
    # best value left out reaches it; such a row takes the lowest-indexed of
    # the tied entries instead.
    kth = vals.min(axis=1)
    np.put_along_axis(C, top, -np.inf, axis=1)
    for b in np.flatnonzero(C.max(axis=1) >= kth):
        C[b, top[b]] = vals[b]
        cand = np.flatnonzero(C[b] >= kth[b])
        cand = cand[np.argsort(-C[b, cand], kind="stable")[:q]]
        top[b] = np.sort(cand)
        vals[b] = C[b, top[b]]
    order = np.argsort(-vals, axis=1, kind="stable")
    return np.take_along_axis(top, order, axis=1), np.take_along_axis(vals, order, axis=1)


def select_neighbors(points: PointSet, q: int, normalize: bool = True) -> Neighbors:
    """For each point j, the q indices i != j with largest absolute
    correlation ``|<x_i/||x_i||, x_j/||x_j||>|``, in descending order (ties
    go to the lower index), and those correlations.

    With ``normalize`` the products of
    :func:`~tsclust.geometry.normalize_columns` are ranked as they are, not
    clamped to 1; without it the raw absolute inner products are, values
    above 1 included.  This is the one pass over
    :func:`~tsclust.geometry.abs_gram_rows`, on every usable CPU, and each
    of its blocks is reduced to its picks on the thread that made it; no
    N x N matrix is formed, and the picks are the same on any thread count.

    Raises
    ------
    QTooLarge
        If ``q > N - 1``.
    ZeroVector
        If a column is zero (with ``normalize``).
    NonFinite
        If raw inner products (without ``normalize``) overflow.
    """
    N = points.N
    if q < 1:
        raise ConfigError(f"q must be >= 1, got {q}")
    if q > N - 1:
        raise QTooLarge(f"q={q} exceeds N-1={N - 1}")
    X = (normalize_columns(points) if normalize else points).data
    picks = abs_gram_rows(X, range(N), lambda _, C: _top_q(C, q))
    index, corr = (np.concatenate(part) for part in zip(*picks))
    if not np.all(np.isfinite(corr)):  # a row's NaN or inf is among its picks
        raise NonFinite("raw inner products overflow to NaN or Inf; normalize the points")
    return Neighbors(index, corr)


def compute_weights(
    points: PointSet,
    neighbors: Neighbors,
    weight_variant: str = "exp",
    normalize: bool = True,
) -> sparse.csr_array:
    """Column-j weights on the neighbor set of point j, as an N x N CSR array.

    ``"exp"``: ``exp(-2 arccos min(|corr|, 1))`` over the correlations that
    came with the neighbors (raw inner products can exceed 1, unit ones by
    an ulp), so ``normalize`` has no effect.  ``"ls"``: absolute values of the
    minimum-norm least-squares coefficients expressing ``x_j`` in the columns
    indexed by its neighbor set (raw columns as provided; pass pre-normalized
    points for correlation-equivalent behavior).
    """
    if weight_variant not in WEIGHT_VARIANTS:
        raise ConfigError(f"unknown weight variant {weight_variant!r}")
    X = points.data
    N, q = neighbors.index.shape
    if N != points.N:
        raise ValueError(f"{N} neighbor sets for {points.N} points")
    rows = neighbors.index.ravel()
    cols = np.repeat(np.arange(N), q)
    if weight_variant == "exp":
        weights = np.exp(-2.0 * np.arccos(np.minimum(neighbors.corr.ravel(), 1.0)))
    else:
        weights = np.concatenate(
            [np.abs(_min_norm(X[:, idx], X[:, j])) for j, idx in enumerate(neighbors.index)]
        )
    return sparse.csr_array((weights, (rows, cols)), shape=(N, N))


def assemble_adjacency(Z, neighbor_sets: Neighbors | None = None) -> NeighborGraph:
    """Symmetrize the weight matrix into ``A = Z + Z^T``.

    ``Z`` may be dense or sparse; the graph holds CSR ``Z`` and ``A`` and
    keeps ``neighbor_sets`` as given.
    """
    Z = sparse.csr_array(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
        raise ValueError(f"Z must be square, got shape {Z.shape}")
    if np.any(Z.data < 0.0):
        raise ValueError("Z must be nonnegative")
    if np.any(Z.diagonal() != 0.0):
        raise ValueError("Z must have a zero diagonal")
    A = (Z + Z.T).tocsr()
    return NeighborGraph(neighbor_sets=neighbor_sets, Z=Z, A=A)


def normalized_laplacian(A) -> sparse.csr_array:
    """Symmetric normalized Laplacian ``I - D^{-1/2} A D^{-1/2}`` as an
    N x N CSR array with the sparsity pattern of ``A`` plus the diagonal.

    ``A`` may be dense or sparse.  Degrees at or below 1e-14 use the
    convention ``0^{-1/2} := 0`` and the corresponding diagonal entry is 0,
    so an isolated node contributes a zero row and hence an exact zero
    eigenvalue (its own connected component, matching the component-count
    reading of the spectrum).  Each off-diagonal entry is
    ``-(A_ij * (d_i^{-1/2} d_j^{-1/2}))``, so ``L`` is exactly symmetric
    whenever ``A`` is.
    """
    A = sparse.csr_array(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be square, got shape {A.shape}")
    N = A.shape[0]
    deg = A.sum(axis=1)
    pos = deg > DEGREE_TOL
    inv_sqrt = np.zeros(N)
    inv_sqrt[pos] = 1.0 / np.sqrt(deg[pos])
    coo = A.tocoo()
    off = coo.row != coo.col
    rows, cols = coo.row[off], coo.col[off]
    values = -(coo.data[off] * (inv_sqrt[rows] * inv_sqrt[cols]))
    diag = np.flatnonzero(pos)
    return sparse.csr_array(
        (
            np.concatenate((values, np.ones(diag.size))),
            (np.concatenate((rows, diag)), np.concatenate((cols, diag))),
        ),
        shape=(N, N),
    )


def estimate_L_eigengap(eigenvalues: np.ndarray, max_L: int | None = None) -> tuple[int, int]:
    """Cluster-count estimate: the (1-based) index i maximizing
    ``eigenvalues[i+1] - eigenvalues[i]`` over ``i <= min(n-1, max_L)`` for
    n given eigenvalues, ties broken by the smallest index; ``max_L = None``
    is :data:`DEFAULT_MAX_L`.  The ``max_L + 1`` smallest eigenvalues
    suffice.  Returns ``(L_hat, gap_index)``.

    Raises
    ------
    TooFewPoints
        If fewer than two eigenvalues are supplied.
    """
    ev = np.asarray(eigenvalues, dtype=float).ravel()
    if ev.size < 2:
        raise TooFewPoints(f"need >= 2 eigenvalues, got {ev.size}")
    hi = max(1, min(ev.size - 1, DEFAULT_MAX_L if max_L is None else int(max_L)))
    gaps = np.diff(ev[: hi + 1])
    i = int(np.argmax(gaps)) + 1  # argmax returns the first maximum
    return i, i


def _cluster_embedding(
    decomposition: SpectralDecomposition,
    L_hat: int,
    seed: int,
    restarts: int,
    max_iter: int,
) -> np.ndarray:
    """Row-normalize the L_hat smallest eigenvectors (taken from the
    decomposition's own solve) and k-means them."""
    E = decomposition.leading(L_hat)
    norms = np.linalg.norm(E, axis=1)
    keep = norms > ROW_NORM_TOL
    E[keep] /= norms[keep, None]
    E[~keep] = 0.0
    result = kmeans(E, L_hat, seed=seed, restarts=restarts, max_iter=max_iter)
    return result.labels


def run_tsc(points: PointSet, config: TscConfig) -> ClusterResult:
    """End-to-end pipeline; deterministic for a fixed config.

    Composes neighbor selection, weight construction, adjacency assembly,
    the normalized Laplacian, one solve for the window of its
    ``min(N, max(max_L + 1, L))`` smallest eigenvalues, cluster-count
    estimation (when not given), and spectral clustering, all reading the
    points normalized once (with ``correlation_normalize``).

    Raises
    ------
    ConfigError
        If ``num_subspaces`` exceeds N (before any work is done).
    """
    N = points.N
    if N < 2:
        raise TooFewPoints(f"need >= 2 points, got {N}")
    L = config.num_subspaces
    if L is not None and L > N:
        raise ConfigError(f"num_subspaces={L} exceeds the number of points N={N}")
    max_L = DEFAULT_MAX_L if config.max_L is None else config.max_L
    pts = normalize_columns(points) if config.correlation_normalize else points
    neighbors = select_neighbors(pts, config.q, normalize=False)
    Z = compute_weights(pts, neighbors, config.weight_variant)
    graph = assemble_adjacency(Z, neighbors)
    L_sym = normalized_laplacian(graph.A)
    decomposition = sym_eig(L_sym, min(N, max(max_L + 1, L or 0)))
    if L is None:
        L_hat, gap_index = estimate_L_eigengap(decomposition.eigenvalues, max_L)
    else:
        L_hat, gap_index = L, None
    labels = _cluster_embedding(
        decomposition, L_hat, config.seed, config.kmeans_restarts, config.kmeans_max_iter
    )
    return ClusterResult(
        labels=labels,
        L_hat=L_hat,
        laplacian_eigenvalues=decomposition.eigenvalues,
        eigengap_index=gap_index,
        graph=graph,
    )
