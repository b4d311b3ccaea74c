"""The clustering pipeline: pick each point's q nearest neighbors under the
spherical pseudo-distance, turn the retained correlations into edge weights,
symmetrize into an adjacency matrix, and cluster the normalized-Laplacian
embedding.  The number of clusters is either supplied or estimated from the
largest eigenvalue gap of the Laplacian spectrum.  Neighbor selection and
the ``exp`` weights read their correlations from the one blocked |X^T X|
kernel, :func:`tsclust.geometry.correlation_blocks`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import ConfigError, QTooLarge, TooFewPoints
from .geometry import PointSet, correlation_blocks, normalize_columns, write_csv
from .numerics import SpectralDecomposition, kmeans, least_squares, sym_eig

#: Node degrees at or below this are treated as zero (isolated node).
DEGREE_TOL = 1e-14

#: Embedding rows with norm at or below this are left as zero rows.
ROW_NORM_TOL = 1e-14

WEIGHT_VARIANTS = ("exp", "ls")


@dataclass(frozen=True)
class TscConfig:
    """Pipeline parameters.

    ``q`` is the neighbor count.  ``weight_variant`` selects between
    ``"exp"`` (edge weight ``exp(-2 arccos |corr|)``) and ``"ls"`` (absolute
    values of the minimum-norm least-squares coefficients of each point on
    its neighbors).  ``num_subspaces`` fixes the cluster count; ``None``
    estimates it with the eigengap heuristic, searching gap indices up to
    ``max_L`` (default: N - 1).  ``correlation_normalize`` divides inner
    products by the column norms so unnormalized inputs behave as if
    unit-normalized; disable to rank raw absolute inner products as they are
    (the ``exp`` weights read those above 1 as 1).
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


@dataclass(frozen=True)
class NeighborGraph:
    """Per-point neighbor index lists, the weight matrix Z (column j supported
    on the neighbors of point j), and the symmetric adjacency A = Z + Z^T.

    ``Z`` and ``A`` are ``scipy.sparse.csr_array`` of shape (N, N) that store
    at most qN and 2qN entries; call ``.toarray()`` for a dense copy.
    """

    neighbor_sets: list[np.ndarray]
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
    """Pipeline output: 1-based labels, the cluster count used, the full
    ascending Laplacian spectrum (length N, solved one connected component
    of the graph at a time, see :func:`tsclust.numerics.sym_eig`), the gap
    index when the count was estimated, and the neighbor graph the
    clustering was computed from (sparse ``Z`` and ``A``, see
    :class:`NeighborGraph`).  Only the ``L_hat`` eigenvectors the clustering
    used were computed; none is kept."""

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


def _top_q(C: np.ndarray, q: int) -> np.ndarray:
    """Per row of ``C``, the q column indices of largest value in descending
    order, ties going to the lower index (``C`` has no NaN)."""
    top = np.argpartition(C, C.shape[1] - q, axis=1)[:, -q:]
    top.sort(axis=1)
    vals = np.take_along_axis(C, top, axis=1)
    # A row whose q-th value recurs outside the partition's pick takes the
    # lowest-indexed of the tied entries instead.
    kth = vals.min(axis=1)
    for b in np.flatnonzero(np.count_nonzero(C >= kth[:, None], axis=1) > q):
        cand = np.flatnonzero(C[b] >= kth[b])
        cand = cand[np.argsort(-C[b, cand], kind="stable")[:q]]
        top[b] = np.sort(cand)
        vals[b] = C[b, top[b]]
    order = np.argsort(-vals, axis=1, kind="stable")
    return np.take_along_axis(top, order, axis=1)


def select_neighbors(points: PointSet, q: int, normalize: bool = True) -> list[np.ndarray]:
    """For each point j, the q indices i != j with largest absolute
    correlation, in descending correlation order; ties go to the lower index.

    Correlations come from :func:`~tsclust.geometry.correlation_blocks`; no
    N x N matrix is formed.  Without ``normalize`` the raw absolute inner
    products are ranked as they are, values above 1 included.

    Raises
    ------
    QTooLarge
        If ``q > N - 1``.
    """
    N = points.N
    if q < 1:
        raise ConfigError(f"q must be >= 1, got {q}")
    if q > N - 1:
        raise QTooLarge(f"q={q} exceeds N-1={N - 1}")
    neighbors = []
    for start, C in correlation_blocks(points.data, normalize):
        np.fill_diagonal(C[:, start:], -1.0)
        neighbors.extend(_top_q(C, q))
    return neighbors


def compute_weights(
    points: PointSet,
    neighbors: list[np.ndarray],
    weight_variant: str = "exp",
    normalize: bool = True,
) -> sparse.csr_array:
    """Column-j weights on the neighbor set of point j, as an N x N CSR array.

    ``"exp"``: ``exp(-2 arccos min(|corr(x_j, x_i)|, 1))``, with the
    correlations taken from the same blocked kernel as :func:`select_neighbors`
    (raw inner products, without ``normalize``, can exceed 1).
    ``"ls"``: absolute values of the minimum-norm least-squares coefficients
    expressing ``x_j`` in the columns indexed by its neighbor set (raw
    columns as provided; pass pre-normalized points for
    correlation-equivalent behavior).
    """
    if weight_variant not in WEIGHT_VARIANTS:
        raise ConfigError(f"unknown weight variant {weight_variant!r}")
    X = points.data
    N = points.N
    if len(neighbors) != N:
        raise ValueError(f"{len(neighbors)} neighbor sets for {N} points")
    sizes = [len(idx) for idx in neighbors]
    rows = np.concatenate(neighbors).astype(np.intp, copy=False)
    cols = np.repeat(np.arange(N), sizes)
    if weight_variant == "exp":
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        corr = np.empty(rows.size)
        for start, C in correlation_blocks(X, normalize):
            lo, hi = offsets[start], offsets[start + C.shape[0]]
            corr[lo:hi] = C[cols[lo:hi] - start, rows[lo:hi]]
        weights = np.exp(-2.0 * np.arccos(np.minimum(corr, 1.0, out=corr)))
    else:
        weights = np.concatenate(
            [np.abs(least_squares(X[:, idx], X[:, j])) for j, idx in enumerate(neighbors)]
        )
    return sparse.csr_array((weights, (rows, cols)), shape=(N, N))


def assemble_adjacency(Z, neighbor_sets: list[np.ndarray] | None = None) -> NeighborGraph:
    """Symmetrize the weight matrix into ``A = Z + Z^T``.

    ``Z`` may be dense or sparse; the graph holds CSR ``Z`` and ``A``.  When
    ``neighbor_sets`` is omitted they are reconstructed from the support
    of each column (descending weight, ties by index); pass the original sets
    to preserve selection order for weights that can be zero.
    """
    Z = sparse.csr_array(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
        raise ValueError(f"Z must be square, got shape {Z.shape}")
    if np.any(Z.data < 0.0):
        raise ValueError("Z must be nonnegative")
    if np.any(Z.diagonal() != 0.0):
        raise ValueError("Z must have a zero diagonal")
    if neighbor_sets is None:
        by_column = Z.tocsc()
        neighbor_sets = []
        for j in range(Z.shape[1]):
            span = slice(by_column.indptr[j], by_column.indptr[j + 1])
            nz, w = by_column.indices[span], by_column.data[span]
            nz, w = nz[w > 0.0], w[w > 0.0]
            neighbor_sets.append(nz[np.argsort(-w, kind="stable")].astype(np.intp))
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
    ``eigenvalues[i+1] - eigenvalues[i]`` over ``i <= min(N-1, max_L)``,
    ties broken by the smallest index.  Returns ``(L_hat, gap_index)``.

    Raises
    ------
    TooFewPoints
        If fewer than two eigenvalues are supplied.
    """
    ev = np.asarray(eigenvalues, dtype=float).ravel()
    if ev.size < 2:
        raise TooFewPoints(f"need >= 2 eigenvalues, got {ev.size}")
    hi = ev.size - 1
    if max_L is not None:
        hi = max(1, min(hi, int(max_L)))
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
    """Row-normalize the L_hat smallest eigenvectors (the only ones
    computed) and k-means them."""
    E = decomposition.leading(L_hat)
    norms = np.linalg.norm(E, axis=1)
    keep = norms > ROW_NORM_TOL
    E[keep] /= norms[keep, None]
    E[~keep] = 0.0
    result = kmeans(E, L_hat, seed=seed, restarts=restarts, max_iter=max_iter)
    return result.labels


def spectral_cluster(
    L_sym,
    L_hat: int,
    seed: int = 0,
    restarts: int = 10,
    max_iter: int = 100,
) -> np.ndarray:
    """Normalized spectral clustering of a Laplacian (dense or sparse) into
    ``L_hat`` groups.

    Takes the eigenvectors of the ``L_hat`` smallest eigenvalues as an
    ``N x L_hat`` embedding, normalizes each row to unit norm (rows with norm
    <= 1e-14 stay zero), and k-means the rows.  Returns 1-based labels.
    """
    return _cluster_embedding(sym_eig(L_sym), L_hat, seed, restarts, max_iter)


def run_tsc(points: PointSet, config: TscConfig) -> ClusterResult:
    """End-to-end pipeline; deterministic for a fixed config.

    Composes neighbor selection, weight construction, adjacency assembly,
    the normalized Laplacian, cluster-count estimation (when not given), and
    spectral clustering.
    """
    if points.N < 2:
        raise TooFewPoints(f"need >= 2 points, got {points.N}")
    pts = normalize_columns(points) if config.correlation_normalize else points
    neighbors = select_neighbors(pts, config.q, normalize=config.correlation_normalize)
    Z = compute_weights(
        pts, neighbors, config.weight_variant, normalize=config.correlation_normalize
    )
    graph = assemble_adjacency(Z, neighbors)
    L_sym = normalized_laplacian(graph.A)
    decomposition = sym_eig(L_sym)
    if config.num_subspaces is None:
        L_hat, gap_index = estimate_L_eigengap(decomposition.eigenvalues, config.max_L)
    else:
        L_hat, gap_index = config.num_subspaces, None
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
