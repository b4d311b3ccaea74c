"""The sparse pipeline against dense oracles.

``sym_eig`` splits its input into connected components and solves each
block on its own; it and ``SpectralDecomposition.leading`` are checked
against one dense ``np.linalg.eigh`` of the whole matrix.  ``run_tsc`` is
checked against a dense reference of the pipeline kept here: an N x N Gram
matrix, a stable argsort for the neighbors, dense Z, A and Laplacian, and
one ``eigh``.
"""

import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from tsclust import geometry, tsc
from tsclust.geometry import PointSet, normalize_columns
from tsclust.numerics import kmeans, least_squares, sym_eig
from tsclust.synth import intersecting_pair, orthogonal_ensemble, union_of_subspaces
from tsclust.tsc import (
    TscConfig,
    assemble_adjacency,
    compute_weights,
    estimate_L_eigengap,
    normalized_laplacian,
    run_tsc,
    select_neighbors,
)

#: Eigenvalues closer than this are one eigenspace in the projector check.
CLUSTER_TOL = 1e-8


def dense_abs_correlations(X, normalize=True):
    G = X.T @ X
    if normalize:
        norms = np.linalg.norm(X, axis=0)
        norms = np.where(norms > 0.0, norms, 1.0)
        G /= norms[None, :]
        G /= norms[:, None]
    return np.clip(np.abs(G), 0.0, 1.0)


def dense_neighbors(X, q, normalize=True):
    C = dense_abs_correlations(X, normalize)
    np.fill_diagonal(C, -1.0)
    order = np.argsort(-C, axis=0, kind="stable")
    return [order[:q, j].copy() for j in range(X.shape[1])]


def dense_run_tsc(points, config):
    """Labels and L_hat of the dense pipeline."""
    X = normalize_columns(points).data
    N = X.shape[1]
    neighbors = dense_neighbors(X, config.q)
    Z = np.zeros((N, N))
    if config.weight_variant == "exp":
        C = dense_abs_correlations(X)
        for j, idx in enumerate(neighbors):
            Z[idx, j] = np.exp(-2.0 * np.arccos(C[idx, j]))
    else:
        for j, idx in enumerate(neighbors):
            Z[idx, j] = np.abs(least_squares(X[:, idx], X[:, j]))
    A = Z + Z.T
    deg = A.sum(axis=1)
    pos = deg > tsc.DEGREE_TOL
    inv_sqrt = np.zeros(N)
    inv_sqrt[pos] = 1.0 / np.sqrt(deg[pos])
    L = -(A * np.multiply.outer(inv_sqrt, inv_sqrt))
    np.fill_diagonal(L, np.where(pos, 1.0, 0.0))
    eigenvalues, eigenvectors = np.linalg.eigh((L + L.T) / 2.0)
    if config.num_subspaces is None:
        L_hat, _ = estimate_L_eigengap(eigenvalues, config.max_L)
    else:
        L_hat = config.num_subspaces
    E = eigenvectors[:, :L_hat].copy()
    norms = np.linalg.norm(E, axis=1)
    keep = norms > tsc.ROW_NORM_TOL
    E[keep] /= norms[keep, None]
    E[~keep] = 0.0
    result = kmeans(
        E, L_hat, seed=config.seed, restarts=config.kmeans_restarts,
        max_iter=config.kmeans_max_iter,
    )
    return result.labels, L_hat


def assert_same_spectrum(M):
    """sym_eig(M) against dense eigh: eigenvalues within 1e-12, equal
    eigenspace projectors, orthonormal eigenvectors."""
    dense = np.asarray(M.toarray() if sparse.issparse(M) else M, dtype=float)
    w_ref, V_ref = np.linalg.eigh((dense + dense.T) / 2.0)
    dec = sym_eig(M)
    np.testing.assert_allclose(dec.eigenvalues, w_ref, rtol=0.0, atol=1e-12)
    assert np.all(np.diff(dec.eigenvalues) >= 0.0)
    N = w_ref.size
    V = dec.eigenvectors
    assert np.max(np.abs(V.T @ V - np.eye(N))) < 1e-12
    splits = np.flatnonzero(np.diff(w_ref) > CLUSTER_TOL) + 1
    for cols in np.split(np.arange(N), splits):
        P = V[:, cols] @ V[:, cols].T
        P_ref = V_ref[:, cols] @ V_ref[:, cols].T
        assert np.max(np.abs(P - P_ref)) < 1e-10
    return dec


def permuted_block_matrix(sizes, seed, laplacian):
    """A symmetric matrix made of dense random blocks of the given sizes
    (size-1 blocks are singletons), its rows and columns shuffled."""
    rng = np.random.default_rng(seed)
    N = sum(sizes)
    M = np.zeros((N, N))
    start = 0
    for size in sizes:
        block = rng.uniform(0.5, 1.5, size=(size, size))
        block = (block + block.T) / 2.0
        if laplacian:
            np.fill_diagonal(block, 0.0)
        M[start:start + size, start:start + size] = block
        start += size
    perm = rng.permutation(N)
    M = M[np.ix_(perm, perm)]
    return normalized_laplacian(M) if laplacian else M


class TestSymEigOracle:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("laplacian", [False, True])
    def test_permuted_blocks_with_singletons(self, seed, laplacian):
        sizes = [1, 7, 1, 12, 3, 1, 9]
        M = permuted_block_matrix(sizes, seed, laplacian)
        dec = assert_same_spectrum(M)
        if laplacian:
            # One zero eigenvalue per component, singletons included.
            assert int(np.sum(np.abs(dec.eigenvalues) < 1e-12)) == len(sizes)

    def test_dense_input_with_ties(self):
        # Equal diagonal entries: a repeated eigenvalue spread over singletons.
        M = np.diag([2.0, 1.0, 2.0, 0.5, 2.0])
        M[1, 3] = M[3, 1] = 0.25
        dec = assert_same_spectrum(M)
        np.testing.assert_array_equal(dec.eigenvalues[2:], [2.0, 2.0, 2.0])

    @pytest.mark.parametrize("seed", range(3))
    def test_fully_connected(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((25, 25))
        assert_same_spectrum(M + M.T)
        assert_same_spectrum(sparse.csr_array(M + M.T))

    def test_near_symmetric_input_is_symmetrized(self):
        rng = np.random.default_rng(9)
        M = permuted_block_matrix([4, 6, 1], 9, laplacian=False)
        noise = np.where(M != 0.0, rng.uniform(-1e-14, 1e-14, M.shape), 0.0)
        assert_same_spectrum(M + noise)

    def test_cancelling_entries_split_components(self):
        # (M + M^T)/2 is zero at (0, 1): the symmetrized pattern decides.
        M = np.array([[1.0, 0.3, 0.0], [-0.3, 2.0, 0.0], [0.0, 0.0, 3.0]])
        dec = assert_same_spectrum(M)
        np.testing.assert_array_equal(dec.eigenvalues, [1.0, 2.0, 3.0])


def tied_components_matrix():
    """Singletons and a 2-node block sharing the eigenvalue 2 exactly, next
    to a random 6-node block, all at scattered indices."""
    rng = np.random.default_rng(5)
    M = np.zeros((10, 10))
    M[0, 0] = M[5, 5] = 2.0
    M[np.ix_([2, 7], [2, 7])] = [[1.5, 0.5], [0.5, 1.5]]
    block = rng.uniform(0.5, 1.5, size=(6, 6))
    M[np.ix_([1, 3, 4, 6, 8, 9], [1, 3, 4, 6, 8, 9])] = (block + block.T) / 2.0
    return M


class TestLeadingOracle:
    """``leading(k)`` against dense ``eigh``, k in {1, L, N} with L the
    number of components."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("laplacian", [False, True])
    def test_permuted_blocks(self, seed, laplacian):
        # Laplacian singletons and 2-node blocks tie exactly at 0 and 2.
        self._check(permuted_block_matrix([1, 2, 7, 1, 2, 12, 3, 1, 2], seed, laplacian))

    def test_tied_components(self):
        M = tied_components_matrix()
        assert np.count_nonzero(sym_eig(M).eigenvalues == 2.0) == 3
        self._check(M)

    @pytest.mark.parametrize("k", [-1, 11])
    def test_k_out_of_range(self, k):
        with pytest.raises(ValueError):
            sym_eig(tied_components_matrix()).leading(k)

    @staticmethod
    def _check(M):
        dense = np.asarray(M.toarray() if sparse.issparse(M) else M, dtype=float)
        w_ref, V_ref = np.linalg.eigh((dense + dense.T) / 2.0)
        N = w_ref.size
        count, component = connected_components(sparse.csr_array(dense), directed=False)
        dec = sym_eig(M)
        full = dec.eigenvectors
        assert full.shape == (N, N)
        splits = np.flatnonzero(np.diff(w_ref) > CLUSTER_TOL) + 1
        for k in sorted({1, count, N}):
            V = dec.leading(k)
            assert V.shape == (N, k)
            assert np.max(np.abs(V.T @ V - np.eye(k))) < 1e-12
            for cols in np.split(np.arange(N), splits):
                inside = cols[cols < k]
                if inside.size == 0:
                    continue
                P_ref = V_ref[:, cols] @ V_ref[:, cols].T
                if inside.size == cols.size:
                    P = V[:, cols] @ V[:, cols].T
                    assert np.max(np.abs(P - P_ref)) < 1e-12
                else:
                    # k cuts through the eigenspace: the kept columns lie in it.
                    assert np.max(np.abs(P_ref @ V[:, inside] - V[:, inside])) < 1e-12
            # Each eigenvector lives on one component.
            for i in range(k):
                assert np.unique(component[V[:, i] != 0.0]).size == 1
            signs = np.where(np.sum(V * full[:, :k], axis=0) < 0.0, -1.0, 1.0)
            np.testing.assert_allclose(V * signs, full[:, :k], rtol=0.0, atol=1e-12)


class TestRunTscMemory:
    def test_peak_below_half_a_dense_matrix(self):
        # Five 5-dim subspaces of 400 points in R^100.  Only the correlation
        # blocks, the per-component reductions and the N x L_hat embedding
        # are dense; one N x N float64 array would be N^2 * 8 bytes.
        gt = union_of_subspaces(orthogonal_ensemble(100, 5, 5, seed=3), 400, seed=4)
        N = gt.points.N
        tracemalloc.start()
        try:
            result = run_tsc(gt.points, TscConfig(q=10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.L_hat == 5
        assert peak < N * N * 8 / 2


def disconnected_input(seed, n=40):
    bases = orthogonal_ensemble(30, 3, 5, seed=seed)
    return union_of_subspaces(bases, n, seed=seed + 1).points


def intersecting_input(seed, n=40):
    # Two 6-dim subspaces in R^10 sharing 3 dimensions: the neighbor graph
    # has false connections and is one component.
    bases = intersecting_pair(10, 6, 3, seed=seed)
    return union_of_subspaces(list(bases), n, seed=seed + 1).points


class TestRunTscOracle:
    @pytest.mark.parametrize("variant", ["exp", "ls"])
    @pytest.mark.parametrize("L", [None, 3])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_disconnected(self, variant, L, seed):
        # q > d: at q = d the ls weights make the eigengap pick L_hat near N,
        # where labels depend on the basis chosen inside repeated eigenvalues.
        self._check(disconnected_input(seed), TscConfig(
            q=8, weight_variant=variant, num_subspaces=L, seed=seed,
        ), connected=False)

    @pytest.mark.parametrize("variant", ["exp", "ls"])
    @pytest.mark.parametrize("L", [None, 2])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_intersecting(self, variant, L, seed):
        self._check(intersecting_input(seed), TscConfig(
            q=8, weight_variant=variant, num_subspaces=L, seed=seed,
        ), connected=True)

    @staticmethod
    def _check(points, config, connected):
        result = run_tsc(points, config)
        labels, L_hat = dense_run_tsc(points, config)
        assert result.L_hat == L_hat
        np.testing.assert_array_equal(result.labels, labels)
        assert result.laplacian_eigenvalues.size == points.N
        count, _ = connected_components(result.graph.A, directed=False)
        assert (count == 1) == connected


class TestStagesMatchDense:
    @pytest.mark.parametrize("variant", ["exp", "ls"])
    def test_weights_bit_identical(self, variant):
        pts = normalize_columns(intersecting_input(6, n=60))
        neighbors = select_neighbors(pts, 7)
        for a, b in zip(neighbors, dense_neighbors(pts.data, 7)):
            np.testing.assert_array_equal(a, b)
        Z = compute_weights(pts, neighbors, variant)
        assert sparse.issparse(Z) and Z.format == "csr"
        C = dense_abs_correlations(pts.data)
        for j, idx in enumerate(neighbors):
            col = Z[:, [j]].toarray().ravel()
            if variant == "exp":
                np.testing.assert_array_equal(col[idx], np.exp(-2.0 * np.arccos(C[idx, j])))
            assert np.count_nonzero(np.delete(col, idx)) == 0

    def test_laplacian_matches_dense_formula(self):
        pts = normalize_columns(disconnected_input(8))
        graph = assemble_adjacency(compute_weights(pts, select_neighbors(pts, 5)))
        L = normalized_laplacian(graph.A)
        assert L.format == "csr"
        A = graph.A.toarray()
        deg = A.sum(axis=1)
        inv_sqrt = 1.0 / np.sqrt(deg)
        expected = -(A * np.multiply.outer(inv_sqrt, inv_sqrt))
        np.fill_diagonal(expected, 1.0)
        np.testing.assert_allclose(L.toarray(), expected, rtol=1e-15, atol=0.0)
        assert L.nnz == graph.A.nnz + pts.N


class TestNeighborTiesAcrossBlocks:
    @staticmethod
    def duplicated_points():
        """Integer-valued points, each of four directions repeated and
        shuffled, so that correlations tie exactly, plus two orthogonal
        ones whose correlations with every direction are tied at zero."""
        base = np.array(
            [[1, 0, 1, 2, 0, 0], [0, 1, 1, 0, 0, 0], [1, 1, 0, 1, 0, 0],
             [2, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 3]],
            dtype=float,
        ).T
        reps = [4, 3, 5, 4, 1, 1]
        X = np.repeat(base, reps, axis=1)
        perm = np.random.default_rng(0).permutation(X.shape[1])
        return PointSet(X[:, perm])

    @pytest.mark.parametrize("block", [1, 3, 5, 7, 256])
    def test_matches_stable_argsort(self, monkeypatch, block):
        monkeypatch.setattr(geometry, "CORRELATION_BLOCK", block)
        points = self.duplicated_points()
        N = points.N
        C = dense_abs_correlations(points.data)
        np.fill_diagonal(C, -1.0)
        tied_at_q = 0
        for q in range(1, N):
            expected = dense_neighbors(points.data, q)
            got = select_neighbors(points, q)
            for j in range(N):
                np.testing.assert_array_equal(got[j], expected[j])
                kth = C[expected[j][-1], j]
                tied_at_q += int(np.count_nonzero(C[:, j] == kth) > np.count_nonzero(
                    C[expected[j], j] == kth))
        # The q-th value is shared with an unselected point in many columns.
        assert tied_at_q > 100

    def test_duplicates_in_other_block_come_first_by_index(self, monkeypatch):
        monkeypatch.setattr(geometry, "CORRELATION_BLOCK", 2)
        X = np.array([[1.0, 0.0, 1.0, 1.0, 0.0, 1.0], [0.0, 1.0, 0.0, 0.0, 1.0, 0.0]])
        sets = select_neighbors(PointSet(X), 3)
        # Point 5 duplicates points 0, 2 and 3, which sit in earlier blocks.
        assert sets[5].tolist() == [0, 2, 3]
        assert sets[0].tolist() == [2, 3, 5]
        # Point 4's only duplicate is 1; the orthogonal rest tie at zero.
        assert sets[4].tolist() == [1, 0, 2]
