"""The sparse pipeline against dense oracles.

``sym_eig`` splits its input into connected components and solves each
block on its own, densely or, for a window of a large block's smallest
eigenvalues, by Lanczos; it and ``SpectralDecomposition.leading`` are
checked against one dense ``np.linalg.eigh`` of the whole matrix.
``run_tsc`` is checked against a dense reference of the pipeline kept here:
an N x N Gram matrix, a stable argsort for the neighbors, dense Z, A and
Laplacian, and one ``eigh`` of the whole spectrum.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackNoConvergence

from tsclust import geometry, numerics, tsc
from tsclust.geometry import PointSet, normalize_columns
from tsclust.metrics import clustering_error
from tsclust.numerics import _min_norm, kmeans, sym_eig
from tsclust.synth import haar_ensemble, intersecting_pair, union_of_subspaces
from tsclust.tsc import (
    TscConfig,
    assemble_adjacency,
    compute_weights,
    estimate_L_eigengap,
    normalized_laplacian,
    run_tsc,
    select_neighbors,
)

from references import orthogonal_ensemble

#: Eigenvalues closer than this are one eigenspace in the projector check.
CLUSTER_TOL = 1e-8


def dense_abs_correlations(X, normalize=True):
    """The N x N |X^T X|, row j for point j; with ``normalize``, the Gram
    matrix of the :func:`normalize_columns` columns, not clamped.  Rows are
    multiplied in blocks of ``CORRELATION_BLOCK`` points as the kernel
    multiplies them: BLAS rounds the last bit of a product by where it falls
    in the block's tiles."""
    if normalize:
        X = normalize_columns(PointSet(X)).data
    block = geometry.CORRELATION_BLOCK
    return np.abs(np.vstack([X[:, s:s + block].T @ X for s in range(0, X.shape[1], block)]))


def dense_neighbors(X, q, normalize=True):
    C = dense_abs_correlations(X, normalize)
    np.fill_diagonal(C, -1.0)
    order = np.argsort(-C, axis=1, kind="stable")
    return [order[j, :q].copy() for j in range(X.shape[1])]


def dense_laplacian(points, config):
    """The dense pipeline's Laplacian: the points normalized once, their
    products ranked as they are and clamped to 1 only for the weights."""
    X = normalize_columns(points).data
    N = X.shape[1]
    neighbors = dense_neighbors(X, config.q, normalize=False)
    Z = np.zeros((N, N))
    if config.weight_variant == "exp":
        C = dense_abs_correlations(X, normalize=False)
        for j, idx in enumerate(neighbors):
            Z[idx, j] = np.exp(-2.0 * np.arccos(np.minimum(C[j, idx], 1.0)))
    else:
        for j, idx in enumerate(neighbors):
            Z[idx, j] = np.abs(_min_norm(X[:, idx], X[:, j]))
    A = Z + Z.T
    deg = A.sum(axis=1)
    pos = deg > tsc.DEGREE_TOL
    inv_sqrt = np.zeros(N)
    inv_sqrt[pos] = 1.0 / np.sqrt(deg[pos])
    L = -(A * np.multiply.outer(inv_sqrt, inv_sqrt))
    np.fill_diagonal(L, np.where(pos, 1.0, 0.0))
    return L


def dense_run_tsc(points, config):
    """Labels and L_hat of the dense pipeline, which computes the whole
    spectrum."""
    L = dense_laplacian(points, config)
    eigenvalues, eigenvectors = np.linalg.eigh((L + L.T) / 2.0)
    return spectral_labels(eigenvalues, lambda k: eigenvectors[:, :k].copy(), config)


def spectral_labels(eigenvalues, leading, config):
    """Labels and L_hat from the whole spectrum and ``leading(k)``, the
    eigenvectors of its k smallest values."""
    if config.num_subspaces is None:
        L_hat, _ = estimate_L_eigengap(eigenvalues, config.max_L)
    else:
        L_hat = config.num_subspaces
    E = leading(L_hat)
    norms = np.linalg.norm(E, axis=1)
    keep = norms > tsc.ROW_NORM_TOL
    E[keep] /= norms[keep, None]
    E[~keep] = 0.0
    result = kmeans(
        E, L_hat, seed=config.seed, restarts=config.kmeans_restarts,
        max_iter=config.kmeans_max_iter,
    )
    return result.labels, L_hat


def solve_counted(M, k=None):
    """sym_eig(M, k) and the size of every block that a ``dsytrd`` call
    reduced during it, in order."""
    real, reduced = numerics._lapack, []

    def counting(routine, *args, **kwargs):
        if routine == "dsytrd":
            reduced.append(args[0].shape[0])
        return real(routine, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numerics, "_lapack", counting)
        dec = sym_eig(M, k)
    return dec, reduced


def lanczos_blocks(dec, reduced):
    """The components of a nonempty window that Lanczos solved: every
    component solves for at least one value, and the dense path reduces
    each of its components once."""
    return len(dec.components) - len(reduced)


def assert_same_spectrum(M, k=None, lanczos=None):
    """sym_eig(M, k) against the whole spectrum from dense eigh: eigenvalues
    within 1e-12, orthonormal eigenvectors with small residuals, each on one
    component, equal projectors on every eigenspace inside the window, and
    the columns of an eigenspace that the window cuts lying inside it; and,
    if given, ``lanczos`` components solved by Lanczos."""
    dense = np.asarray(M.toarray() if sparse.issparse(M) else M, dtype=float)
    sym = (dense + dense.T) / 2.0
    w_ref, V_ref = np.linalg.eigh(sym)
    N = w_ref.size
    dec, reduced = solve_counted(M, k)
    assert lanczos is None or lanczos_blocks(dec, reduced) == lanczos
    k = N if k is None else k
    np.testing.assert_allclose(dec.eigenvalues, w_ref[:k], rtol=0.0, atol=1e-12)
    assert np.all(np.diff(dec.eigenvalues) >= 0.0)
    V = dec.eigenvectors
    assert V.shape == (N, k)
    assert np.max(np.abs(V.T @ V - np.eye(k))) < 1e-12
    assert np.max(np.abs(sym @ V - V * dec.eigenvalues)) < 1e-12 * max(1.0, np.abs(w_ref).max())
    _, component = connected_components(sparse.csr_array(sym), directed=False)
    for i in range(k):
        assert np.unique(component[V[:, i] != 0.0]).size == 1
    splits = np.flatnonzero(np.diff(w_ref) > CLUSTER_TOL) + 1
    for cols in np.split(np.arange(N), splits):
        inside = cols[cols < k]
        P_ref = V_ref[:, cols] @ V_ref[:, cols].T
        if inside.size == cols.size:
            assert np.max(np.abs(V[:, cols] @ V[:, cols].T - P_ref)) < 1e-10
        elif inside.size:
            assert np.max(np.abs(P_ref @ V[:, inside] - V[:, inside])) < 1e-10
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
        window = min(points.N, max(tsc.DEFAULT_MAX_L + 1, config.num_subspaces or 0))
        assert result.laplacian_eigenvalues.size == window
        count, _ = connected_components(result.graph.A, directed=False)
        assert (count == 1) == connected


def cycle_laplacian(n):
    """Normalized Laplacian of an n-cycle: each nonzero eigenvalue below the
    top one is doubled."""
    i = np.arange(n)
    A = sparse.csr_array(
        (np.ones(2 * n), (np.r_[i, (i + 1) % n], np.r_[(i + 1) % n, i])), shape=(n, n)
    )
    return normalized_laplacian(A)


def mixed_laplacian(seed, big=600):
    """Laplacian of isolated nodes, small dense blocks and one sparse block
    of ``big`` nodes (a weighted cycle plus random chords), rows and columns
    shuffled."""
    rng = np.random.default_rng(seed)
    i = np.arange(big)
    rows = np.r_[i, rng.integers(big, size=big)]
    cols = np.r_[(i + 1) % big, rng.integers(big, size=big)]
    keep = rows != cols
    Z = sparse.csr_array(
        (rng.uniform(0.5, 1.5, keep.sum()), (rows[keep], cols[keep])), shape=(big, big)
    )
    blocks = [np.zeros((1, 1)), (Z + Z.T).toarray(), np.zeros((1, 1))]
    for size in (7, 12, 3):
        block = rng.uniform(0.5, 1.5, size=(size, size))
        block = (block + block.T) / 2.0
        np.fill_diagonal(block, 0.0)
        blocks.insert(1, block)
    A = sparse.block_diag(blocks).toarray()
    perm = rng.permutation(A.shape[0])
    return normalized_laplacian(A[np.ix_(perm, perm)])


class TestWindowOracle:
    """Windows of the spectrum with Lanczos-sized components."""

    def test_cycle_component(self):
        dec = assert_same_spectrum(cycle_laplacian(700), 51, lanczos=1)
        # 0 and then 25 doubled eigenvalues.
        np.testing.assert_allclose(
            dec.eigenvalues[1::2], dec.eigenvalues[2::2], rtol=0.0, atol=1e-12
        )
        assert np.min(np.diff(dec.eigenvalues[2::2])) > 1e-5

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("k", [1, 8, 51])
    def test_isolated_small_and_large_components(self, seed, k):
        M = mixed_laplacian(seed)
        dec = assert_same_spectrum(M, k, lanczos=1)
        assert len(dec.components) == 6
        # One zero eigenvalue per component, isolated nodes included.
        assert int(np.sum(np.abs(dec.eigenvalues) < 1e-12)) == min(k, 6)

    def test_no_convergence_falls_back_to_dense(self, monkeypatch):
        calls = []

        def no_convergence(*args, **kwargs):
            calls.append(kwargs["k"])
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        M = mixed_laplacian(0)
        full = sym_eig(M)
        monkeypatch.setattr(numerics, "eigsh", no_convergence)
        dec, reduced = solve_counted(M, 51)
        # ARPACK was asked (for the large block's budget, not the window) and
        # every failure fell back to the dense path.
        assert len(calls) == 1 and lanczos_blocks(dec, reduced) == 0
        np.testing.assert_array_equal(dec.eigenvalues, full.eigenvalues[:51])
        np.testing.assert_array_equal(dec.leading(51), full.leading(51))

    def test_small_window_of_small_components_is_bitwise_the_full_path(self):
        # Below the crossover the window only truncates the dense path.
        M = permuted_block_matrix([1, 2, 7, 1, 2, 12, 3, 1, 2], 0, laplacian=True)
        full = sym_eig(M)
        for k in (1, 9, 20):
            dec, reduced = solve_counted(M, k)
            assert lanczos_blocks(dec, reduced) == 0
            np.testing.assert_array_equal(dec.eigenvalues, full.eigenvalues[:k])
            np.testing.assert_array_equal(dec.eigenvectors, full.leading(k))


def counted_eigsh(monkeypatch):
    """Record the k of every ``eigsh`` call, in order, in the list returned."""
    calls = []
    real = numerics.eigsh

    def counting(*args, **kwargs):
        calls.append(kwargs["k"])
        return real(*args, **kwargs)

    monkeypatch.setattr(numerics, "eigsh", counting)
    return calls


def computed_pairs(dec):
    return dec.owner.size


def first_round_values(M, k):
    """The number of values the first round of sym_eig(M, k) computed: the
    first solve of every component, Lanczos or dense."""
    count = connected_components(M, directed=False)[0]
    lanczos, tridiagonal, sizes = numerics._lanczos, numerics._tridiagonal, []

    def counted(solve):
        def counting(block, budget):
            result = solve(block, budget)
            if result is not None:
                sizes.append(result[0].size)
            return result
        return counting

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numerics, "_lanczos", counted(lanczos))
        patch.setattr(numerics, "_tridiagonal", counted(tridiagonal))
        sym_eig(M, k)
    return sum(sizes[:count])


def assert_window_of_blocks(M, k, lanczos=None):
    """sym_eig(M, k) against the whole spectrum of sym_eig(M), which reduces
    each block densely: eigenvalues within 1e-12, and orthonormal window
    eigenvectors with small residuals, each on one component; and, if given,
    ``lanczos`` components solved by Lanczos.  Returns both decompositions."""
    full = sym_eig(M)
    dec, reduced = solve_counted(M, k)
    assert lanczos is None or lanczos_blocks(dec, reduced) == lanczos
    np.testing.assert_allclose(dec.eigenvalues, full.eigenvalues[:k], rtol=0.0, atol=1e-12)
    V = dec.leading(k)
    assert np.max(np.abs(V.T @ V - np.eye(k)), initial=0.0) < 1e-12
    sym = (M + M.T) / 2.0
    assert np.max(np.abs(sym @ V - V * dec.eigenvalues), initial=0.0) < 1e-12
    _, component = connected_components(sym, directed=False)
    for i in range(k):
        assert np.unique(component[V[:, i] != 0.0]).size == 1
    return dec, full


def ring_lattice(n, r):
    """Adjacency of n nodes on a ring, each joined to its r nearest
    neighbors on either side."""
    i = np.arange(n)
    rows = np.tile(i, r)
    cols = (rows + np.repeat(np.arange(1, r + 1), n)) % n
    A = sparse.csr_array((np.ones(r * n), (rows, cols)), shape=(n, n))
    return A + A.T


def random_component(n, rng):
    """Adjacency of a weighted n-cycle plus 2n random chords (connected)."""
    i = np.arange(n)
    rows = np.r_[i, rng.integers(n, size=2 * n)]
    cols = np.r_[(i + 1) % n, rng.integers(n, size=2 * n)]
    keep = rows != cols
    Z = sparse.csr_array(
        (rng.uniform(0.5, 1.5, keep.sum()), (rows[keep], cols[keep])), shape=(n, n)
    )
    return Z + Z.T


def block_laplacian(blocks, rng):
    """Normalized Laplacian of the block-diagonal adjacency, rows and
    columns shuffled."""
    A = sparse.block_diag(blocks, format="csr")
    perm = rng.permutation(A.shape[0])
    return normalized_laplacian(A[perm][:, perm])


@st.composite
def mixed_blocks(draw):
    """Up to six blocks (ring lattices, random components, cliques and
    isolated nodes), a seed for the random components and the shuffle, and
    a window size up to the node count."""
    block = st.one_of(
        st.tuples(st.just("ring"), st.integers(5, 60), st.integers(1, 2)),
        st.tuples(st.just("random"), st.integers(3, 60)),
        st.tuples(st.just("clique"), st.integers(2, 12)),
        st.just(("isolated",)),
    )
    kinds = draw(st.lists(block, min_size=1, max_size=6))
    seed = draw(st.integers(0, 2**32 - 1))
    nodes = sum(kind[1] if len(kind) > 1 else 1 for kind in kinds)
    return kinds, seed, draw(st.integers(0, nodes))


class TestWindowBudget:
    """Component c of ``n_c`` nodes first solves for ``ceil(k * max(n_c / N,
    1 / count)) + 2`` pairs, its node share of the window or an equal share,
    whichever is larger; one that may own window values it has not computed
    solves again with twice the budget.  Every case is checked against the
    whole spectrum."""

    def test_tsc_clusters_resolve_the_largest(self, monkeypatch):
        # The 2000-point cluster owns 17 of the 51 window values; its node
        # share, 25 + 2, covers them, so every cluster solves once.
        bases = haar_ensemble(200, 4, 5, seed=1)
        points = union_of_subspaces(bases, [2000, 700, 700, 700], seed=2).points
        config = TscConfig(q=15)
        calls = counted_eigsh(monkeypatch)
        result = run_tsc(points, config)
        assert sorted(calls) == [15, 15, 15, 27]
        L_sym = normalized_laplacian(result.graph.A)
        dec, full = assert_window_of_blocks(L_sym, 51)
        assert computed_pairs(dec) == 72
        np.testing.assert_allclose(
            result.laplacian_eigenvalues, full.eigenvalues[:51], rtol=0.0, atol=1e-12
        )
        labels, L_hat = spectral_labels(full.eigenvalues, full.leading, config)
        assert result.L_hat == L_hat == 4
        np.testing.assert_array_equal(result.labels, labels)

    def test_skewed_components_resolve_twice(self, monkeypatch):
        # The ring owns 48 of the 51 values: budgets 27, then 51.
        rng = np.random.default_rng(0)
        blocks = [ring_lattice(2000, 3)] + [random_component(700, rng) for _ in range(3)]
        M = block_laplacian(blocks, rng)
        calls = counted_eigsh(monkeypatch)
        dec, _ = assert_window_of_blocks(M, 51, lanczos=4)
        assert sorted(calls) == [15, 15, 15, 27, 51]
        assert computed_pairs(dec) == 51 + 3 * 15

    def test_budgets_short_of_the_window(self, monkeypatch):
        # Equal shares, 28 + 1 values, would fall short of the 51-value
        # window; the node shares never do.  Here the large block's share is
        # the whole window, so one solve gives it.
        rng = np.random.default_rng(1)
        M = block_laplacian([random_component(1000, rng), sparse.csr_array((1, 1))], rng)
        calls = counted_eigsh(monkeypatch)
        dec, _ = assert_window_of_blocks(M, 51)
        assert calls == [51] and computed_pairs(dec) == 52
        assert first_round_values(M, 51) == 52

    def test_large_block_with_many_small_ones_solves_once(self, monkeypatch):
        # 20 blocks of 16 nodes next to 3000: an equal share would give the
        # large block 3 + 2 values; its node share gives it 47 + 2.
        rng = np.random.default_rng(2)
        blocks = [random_component(3000, rng)] + [random_component(16, rng) for _ in range(20)]
        M = block_laplacian(blocks, rng)
        calls = counted_eigsh(monkeypatch)
        dec, _ = assert_window_of_blocks(M, 51, lanczos=1)
        assert calls == [49] and computed_pairs(dec) == 49 + 20 * 16

    @settings(max_examples=40, deadline=None)
    @given(case=mixed_blocks())
    # A draw that made stemr fail by index on its 20-node cycle.
    @example(case=([("ring", 20, 1), ("random", 31), ("ring", 39, 1), ("clique", 12)],
                   7442347, 65))
    def test_property_window_of_mixed_blocks(self, case):
        """Ring lattices, random components, cliques and isolated nodes,
        every block with more nodes than its budget solved by Lanczos, and a
        window of any size: the window is the whole spectrum's, the first
        round computes at least k values, and each column sits on the nodes
        of its owner."""
        kinds, seed, k = case
        rng = np.random.default_rng(seed)
        blocks = []
        for kind, *shape in kinds:
            if kind == "ring":
                blocks.append(ring_lattice(*shape))
            elif kind == "random":
                blocks.append(random_component(shape[0], rng))
            elif kind == "clique":
                blocks.append(sparse.csr_array(np.ones(shape * 2) - np.eye(shape[0])))
            else:
                blocks.append(sparse.csr_array((1, 1)))
        M = block_laplacian(blocks, rng)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(numerics, "LANCZOS_MIN_NODES", 0)
            patch.setattr(numerics, "LANCZOS_NODES_PER_VALUE", 1)
            dec, _ = assert_window_of_blocks(M, k)
            assert first_round_values(M, k) >= k
        V = dec.leading(k)
        for i, c in enumerate(dec.owner[:k]):
            outside = np.delete(V[:, i], dec.components[c].nodes)
            assert np.count_nonzero(outside) == 0

    def test_failed_index_solve_takes_the_whole_spectrum(self):
        # The 20-node cycle of the example above, in the order its nodes had
        # there: stemr fails by index for its 11 smallest vectors (LAPACK
        # info=22), and the whole spectrum gives them.
        order = [6, 14, 15, 7, 18, 9, 8, 1, 2, 11, 4, 10, 13, 3, 12, 0, 5, 16, 17, 19]
        block = normalized_laplacian(ring_lattice(20, 1))[order][:, order]
        values, smallest = numerics._tridiagonal(block, 20)
        V = smallest(11)
        assert np.max(np.abs(V.T @ V - np.eye(11))) < 1e-12
        assert np.max(np.abs(block @ V - V * values[:11])) < 1e-12

    @pytest.mark.parametrize("k, eigsh_calls", [(0, []), (1, [1])])
    def test_smallest_windows(self, monkeypatch, k, eigsh_calls):
        rng = np.random.default_rng(1)
        M = block_laplacian([random_component(1000, rng), sparse.csr_array((1, 1))], rng)
        calls = counted_eigsh(monkeypatch)
        dec, _ = assert_window_of_blocks(M, k)
        assert calls == eigsh_calls and computed_pairs(dec) == 2 * k
        assert dec.eigenvalues.shape == (k,) and dec.leading(k).shape == (1001, k)
        # An empty window factorizes nothing; one value reduces only the
        # isolated node.
        assert solve_counted(M, k)[1] == [1] * k

    def test_equal_components_solve_once(self, monkeypatch):
        # The benchmark's input shape: 5 clusters of 800 points in R^200.
        bases = haar_ensemble(200, 5, 5, seed=3)
        graph = run_tsc(union_of_subspaces(bases, 800, seed=4).points, TscConfig(q=15)).graph
        L_sym = normalized_laplacian(graph.A)
        calls = counted_eigsh(monkeypatch)
        dec, _ = assert_window_of_blocks(L_sym, 51)
        assert calls == [13] * 5 and computed_pairs(dec) == 65
        # Each block asked for the whole window computes 5 x 51 pairs.
        calls.clear()
        monkeypatch.setattr(numerics, "LANCZOS_BUDGET_MARGIN", 51)
        whole = sym_eig(L_sym, 51)
        assert calls == [51] * 5 and computed_pairs(whole) == 255
        np.testing.assert_allclose(whole.eigenvalues, dec.eigenvalues, rtol=0.0, atol=1e-12)


def forced_lanczos(monkeypatch):
    """Every component with more nodes than the window gets Lanczos."""
    monkeypatch.setattr(numerics, "LANCZOS_MIN_NODES", 0)
    monkeypatch.setattr(numerics, "LANCZOS_NODES_PER_VALUE", 1)


class TestRunTscWindowOracle:
    """``run_tsc`` with Lanczos components against the dense pipeline and
    its whole spectrum."""

    @pytest.mark.parametrize("variant", ["exp", "ls"])
    @pytest.mark.parametrize("L", [None, 3])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_disconnected(self, monkeypatch, variant, L, seed):
        forced_lanczos(monkeypatch)
        self._check(disconnected_input(seed, n=80), TscConfig(
            q=8, weight_variant=variant, num_subspaces=L, seed=seed,
        ), lanczos=3)

    @pytest.mark.parametrize("variant", ["exp", "ls"])
    @pytest.mark.parametrize("L", [None, 2])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_intersecting(self, monkeypatch, variant, L, seed):
        forced_lanczos(monkeypatch)
        self._check(intersecting_input(seed, n=60), TscConfig(
            q=8, weight_variant=variant, num_subspaces=L, seed=seed,
        ), lanczos=1)

    @pytest.mark.parametrize("variant", ["exp", "ls"])
    def test_budgets_resolve_the_largest_cluster(self, monkeypatch, variant):
        # Clusters of 200, 70, 70 and 70 points: the largest owns more of the
        # 51 window values than an equal share of 15, and its node share,
        # 25 + 2, covers them in one solve.
        forced_lanczos(monkeypatch)
        calls = counted_eigsh(monkeypatch)
        bases = haar_ensemble(200, 4, 5, seed=1)
        points = union_of_subspaces(bases, [200, 70, 70, 70], seed=2).points
        self._check(points, TscConfig(q=15, weight_variant=variant, seed=1), lanczos=4)
        # The same calls in run_tsc and in _check's own window solve.
        assert sorted(calls[:4]) == [15, 15, 15, 27] and calls == 2 * calls[:4]

    @pytest.mark.parametrize("variant", ["exp", "ls"])
    def test_above_the_crossover(self, variant):
        # 600 points in one component, past the crossover for 51 values.
        self._check(intersecting_input(5, n=300), TscConfig(
            q=8, weight_variant=variant, seed=5,
        ), lanczos=1)

    @staticmethod
    def _check(points, config, lanczos):
        result = run_tsc(points, config)
        window = result.laplacian_eigenvalues.size
        L_sym = normalized_laplacian(result.graph.A)
        assert window == min(points.N, max(tsc.DEFAULT_MAX_L + 1, config.num_subspaces or 0))
        assert lanczos_blocks(*solve_counted(L_sym, window)) == lanczos
        w_ref = np.linalg.eigvalsh(dense_laplacian(points, config))
        np.testing.assert_allclose(
            result.laplacian_eigenvalues, w_ref[:window], rtol=0.0, atol=1e-12
        )
        labels, L_hat = dense_run_tsc(points, config)
        assert result.L_hat == L_hat
        np.testing.assert_array_equal(result.labels, labels)
        if config.num_subspaces is None:
            # Where the whole spectrum's largest gap lies inside the window,
            # the window finds it.
            full_L_hat, _ = estimate_L_eigengap(w_ref, points.N - 1)
            assert full_L_hat > tsc.DEFAULT_MAX_L or full_L_hat == result.L_hat


class TestNoDenseReductionAboveCrossover:
    @pytest.mark.parametrize("components", [1, 3])
    def test_run_tsc_never_reduces_a_large_block(self, monkeypatch, components):
        if components == 1:
            points = intersecting_input(5, n=300)
        else:
            points = union_of_subspaces(orthogonal_ensemble(30, 3, 5, seed=7), 550, seed=8).points
        window = tsc.DEFAULT_MAX_L + 1
        crossover = numerics.LANCZOS_MIN_NODES + numerics.LANCZOS_NODES_PER_VALUE * window
        real = numerics._lapack
        sizes = []

        def guarded(routine, *args, **kwargs):
            if routine == "dsytrd":
                sizes.append(args[0].shape[0])
                if args[0].shape[0] > crossover:
                    raise AssertionError(f"dsytrd on a {args[0].shape[0]}-node block")
            return real(routine, *args, **kwargs)

        monkeypatch.setattr(numerics, "_lapack", guarded)
        result = run_tsc(points, TscConfig(q=8))
        assert sizes == [] and result.laplacian_eigenvalues.size == window
        assert connected_components(result.graph.A, directed=False)[0] == components
        # The guard does fire on the whole-spectrum path.
        with pytest.raises(AssertionError, match="dsytrd"):
            sym_eig(normalized_laplacian(result.graph.A))


class TestTopOfSpectrumGap:
    def test_grid_ls_trial_finds_the_clusters(self):
        # The default grid spec's ls cell d=10, n=100, master seed 1, trial 0
        # (built as the experiment harness builds it).  The whole spectrum's
        # largest gap sits at index N - 1 = 999; the window's is at 10.
        seed = 15967712703450191832
        gt = union_of_subspaces(
            haar_ensemble(50, 10, 10, numerics.derive_seed(seed, 1)), 100,
            numerics.derive_seed(seed, 2),
        )
        config = TscConfig(
            q=tsc.default_q(100, False), weight_variant="ls", seed=numerics.derive_seed(seed, 3)
        )
        result = run_tsc(gt.points, config)
        assert result.L_hat == 10
        assert clustering_error(gt.points.labels, result.labels) == 0.0
        full = sym_eig(normalized_laplacian(result.graph.A)).eigenvalues
        assert estimate_L_eigengap(full, gt.points.N - 1) == (999, 999)
        assert estimate_L_eigengap(full) == (10, 10)


class TestStagesMatchDense:
    @pytest.mark.parametrize("variant", ["exp", "ls"])
    def test_weights_bit_identical(self, variant):
        pts = normalize_columns(intersecting_input(6, n=60))
        neighbors = select_neighbors(pts, 7)
        for a, b in zip(neighbors.index, dense_neighbors(pts.data, 7)):
            np.testing.assert_array_equal(a, b)
        Z = compute_weights(pts, neighbors, variant)
        assert sparse.issparse(Z) and Z.format == "csr"
        C = dense_abs_correlations(pts.data)
        for j, idx in enumerate(neighbors.index):
            col = Z[:, [j]].toarray().ravel()
            if variant == "exp":
                np.testing.assert_array_equal(col[idx], np.exp(-2.0 * np.arccos(C[j, idx])))
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
                np.testing.assert_array_equal(got.index[j], expected[j])
                # The correlations come with the neighbors, bit for bit.
                np.testing.assert_array_equal(got.corr[j], C[j, got.index[j]])
                kth = C[j, expected[j][-1]]
                tied_at_q += int(np.count_nonzero(C[j] == kth) > np.count_nonzero(
                    C[j, expected[j]] == kth))
        # The q-th value is shared with an unselected point in many columns.
        assert tied_at_q > 100

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), block=st.sampled_from([1, 7, 256]), normalize=st.booleans(),
           workers=st.sampled_from([1, 2, 3, 5]))
    def test_property_matches_dense_top_q(self, data, block, normalize, workers):
        """Small integer directions, each repeated, so rows tie at the q-th
        value inside and outside the pick; with ``normalize`` the directions
        are nonzero and each column is scaled by 2^k or 10^k, without it the
        raw products exceed 1.  The kernel's blocks run on ``workers``
        threads (at most one per block)."""
        m = data.draw(st.integers(2, 5), label="m")
        direction = st.lists(st.integers(-3, 3), min_size=m, max_size=m)
        if normalize:
            direction = direction.filter(any)
        directions = data.draw(st.lists(direction, min_size=2, max_size=8))
        reps = data.draw(st.lists(st.integers(1, 4), min_size=len(directions),
                                  max_size=len(directions)))
        X = np.repeat(np.array(directions, dtype=float).T, reps, axis=1)
        N = X.shape[1]
        X = X[:, data.draw(st.permutations(range(N)), label="perm")]
        if normalize:
            scales = data.draw(st.lists(st.one_of(
                st.integers(-500, 500).map(lambda k: 2.0**k),
                st.integers(-150, 150).map(lambda k: 10.0**k),
            ), min_size=N, max_size=N))
            X = X * np.array(scales)
        q = data.draw(st.integers(1, N - 1), label="q")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geometry, "CORRELATION_BLOCK", block)
            patch.setattr(geometry, "_usable_cpus", lambda: workers)
            got = select_neighbors(PointSet(X), q, normalize=normalize)
            C = dense_abs_correlations(X, normalize)
            expected = dense_neighbors(X, q, normalize)
        for j in range(N):
            np.testing.assert_array_equal(got.index[j], expected[j])
            np.testing.assert_array_equal(got.corr[j], C[j, expected[j]])

    def test_duplicates_in_other_block_come_first_by_index(self, monkeypatch):
        monkeypatch.setattr(geometry, "CORRELATION_BLOCK", 2)
        X = np.array([[1.0, 0.0, 1.0, 1.0, 0.0, 1.0], [0.0, 1.0, 0.0, 0.0, 1.0, 0.0]])
        sets = select_neighbors(PointSet(X), 3).index
        # Point 5 duplicates points 0, 2 and 3, which sit in earlier blocks.
        assert sets[5].tolist() == [0, 2, 3]
        assert sets[0].tolist() == [2, 3, 5]
        # Point 4's only duplicate is 1; the orthogonal rest tie at zero.
        assert sets[4].tolist() == [1, 0, 2]
