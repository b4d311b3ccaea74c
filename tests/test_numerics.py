import tracemalloc

import numpy as np
import pytest

from tsclust import numerics
from tsclust.errors import InvalidK, NonFinite
from tsclust.numerics import _kmeans_pp_init, _lloyd, _min_norm, derive_seed, kmeans, sym_eig

from references import kmeans_every_restart


def tensor_lloyd(rows, centroids, max_iter):
    """Lloyd iterations with all distances from one (n, k, p) tensor."""
    n = rows.shape[0]
    k = centroids.shape[0]
    labels = np.full(n, -1, dtype=int)
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


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(12345, 7) == derive_seed(12345, 7)

    def test_distinct_substreams(self):
        seeds = {derive_seed(99, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_range(self):
        for i in range(10):
            assert 0 <= derive_seed(-5, i) < 2**64


class TestSymEig:
    def test_identity(self):
        dec = sym_eig(np.eye(3))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0, 1.0])

    def test_diagonal_sorted_ascending(self):
        dec = sym_eig(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 2.0, 3.0])

    def test_reconstruction_oracle(self):
        # Independent check: V diag(w) V^T must reproduce the input.
        rng = np.random.default_rng(42)
        A = rng.uniform(-10, 10, size=(10, 10))
        A = (A + A.T) / 2
        dec = sym_eig(A)
        recon = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.T
        assert np.max(np.abs(recon - A)) < 1e-8

    def test_orthonormal_eigenvectors(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((8, 8))
        A = A + A.T
        dec = sym_eig(A)
        gram = dec.eigenvectors.T @ dec.eigenvectors
        assert np.max(np.abs(gram - np.eye(8))) < 1e-8

    def test_eigenvalue_sum_equals_trace(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((12, 12))
        A = A + A.T
        dec = sym_eig(A)
        assert dec.eigenvalues.sum() == pytest.approx(np.trace(A), rel=1e-8)

    def test_rejects_nan(self):
        A = np.eye(3)
        A[0, 1] = np.nan
        with pytest.raises(NonFinite):
            sym_eig(A)

    def test_window_is_the_smallest_eigenvalues(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((9, 9))
        A = A + A.T
        full = sym_eig(A)
        for k in (0, 1, 4, 9):
            dec = sym_eig(A, k)
            np.testing.assert_array_equal(dec.eigenvalues, full.eigenvalues[:k])
            assert dec.eigenvectors.shape == (9, k)
            np.testing.assert_array_equal(dec.eigenvectors, full.leading(k))

    @pytest.mark.parametrize("k", [-1, 10])
    def test_window_out_of_range(self, k):
        with pytest.raises(ValueError):
            sym_eig(np.eye(9), k)

    def test_leading_beyond_window_rejected(self):
        with pytest.raises(ValueError):
            sym_eig(np.eye(9), 3).leading(4)

    def test_empty_matrix(self):
        for dec in (sym_eig(np.zeros((0, 0)), 0), sym_eig(np.zeros((0, 0)))):
            assert dec.eigenvalues.shape == (0,)
            assert dec.components == () and dec.N == 0
            assert dec.eigenvectors.shape == (0, 0)


    @pytest.mark.parametrize("shape", [(2, 3), (3,)], ids=["rectangular", "one-dimensional"])
    def test_non_square_rejected(self, shape):
        with pytest.raises(ValueError, match="^expected a square matrix"):
            sym_eig(np.ones(shape))

class TestLeastSquares:
    def test_orthonormal_columns_recover_coefficients(self):
        rng = np.random.default_rng(5)
        B, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        w = np.array([1.5, -2.0, 0.25])
        out = _min_norm(B, B @ w)
        np.testing.assert_allclose(out, w, atol=1e-10)

    def test_single_column(self):
        y = np.array([2.0, -1.0, 0.5])
        out = _min_norm(y[:, None], y)
        assert out[0] == pytest.approx(1.0, abs=1e-12)

    def test_duplicated_column_minimum_norm(self):
        # Independent oracle for the 2-variable rank-deficient case: both
        # coefficients equal by symmetry, and c*(w1 + w2) = y forces
        # w1 = w2 = 1/2 as the minimum-norm solution of the normal equations.
        c = np.array([1.0, 2.0, -1.0])
        B = np.column_stack([c, c])
        out = _min_norm(B, c)
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-12)

    def test_local_optimality(self):
        # Residual is no worse than 1000 random 1e-3 perturbations of w.
        rng = np.random.default_rng(77)
        B = rng.standard_normal((20, 6))
        y = rng.standard_normal(20)
        w = _min_norm(B, y)
        base = np.linalg.norm(B @ w - y)
        for _ in range(1000):
            delta = rng.standard_normal(6)
            delta *= 1e-3 / np.linalg.norm(delta)
            assert base <= np.linalg.norm(B @ (w + delta) - y) + 1e-12


    @pytest.mark.parametrize("shape", [(4, 2), (4, 0)], ids=["all-zero", "no-columns"])
    def test_zero_block_gives_zeros(self, shape):
        out = _min_norm(np.zeros(shape), np.ones(4))
        np.testing.assert_array_equal(out, np.zeros(shape[1]))

class TestKMeans:
    def test_well_separated_1d(self):
        rows = np.array([[0.0], [0.1], [10.0], [10.1]])
        for seed in (0, 1, 99):
            result = kmeans(rows, 2, seed=seed)
            assert result.labels[0] == result.labels[1]
            assert result.labels[2] == result.labels[3]
            assert result.labels[0] != result.labels[2]

    def test_k_equals_n(self):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((6, 2))
        result = kmeans(rows, 6, seed=3)
        assert len(set(result.labels)) == 6
        assert result.inertia == pytest.approx(0.0, abs=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        rows = rng.standard_normal((50, 3))
        a = kmeans(rows, 4, seed=123)
        b = kmeans(rows, 4, seed=123)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        assert a.inertia == b.inertia

    def test_labels_one_based(self):
        rows = np.random.default_rng(4).standard_normal((10, 2))
        result = kmeans(rows, 3, seed=0)
        assert result.labels.min() >= 1
        assert result.labels.max() <= 3

    def test_inertia_matches_recomputation(self):
        rows = np.random.default_rng(9).standard_normal((40, 3))
        result = kmeans(rows, 5, seed=1)
        recomputed = float(np.sum((rows - result.centroids[result.labels - 1]) ** 2))
        assert result.inertia == pytest.approx(recomputed, rel=1e-9)

    @pytest.mark.parametrize("k", [0, 11])
    def test_invalid_k(self, k):
        rows = np.zeros((10, 2))
        with pytest.raises(InvalidK):
            kmeans(rows, k, seed=0)

    @pytest.mark.parametrize("budget", [{"restarts": 0}, {"max_iter": 0}, {"max_iter": -1}])
    def test_nonpositive_budget_rejected(self, budget):
        # With no Lloyd step the labels would be left unassigned.
        rows = np.random.default_rng(4).standard_normal((10, 2))
        with pytest.raises(ValueError, match=next(iter(budget))):
            kmeans(rows, 3, seed=0, **budget)

    @pytest.mark.parametrize("n,k,p", [(100, 3, 5), (500, 20, 7), (300, 40, 30), (37, 37, 2)])
    def test_matches_distance_tensor_reference(self, n, k, p):
        rng = np.random.default_rng(n + k + p)
        rows = rng.standard_normal((n, p))
        rows[: n // 4] = rows[0]  # duplicates leave clusters empty
        init = _kmeans_pp_init(rows, k, np.random.default_rng(3))
        got = _lloyd(rows, init.copy(), 100)
        expected = tensor_lloyd(rows, init.copy(), 100)
        np.testing.assert_array_equal(got[0], expected[0])
        np.testing.assert_array_equal(got[1], expected[1])
        assert got[2:] == expected[2:]

    def test_memory_independent_of_n_k_p(self):
        # An (n, k, p) float64 distance tensor would take 640 MB here.
        n, k, p = 2000, 200, 200
        rows = np.random.default_rng(12).standard_normal((n, p))
        tracemalloc.start()
        try:
            kmeans(rows, k, seed=0, restarts=1, max_iter=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * k * p * 8 / 16

    @pytest.mark.parametrize("noise, restarts_run", [(0.0, 1), (0.05, 10)],
                             ids=["zero-inertia", "positive-inertia"])
    def test_stops_at_a_restart_with_zero_inertia(self, monkeypatch, noise, restarts_run):
        # The rows of a spectral embedding of a graph with exactly k
        # components: one unit vector per cluster.  The first restart's
        # clusters coincide, so no later one can beat its zero inertia.
        rng = np.random.default_rng(13)
        rows = np.repeat(np.eye(4), 30, axis=0)[rng.permutation(120)]
        rows += noise * rng.standard_normal(rows.shape)
        labels, centroids, inertia, iterations = kmeans_every_restart(rows, 4, seed=7)
        calls = []

        def counted(*args):
            calls.append(args)
            return _kmeans_pp_init(*args)

        monkeypatch.setattr(numerics, "_kmeans_pp_init", counted)
        result = kmeans(rows, 4, seed=7)
        assert len(calls) == restarts_run
        assert (inertia == 0.0) == (noise == 0.0)
        np.testing.assert_array_equal(result.labels, labels)
        np.testing.assert_array_equal(result.centroids, centroids)
        assert (result.inertia, result.iterations) == (inertia, iterations)

    def test_one_dimensional_rows_rejected(self):
        with pytest.raises(ValueError, match="^rows must be 2-D"):
            kmeans(np.arange(5.0), 2, seed=0)
