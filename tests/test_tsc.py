import math
import tracemalloc

import numpy as np
import pytest

from tsclust import geometry, tsc
from tsclust.errors import ConfigError, NonFinite, QTooLarge, TooFewPoints, ZeroVector
from tsclust.geometry import PointSet, normalize_columns
from tsclust.metrics import clustering_error
from tsclust.numerics import sym_eig
from tsclust.synth import orthogonal_ensemble, union_of_subspaces
from tsclust.tsc import (
    TscConfig,
    assemble_adjacency,
    compute_weights,
    default_q,
    estimate_L_eigengap,
    normalized_laplacian,
    run_tsc,
    select_neighbors,
)


def three_block_adjacency(sizes=(5, 7, 6), seed=0):
    """Block-diagonal adjacency with dense positive blocks."""
    rng = np.random.default_rng(seed)
    N = sum(sizes)
    A = np.zeros((N, N))
    start = 0
    labels = np.empty(N, dtype=int)
    for k, size in enumerate(sizes, start=1):
        block = rng.uniform(0.5, 1.5, size=(size, size))
        block = (block + block.T) / 2
        np.fill_diagonal(block, 0.0)
        A[start:start + size, start:start + size] = block
        labels[start:start + size] = k
        start += size
    return A, labels


class TestSelectNeighbors:
    def test_tie_broken_by_lower_index(self):
        X = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        sets = select_neighbors(PointSet(X), 1).index
        assert sets[0].tolist() == [1]
        assert sets[1].tolist() == [0]
        # Point 3 is orthogonal to both others: tie resolved to index 0.
        assert sets[2].tolist() == [0]

    def test_antipodal_counts_as_closest(self):
        X = np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
        sets = select_neighbors(PointSet(X), 1).index
        assert sets[0].tolist() == [1]

    def test_q_too_large(self):
        X = np.eye(3)
        with pytest.raises(QTooLarge):
            select_neighbors(PointSet(X), 3)

    def test_descending_correlation_order(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((8, 30))
        ps = normalize_columns(PointSet(X))
        C = np.abs(ps.data.T @ ps.data)
        for j, idx in enumerate(select_neighbors(ps, 5).index):
            vals = C[idx, j]
            assert np.all(np.diff(vals) <= 1e-12)
            assert j not in idx

    def test_peak_memory_on_two_workers(self, monkeypatch):
        # One 256 x 4000 float64 block per worker (7.8 MiB each) and the
        # partition's index array over 16 rows at a time; an index array over
        # each whole block would add 7.8 MiB per worker.
        monkeypatch.setattr(geometry, "_usable_cpus", lambda: 2)
        X = np.random.default_rng(11).standard_normal((200, 4000))
        points = normalize_columns(PointSet(X))
        tracemalloc.start()
        try:
            select_neighbors(points, 15, normalize=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    def test_unnormalized_input_matches_normalized(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((6, 20)) * rng.uniform(0.1, 10.0, size=20)
        raw = select_neighbors(PointSet(X), 4).index
        unit = select_neighbors(normalize_columns(PointSet(X)), 4).index
        for a, b in zip(raw, unit):
            assert a.tolist() == b.tolist()

    def test_zero_column_raises_zero_vector(self):
        # A zero column has no direction: selection with normalization names
        # it, as run_tsc does; without normalization it correlates 0 with all.
        X = np.random.default_rng(8).standard_normal((5, 8))
        X[:, 3] = 0.0
        with pytest.raises(ZeroVector) as exc:
            select_neighbors(PointSet(X), 7, normalize=True)
        assert exc.value.column == 3
        with pytest.raises(ZeroVector):
            run_tsc(PointSet(X), TscConfig(q=3))
        nb = select_neighbors(PointSet(X), 7, normalize=False)
        assert nb.corr[3].tolist() == [0.0] * 7

    def test_q_below_one_rejected(self):
        with pytest.raises(ConfigError, match="^q must be >= 1"):
            select_neighbors(PointSet(np.eye(3)), 0)


class TestComputeWeights:
    def test_duplicate_points_weight_one(self):
        X = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        ps = PointSet(X)
        Z = compute_weights(ps, select_neighbors(ps, 1))
        assert Z[1, 0] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_weight(self):
        X = np.eye(2)
        ps = PointSet(X)
        Z = compute_weights(ps, select_neighbors(ps, 1))
        assert Z[1, 0] == pytest.approx(math.exp(-math.pi), abs=1e-12)

    def test_half_correlation_weight(self):
        X = np.array([[1.0, 0.5], [0.0, math.sqrt(3) / 2]])
        ps = PointSet(X)
        Z = compute_weights(ps, select_neighbors(ps, 1))
        assert Z[1, 0] == pytest.approx(math.exp(-2 * math.acos(0.5)), abs=1e-9)

    def test_ls_support_is_neighbor_set(self):
        rng = np.random.default_rng(5)
        ps = normalize_columns(PointSet(rng.standard_normal((10, 25))))
        sets = select_neighbors(ps, 4)
        Z = compute_weights(ps, sets, weight_variant="ls").toarray()
        for j, idx in enumerate(sets.index):
            support = set(np.flatnonzero(Z[:, j]).tolist())
            assert support == set(idx.tolist())
            assert np.all(Z[:, j] >= 0.0)

    def test_unknown_variant_rejected(self):
        ps = PointSet(np.eye(2))
        with pytest.raises(ConfigError):
            compute_weights(ps, select_neighbors(ps, 1), weight_variant="huber")

    def test_neighbor_sets_of_other_points_rejected(self):
        neighbors = select_neighbors(PointSet(np.eye(4)), 1)
        with pytest.raises(ValueError, match="^4 neighbor sets for 3 points"):
            compute_weights(PointSet(np.eye(3)), neighbors)


class TestAssembleAdjacency:
    def test_single_directed_edge(self):
        Z = np.array([[0.0, 0.0], [0.7, 0.0]])
        graph = assemble_adjacency(Z)
        np.testing.assert_array_equal(graph.A.toarray(), [[0.0, 0.7], [0.7, 0.0]])

    def test_symmetric_input_doubles(self):
        S = np.array([[0.0, 0.3], [0.3, 0.0]])
        graph = assemble_adjacency(S)
        np.testing.assert_array_equal(graph.A.toarray(), 2 * S)

    def test_block_structure_preserved(self):
        Z = np.zeros((4, 4))
        Z[0, 1] = Z[1, 0] = 0.5
        Z[2, 3] = 0.9
        graph = assemble_adjacency(Z)
        assert graph.A[0, 2] == graph.A[1, 3] == 0.0
        assert graph.A[2, 3] == graph.A[3, 2] == 0.9

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            assemble_adjacency(np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            assemble_adjacency(np.array([[0.0, -1.0], [0.0, 0.0]]))


class TestNormalizedLaplacian:
    @pytest.mark.parametrize("w", [0.1, 1.0, 42.0])
    def test_single_edge_independent_of_weight(self, w):
        A = np.array([[0.0, w], [w, 0.0]])
        L = normalized_laplacian(A)
        np.testing.assert_allclose(L.toarray(), [[1.0, -1.0], [-1.0, 1.0]], atol=1e-12)
        ev = sym_eig(L).eigenvalues
        np.testing.assert_allclose(ev, [0.0, 2.0], atol=1e-12)

    def test_two_components_give_two_zero_eigenvalues(self):
        A, _ = three_block_adjacency(sizes=(3, 3), seed=1)
        ev = sym_eig(normalized_laplacian(A)).eigenvalues
        assert int(np.sum(np.abs(ev) < 1e-10)) == 2

    def test_all_isolated_convention(self):
        # Zero adjacency: every node is its own component, the conventioned
        # matrix is all-zero, so the spectrum is N exact zeros.
        L = normalized_laplacian(np.zeros((4, 4)))
        np.testing.assert_array_equal(L.toarray(), np.zeros((4, 4)))
        ev = sym_eig(L).eigenvalues
        np.testing.assert_array_equal(ev, np.zeros(4))

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(2)
        Z = np.abs(rng.standard_normal((30, 30)))
        np.fill_diagonal(Z, 0.0)
        A = Z + Z.T
        L = normalized_laplacian(A)
        np.testing.assert_array_equal(L.toarray(), L.T.toarray())


class TestEstimateEigengap:
    def test_largest_gap(self):
        ev = np.array([0.0, 0.0, 0.0, 0.9, 1.0, 1.1])
        L_hat, idx = estimate_L_eigengap(ev)
        assert L_hat == 3 and idx == 3

    def test_block_diagonal_component_count(self):
        A, _ = three_block_adjacency(sizes=(4, 5, 6, 7), seed=3)
        ev = sym_eig(normalized_laplacian(A)).eigenvalues
        L_hat, _ = estimate_L_eigengap(ev)
        assert L_hat == 4

    def test_tie_goes_to_smallest_index(self):
        L_hat, _ = estimate_L_eigengap(np.array([0.0, 0.5, 1.0]))
        assert L_hat == 1

    def test_default_window(self):
        # Without max_L the search stops at gap index DEFAULT_MAX_L, so a
        # larger gap further up the spectrum is not read.
        ev = np.concatenate((np.linspace(0.0, 0.5, 60), [2.0]))
        ev[10:] += 0.1
        assert estimate_L_eigengap(ev) == (10, 10)
        assert estimate_L_eigengap(ev, max_L=60) == (60, 60)

    def test_max_L_cap(self):
        ev = np.array([0.0, 0.0, 0.0, 0.9, 1.0, 1.1])
        L_hat, _ = estimate_L_eigengap(ev, max_L=2)
        assert L_hat <= 2

    def test_too_few(self):
        with pytest.raises(TooFewPoints):
            estimate_L_eigengap(np.array([0.0]))


class TestSpectralCluster:
    def test_exact_blocks_recovered(self):
        A, labels = three_block_adjacency(seed=4)
        L = normalized_laplacian(A)
        est = tsc._cluster_embedding(sym_eig(L, 3), 3, 0, 10, 100)
        assert clustering_error(labels, est) == 0.0

    def test_single_cluster(self):
        A, _ = three_block_adjacency(sizes=(6,), seed=5)
        est = tsc._cluster_embedding(sym_eig(normalized_laplacian(A), 1), 1, 0, 10, 100)
        assert set(est.tolist()) == {1}

    def test_n_singletons(self):
        A, _ = three_block_adjacency(sizes=(3, 3), seed=6)
        est = tsc._cluster_embedding(sym_eig(normalized_laplacian(A), 6), 6, 0, 10, 100)
        assert len(set(est.tolist())) == 6


class TestRunTsc:
    @pytest.mark.parametrize("variant", ["exp", "ls"])
    def test_orthogonal_subspaces_exact(self, monkeypatch, variant):
        bases = orthogonal_ensemble(30, 3, 5, seed=10)
        gt = union_of_subspaces(bases, 50, seed=11)
        config = TscConfig(q=5, weight_variant=variant, num_subspaces=3, seed=0)
        passes = []

        def counted(*args, **kwargs):
            passes.append(args)
            return kernel(*args, **kwargs)

        kernel = tsc.abs_gram_rows
        monkeypatch.setattr(tsc, "abs_gram_rows", counted)
        result = run_tsc(gt.points, config)
        assert clustering_error(gt.points.labels, result.labels) == 0.0
        # The weights read the correlations the selection picked.
        assert len(passes) == 1

    @pytest.mark.parametrize("variant", ["exp", "ls"])
    def test_points_normalized_once_and_read_by_kernel(self, monkeypatch, variant):
        gt = union_of_subspaces(orthogonal_ensemble(30, 3, 5, seed=10), 50, seed=11)
        made, read, weighed = [], [], []

        def normalize(points):
            out = normalize_columns(points)
            made.append(out.data)
            return out

        def gram_rows(X, rows, reduce):
            read.append(X)
            return kernel(X, rows, reduce)

        def weights(points, *args, **kwargs):
            weighed.append(points.data)
            return compute(points, *args, **kwargs)

        kernel, compute = tsc.abs_gram_rows, tsc.compute_weights
        monkeypatch.setattr(tsc, "normalize_columns", normalize)
        monkeypatch.setattr(tsc, "abs_gram_rows", gram_rows)
        monkeypatch.setattr(tsc, "compute_weights", weights)
        run_tsc(gt.points, TscConfig(q=5, weight_variant=variant, num_subspaces=3))
        assert len(made) == 1
        # The kernel and the weights read the very unit columns made once.
        assert len(read) == 1 and read[0] is made[0]
        assert len(weighed) == 1 and weighed[0] is made[0]

    def test_single_subspace_known_one(self):
        bases = orthogonal_ensemble(10, 1, 3, seed=1)
        gt = union_of_subspaces(bases, 30, seed=2)
        result = run_tsc(gt.points, TscConfig(q=4, num_subspaces=1))
        assert set(result.labels.tolist()) == {1}

    def test_two_points_q_too_large(self):
        ps = PointSet(np.eye(2))
        with pytest.raises(QTooLarge):
            run_tsc(ps, TscConfig(q=2))

    def test_single_point_rejected(self):
        ps = PointSet(np.array([[1.0]]))
        with pytest.raises(TooFewPoints):
            run_tsc(ps, TscConfig(q=1))

    def test_adjacency_invariants(self):
        rng = np.random.default_rng(12)
        ps = PointSet(rng.standard_normal((8, 40)))
        result = run_tsc(ps, TscConfig(q=6, num_subspaces=2))
        A = result.graph.A.toarray()
        np.testing.assert_array_equal(A, A.T)
        np.testing.assert_array_equal(np.diag(A), np.zeros(40))
        # Every node has at least q positive incident weights (exp variant
        # weights are >= exp(-pi) > 0).
        assert np.all((A > 0).sum(axis=0) >= 6)
        assert A[A > 0].min() >= math.exp(-math.pi) - 1e-15

    def test_permutation_equivariance(self):
        bases = orthogonal_ensemble(20, 2, 4, seed=20)
        gt = union_of_subspaces(bases, 30, seed=21)
        config = TscConfig(q=5, num_subspaces=2, seed=9)
        base = run_tsc(gt.points, config)
        rng = np.random.default_rng(22)
        perm = rng.permutation(gt.points.N)
        permuted = PointSet(gt.points.data[:, perm])
        result = run_tsc(permuted, config)
        assert clustering_error(base.labels[perm], result.labels) == 0.0

    def test_scaling_invariance_power_of_two_bitwise(self):
        # Power-of-two global scaling is exactly absorbed by correlation
        # normalization: neighbor sets, weights, and labels are bit-identical.
        rng = np.random.default_rng(30)
        X = rng.standard_normal((10, 35))
        config = TscConfig(q=4, num_subspaces=2, seed=1)
        a = run_tsc(PointSet(X), config)
        b = run_tsc(PointSet(X * 4.0), config)
        for sa, sb in zip(a.graph.neighbor_sets.index, b.graph.neighbor_sets.index):
            np.testing.assert_array_equal(sa, sb)
        np.testing.assert_array_equal(a.graph.Z.toarray(), b.graph.Z.toarray())
        np.testing.assert_array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("variant", ["exp", "ls"])
    def test_scaling_invariance_generic_scalar(self, variant):
        rng = np.random.default_rng(31)
        X = rng.standard_normal((10, 35))
        config = TscConfig(q=4, weight_variant=variant, num_subspaces=2, seed=1)
        a = run_tsc(PointSet(X), config)
        b = run_tsc(PointSet(X * 3.7), config)
        assert clustering_error(a.labels, b.labels) == 0.0

    def test_component_structure_recovered(self):
        # With Known(L) and L connected components, CE against component
        # membership is zero.
        bases = orthogonal_ensemble(24, 4, 3, seed=40)
        gt = union_of_subspaces(bases, 25, seed=41)
        result = run_tsc(gt.points, TscConfig(q=4, num_subspaces=4, seed=3))
        assert clustering_error(gt.points.labels, result.labels) == 0.0

    def test_estimate_mode_returns_gap_index(self):
        # The eigengap takes the global argmax over consecutive differences,
        # which is reliable when the in-cluster graphs expand well (d not too
        # small relative to q and n).
        bases = orthogonal_ensemble(50, 2, 5, seed=50)
        gt = union_of_subspaces(bases, 100, seed=51)
        result = run_tsc(gt.points, TscConfig(q=10))
        assert result.L_hat == 2
        assert result.eigengap_index == 2
        # The eigengap window of 200 points, not the whole spectrum.
        assert result.laplacian_eigenvalues.size == tsc.DEFAULT_MAX_L + 1

    def test_ls_variant_column_support(self):
        rng = np.random.default_rng(60)
        ps = PointSet(rng.standard_normal((12, 30)))
        result = run_tsc(ps, TscConfig(q=5, weight_variant="ls", num_subspaces=2))
        for j, idx in enumerate(result.graph.neighbor_sets.index):
            assert set(np.flatnonzero(result.graph.Z.toarray()[:, j])) == set(idx.tolist())


class TestBadInput:
    @pytest.mark.parametrize("variant", ["exp", "ls"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_raises_non_finite(self, variant, bad):
        # Both variants fail alike, at the point set, before any stage runs.
        bases = orthogonal_ensemble(30, 3, 5, seed=10)
        X = union_of_subspaces(bases, 50, seed=11).points.data.copy()
        X[4, 17] = bad
        with pytest.raises(NonFinite):
            run_tsc(PointSet(X), TscConfig(q=5, weight_variant=variant))

    def test_overflowing_scale_keeps_clustering(self):
        # At 1e200 the plain column norms overflow to inf; at 1e-20 they sit
        # below any absolute zero-norm bound, and at 1e-170 their squares
        # underflow to 0.
        bases = orthogonal_ensemble(30, 3, 5, seed=10)
        gt = union_of_subspaces(bases, 50, seed=11)
        config = TscConfig(q=5)
        plain = run_tsc(gt.points, config)
        for scale in (1e200, 1e-20, 1e-170):
            scaled = run_tsc(PointSet(gt.points.data * scale), config)
            assert plain.L_hat == scaled.L_hat == 3
            np.testing.assert_array_equal(scaled.labels, plain.labels)
            assert clustering_error(gt.points.labels, scaled.labels) == 0.0

    @pytest.mark.parametrize("variant", ["exp", "ls"])
    def test_overflowing_raw_inner_products_raise(self, variant):
        # Unnormalized, the inner products of these points x1e160 overflow
        # to inf (and inf - inf to NaN inside the GEMM); the selection names
        # the overflow, and numpy does not warn first.
        gt = union_of_subspaces(orthogonal_ensemble(30, 3, 5, seed=10), 50, seed=11)
        points = PointSet(gt.points.data * 1e160)
        config = TscConfig(q=5, weight_variant=variant, correlation_normalize=False)
        with pytest.raises(NonFinite, match="overflow"):
            select_neighbors(points, 5, normalize=False)
        with pytest.raises(NonFinite, match="overflow"):
            run_tsc(points, config)
        # Normalized, the same points cluster.
        result = run_tsc(points, TscConfig(q=5, weight_variant=variant, num_subspaces=3))
        assert clustering_error(gt.points.labels, result.labels) == 0.0

    @pytest.mark.parametrize("every", [1, 2])
    def test_overflowing_columns_in_kernel_keep_neighbors_and_weights(self, every):
        # Normalizing inside the correlation kernel: at 2^600 the plain norms
        # of the scaled columns overflow to inf, at 2^-600 and 1e-170 their
        # squares underflow to 0.  Rescaling the columns by powers of two
        # gives the unscaled neighbor lists bit for bit, and the exp weights
        # too wherever the scale is itself a power of two (multiplying by
        # 1e-170 rounds each entry, which moves a weight by a few ulps).
        gt = union_of_subspaces(orthogonal_ensemble(30, 3, 5, seed=1), 50, seed=2)
        expected = select_neighbors(gt.points, 5)
        Z_expected = compute_weights(gt.points, expected).toarray()
        for scale in (2.0**600, 2.0**-600, 1e-170):
            X = gt.points.data.copy()
            X[:, ::every] *= scale
            scaled = PointSet(X)
            with np.errstate(over="raise", invalid="raise"):
                got = select_neighbors(scaled, 5)
                Z = compute_weights(scaled, got).toarray()
            for a, b in zip(got.index, expected.index):
                np.testing.assert_array_equal(a, b)
            if np.frexp(scale)[0] == 0.5:
                np.testing.assert_array_equal(Z, Z_expected)
            else:
                np.testing.assert_allclose(Z, Z_expected, rtol=1e-13, atol=0.0)


    @pytest.mark.parametrize(
        "stage, message",
        [(assemble_adjacency, "Z must be square"), (normalized_laplacian, "A must be square")],
        ids=["adjacency", "laplacian"],
    )
    def test_non_square_matrix_rejected(self, stage, message):
        with pytest.raises(ValueError, match="^" + message):
            stage(np.zeros((2, 3)))

class TestDefaultQ:
    def test_paper_rule(self):
        assert default_q(200, True) == 10
        assert default_q(10, True) == 3
        assert default_q(200, False) == 20

    def test_floor_applies_when_estimated(self):
        assert default_q(10, False) == 6

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            default_q(0, True)


class TestTscConfig:
    def test_rejects_bad_q(self):
        with pytest.raises(ConfigError):
            TscConfig(q=0)

    def test_rejects_bad_variant(self):
        with pytest.raises(ConfigError):
            TscConfig(q=3, weight_variant="l2")

    def test_rejects_bad_L(self):
        with pytest.raises(ConfigError):
            TscConfig(q=3, num_subspaces=0)

    def test_rejects_bad_max_L(self):
        with pytest.raises(ConfigError, match="^max_L must be >= 1"):
            TscConfig(q=3, max_L=0)

    @pytest.mark.parametrize("field", ["kmeans_restarts", "kmeans_max_iter"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_rejects_nonpositive_kmeans_budget(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TscConfig(q=3, **{field: value})

    def test_L_above_N_rejected_before_neighbor_selection(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("neighbor selection ran")

        monkeypatch.setattr(tsc, "select_neighbors", fail)
        points = PointSet(np.random.default_rng(0).standard_normal((4, 12)))
        with pytest.raises(ConfigError, match="num_subspaces=13"):
            run_tsc(points, TscConfig(q=3, num_subspaces=13))


class TestEdgePaths:
    def test_isolated_node_becomes_own_cluster(self):
        # Two edges plus an isolated node: three components, and the
        # isolated node's zero embedding row lands in its own cluster.
        A = np.zeros((5, 5))
        A[0, 1] = A[1, 0] = 1.0
        A[2, 3] = A[3, 2] = 1.0
        L = normalized_laplacian(A)
        ev = sym_eig(L).eigenvalues
        assert int(np.sum(np.abs(ev) < 1e-10)) == 3
        labels = tsc._cluster_embedding(sym_eig(L, 3), 3, 0, 10, 100)
        assert clustering_error([1, 1, 2, 2, 3], labels) == 0.0

    def test_no_normalize_on_unit_points_equivalent(self):
        # For unit-norm input the raw-inner-product path clusters the same.
        rng = np.random.default_rng(1)
        X = rng.standard_normal((8, 30))
        X /= np.linalg.norm(X, axis=0)
        a = run_tsc(PointSet(X), TscConfig(q=4, num_subspaces=2, seed=0))
        b = run_tsc(
            PointSet(X),
            TscConfig(q=4, num_subspaces=2, seed=0, correlation_normalize=False),
        )
        assert clustering_error(a.labels, b.labels) == 0.0

    def test_no_normalize_ranks_raw_inner_products(self):
        # Scaled by 3, most raw |<x_i, x_j>| within a subspace exceed 1; they
        # are ranked as they are, not cut to 1 first.
        gt = union_of_subspaces(orthogonal_ensemble(30, 3, 5, seed=1), 50, seed=2)
        X = gt.points.data * 3.0
        C = np.abs(X.T @ X)
        np.fill_diagonal(C, -1.0)
        order = np.argsort(-C, axis=0, kind="stable")
        got = select_neighbors(PointSet(X), 5, normalize=False)
        for j, idx in enumerate(got.index):
            np.testing.assert_array_equal(idx, order[:5, j])

    def test_max_L_caps_estimate(self):
        bases = orthogonal_ensemble(50, 2, 5, seed=50)
        gt = union_of_subspaces(bases, 100, seed=51)
        result = run_tsc(gt.points, TscConfig(q=10, max_L=1))
        assert result.L_hat == 1

    @pytest.mark.parametrize("variant", ["exp", "ls"])
    def test_no_normalize_with_scaled_columns_runs(self, variant):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((6, 20)) * rng.uniform(0.5, 2.0, size=20)
        config = TscConfig(
            q=3, weight_variant=variant, num_subspaces=2, seed=0,
            correlation_normalize=False,
        )
        result = run_tsc(PointSet(X), config)
        assert result.labels.size == 20
