import math
import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from tsclust.errors import InvalidDims
from tsclust.synth import (
    corrupt,
    haar_basis,
    inner_product_abs_cdf,
    inner_product_abs_pdf,
    intersecting_pair,
    orthogonal_ensemble,
    sample_outliers,
    sample_subspace_points,
    shared_intersection_ensemble,
    union_of_subspaces,
)
from tsclust.tsc import select_neighbors


def cosines(U, V):
    """Cosines of the principal angles between the spans of two orthonormal
    bases, descending: the singular values of ``U^T V``."""
    return np.linalg.svd(U.basis.T @ V.basis, compute_uv=False)


def rms(c):
    """The root-mean-square cosine, the paper's subspace affinity ``aff``."""
    return np.linalg.norm(c) / math.sqrt(c.size)


def orthonormality_defect(U):
    return np.max(np.abs(U.basis.T @ U.basis - np.eye(U.d)))


class TestHaarBasis:
    @pytest.mark.parametrize("m,d", [(5, 2), (10, 10), (30, 7)])
    def test_orthonormal(self, m, d):
        U = haar_basis(m, d, seed=3)
        assert orthonormality_defect(U) < 1e-10

    def test_square_determinant(self):
        U = haar_basis(6, 6, seed=4)
        assert abs(abs(np.linalg.det(U.basis)) - 1.0) < 1e-8

    def test_deterministic(self):
        np.testing.assert_array_equal(haar_basis(8, 3, 5).basis, haar_basis(8, 3, 5).basis)

    def test_invalid_dims(self):
        with pytest.raises(InvalidDims):
            haar_basis(3, 4, seed=0)
        with pytest.raises(InvalidDims):
            haar_basis(3, 0, seed=0)

    def test_first_column_sphere_marginal(self):
        # <u1, e1> over many seeds must follow the signed sphere-coordinate
        # law; its CDF comes from the absolute-value CDF by symmetry.
        m = 8
        samples = np.array([haar_basis(m, 3, seed=s).basis[0, 0] for s in range(10_000)])

        def signed_cdf(t):
            t = np.atleast_1d(t)
            return np.array(
                [0.5 * (1.0 + math.copysign(inner_product_abs_cdf(m, abs(v)), v)) for v in t]
            )

        stat = kstest(samples, signed_cdf).statistic
        assert stat < 0.03


class TestSampleSubspacePoints:
    def test_containment_and_norms(self):
        U = haar_basis(12, 4, seed=7)
        X = sample_subspace_points(U, 60, seed=8)
        residual = X - U.basis @ (U.basis.T @ X)
        assert np.max(np.linalg.norm(residual, axis=0)) < 1e-10
        assert np.max(np.abs(np.linalg.norm(X, axis=0) - 1.0)) < 1e-12

    def test_d3_pairwise_products_uniform(self):
        # For d=3 the |<a_i, a_j>| density is the constant 1 on [0, 1].
        U = haar_basis(3, 3, seed=9)
        X = sample_subspace_points(U, 20_000, seed=10)
        samples = np.abs(np.einsum("ij,ij->j", X[:, ::2], X[:, 1::2]))
        assert kstest(samples, "uniform").statistic < 0.02

    def test_invalid_count(self):
        with pytest.raises(InvalidDims):
            sample_subspace_points(haar_basis(4, 2, 0), 0, seed=1)


class TestIntersectingPair:
    def test_t_zero_orthogonal(self):
        U1, U2 = intersecting_pair(30, 5, 0, seed=1)
        assert rms(cosines(U1, U2)) < 1e-10

    def test_t_equals_d_identical(self):
        U1, U2 = intersecting_pair(30, 5, 5, seed=2)
        np.testing.assert_allclose(cosines(U1, U2), 1.0, atol=1e-10)

    @pytest.mark.parametrize("t", [1, 2, 4])
    def test_general_t(self, t):
        d = 6
        U1, U2 = intersecting_pair(40, d, t, seed=t)
        c = cosines(U1, U2)
        assert int(np.sum(c > 1 - 1e-10)) == t
        assert int(np.sum(c < 1e-10)) == d - t
        assert rms(c) == pytest.approx(math.sqrt(t / d), abs=1e-10)

    def test_infeasible_dims(self):
        with pytest.raises(InvalidDims):
            intersecting_pair(8, 5, 0, seed=0)  # 2d - t > m
        with pytest.raises(InvalidDims):
            intersecting_pair(30, 5, 6, seed=0)  # t > d


class TestSharedIntersectionEnsemble:
    def test_pairwise_shared_dimensions(self):
        d = 6
        bases = shared_intersection_ensemble(50, 4, d, seed=3)
        for k in range(4):
            assert orthonormality_defect(bases[k]) < 1e-10
            for l in range(k + 1, 4):
                c = cosines(bases[k], bases[l])
                assert int(np.sum(c > 1 - 1e-10)) >= d // 3
                assert rms(c) >= 1 / math.sqrt(3) - 1e-9

    def test_d_not_multiple_of_three(self):
        with pytest.raises(InvalidDims):
            shared_intersection_ensemble(50, 3, 5, seed=0)


class TestOrthogonalEnsemble:
    def test_mutually_orthogonal(self):
        bases = orthogonal_ensemble(30, 3, 5, seed=4)
        for k in range(3):
            for l in range(k + 1, 3):
                assert cosines(bases[k], bases[l])[0] < 1e-10

    def test_capacity_check(self):
        with pytest.raises(InvalidDims):
            orthogonal_ensemble(10, 3, 4, seed=0)


class TestCorrupt:
    def test_identity_when_clean(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((10, 20))
        out, erased = corrupt(X, 0.0, 0, seed=6)
        np.testing.assert_array_equal(out, X)
        assert all(e.size == 0 for e in erased)

    def test_erasures_zero_recorded_indices_only(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((50, 30))
        out, erased = corrupt(X, 0.0, 10, seed=8)
        for j, idx in enumerate(erased):
            assert idx.size == 10
            assert np.all(out[idx, j] == 0.0)
            others = np.setdiff1d(np.arange(50), idx)
            np.testing.assert_array_equal(out[others, j], X[others, j])

    def test_noise_energy(self):
        # Monte Carlo oracle: E ||e||^2 = sigma2.
        m, n, sigma2 = 100, 10_000, 0.25
        zeros = np.zeros((m, n))
        noisy, _ = corrupt(zeros, sigma2, 0, seed=9)
        mean_sq = float(np.mean(np.sum(noisy**2, axis=0)))
        assert 0.245 <= mean_sq <= 0.255

    def test_noise_then_erasure_order(self):
        # Default order zeroes the recorded entries even under noise.
        X = np.ones((20, 5))
        out, erased = corrupt(X, 0.5, 4, seed=10)
        for j, idx in enumerate(erased):
            assert np.all(out[idx, j] == 0.0)

    def test_erase_before_noise_flag(self):
        X = np.ones((20, 5))
        out, erased = corrupt(X, 0.5, 4, seed=11, noise_first=False)
        # Noise lands on erased coordinates afterwards, so they are nonzero.
        values = np.concatenate([out[idx, j] for j, idx in enumerate(erased)])
        assert np.all(values != 0.0)

    def test_bad_params(self):
        X = np.zeros((4, 2))
        for sigma2 in (-1.0, math.nan, math.inf):
            with pytest.raises(InvalidDims, match="sigma2 must be finite"):
                corrupt(X, sigma2, 0, seed=0)
        with pytest.raises(InvalidDims):
            corrupt(X, 0.0, 4, seed=0)


class TestSampleOutliers:
    def test_sphere_unit_norm(self):
        X = sample_outliers(40, 100, "sphere", seed=12)
        assert np.max(np.abs(np.linalg.norm(X, axis=0) - 1.0)) < 1e-12

    def test_gaussian_energy(self):
        X = sample_outliers(100, 10_000, "gaussian", seed=13)
        mean_sq = float(np.mean(np.sum(X**2, axis=0)))
        assert 0.98 <= mean_sq <= 1.02

    def test_zero_count(self):
        assert sample_outliers(7, 0, "sphere", seed=0).shape == (7, 0)

    def test_unknown_mode(self):
        with pytest.raises(InvalidDims):
            sample_outliers(7, 3, "cauchy", seed=0)


class TestUnionOfSubspaces:
    def test_labels_and_mask(self):
        bases = orthogonal_ensemble(20, 2, 4, seed=14)
        gt = union_of_subspaces(bases, [10, 15], seed=15, n_outliers=5)
        assert gt.points.N == 30
        np.testing.assert_array_equal(np.unique(gt.points.labels), [0, 1, 2])
        assert gt.outlier_mask.sum() == 5
        np.testing.assert_array_equal(np.flatnonzero(gt.outlier_mask), np.arange(25, 30))

    def test_inlier_scale(self):
        bases = orthogonal_ensemble(20, 1, 4, seed=18)
        plain = union_of_subspaces(bases, 10, seed=19)
        scaled = union_of_subspaces(bases, 10, seed=19, inlier_scale=0.5)
        np.testing.assert_allclose(scaled.points.data, plain.points.data * 0.5)

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.inf, math.nan])
    def test_bad_inlier_scale(self, scale):
        bases = orthogonal_ensemble(20, 1, 4, seed=18)
        with pytest.raises(InvalidDims, match="inlier_scale must be finite and > 0"):
            union_of_subspaces(bases, 10, seed=19, inlier_scale=scale)

    def test_save_round_trip(self, tmp_path):
        import json

        from tsclust.geometry import PointSet

        bases = orthogonal_ensemble(12, 2, 3, seed=20)
        gt = union_of_subspaces(
            bases, 8, seed=21, erasures=2, params={"scenario": "demo"}
        )
        prefix = tmp_path / "demo"
        gt.save(prefix)
        back = PointSet.from_csv(str(prefix) + ".csv")
        np.testing.assert_array_equal(back.data, gt.points.data)
        manifest = json.loads((tmp_path / "demo.json").read_text())
        assert manifest["scenario"] == "demo"
        assert manifest["seed"] == 21
        assert len(manifest["erased_indices"]) == gt.points.N


class TestInnerProductPdf:
    def test_d3_constant_one(self):
        z = np.linspace(0, 1, 11)
        np.testing.assert_allclose(inner_product_abs_pdf(3, z), np.ones(11), atol=1e-12)

    def test_d2_arcsine_shape(self):
        z = np.array([0.0, 0.5])
        expected = (2 / math.pi) / np.sqrt(1 - z**2)
        np.testing.assert_allclose(inner_product_abs_pdf(2, z), expected, atol=1e-12)
        assert inner_product_abs_cdf(2, 1.0) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("d", range(2, 21))
    def test_integrates_to_one(self, d):
        total, _ = quad(lambda z: inner_product_abs_pdf(d, z), 0.0, 1.0)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_cdf_matches_beta_oracle(self):
        # The CDF is the Beta(1/2, (d-1)/2) law of |<a, e>|^2 in closed form;
        # the independent oracle integrates the density numerically.
        for d in (2, 4, 9):
            for z in (0.1, 0.4, 0.75, 0.99):
                oracle, _ = quad(lambda t: inner_product_abs_pdf(d, t), 0.0, z)
                assert inner_product_abs_cdf(d, z) == pytest.approx(oracle, abs=1e-8)

    def test_rejects_small_d_and_bad_z(self):
        with pytest.raises(InvalidDims):
            inner_product_abs_pdf(1, 0.5)
        with pytest.raises(ValueError):
            inner_product_abs_pdf(3, 1.5)

    @pytest.mark.parametrize("d", [2, 5, 10])
    def test_sampling_matches_cdf(self, d):
        # KS distance between empirical |<a_i, a_j>| and the closed-form CDF.
        U = haar_basis(d, d, seed=d)
        X = sample_subspace_points(U, 20_000, seed=30 + d)
        samples = np.abs(np.einsum("ij,ij->j", X[:, ::2], X[:, 1::2]))
        stat = kstest(
            samples, lambda t: np.array([inner_product_abs_cdf(d, v) for v in np.atleast_1d(t)])
        ).statistic
        assert stat < 0.02


class TestRotationalInvariance:
    def test_rotation_preserves_correlations_and_neighbors(self):
        from tsclust.geometry import PointSet

        bases = orthogonal_ensemble(15, 2, 4, seed=22)
        gt = union_of_subspaces(bases, 20, seed=23)
        Q = haar_basis(15, 15, seed=24).basis
        X, QX = gt.points.data, Q @ gt.points.data
        G1 = np.abs(X.T @ X)
        G2 = np.abs(QX.T @ QX)
        assert np.max(np.abs(G1 - G2)) < 1e-12
        a = select_neighbors(PointSet(X), 5).index
        b = select_neighbors(PointSet(QX), 5).index
        for sa, sb in zip(a, b):
            assert sa.tolist() == sb.tolist()


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: shared_intersection_ensemble(9, 0, 3, seed=0), InvalidDims, "need L >= 1"),
        (lambda: shared_intersection_ensemble(5, 2, 6, seed=0), InvalidDims, "need d <= m"),
        (lambda: orthogonal_ensemble(10, 0, 2, seed=0), InvalidDims, "need L, d >= 1"),
        (lambda: orthogonal_ensemble(10, 2, 0, seed=0), InvalidDims, "need L, d >= 1"),
        (lambda: corrupt(np.ones(4), 0.0, 0, seed=0), InvalidDims, "points must be 2-D"),
        (lambda: sample_outliers(0, 3, "sphere", seed=0), InvalidDims,
         "need m >= 1 and count >= 0"),
        (lambda: sample_outliers(4, -1, "sphere", seed=0), InvalidDims,
         "need m >= 1 and count >= 0"),
        (lambda: union_of_subspaces([], 5, seed=0), InvalidDims, "need at least one basis"),
        (lambda: union_of_subspaces([haar_basis(6, 2, seed=0)] * 2, [5], seed=0), InvalidDims,
         "1 point counts for 2 bases"),
        (lambda: inner_product_abs_cdf(1, 0.5), InvalidDims, "need d >= 2"),
        (lambda: inner_product_abs_cdf(3, 1.5), ValueError, "z must lie in [0, 1]"),
    ],
    ids=[
        "shared-no-subspace", "shared-d-above-m", "orthogonal-no-subspace",
        "orthogonal-zero-d", "corrupt-one-dimensional", "outliers-zero-m",
        "outliers-negative-count", "union-no-basis", "union-count-mismatch",
        "cdf-d-below-2", "cdf-z-above-1",
    ],
)
def test_bad_arguments_rejected(call, error, message):
    with pytest.raises(error, match="^" + re.escape(message)):
        call()
