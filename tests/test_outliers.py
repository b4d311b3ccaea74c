import math

import numpy as np
import pytest

from tsclust.errors import ConfigError, TooFewPoints
from tsclust.geometry import PointSet
from tsclust.metrics import outlier_confusion
from tsclust.outliers import NOISELESS_C, NOISY_C, detect_outliers
from tsclust.synth import orthogonal_ensemble, union_of_subspaces


class TestConstants:
    def test_values(self):
        assert NOISELESS_C == math.sqrt(6.0)
        assert NOISY_C == 2.3 * math.sqrt(6.0)


class TestDetectOutliers:
    def test_duplicates_not_flagged(self):
        rng = np.random.default_rng(0)
        m = 100
        X = rng.standard_normal((m, 10))
        X /= np.linalg.norm(X, axis=0)
        X[:, 1] = X[:, 0]  # duplicate pair scores 1
        report = detect_outliers(PointSet(X))
        assert report.scores[0] == pytest.approx(1.0, abs=1e-12)
        assert report.threshold < 1.0
        assert not report.flags[0] and not report.flags[1]

    def test_orthogonal_point_flagged(self):
        # One point exactly orthogonal to all others: score 0 < threshold.
        X = np.zeros((50, 4))
        X[0, 0] = X[1, 1] = X[2, 2] = 1.0
        X[1, 0] = 1e-1
        X[3, 3] = 1.0  # orthogonal to columns 0..2
        X /= np.linalg.norm(X, axis=0)
        X[:, 3] = 0.0
        X[49, 3] = 1.0
        report = detect_outliers(PointSet(X))
        assert report.scores[3] == pytest.approx(0.0, abs=1e-15)
        assert report.flags[3]

    def test_threshold_formula(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((25, 40))
        report = detect_outliers(PointSet(X), c=2.0)
        assert report.threshold == pytest.approx(
            2.0 * math.sqrt(math.log(40)) / math.sqrt(25), abs=1e-15
        )

    def test_flags_match_scores(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((30, 60))
        report = detect_outliers(PointSet(X))
        np.testing.assert_array_equal(report.flags, report.scores < report.threshold)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 50))
        base = detect_outliers(PointSet(X))
        perm = rng.permutation(50)
        permuted = detect_outliers(PointSet(X[:, perm]))
        np.testing.assert_allclose(permuted.scores, base.scores[perm], atol=1e-12)
        np.testing.assert_array_equal(permuted.flags, base.flags[perm])

    def test_adding_duplicate_unflags(self):
        rng = np.random.default_rng(4)
        m = 80
        X = rng.standard_normal((m, 30))
        X /= np.linalg.norm(X, axis=0)
        flagged = np.flatnonzero(detect_outliers(PointSet(X)).flags)
        j = flagged[0] if flagged.size else 0
        X2 = np.hstack([X, X[:, [j]]])
        report = detect_outliers(PointSet(X2))
        assert not report.flags[j]

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            detect_outliers(PointSet(np.ones((5, 1))))

    def test_rejects_nonpositive_c(self):
        with pytest.raises(ConfigError):
            detect_outliers(PointSet(np.eye(3)), c=0.0)

    def test_raw_inner_products_not_normalized(self):
        # Doubling one column doubles the scores it participates in.
        X = np.array([[1.0, 0.6], [0.0, 0.8]])
        base = detect_outliers(PointSet(X))
        X2 = X.copy()
        X2[:, 0] *= 2.0
        out = detect_outliers(PointSet(X2))
        np.testing.assert_allclose(out.scores, 2.0 * base.scores, atol=1e-15)


class TestDetectionQuality:
    def test_high_ambient_dimension_separates(self):
        # d=5 subspaces in R^100 with as many sphere outliers as inliers:
        # the rule should make almost no mistakes (3 seeded trials).
        errs = []
        for seed in range(3):
            bases = [
                b for b in orthogonal_ensemble(100, 8, 5, seed=100 + seed)
            ]
            gt = union_of_subspaces(
                bases, 50, seed=200 + seed, n_outliers=400, outlier_mode="sphere"
            )
            report = detect_outliers(gt.points, NOISELESS_C)
            err, _, _ = outlier_confusion(report.flags, gt.outlier_mask)
            errs.append(err)
        assert float(np.mean(errs)) <= 0.01

    def test_chunking_consistency(self):
        # Scores must not depend on the internal block size.
        from tsclust import geometry

        rng = np.random.default_rng(9)
        X = rng.standard_normal((20, 63))
        full = detect_outliers(PointSet(X))
        original = geometry.CORRELATION_BLOCK
        try:
            geometry.CORRELATION_BLOCK = 7
            blocked = detect_outliers(PointSet(X))
        finally:
            geometry.CORRELATION_BLOCK = original
        # Different GEMM shapes change the BLAS summation order, so agreement
        # is to rounding, not bitwise.
        np.testing.assert_allclose(blocked.scores, full.scores, atol=1e-12)
        np.testing.assert_array_equal(blocked.flags, full.flags)


class TestReportCsv:
    def test_csv_layout(self, tmp_path):
        X = np.eye(4)
        report = detect_outliers(PointSet(X))
        path = tmp_path / "report.csv"
        report.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "index,score,threshold,is_outlier"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "0" and first[3] in ("0", "1")
