import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsclust import geometry, outliers
from tsclust.errors import ConfigError, NonFinite, TooFewPoints
from tsclust.geometry import PointSet
from tsclust.metrics import outlier_confusion
from tsclust.outliers import NOISELESS_C, NOISY_C, _max_abs_inner_products, detect_outliers
from tsclust.synth import haar_ensemble, orthogonal_ensemble, union_of_subspaces


def dense_scores(X):
    """Each point's largest |<x_i, x_j>| over j != i, from the whole float64 |X^T X|."""
    dense = np.abs(X.T @ X)
    np.fill_diagonal(dense, -np.inf)
    return dense.max(axis=1)


def outlier_scenario(m, seed):
    """An ``outliers``-experiment input: 2m/5 subspaces of dimension 5 with 50
    points each, and as many sphere outliers as inliers (N = 40 m)."""
    L = 2 * m // 5
    return union_of_subspaces(
        haar_ensemble(m, L, 5, seed), 50, seed + 1, n_outliers=50 * L, outlier_mode="sphere"
    ).points


def count_full_rows(patch):
    """Record the points that ``_max_abs_inner_products`` scores from whole rows."""
    rows = []
    full_rows = outliers._full_rows

    def counted(X, chunk):
        rows.extend(chunk.tolist())
        return full_rows(X, chunk)

    patch.setattr(outliers, "_full_rows", counted)
    return rows


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

    def test_overflowing_inner_products_raise(self, monkeypatch):
        # The raw inner products of these points x1e160 overflow to inf, and
        # numpy does not warn about it (pytest turns RuntimeWarning into errors).
        gt = union_of_subspaces(orthogonal_ensemble(30, 3, 5, seed=10), 50, seed=11)
        with pytest.raises(NonFinite, match="overflow"):
            detect_outliers(PointSet(gt.points.data * 1e160))
        # Point 3's only overflowing partner is point 0, in an earlier strip:
        # <x_0, x_3> = 1e320 - 1e320 is inf or NaN (as the BLAS sums it), and
        # point 3's row (j >= 2) is finite, so the fault reaches its score
        # through the column max only.
        monkeypatch.setattr(geometry, "CORRELATION_BLOCK", 2)
        X = np.array([[1e160, 1.0, 0.0, 1e160, 1.0], [1e160, 0.0, 1.0, -1e160, 1.0]])
        scores = _max_abs_inner_products(X)
        assert not np.isfinite(scores[0]) and not np.isfinite(scores[3])
        np.testing.assert_array_equal(scores[[1, 2, 4]], [1e160, 1e160, 2e160])
        with pytest.raises(NonFinite, match="overflow"):
            detect_outliers(PointSet(X))
        # A NaN partner in an earlier strip is kept, not dropped as fmax would.
        X[0, 0] = np.nan
        assert np.all(np.isnan(_max_abs_inner_products(X)))

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

    @pytest.mark.parametrize("block", [1, 3, 7, 256])
    def test_chunking_consistency(self, monkeypatch, block):
        # Scores must not depend on the internal block size.
        rng = np.random.default_rng(9)
        X = rng.standard_normal((20, 63))
        full = detect_outliers(PointSet(X))
        monkeypatch.setattr(geometry, "CORRELATION_BLOCK", block)
        blocked = detect_outliers(PointSet(X))
        # Different GEMM shapes change the BLAS summation order, so agreement
        # is to rounding, not bitwise.
        np.testing.assert_allclose(blocked.scores, full.scores, atol=1e-12)
        np.testing.assert_array_equal(blocked.flags, full.flags)

    @pytest.mark.parametrize("N", [2, 3, 8, 9, 63])
    def test_strips_match_dense_oracle_exactly(self, monkeypatch, N):
        # Small integers make every inner product exact whatever the BLAS
        # sums in which order.  With 8-point strips, N = 2, 3 and 8 are one
        # strip, N = 9 ends in a one-point strip and N = 63 in a partial one.
        monkeypatch.setattr(geometry, "CORRELATION_BLOCK", 8)
        X = np.random.default_rng(N).integers(-4, 5, size=(6, N)).astype(float)
        dense = np.abs(X.T @ X)
        np.fill_diagonal(dense, -np.inf)
        np.testing.assert_array_equal(detect_outliers(PointSet(X)).scores, dense.max(axis=1))


class TestFloat32Screen:
    """The float32 screen with float64 rescoring of each point's best group,
    against the whole float64 |X^T X|."""

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        block=st.sampled_from([1, 7, 8, 256]),
        N=st.sampled_from([2, 31, 32, 33, 255, 257, 600]),
        sphere=st.booleans(),
    )
    def test_matches_dense_oracle(self, data, block, N, sphere):
        """Gaussian or unit columns, some duplicated, and one point whose best
        partner has a rival within 1e-9 relative in another group: far below
        the float32 screen's error, so that point must take its whole row."""
        m = data.draw(st.integers(1, 40), label="m")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        X = rng.standard_normal((m, N))
        if sphere:
            X /= np.linalg.norm(X, axis=0)
        for a, b in data.draw(st.lists(st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)),
                                       max_size=4), label="duplicates"):
            X[:, b] = X[:, a]
        G = math.gcd(block, outliers._GROUP)
        i = data.draw(st.integers(0, N - 1), label="i")
        j = int(np.argmax(np.where(np.arange(N) == i, -np.inf, np.abs(X[:, i] @ X))))
        others = [k for k in range(N) if k != i and k // G != j // G]
        rival = data.draw(st.sampled_from(others), label="rival") if others else None
        if rival is not None:
            X[:, rival] = X[:, j] * (1.0 + 1e-9)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geometry, "CORRELATION_BLOCK", block)
            full = count_full_rows(patch)
            report = detect_outliers(PointSet(X))
        oracle = dense_scores(X)
        norms = np.linalg.norm(X, axis=0)
        tol = 4 * (m + 2) * 2.0**-53 * norms * norms.max()
        assert np.all(np.abs(report.scores - oracle) <= tol)
        clear = np.abs(oracle - report.threshold) > tol
        np.testing.assert_array_equal(report.flags[clear], (oracle < report.threshold)[clear])
        if rival is not None and abs(X[:, i] @ X[:, j]) > 0.0:
            assert i in full

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(-200, 200))
    def test_power_of_two_scale(self, k):
        # A scale 2^k shared by all columns moves the screen's exponent by k
        # and no float32 bit, so the same rows are rescored in the same
        # float64 products, each scaled by exactly 2^2k.
        X = outlier_scenario(20, 5).data
        # Points whose best partner is copied tie and take the whole row.
        X = np.hstack([X, X[:, :40]])
        np.testing.assert_array_equal(
            _max_abs_inner_products(np.ldexp(X, k)), np.ldexp(_max_abs_inner_products(X), 2 * k)
        )

    def test_duplicated_points_take_the_whole_row(self, monkeypatch):
        # Each point's two copies tie for its best product, 40 points apart,
        # so in different groups: no point can be proven from its group.
        Y = np.random.default_rng(7).standard_normal((20, 40))
        X = np.hstack([Y, Y, Y])
        full = count_full_rows(monkeypatch)
        scores = _max_abs_inner_products(X)
        assert sorted(full) == list(range(120))
        np.testing.assert_allclose(scores, dense_scores(X), rtol=1e-14)

    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_scores_equal_on_any_worker_count(self, monkeypatch, workers):
        # Each point's three copies tie for its best product, 200 points
        # apart, so in different strips on every worker count: every point
        # takes its whole row, and its group is the first that holds its
        # best.  Strips of 8, 256 (one worker) and 128, 64 or 32 points.
        Y = np.random.default_rng(9).standard_normal((20, 200))
        copies = np.hstack([Y, Y, Y])
        for X in (copies, outlier_scenario(20, 5).data):
            e = int(np.frexp(np.abs(X).max())[1])
            for block in (8, 256):
                G = math.gcd(block, outliers._GROUP)
                monkeypatch.setattr(geometry, "CORRELATION_BLOCK", block)
                monkeypatch.setattr(geometry, "_usable_cpus", lambda: 1)
                screen = outliers._screen(X, e, G)
                serial = _max_abs_inner_products(X)
                monkeypatch.setattr(geometry, "_usable_cpus", lambda: workers)
                for got, want in zip(outliers._screen(X, e, G), screen):
                    assert got.dtype == want.dtype
                    np.testing.assert_array_equal(got, want)
                full = count_full_rows(monkeypatch)
                np.testing.assert_array_equal(_max_abs_inner_products(X), serial)
                if X is copies:
                    assert sorted(full) == list(range(600))

    def test_strip_error_on_a_helper_thread_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(geometry, "_usable_cpus", lambda: 2)
        caller, raised = threading.current_thread(), []
        helper_failed = threading.Event()
        strip = outliers._strip

        def failing(*args):
            if threading.current_thread() is caller:
                # Hold the caller's strip until the helper has failed on its own.
                assert helper_failed.wait(timeout=30)
                return strip(*args)
            raised.append(ValueError("helper strip"))
            helper_failed.set()
            raise raised[0]

        monkeypatch.setattr(outliers, "_strip", failing)
        before = threading.active_count()
        X = np.random.default_rng(8).standard_normal((3, 600))
        with pytest.raises(ValueError) as exc:
            detect_outliers(PointSet(X))
        assert exc.value is raised[0]
        assert threading.active_count() == before

    def test_no_thread_for_no_rows_or_one_block(self, monkeypatch):
        def start(thread):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(geometry, "_usable_cpus", lambda: 5)
        monkeypatch.setattr(threading.Thread, "start", start)
        X = np.random.default_rng(10).standard_normal((4, 6))
        none = outliers._full_rows(X, np.empty(0, np.intp))
        assert none.shape == (0,) and none.dtype == float
        np.testing.assert_allclose(outliers._full_rows(X, np.arange(6)), dense_scores(X),
                                   rtol=1e-14)
        # One strip of the screen, whose tied copies also take whole rows.
        Y = np.random.default_rng(11).standard_normal((10, 128))
        X = np.hstack([Y, Y])
        full = count_full_rows(monkeypatch)
        np.testing.assert_allclose(detect_outliers(PointSet(X)).scores, dense_scores(X),
                                   rtol=1e-14)
        assert full

    def test_few_points_take_the_whole_row(self, monkeypatch):
        # The m=100 cell of the outliers experiment: N = 4000.
        X = outlier_scenario(100, 3).data
        full = count_full_rows(monkeypatch)
        scores = _max_abs_inner_products(X)
        assert len(full) < 0.01 * X.shape[1]
        np.testing.assert_allclose(scores, dense_scores(X), rtol=1e-13)

    def test_peak_memory(self, monkeypatch):
        # The m=200, N=8000 cell: the float32 points (6.1 MiB), one float32
        # strip of 256 x 8000 products (7.8 MiB) split among the workers'
        # buffers, and each strip's candidates for the later points, 9 bytes
        # a point, held until the fold (2.1 MiB on 2 workers, 8.5 on 8).
        points = outlier_scenario(200, 4)
        for workers in (1, 2, 8):
            monkeypatch.setattr(geometry, "_usable_cpus", lambda: workers)
            tracemalloc.start()
            try:
                detect_outliers(points)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 26 * 2**20, workers


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
