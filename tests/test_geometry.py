import math
import os
import re
import sys
import threading

import numpy as np
import pytest

from tsclust import geometry
from tsclust.errors import FileFormatError, InvalidDims, LengthMismatch, NonFinite, ZeroVector
from tsclust.geometry import PointSet, SubspaceBasis, abs_gram_rows, normalize_columns
from tsclust.synth import haar_basis

from test_synth import cosines, rms


class TestNormalizeColumns:
    def test_scales_to_unit_norm(self):
        ps = PointSet(np.array([[3.0], [4.0]]))
        out = normalize_columns(ps)
        assert np.allclose(out.data[:, 0], [0.6, 0.8])
        assert np.linalg.norm(out.data[:, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_unit_column_unchanged(self):
        ps = PointSet(np.array([[1.0], [0.0], [0.0]]))
        out = normalize_columns(ps)
        np.testing.assert_array_equal(out.data, ps.data)

    def test_zero_column_rejected(self):
        ps = PointSet(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ZeroVector) as exc:
            normalize_columns(ps)
        assert exc.value.column == 0

    def test_labels_preserved(self):
        ps = PointSet(np.array([[2.0, 0.0], [0.0, 5.0]]), labels=[1, 2])
        out = normalize_columns(ps)
        np.testing.assert_array_equal(out.labels, [1, 2])

    def test_all_columns_unit_after(self):
        rng = np.random.default_rng(3)
        ps = normalize_columns(PointSet(rng.standard_normal((7, 20)) * 10))
        assert np.max(np.abs(np.linalg.norm(ps.data, axis=0) - 1.0)) < 1e-12

    def test_overflowing_columns_rescaled_others_bit_identical(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((30, 12))
        scaled = X.copy()
        scaled[:, [2, 7]] *= 1e200
        scaled[:, 9] *= 1e-6
        with np.errstate(over="raise"):
            out = normalize_columns(PointSet(scaled)).data
        plain = normalize_columns(PointSet(X)).data
        others = [j for j in range(12) if j not in (2, 7, 9)]
        np.testing.assert_array_equal(out[:, others], plain[:, others])
        np.testing.assert_allclose(out, plain, rtol=0.0, atol=1e-15)
        assert np.max(np.abs(np.linalg.norm(out, axis=0) - 1.0)) < 1e-15


class TestAbsGramRows:
    def test_chunks_of_gathered_rows(self, monkeypatch):
        monkeypatch.setattr(geometry, "CORRELATION_BLOCK", 4)
        X = np.random.default_rng(5).standard_normal((5, 10))
        rows = np.array([7, 2, 9, 0, 5, 3])
        chunks = abs_gram_rows(X, rows, lambda chunk, C: (chunk, C.copy()))
        assert [chunk.tolist() for chunk, _ in chunks] == [[7, 2, 9, 0], [5, 3]]
        expected = np.abs(X[:, rows].T @ X)
        expected[np.arange(6), rows] = -np.inf
        np.testing.assert_allclose(np.vstack([C for _, C in chunks]), expected, rtol=1e-14)

    def test_range_of_all_rows_multiplies_as_numpy_does(self):
        # One chunk slicing all of X: numpy's symmetric X^T X, bit for bit.
        X = np.random.default_rng(6).standard_normal((6, 18))
        C, = abs_gram_rows(X, range(18), lambda _, C: C.copy())
        expected = np.abs(X.T @ X)
        np.fill_diagonal(expected, -np.inf)
        np.testing.assert_array_equal(C, expected)

    def test_overflow_is_quiet(self):
        with np.errstate(all="raise"):
            C, = abs_gram_rows(np.full((2, 3), 1e200), np.arange(3), lambda _, C: C.copy())
        np.testing.assert_array_equal(C, np.where(np.eye(3) > 0, -np.inf, np.inf))

    def test_each_chunk_claimed_once_by_more_threads_than_cores(self, monkeypatch):
        monkeypatch.setattr(geometry, "CORRELATION_BLOCK", 1)
        monkeypatch.setattr(geometry, "_usable_cpus", lambda: 8)
        X = np.random.default_rng(9).standard_normal((4, 3000))
        reduced = []

        def reduce(chunk, C):
            reduced.append(int(chunk[0]))
            return chunk[0], C.max()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = abs_gram_rows(X, np.arange(3000), reduce)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(reduced) == list(range(3000))
        assert [row for row, _ in out] == list(range(3000))
        expected = np.abs(X.T @ X)
        np.fill_diagonal(expected, -np.inf)
        np.testing.assert_allclose([top for _, top in out], expected.max(axis=1), rtol=1e-14)

    def test_reduce_error_on_a_helper_thread_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(geometry, "CORRELATION_BLOCK", 4)
        monkeypatch.setattr(geometry, "_usable_cpus", lambda: 2)
        caller, raised = threading.current_thread(), []
        helper_failed = threading.Event()

        def reduce(chunk, C):
            if threading.current_thread() is caller:
                # Hold the caller's chunk until the helper has failed on its own.
                assert helper_failed.wait(timeout=30)
                return C.max(axis=1)
            raised.append(ValueError("helper chunk"))
            helper_failed.set()
            raise raised[0]

        before = threading.active_count()
        X = np.random.default_rng(8).standard_normal((3, 16))
        with pytest.raises(ValueError) as exc:
            abs_gram_rows(X, range(16), reduce)
        assert exc.value is raised[0]
        assert threading.active_count() == before


    @pytest.mark.parametrize("cpu_count, usable", [(lambda: 3, 3), (lambda: None, 1)])
    def test_usable_cpus_without_affinity_call(self, monkeypatch, cpu_count, usable):
        # Platforms without sched_getaffinity fall back to the CPU count.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", cpu_count)
        assert geometry._usable_cpus() == usable

class TestPointSetValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        X = np.ones((3, 4))
        X[1, 2] = bad
        with pytest.raises(NonFinite):
            PointSet(X)

    @pytest.mark.parametrize(
        "shape", [(3,), (3, 0), (0, 3)], ids=["one-dimensional", "no-points", "no-coordinates"]
    )
    def test_bad_shape_rejected(self, shape):
        with pytest.raises(InvalidDims, match="^point matrix must be 2-D and nonempty"):
            PointSet(np.ones(shape))

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(LengthMismatch, match="^2 labels for 3 points"):
            PointSet(np.ones((2, 3)), labels=[1, 2])

    def test_negative_label_rejected(self):
        with pytest.raises(ValueError, match="^labels must be nonnegative"):
            PointSet(np.ones((2, 3)), labels=[1, -1, 2])

    def test_non_finite_csv_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("x1,x2\n1.0,2.0\nnan,1.0\n")
        with pytest.raises(NonFinite):
            PointSet.from_csv(path)



class TestSubspaceBasisValidation:
    @pytest.mark.parametrize(
        "shape, message",
        [((3,), "basis must be 2-D"), ((2, 3), "need 1 <= d <= m"), ((3, 0), "need 1 <= d <= m")],
        ids=["one-dimensional", "d-above-m", "no-columns"],
    )
    def test_bad_shape_rejected(self, shape, message):
        with pytest.raises(InvalidDims, match="^" + re.escape(message)):
            SubspaceBasis(np.ones(shape))

class TestPrincipalAngles:
    """Principal-angle cosines of ``SubspaceBasis`` pairs cut from Haar
    frames: the subspace affinities of the synthetic tests rest on these
    frames being orthonormal at every shape."""

    def test_identical_subspaces(self):
        U = haar_basis(6, 2, 0)
        np.testing.assert_allclose(cosines(U, U), [1.0, 1.0], atol=1e-10)

    def test_orthogonal_spans(self):
        frame = haar_basis(8, 4, 1).basis
        c = cosines(SubspaceBasis(frame[:, :2]), SubspaceBasis(frame[:, 2:]))
        np.testing.assert_allclose(c, [0.0, 0.0], atol=1e-10)

    def test_one_shared_column(self):
        # d=2 bases sharing one column, others mutually orthogonal:
        # cosines (1, 0), affinity sqrt(1/2).
        frame = haar_basis(9, 3, 2).basis
        c = cosines(SubspaceBasis(frame[:, [0, 1]]), SubspaceBasis(frame[:, [0, 2]]))
        np.testing.assert_allclose(c, [1.0, 0.0], atol=1e-10)
        assert rms(c) == pytest.approx(math.sqrt(0.5), abs=1e-10)

    @pytest.mark.parametrize("seed", range(20))
    def test_affinity_ordering(self, seed):
        # 0 <= aff <= aff_inf <= 1 for Haar bases of any dimensions.
        rng = np.random.default_rng(seed)
        dk, dl = rng.integers(1, 5, size=2)
        c = cosines(haar_basis(10, int(dk), seed * 2 + 1), haar_basis(10, int(dl), seed * 2 + 2))
        assert -1e-10 <= rms(c) <= c[0] <= 1.0 + 1e-10

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_intersection_dimension(self, p):
        # Bases sharing p orthonormal columns: exactly p unit cosines and
        # aff >= sqrt(p / min(dk, dl)).
        d = 4
        frame = haar_basis(16, 2 * d - p, 7 + p).basis
        c = cosines(SubspaceBasis(frame[:, :d]), SubspaceBasis(frame[:, d - p:]))
        assert int(np.sum(c > 1.0 - 1e-10)) == p
        assert rms(c) >= math.sqrt(p / d) - 1e-10

    def test_symmetric_in_arguments(self):
        Uk = haar_basis(8, 3, 5)
        Ul = haar_basis(8, 2, 6)
        np.testing.assert_allclose(cosines(Uk, Ul), cosines(Ul, Uk), atol=1e-10)


class TestPointSetCsv:
    def test_round_trip_with_labels(self, tmp_path):
        rng = np.random.default_rng(0)
        ps = PointSet(rng.standard_normal((4, 9)), labels=rng.integers(1, 4, size=9))
        path = tmp_path / "points.csv"
        ps.to_csv(path)
        back = PointSet.from_csv(path)
        np.testing.assert_array_equal(back.data, ps.data)
        np.testing.assert_array_equal(back.labels, ps.labels)

    def test_round_trip_without_labels(self, tmp_path):
        ps = PointSet(np.array([[1.5, -2.25], [3.0, 0.125]]))
        path = tmp_path / "points.csv"
        ps.to_csv(path)
        back = PointSet.from_csv(path)
        np.testing.assert_array_equal(back.data, ps.data)
        assert back.labels is None

    def test_header_shape(self, tmp_path):
        ps = PointSet(np.zeros((3, 2)), labels=[1, 2])
        path = tmp_path / "points.csv"
        ps.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "x1,x2,x3,label"

    def test_bad_row_width(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2\n1.0\n")
        with pytest.raises(FileFormatError, match="line 2: 1 fields, expected 2"):
            PointSet.from_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty CSV"),
            ("x1,x2\n", "no data rows"),
            ("x1,x2\n1.0,2.0\n\n3.0,abc\n", "line 4: could not convert string to float: 'abc'"),
            ("x1,label\n1.0,1\n2.0,1.5\n", "line 3: label '1.5' is not an integer"),
            ("x1,label\n1.0,nan\n", "line 2: label 'nan' is not an integer"),
            ("x1,label\n2.0,1\n1.0,-1\n", "line 3: label '-1' is negative"),
            ("label\n1\n2\n", "no coordinate column"),
        ],
    )
    def test_malformed_file_names_path_and_line(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(FileFormatError, match=message) as exc:
            PointSet.from_csv(path)
        assert str(exc.value).startswith(str(path))

    def test_integral_float_label_accepted(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("x1,label\n1.0,2.0\n3.0,1\n")
        np.testing.assert_array_equal(PointSet.from_csv(path).labels, [2, 1])
