import math

import numpy as np
import pytest

from tsclust.errors import InvalidDims, NonFinite, NonOrthonormalBasis, ZeroVector
from tsclust.geometry import (
    PointSet,
    SubspaceBasis,
    normalize_columns,
    principal_angles,
)
from tsclust.synth import haar_basis


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


class TestPointSetValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        X = np.ones((3, 4))
        X[1, 2] = bad
        with pytest.raises(NonFinite):
            PointSet(X)

    def test_non_finite_csv_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("x1,x2\n1.0,2.0\nnan,1.0\n")
        with pytest.raises(NonFinite):
            PointSet.from_csv(path)


class TestPrincipalAngles:
    def test_identical_subspaces(self):
        U = haar_basis(6, 2, 0)
        report = principal_angles(U, U)
        np.testing.assert_allclose(report.cosines, [1.0, 1.0], atol=1e-10)
        assert report.aff == pytest.approx(1.0, abs=1e-10)
        assert report.aff_inf == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_spans(self):
        frame = haar_basis(8, 4, 1).basis
        Uk = SubspaceBasis(frame[:, :2])
        Ul = SubspaceBasis(frame[:, 2:])
        report = principal_angles(Uk, Ul)
        np.testing.assert_allclose(report.cosines, [0.0, 0.0], atol=1e-10)
        assert report.aff == pytest.approx(0.0, abs=1e-10)

    def test_one_shared_column(self):
        # d=2 bases sharing one column, others mutually orthogonal:
        # cosines (1, 0), aff_inf = 1, aff = sqrt(1/2).
        frame = haar_basis(9, 3, 2).basis
        Uk = SubspaceBasis(frame[:, [0, 1]])
        Ul = SubspaceBasis(frame[:, [0, 2]])
        report = principal_angles(Uk, Ul)
        np.testing.assert_allclose(report.cosines, [1.0, 0.0], atol=1e-10)
        assert report.aff_inf == pytest.approx(1.0, abs=1e-10)
        assert report.aff == pytest.approx(math.sqrt(0.5), abs=1e-10)

    def test_rejects_non_orthonormal(self):
        U = SubspaceBasis(haar_basis(5, 2, 3).basis * 1.5)
        with pytest.raises(NonOrthonormalBasis):
            principal_angles(U, haar_basis(5, 2, 4))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(InvalidDims):
            principal_angles(haar_basis(5, 2, 0), haar_basis(6, 2, 0))

    @pytest.mark.parametrize("seed", range(20))
    def test_affinity_ordering(self, seed):
        # 0 <= aff <= aff_inf <= 1 for arbitrary orthonormal bases.
        rng = np.random.default_rng(seed)
        dk, dl = rng.integers(1, 5, size=2)
        Uk = haar_basis(10, int(dk), seed * 2 + 1)
        Ul = haar_basis(10, int(dl), seed * 2 + 2)
        report = principal_angles(Uk, Ul)
        assert -1e-10 <= report.aff <= report.aff_inf <= 1.0 + 1e-10

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_intersection_dimension(self, p):
        # Bases sharing p orthonormal columns: exactly p unit cosines and
        # aff >= sqrt(p / min(dk, dl)).
        d = 4
        frame = haar_basis(16, 2 * d - p, 7 + p).basis
        Uk = SubspaceBasis(frame[:, :d])
        Ul = SubspaceBasis(frame[:, d - p:])
        report = principal_angles(Uk, Ul)
        assert int(np.sum(report.cosines > 1.0 - 1e-10)) == p
        assert report.aff >= math.sqrt(p / d) - 1e-10

    def test_symmetric_in_arguments(self):
        Uk = haar_basis(8, 3, 5)
        Ul = haar_basis(8, 2, 6)
        a = principal_angles(Uk, Ul)
        b = principal_angles(Ul, Uk)
        np.testing.assert_allclose(a.cosines, b.cosines, atol=1e-10)
        assert a.aff == pytest.approx(b.aff, abs=1e-10)
        assert a.aff_inf == pytest.approx(b.aff_inf, abs=1e-10)


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
        with pytest.raises(ValueError):
            PointSet.from_csv(path)
