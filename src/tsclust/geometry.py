"""Point sets, the spherical pseudo-distance, and subspace affinities.

Points are stored column-wise: an ``m x N`` matrix holds ``N`` points in
``R^m``.  Two subspaces are compared through the singular values of the
product of their orthonormal bases, which are the cosines of the principal
angles between them.  Whatever divides by column norms first rescales the
columns with :func:`power_of_two_scaled`, so no norm overflows or underflows.
The blocked |X^T X| kernel :func:`correlation_blocks` serves neighbor
selection, the ``exp`` weights and the outlier scores, and every CSV the
package writes goes through :func:`write_csv`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDims, LengthMismatch, NonFinite, NonOrthonormalBasis, ZeroVector

#: Max-entry deviation of U^T U from the identity beyond which a basis is rejected.
ORTHONORMALITY_TOL = 1e-8


#: Points per block of the |X^T X| kernel; a block holds this many rows of N
#: inner products, so memory stays at O(N * block) instead of O(N^2).
CORRELATION_BLOCK = 256


def format_cell(value) -> str:
    """CSV cell formatting: 17 significant digits (round-trip safe) for
    floats, integers for ints and bools, empty for ``None``."""
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, (int, np.integer, np.bool_)):
        return str(int(value))
    return "" if value is None else str(value)


def write_csv(path, header: list[str], rows) -> None:
    """Write ``header`` and then each row of cells through :func:`format_cell`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([format_cell(v) for v in row] for row in rows)


@dataclass(frozen=True)
class PointSet:
    """``N`` points in ``R^m``, stored as the columns of ``data``.

    Parameters
    ----------
    data : (m, N) ndarray
        One point per column; every entry must be finite.
    labels : (N,) int ndarray, optional
        Ground-truth cluster ids.  Ids are 1-based; the value 0 is reserved
        for points marked as outliers by the synthetic generators.
    """

    data: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise InvalidDims(f"point matrix must be 2-D and nonempty, got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise NonFinite("point matrix contains NaN or Inf")
        object.__setattr__(self, "data", data)
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=int).ravel()
            if labels.size != data.shape[1]:
                raise LengthMismatch(
                    f"{labels.size} labels for {data.shape[1]} points"
                )
            if labels.min(initial=0) < 0:
                raise ValueError("labels must be nonnegative (0 = outlier, 1..L = clusters)")
            object.__setattr__(self, "labels", labels)

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def N(self) -> int:
        return self.data.shape[1]

    def to_csv(self, path) -> None:
        """Write one point per row with header ``x1,...,xm[,label]``."""
        header = [f"x{i + 1}" for i in range(self.m)]
        rows = (list(point) for point in self.data.T)
        if self.labels is not None:
            header.append("label")
            rows = (row + [label] for row, label in zip(rows, self.labels))
        write_csv(path, header, rows)

    @classmethod
    def from_csv(cls, path) -> "PointSet":
        """Read a point set written by :meth:`to_csv`."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header:
                raise ValueError(f"{path}: empty CSV")
            has_labels = header[-1].strip().lower() == "label"
            m = len(header) - (1 if has_labels else 0)
            cols, labels = [], []
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise ValueError(f"{path}: row with {len(row)} fields, expected {len(header)}")
                cols.append([float(v) for v in row[:m]])
                if has_labels:
                    labels.append(int(float(row[m])))
        if not cols:
            raise ValueError(f"{path}: no data rows")
        data = np.asarray(cols, dtype=float).T
        return cls(data, np.asarray(labels, dtype=int) if has_labels else None)


@dataclass(frozen=True)
class SubspaceBasis:
    """An ``m x d`` basis matrix for a ``d``-dimensional linear subspace."""

    basis: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float)
        if basis.ndim != 2:
            raise InvalidDims(f"basis must be 2-D, got shape {basis.shape}")
        m, d = basis.shape
        if not 1 <= d <= m:
            raise InvalidDims(f"need 1 <= d <= m, got d={d}, m={m}")
        object.__setattr__(self, "basis", basis)

    @property
    def m(self) -> int:
        return self.basis.shape[0]

    @property
    def d(self) -> int:
        return self.basis.shape[1]

    def orthonormality_defect(self) -> float:
        """Max-entry deviation of ``U^T U`` from the identity."""
        gram = self.basis.T @ self.basis
        return float(np.max(np.abs(gram - np.eye(self.d))))


@dataclass(frozen=True)
class PrincipalAngleReport:
    """Principal-angle cosines and the two affinity summaries of a subspace pair.

    ``cosines`` are the singular values of ``Uk^T Ul`` in descending order,
    clamped to [0, 1].  ``aff_inf`` is the largest cosine; ``aff`` is the
    root-mean-square of the cosines, i.e. ``sqrt(sum cos^2) / sqrt(min(dk, dl))``.
    """

    cosines: np.ndarray
    aff: float
    aff_inf: float


def power_of_two_scaled(X: np.ndarray) -> np.ndarray:
    """``X`` with each nonzero column multiplied by the power of two that puts
    its largest absolute entry in [0.5, 1); zero columns stay zero.

    The scaling is exact (short of entries some 2^1022 times smaller than
    their column's largest), so unit columns and correlations keep their bits.
    """
    X = np.asarray(X, dtype=float)
    return np.ldexp(X, -np.frexp(np.abs(X).max(axis=0))[1])


def correlation_blocks(X: np.ndarray, normalize: bool):
    """Yield ``(start, C)`` over blocks of ``CORRELATION_BLOCK`` points,
    where row ``b`` of ``C`` holds ``|<x_{start+b}, x_i>|`` for every point i.

    With ``normalize`` these are correlations in [0, 1], taken from columns
    rescaled by :func:`power_of_two_scaled` so no norm overflows or
    underflows (a zero column correlates 0 with all).  Without it the raw
    absolute inner products pass through unclamped and can exceed 1.
    """
    N = X.shape[1]
    if normalize:
        X = power_of_two_scaled(X)
        norms = np.linalg.norm(X, axis=0)
        norms = np.where(norms > 0.0, norms, 1.0)
    for start in range(0, N, CORRELATION_BLOCK):
        stop = min(start + CORRELATION_BLOCK, N)
        C = X[:, start:stop].T @ X
        np.abs(C, out=C)
        if normalize:
            C /= norms[start:stop, None]
            C /= norms[None, :]
            np.minimum(C, 1.0, out=C)
        yield start, C


def normalize_columns(points: PointSet) -> PointSet:
    """Scale every column to unit Euclidean norm, preserving labels.

    Raises
    ------
    ZeroVector
        If any column is exactly zero.
    """
    data = power_of_two_scaled(points.data)
    norms = np.linalg.norm(data, axis=0)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ZeroVector(int(zero[0]))
    return PointSet(data / norms, points.labels)


def spherical_pseudo_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Angle ``arccos |<x, y>|`` between the lines spanned by two unit vectors.

    Antipodal points have distance 0, so this is a pseudo-distance on the
    sphere.  The inner product is clamped to [0, 1] before ``arccos`` to
    absorb floating-point overshoot; callers are expected to pass unit
    vectors (within 1e-10).
    """
    ip = abs(float(np.dot(np.ravel(x), np.ravel(y))))
    return float(np.arccos(min(ip, 1.0)))


def principal_angles(Uk: SubspaceBasis, Ul: SubspaceBasis) -> PrincipalAngleReport:
    """Cosines of the principal angles between two subspaces, plus affinities.

    The cosines are computed as the singular values of ``Uk^T Ul`` (numerically
    stable and equivalent to the recursive variational definition for
    orthonormal bases).

    Raises
    ------
    NonOrthonormalBasis
        If either basis deviates from orthonormality by more than 1e-8
        (max-entry) or the ambient dimensions differ.
    """
    if Uk.m != Ul.m:
        raise InvalidDims(f"ambient dimensions differ: {Uk.m} vs {Ul.m}")
    for name, U in (("first", Uk), ("second", Ul)):
        defect = U.orthonormality_defect()
        if defect > ORTHONORMALITY_TOL:
            raise NonOrthonormalBasis(
                f"{name} basis deviates from orthonormality by {defect:.3e}"
            )
    product = Uk.basis.T @ Ul.basis
    cosines = np.linalg.svd(product, compute_uv=False)
    cosines = np.clip(cosines, 0.0, 1.0)
    dmin = min(Uk.d, Ul.d)
    aff = float(np.linalg.norm(cosines) / np.sqrt(dmin))
    return PrincipalAngleReport(cosines=cosines, aff=aff, aff_inf=float(cosines[0]))
