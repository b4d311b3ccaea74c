"""Seeded synthetic data generators: Haar-random subspace bases, points
uniform on subspace spheres, controlled-intersection constructions, additive
noise and erasures, and random outliers.

Every generator is a deterministic function of its parameters and seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDims
from .geometry import PointSet, SubspaceBasis
from .numerics import derive_seed

OUTLIER_MODES = ("sphere", "gaussian")


@dataclass
class GroundTruth:
    """A generated data set with everything needed to score a clustering.

    ``points.labels`` hold 1-based subspace ids, with 0 reserved for
    outliers.  ``erased_sets`` records the zeroed coordinate set of each
    column (empty for outliers).
    """

    points: PointSet
    outlier_mask: np.ndarray
    erased_sets: list[np.ndarray] | None = None
    params: dict = field(default_factory=dict)

    def save(self, prefix) -> None:
        """Write ``<prefix>.csv`` (points + labels) and a ``<prefix>.json``
        manifest with the generation parameters and erased indices."""
        prefix = str(prefix)
        self.points.to_csv(prefix + ".csv")
        manifest = dict(self.params)
        manifest["n_points"] = int(self.points.N)
        manifest["ambient_dim"] = int(self.points.m)
        manifest["n_outliers"] = int(self.outlier_mask.sum())
        if self.erased_sets is not None:
            manifest["erased_indices"] = [[int(i) for i in s] for s in self.erased_sets]
        with open(prefix + ".json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def haar_basis(m: int, d: int, seed: int) -> SubspaceBasis:
    """Orthonormal ``m x d`` basis drawn uniformly (Haar) at random.

    QR of a standard-Gaussian matrix with the diagonal of R forced positive,
    which makes the factorization unique and the distribution exactly Haar.

    Raises
    ------
    InvalidDims
        Unless ``1 <= d <= m``.
    """
    if not 1 <= d <= m:
        raise InvalidDims(f"need 1 <= d <= m, got d={d}, m={m}")
    return SubspaceBasis(_positive_qr(np.random.default_rng(seed).standard_normal((m, d))))


def _positive_qr(g: np.ndarray) -> np.ndarray:
    """The Q of ``g = QR`` with the diagonal of R made positive: Haar
    distributed for a Gaussian ``g``."""
    q, r = np.linalg.qr(g)
    return q * np.where(np.diag(r) < 0.0, -1.0, 1.0)


def sample_subspace_points(U: SubspaceBasis, n: int, seed: int) -> np.ndarray:
    """``n`` points uniform on the unit sphere of the subspace: normalized
    Gaussian coefficient vectors mapped through the basis.

    Raises
    ------
    InvalidDims
        If ``n < 1``.
    """
    if n < 1:
        raise InvalidDims(f"need n >= 1, got {n}")
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((U.d, n))
    coeffs /= np.linalg.norm(coeffs, axis=0)
    return U.basis @ coeffs


def intersecting_pair(m: int, d: int, t: int, seed: int) -> tuple[SubspaceBasis, SubspaceBasis]:
    """Two ``d``-dimensional subspaces sharing exactly ``t`` basis vectors.

    Draws ``2d - t`` jointly orthonormal Haar vectors; the first basis takes
    the first ``d`` of them, the second the last ``d``.

    Raises
    ------
    InvalidDims
        Unless ``0 <= t <= d`` and ``2d - t <= m``.
    """
    if not 0 <= t <= d:
        raise InvalidDims(f"need 0 <= t <= d, got t={t}, d={d}")
    if 2 * d - t > m:
        raise InvalidDims(f"need 2d - t <= m, got 2*{d}-{t} > {m}")
    frame = haar_basis(m, 2 * d - t, seed).basis
    return SubspaceBasis(frame[:, :d]), SubspaceBasis(frame[:, d - t:])


def shared_intersection_ensemble(m: int, L: int, d: int, seed: int) -> list[SubspaceBasis]:
    """``L`` subspaces of dimension ``d`` that all contain a common random
    ``d/3``-dimensional subspace, so every pairwise affinity is at least
    ``1/sqrt(3)``.

    The shared block is Haar; each subspace appends an independent Haar
    ``2d/3``-frame drawn inside the orthogonal complement of the shared
    block.

    Raises
    ------
    InvalidDims
        Unless ``d`` is a positive multiple of 3, ``d <= m``, and ``L >= 1``.
    """
    if L < 1:
        raise InvalidDims(f"need L >= 1, got {L}")
    if d < 3 or d % 3 != 0:
        raise InvalidDims(f"d must be a positive multiple of 3, got {d}")
    if d > m:
        raise InvalidDims(f"need d <= m, got d={d}, m={m}")
    rng = np.random.default_rng(seed)
    shared = _positive_qr(rng.standard_normal((m, d // 3)))
    bases = []
    for _ in range(L):
        g = rng.standard_normal((m, 2 * d // 3))
        g -= shared @ (shared.T @ g)  # restrict to the orthogonal complement
        bases.append(SubspaceBasis(np.hstack([_positive_qr(g), shared])))
    return bases


def haar_ensemble(m: int, L: int, d: int, seed: int) -> list[SubspaceBasis]:
    """``L`` independent Haar ``d``-dimensional subspaces of ``R^m``, basis
    ``l`` drawn by :func:`haar_basis` from the sub-stream ``derive_seed(seed, l)``."""
    return [haar_basis(m, d, derive_seed(seed, l)) for l in range(L)]


def corrupt(
    points: np.ndarray,
    sigma2: float,
    s: int,
    seed: int,
    noise_first: bool = True,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Additive Gaussian noise followed by per-point erasures.

    Noise is i.i.d. with per-coordinate variance ``sigma2 / m`` (expected
    squared norm ``sigma2``).  Each column then gets an independent uniform
    size-``s`` coordinate subset zeroed; the subsets are returned.  With
    ``noise_first=False`` the order flips (erase, then add noise), in which
    case the erased coordinates are not zero in the output.  ``sigma2 = 0``
    and ``s = 0`` return the input bit-for-bit.

    Raises
    ------
    InvalidDims
        Unless ``sigma2`` is finite and ``>= 0``, and ``0 <= s < m``.
    """
    out, erased = _corrupt(points, sigma2, s, seed, noise_first)
    if erased is None:
        erased = [np.empty(0, dtype=int) for _ in range(out.shape[1])]
    return out, erased


def _corrupt(points, sigma2: float, s: int, seed: int, noise_first: bool):
    """:func:`corrupt`, with ``None`` for the erased sets when ``s = 0``."""
    X = np.asarray(points, dtype=float)
    if X.ndim != 2:
        raise InvalidDims(f"points must be 2-D, got shape {X.shape}")
    m, N = X.shape
    if not (np.isfinite(sigma2) and sigma2 >= 0):
        raise InvalidDims(f"sigma2 must be finite and >= 0, got {sigma2}")
    if not 0 <= s < m:
        raise InvalidDims(f"need 0 <= s < m, got s={s}, m={m}")
    rng = np.random.default_rng(seed)

    def add_noise(M):
        if sigma2 == 0.0:
            return M
        return M + rng.standard_normal((m, N)) * np.sqrt(sigma2 / m)

    def erase(M):
        if s == 0:
            return M, None
        sets = []
        M = M.copy()
        for j in range(N):
            idx = np.sort(rng.choice(m, size=s, replace=False))
            M[idx, j] = 0.0
            sets.append(idx)
        return M, sets

    if noise_first:
        out, erased = erase(add_noise(X))
    else:
        out, erased = erase(X)
        out = add_noise(out)
    return out, erased


def sample_outliers(m: int, count: int, mode: str, seed: int) -> np.ndarray:
    """Structure-free points: ``mode="sphere"`` draws uniform unit vectors,
    ``mode="gaussian"`` draws i.i.d. N(0, 1/m) coordinates (squared norm
    concentrating around 1).  ``count = 0`` yields an ``m x 0`` matrix.

    The ``m x count`` result is drawn in place (:func:`_draw_outliers`):
    the only other memory is O(count).

    Raises
    ------
    InvalidDims
        If ``m < 1``, ``count < 0``, or the mode is unknown.
    """
    _check_outliers(m, count, mode)
    return _draw_outliers(np.empty((m, count)), mode, seed)


def _check_outliers(m: int, count: int, mode: str) -> None:
    if m < 1 or count < 0:
        raise InvalidDims(f"need m >= 1 and count >= 0, got m={m}, count={count}")
    if mode not in OUTLIER_MODES:
        raise InvalidDims(f"mode must be one of {OUTLIER_MODES}, got {mode!r}")


def _draw_outliers(out: np.ndarray, mode: str, seed: int) -> np.ndarray:
    """Fill ``out`` (``m x count``, each row contiguous) with the outliers of
    :func:`sample_outliers`, in place, and return it.

    The rows are drawn one at a time, in the stream order of one
    ``(m, count)`` draw.  The sphere norms sum the squares row by row, the
    order in which ``np.linalg.norm(out, axis=0)`` sums them for two or more
    columns; one column it sums pairwise, so it takes ``norm`` itself.
    """
    m, count = out.shape
    rng = np.random.default_rng(seed)
    for row in out:
        rng.standard_normal(out=row)
    if mode == "gaussian":
        out /= np.sqrt(m)
    elif count == 1:
        out /= np.linalg.norm(out, axis=0)
    else:
        squares = np.square(out[0])
        for row in out[1:]:
            squares += np.square(row)
        out /= np.sqrt(squares, out=squares)
    return out


def union_of_subspaces(
    bases: list[SubspaceBasis],
    n,
    seed: int,
    sigma2: float = 0.0,
    erasures: int = 0,
    n_outliers: int = 0,
    outlier_mode: str = "sphere",
    inlier_scale: float = 1.0,
    noise_first: bool = True,
    params: dict | None = None,
) -> GroundTruth:
    """Assemble a labeled data set from per-subspace samples plus outliers.

    ``n`` is either a single per-subspace count or one count per basis.
    Each subspace draws from the sub-stream ``derive_seed(seed, l)``; the
    outlier block and the corruption pass use the sub-streams after the last
    subspace.  ``inlier_scale`` multiplies the (noisy) inlier columns, e.g.
    ``1/sqrt(1 + sigma2)`` for the variance-rescaled noisy-outlier scenario.
    Outlier columns are never noise-corrupted or erased.

    Each block of points is written into the one ``m x N`` matrix the data
    set keeps, the outliers drawn straight into their columns
    (:func:`_draw_outliers`); only noise or erasures (:func:`corrupt`) make
    a copy of the inliers, and only erasures build the per-point
    erased-index lists.

    Raises
    ------
    InvalidDims
        Unless every basis has the first one's ``m`` and ``inlier_scale`` is
        finite and ``> 0``; see also :func:`corrupt`.
    """
    L = len(bases)
    if L < 1:
        raise InvalidDims("need at least one basis")
    counts = [int(n)] * L if np.isscalar(n) else [int(v) for v in n]
    if len(counts) != L:
        raise InvalidDims(f"{len(counts)} point counts for {L} bases")
    m = bases[0].m
    for U in bases:
        if U.m != m:
            raise InvalidDims(f"every basis needs m={m}, got m={U.m}")
    # A count below 1 fails in its sampler, a negative n_outliers in its own.
    inliers = sum(max(cnt, 0) for cnt in counts)
    data = np.empty((m, inliers + max(n_outliers, 0)))
    at = 0
    for l, (U, cnt) in enumerate(zip(bases, counts)):
        data[:, at:at + cnt] = sample_subspace_points(U, cnt, derive_seed(seed, l))
        at += cnt

    erased = None
    if sigma2 != 0.0 or erasures != 0:
        data[:, :inliers], erased = _corrupt(
            data[:, :inliers], sigma2, erasures, derive_seed(seed, L + 1), noise_first
        )
    # Checked after sigma2, from which the CLI derives its default scale.
    if not (np.isfinite(inlier_scale) and inlier_scale > 0):
        raise InvalidDims(f"inlier_scale must be finite and > 0, got {inlier_scale}")
    if inlier_scale != 1.0:
        data[:, :inliers] *= inlier_scale

    _check_outliers(m, n_outliers, outlier_mode)
    _draw_outliers(data[:, inliers:], outlier_mode, derive_seed(seed, L))
    labels = np.repeat([*range(1, L + 1), 0], [*counts, n_outliers])
    if erased is not None:
        erased += [np.empty(0, dtype=int) for _ in range(n_outliers)]
    return GroundTruth(
        points=PointSet(data, labels),
        outlier_mask=labels == 0,
        erased_sets=erased,
        params=dict(params or {}, seed=int(seed)),
    )
