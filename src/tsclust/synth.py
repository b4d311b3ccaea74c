"""Seeded synthetic data generators: Haar-random subspace bases, points
uniform on subspace spheres, controlled-intersection constructions, additive
noise and erasures, random outliers, and the analytic density and
closed-form CDF of absolute inner products between uniform sphere points
(used as a sampling oracle).

Every generator is a deterministic function of its parameters and seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betainc, gammaln

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


def orthogonal_ensemble(m: int, L: int, d: int, seed: int) -> list[SubspaceBasis]:
    """``L`` mutually orthogonal ``d``-dimensional subspaces (one Haar
    ``L*d``-frame split into blocks).

    Raises
    ------
    InvalidDims
        Unless ``L * d <= m``.
    """
    if L < 1 or d < 1:
        raise InvalidDims(f"need L, d >= 1, got L={L}, d={d}")
    if L * d > m:
        raise InvalidDims(f"need L*d <= m, got {L}*{d} > {m}")
    frame = haar_basis(m, L * d, seed).basis
    return [SubspaceBasis(frame[:, i * d:(i + 1) * d]) for i in range(L)]


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
        sets = []
        if s == 0:
            return M, [np.empty(0, dtype=int) for _ in range(N)]
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

    Raises
    ------
    InvalidDims
        If ``m < 1``, ``count < 0``, or the mode is unknown.
    """
    if m < 1 or count < 0:
        raise InvalidDims(f"need m >= 1 and count >= 0, got m={m}, count={count}")
    if mode not in OUTLIER_MODES:
        raise InvalidDims(f"mode must be one of {OUTLIER_MODES}, got {mode!r}")
    if count == 0:
        return np.empty((m, 0))
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((m, count))
    if mode == "sphere":
        return g / np.linalg.norm(g, axis=0)
    return g / np.sqrt(m)


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

    Raises
    ------
    InvalidDims
        Unless ``inlier_scale`` is finite and ``> 0``; see also :func:`corrupt`.
    """
    L = len(bases)
    if L < 1:
        raise InvalidDims("need at least one basis")
    counts = [int(n)] * L if np.isscalar(n) else [int(v) for v in n]
    if len(counts) != L:
        raise InvalidDims(f"{len(counts)} point counts for {L} bases")
    m = bases[0].m
    blocks = [
        sample_subspace_points(U, cnt, derive_seed(seed, l))
        for l, (U, cnt) in enumerate(zip(bases, counts))
    ]
    clean = np.hstack(blocks)
    labels = np.repeat(np.arange(1, L + 1), counts)

    inliers, erased = corrupt(clean, sigma2, erasures, derive_seed(seed, L + 1), noise_first)
    # Checked after sigma2, from which the CLI derives its default scale.
    if not (np.isfinite(inlier_scale) and inlier_scale > 0):
        raise InvalidDims(f"inlier_scale must be finite and > 0, got {inlier_scale}")
    if inlier_scale != 1.0:
        inliers = inliers * inlier_scale

    outliers = sample_outliers(m, n_outliers, outlier_mode, derive_seed(seed, L))
    data = np.hstack([inliers, outliers]) if n_outliers else inliers
    if n_outliers:
        labels = np.concatenate([labels, np.zeros(n_outliers, dtype=int)])
        erased = erased + [np.empty(0, dtype=int) for _ in range(n_outliers)]
    mask = labels == 0
    return GroundTruth(
        points=PointSet(data, labels),
        outlier_mask=mask,
        erased_sets=erased if erasures > 0 else None,
        params=dict(params or {}, seed=int(seed)),
    )


def _abs_pdf_log_const(d: int) -> float:
    # 2/sqrt(pi) * Gamma(d/2) / Gamma((d-1)/2), in log space for stability.
    return float(np.log(2.0) - 0.5 * np.log(np.pi) + gammaln(d / 2.0) - gammaln((d - 1) / 2.0))


def inner_product_abs_pdf(d: int, z):
    """Density of ``|<a, b>|`` for independent uniform points on the unit
    sphere of ``R^d``:  ``(2/sqrt(pi)) * Gamma(d/2)/Gamma((d-1)/2) *
    (1 - z^2)^((d-3)/2)`` on ``[0, 1]``.

    For ``d = 2`` the density diverges (integrably) at ``z = 1``.

    Raises
    ------
    InvalidDims
        If ``d < 2``.
    ValueError
        If any ``z`` lies outside ``[0, 1]``.
    """
    if d < 2:
        raise InvalidDims(f"need d >= 2, got {d}")
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.0) or np.any(z > 1.0):
        raise ValueError("z must lie in [0, 1]")
    const = np.exp(_abs_pdf_log_const(d))
    with np.errstate(divide="ignore"):
        out = const * (1.0 - z * z) ** ((d - 3) / 2.0)
    return out if out.ndim else float(out)


def inner_product_abs_cdf(d: int, z: float) -> float:
    """CDF companion of :func:`inner_product_abs_pdf` in closed form.

    ``|<a, b>|^2`` is Beta(1/2, (d-1)/2), so ``P(|<a, b>| <= z)`` is the
    regularized incomplete beta function at ``z^2``.
    """
    if d < 2:
        raise InvalidDims(f"need d >= 2, got {d}")
    z = float(z)
    if not 0.0 <= z <= 1.0:
        raise ValueError("z must lie in [0, 1]")
    return float(betainc(0.5, (d - 1) / 2.0, z * z))
