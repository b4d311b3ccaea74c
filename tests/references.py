"""Reference code the tests compare against; the package does not ship it.

Plain functions without argument checks: a caller outside their domain gets
whatever numpy or scipy makes of it.
"""

import numpy as np
from scipy.special import betainc, gammaln

from tsclust import numerics
from tsclust.geometry import SubspaceBasis
from tsclust.numerics import derive_seed
from tsclust.synth import corrupt, haar_basis, sample_subspace_points


def orthogonal_ensemble(m, L, d, seed):
    """``L`` mutually orthogonal ``d``-dimensional subspaces of ``R^m``: one
    Haar ``L*d``-frame split into blocks of ``d`` columns."""
    frame = haar_basis(m, L * d, seed).basis
    return [SubspaceBasis(frame[:, i * d:(i + 1) * d]) for i in range(L)]


def inner_product_abs_pdf(d, z):
    """Density of ``|<a, b>|`` for independent uniform points on the unit
    sphere of ``R^d``: ``(2/sqrt(pi)) * Gamma(d/2)/Gamma((d-1)/2) *
    (1 - z^2)^((d-3)/2)`` on ``[0, 1]``, divergent at ``z = 1`` for ``d = 2``."""
    log_const = np.log(2.0) - 0.5 * np.log(np.pi) + gammaln(d / 2.0) - gammaln((d - 1) / 2.0)
    with np.errstate(divide="ignore"):
        return np.exp(log_const) * (1.0 - np.square(z)) ** ((d - 3) / 2.0)


def inner_product_abs_cdf(d, z):
    """``P(|<a, b>| <= z)`` in closed form: ``|<a, b>|^2`` is
    Beta(1/2, (d-1)/2), so this is the regularized incomplete beta at ``z^2``."""
    return float(betainc(0.5, (d - 1) / 2.0, z * z))


def union_of_subspaces_hstack(bases, n, seed, sigma2=0.0, erasures=0, n_outliers=0,
                              outlier_mode="sphere", inlier_scale=1.0, noise_first=True):
    """The data, labels and erased sets of ``synth.union_of_subspaces``, built
    as separate blocks stacked side by side: the clean inliers, the corrupted
    copy, the scaled copy and the outliers, drawn from the same sub-streams."""
    L, m = len(bases), bases[0].m
    counts = [int(n)] * L if np.isscalar(n) else [int(v) for v in n]
    clean = np.hstack([sample_subspace_points(U, count, derive_seed(seed, l))
                       for l, (U, count) in enumerate(zip(bases, counts))])
    inliers, erased = corrupt(clean, sigma2, erasures, derive_seed(seed, L + 1), noise_first)
    inliers = inliers * inlier_scale
    outliers = sample_outliers_whole(m, n_outliers, outlier_mode, derive_seed(seed, L))
    labels = np.concatenate([np.repeat(np.arange(1, L + 1), counts), np.zeros(n_outliers, int)])
    erased = erased + [np.empty(0, dtype=int)] * n_outliers if erasures else None
    return np.hstack([inliers, outliers]), labels, erased


def sample_outliers_whole(m, count, mode, seed):
    """The outliers of ``synth.sample_outliers`` drawn as one ``(m, count)``
    array and divided by ``np.linalg.norm`` of its columns (``"sphere"``) or
    by ``sqrt(m)``."""
    g = np.random.default_rng(seed).standard_normal((m, count))
    return g / (np.linalg.norm(g, axis=0) if mode == "sphere" else np.sqrt(m))


def kmeans_every_restart(rows, k, seed, restarts=10, max_iter=100):
    """``numerics.kmeans`` run through all its restarts: ``(labels, centroids,
    inertia, iterations)`` of the first restart with the lowest inertia."""
    best = None
    for r in range(restarts):
        rng = np.random.default_rng(derive_seed(seed, r))
        centroids = numerics._kmeans_pp_init(rows, k, rng)
        labels, centroids, inertia, iterations = numerics._lloyd(rows, centroids, max_iter)
        if best is None or inertia < best[2]:
            best = (labels + 1, centroids, inertia, iterations)
    return best
