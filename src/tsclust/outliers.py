"""Inner-product outlier detection.

A point is flagged as an outlier when its largest absolute inner product
against every other point falls below ``c * sqrt(log N) / sqrt(m)`` (natural
log).  Scores use the raw inner products, not correlation-normalized ones:
the calibration of the two reference constants assumes the stated point
models, and renormalizing would shift the threshold.  The scores come from
the blocked |X^T X| kernel that neighbor selection uses,
:func:`tsclust.geometry.correlation_blocks`, read unnormalized and unclamped
and only in its upper strips, so each inner product is computed once.
The CLI and the experiment harness both read a user's ``c`` through
:func:`threshold_constant`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonFinite, TooFewPoints
from .geometry import PointSet, correlation_blocks, write_csv

#: Threshold constant calibrated for unit-norm inliers and sphere outliers.
NOISELESS_C = math.sqrt(6.0)

#: Threshold constant calibrated for noisy, variance-rescaled inliers and
#: Gaussian outliers.
NOISY_C = 2.3 * math.sqrt(6.0)


def threshold_constant(c=None, noisy: bool = False) -> float:
    """The threshold constant that ``c`` names or gives: ``"noiseless"``,
    ``"noisy"``, a number or a numeric string; ``None`` names the constant
    calibrated for the noise level ``noisy``.

    Raises
    ------
    ConfigError
        Unless ``c`` is one of these and its value is finite and positive.
    """
    if c is None:
        c = "noisy" if noisy else "noiseless"
    try:
        value = float({"noiseless": NOISELESS_C, "noisy": NOISY_C}.get(c, c))
    except (TypeError, ValueError):
        raise ConfigError(f"c must be 'noiseless', 'noisy', or a number, got {c!r}") from None
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"c must be finite and positive, got {c!r}")
    return value


@dataclass(frozen=True)
class OutlierReport:
    """Per-point max absolute inner product, the decision threshold, and the
    outlier flags (``flags[j]`` iff ``scores[j] < threshold``)."""

    scores: np.ndarray
    threshold: float
    flags: np.ndarray

    def to_csv(self, path) -> None:
        rows = ((i, s, self.threshold, f) for i, (s, f) in enumerate(zip(self.scores, self.flags)))
        write_csv(path, ["index", "score", "threshold", "is_outlier"], rows)


def detect_outliers(points: PointSet, c: float = NOISELESS_C) -> OutlierReport:
    """Flag points whose best correlation partner is still far away.

    Parameters
    ----------
    points : PointSet
        Taken as-is (no renormalization).
    c : float
        Threshold constant; ``NOISELESS_C`` and ``NOISY_C`` are the two
        calibrated defaults.

    Raises
    ------
    TooFewPoints
        If fewer than two points are supplied.
    ConfigError
        If ``c`` is not finite and positive.
    NonFinite
        If the raw inner products overflow.
    """
    if points.N < 2:
        raise TooFewPoints(f"outlier detection needs >= 2 points, got {points.N}")
    if not (math.isfinite(c) and c > 0.0):
        raise ConfigError(f"c must be finite and positive, got {c}")
    m, N = points.data.shape
    scores = _max_abs_inner_products(points.data)
    if not np.all(np.isfinite(scores)):
        raise NonFinite("raw inner products overflow to NaN or Inf; rescale the points")
    threshold = c * math.sqrt(math.log(N)) / math.sqrt(m)
    return OutlierReport(scores=scores, threshold=threshold, flags=scores < threshold)


def _max_abs_inner_products(X: np.ndarray) -> np.ndarray:
    """Each point's largest ``|<x_i, x_j>|`` over ``j != i``, NaN if any is.

    Strip rows ``start:stop`` hold the products with points ``j >= start``
    only: their row max covers the strip's own points, and their column max
    right of the diagonal block the later points, so each product is read
    once.  ``np.maximum``, unlike ``np.fmax``, keeps a NaN.
    """
    scores = np.full(X.shape[1], -np.inf)
    for start, C in correlation_blocks(X, normalize=False, upper=True):
        b = C.shape[0]
        np.fill_diagonal(C, -np.inf)
        own, later = scores[start:start + b], scores[start + b:]
        np.maximum(own, C.max(axis=1), out=own)
        np.maximum(later, C[:, b:].max(axis=0), out=later)
    return scores
