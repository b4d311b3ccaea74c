"""Inner-product outlier detection.

A point is flagged as an outlier when its largest absolute inner product
against every other point falls below ``c * sqrt(log N) / sqrt(m)`` (natural
log).  Scores use the raw inner products, not correlation-normalized ones:
the calibration of the two reference constants assumes the stated point
models, and renormalizing would shift the threshold.  The CLI and the
experiment harness both read a user's ``c`` through :func:`threshold_constant`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TooFewPoints
from .geometry import PointSet

#: Threshold constant calibrated for unit-norm inliers and sphere outliers.
NOISELESS_C = math.sqrt(6.0)

#: Threshold constant calibrated for noisy, variance-rescaled inliers and
#: Gaussian outliers.
NOISY_C = 2.3 * math.sqrt(6.0)

_CHUNK = 2048


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
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["index", "score", "threshold", "is_outlier"])
            for i, (s, f) in enumerate(zip(self.scores, self.flags)):
                writer.writerow(
                    [i, format(float(s), ".17g"), format(self.threshold, ".17g"), int(f)]
                )


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
    """
    if points.N < 2:
        raise TooFewPoints(f"outlier detection needs >= 2 points, got {points.N}")
    if not (math.isfinite(c) and c > 0.0):
        raise ConfigError(f"c must be finite and positive, got {c}")
    X = points.data
    m, N = X.shape
    scores = np.empty(N)
    # Blocked Gram computation keeps memory at O(N * chunk) for large N.
    for start in range(0, N, _CHUNK):
        stop = min(start + _CHUNK, N)
        G = np.abs(X.T @ X[:, start:stop])
        G[np.arange(start, stop), np.arange(stop - start)] = -np.inf
        scores[start:stop] = G.max(axis=0)
    threshold = c * math.sqrt(math.log(N)) / math.sqrt(m)
    return OutlierReport(scores=scores, threshold=threshold, flags=scores < threshold)
