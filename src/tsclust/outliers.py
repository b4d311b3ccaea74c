"""Inner-product outlier detection.

A point is flagged as an outlier when its largest absolute inner product
against every other point falls below ``c * sqrt(log N) / sqrt(m)`` (natural
log).  Scores use the raw inner products, not correlation-normalized ones:
the calibration of the two reference constants assumes the stated point
models, and renormalizing would shift the threshold.  Each score is the
float64 maximum over all other points, found by a float32 screen of the
upper strips of |X^T X| and a float64 rescoring of the few products that
can hold the maximum (:func:`_max_abs_inner_products`); points the screen
cannot prove take their whole row from the package's one float64 |X^T X|
kernel, :func:`~tsclust.geometry.abs_gram_rows`.  The screen's strips and
the kernel's blocks both run on every usable CPU, through one thread runner
(:func:`~tsclust.geometry._run_chunks`); the screen multiplies each strip
in fixed-width column tiles, so its threads hold about one tile of
products between them at any N.
The CLI and the experiment harness both read a user's ``c`` through
:func:`threshold_constant`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import ConfigError, NonFinite, TooFewPoints
from .geometry import PointSet, write_csv

#: Threshold constant calibrated for unit-norm inliers and sphere outliers.
NOISELESS_C = math.sqrt(6.0)

#: Threshold constant calibrated for noisy, variance-rescaled inliers and
#: Gaussian outliers.
NOISY_C = 2.3 * math.sqrt(6.0)

#: Points per group of the float32 screen: each point is rescored in float64
#: against the group that holds its best screened partner.
_GROUP = 32


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
    """Each point's largest float64 ``|<x_i, x_j>|`` over ``j != i``, NaN if any is.

    A float32 screen (:func:`_screen`) finds, for each point i, the group of
    ``G = gcd(CORRELATION_BLOCK, _GROUP)`` consecutive points holding its
    best screened product ``b_i``, and the best product ``s_i`` outside that
    group.  Point i is rescored in float64 against that group only, unless
    the screen cannot prove that the group holds the float64 maximum; such
    points, and those whose products could overflow, get their whole
    float64 row (:func:`_full_rows`).

    *Proof.*  Let ``u = 2^-24``, ``v = 2^-53``, ``gamma_k(u) = k u / (1 - k u)``,
    ``x~ = 2^-e x`` the columns scaled so that ``max |x~| < 1``, ``y`` their
    float32 roundings and ``n_i`` the norm of ``y_i`` computed in float64.
    The screened |product| of i and j differs from ``|x~_i^T x~_j|`` by at
    most ``gamma_{m+2}(u) |x~_i|^T |x~_j| + 2m 2^-126``: two roundings to
    float32, the float32 dot product (Higham, *Accuracy and Stability of
    Numerical Algorithms*, section 3.1), and at most ``2^-126`` for each of
    its 2m operations that underflows or flushes to zero.  The float64
    product, scaled by ``2^-2e``, differs from it by at most
    ``gamma_m(v) |x~_i|^T |x~_j| + 2m 2^(-1022-2e)``, and
    ``|x~_i|^T |x~_j| <= ||x~_i|| ||x~_j||`` with
    ``||x~_i|| <= (1 + u) n_i + sqrt(m) 2^-150``.  So each screened
    product is within ``eps_i / 2`` of its float64 value, where

        eps_i = 2 [(gamma_{m+4}(u) + (m+4) v) n_i max_j n_j
                   + 4m (2^-126 + 2^(-1022-2e))];

    the 4 in place of 2 covers the rounding of the computed norms and of
    ``eps_i`` itself and the ``sqrt(m) 2^-150`` term, for ``m < 2^20``.
    If ``s_i + eps_i < b_i``, every float64 product outside the group is
    below the float64 product of i's best screened partner, so the group
    holds the maximum.  Equal screened bests give ``s_i = b_i`` and fail.

    Rows with ``n_i max_j n_j 2^2e >= 2^1000`` could overflow and take the
    whole row, as does every row when X is not finite, ``m >= 2^20``, or
    ``max |x| < 2^-500`` (products within float64's underflow error).  The
    whole rows keep a NaN, so a fault reaches every point it touches.
    """
    m, N = X.shape
    hi, lo = X.max(), X.min()  # NaN if any entry is
    e = int(np.frexp(max(hi, -lo))[1])
    if not (math.isfinite(hi) and math.isfinite(lo)) or m >= 2**20 or e < -500:
        return _full_rows(X, np.arange(N))
    G = math.gcd(geometry.CORRELATION_BLOCK, _GROUP)
    best, group, second, norms = _screen(X, e, G)
    bound = norms * norms.max()
    k = m + 4
    eps = 2.0 * ((k * 2.0**-24 / (1.0 - k * 2.0**-24) + k * 2.0**-53) * bound
                 + 4 * m * (2.0**-126 + 2.0 ** (-1022 - 2 * e)))
    proven = (second + eps < best) & (bound < 2.0 ** min(1000 - 2 * e, 1000))
    scores = np.empty(N)
    rows = np.flatnonzero(proven)
    rows = rows[np.argsort(group[rows], kind="stable")]
    groups, firsts = np.unique(group[rows], return_index=True)
    for g, P in zip(groups, np.split(rows, firsts[1:])):
        C = np.abs(X[:, P].T @ X[:, g * G:(g + 1) * G])
        C[P[:, None] == np.arange(g * G, g * G + C.shape[1])] = -np.inf
        scores[P] = C.max(axis=1)
    full = np.flatnonzero(~proven)
    scores[full] = _full_rows(X, full)
    return scores


def _screen(X: np.ndarray, e: int, G: int):
    """The float32 screen of ``|X^T X|`` over its upper strips.

    Returns, for each point, its best screened ``|product|``, the group of
    ``G`` points that holds it (group ``g`` is points ``gG`` to
    ``gG + G - 1``; the first such group on a tie), the best screened
    product outside that group, and the float64 norm of its scaled float32
    column.  The strips (:func:`_strip`) run on
    :func:`~tsclust.geometry._run_chunks`: one thread per usable CPU, but no
    more than ``CORRELATION_BLOCK / G`` nor than there are strips of
    ``CORRELATION_BLOCK`` points.  A strip holds ``CORRELATION_BLOCK /
    threads`` points, rounded down to a multiple of ``G``, and is multiplied
    in the column tiles of :func:`_tiles`, so the threads' float32 buffers
    together hold about one ``CORRELATION_BLOCK x 8 CORRELATION_BLOCK`` tile
    (2 MiB) at any N, as one thread's does (a short last tile joins the one
    before).  The candidates are folded here in strip order, so the result
    is the serial screen's, bit for bit, on any thread count, as long as
    BLAS gives each float32 product the same bits in strips of any height
    and in tiles (tests check that it does).
    """
    m, N = X.shape
    Y = np.empty(X.shape, np.float32)
    np.multiply(X, 2.0**-e, out=Y, casting="same_kind")
    norms = np.sqrt(np.einsum("ij,ij->j", Y, Y, dtype=float))
    block = geometry.CORRELATION_BLOCK
    workers = min(geometry._usable_cpus(), block // G, -(-N // block))
    height = block // workers // G * G
    starts = range(0, N, height)
    tiles = [_tiles(start, N, m * min(height, N - start)) for start in starts]
    width = max(c1 - c0 for strip in tiles for c0, c1 in strip)
    buffers = [np.empty(height * width, np.float32) for _ in range(workers)]
    candidates = geometry._run_chunks(
        len(starts), buffers,
        lambda i, buffer: _strip(Y, starts[i], height, G, tiles[i], buffer),
    )
    best = np.full(N, -np.inf, np.float32)
    second = best.copy()
    group = np.zeros(N, np.intp)
    for start, (later, own) in zip(starts, candidates):
        stop = min(start + height, N)
        if later is not None:
            top, g, rest = later
            g = np.add(g, start // G, dtype=np.intp)
            _fold(best[stop:], group[stop:], second[stop:], top, g, rest)
        _fold(best[start:stop], group[start:stop], second[start:stop], *own)
    return best, group, second, norms


def _tiles(start: int, N: int, work: int) -> list:
    """The column tiles ``[(c0, c1), ...]`` of the screen's strip that
    starts at point ``start``, for ``work`` multiply-adds per column.

    Tiles are ``8 * CORRELATION_BLOCK`` columns wide, a multiple of the
    screen's group size, so no group spans two tiles and the first holds
    the strip's diagonal block.  A last tile of fewer than 2^20
    multiply-adds joins the one before, as :func:`~tsclust.geometry._cut`
    rules for the float64 kernel: OpenBLAS multiplies a product of a few
    columns with its small-matrix kernels, which round differently (a
    one-column tail changed the bits at m = 50, N = 4097).
    """
    width = 8 * geometry.CORRELATION_BLOCK
    edges = [*range(start, N, width), N]
    if len(edges) > 2 and (N - edges[-2]) * work < 2**20:
        del edges[-2]
    return list(zip(edges[:-1], edges[1:]))


def _strip(Y: np.ndarray, start: int, height: int, G: int, tiles: list, buffer: np.ndarray):
    """The screen's candidates from the strip of ``|Y^T Y|`` with rows
    ``start:start + height`` and columns ``start:``, multiplied one column
    tile of ``tiles`` at a time into ``buffer``.

    Its rows give the strip's own points their best product, the group
    that holds it and the best product outside that group, each tile's
    merged by :func:`_fold` in tile order.  Its columns right of the
    diagonal block give the later points the same over the strip's groups
    of G points, each group numbered within the strip (``None`` for the
    last strip), joined across tiles.  So each product is computed once;
    ``G`` divides ``height`` and every tile's width, so no group spans two
    strips or two tiles.
    """
    stop = min(start + height, Y.shape[1])
    b = stop - start
    rows = np.arange(b)
    own, later = None, []
    for c0, c1 in tiles:
        C = np.matmul(Y[:, start:stop].T, Y[:, c0:c1], out=buffer[:b * (c1 - c0)].reshape(b, -1))
        np.abs(C, out=C)
        if c0 == start:
            np.fill_diagonal(C, -np.inf)
        if c1 > stop:
            M = C[:, max(stop - c0, 0):].reshape(b // G, G, -1).max(axis=1)
            top = M.max(axis=0)
            # The first group that holds each best, numbered within the
            # strip in the smallest type, since every strip's later points
            # are held until the fold.
            g = np.zeros(M.shape[1], np.min_scalar_type(b // G))
            for j in reversed(range(b // G)):
                g[M[j] == top] = j
            M[g, np.arange(M.shape[1])] = -np.inf
            later.append((top, g, M.max(axis=0)))
        k = C.argmax(axis=1)
        top = C[rows, k]
        # -inf over the group of each row's best: a whole group as one
        # G-wide slice of a (b, groups, G) view, a tile's partial last group
        # as the columns past its whole groups.
        g = k // G
        full = (c1 - c0) // G * G
        inside = g < full // G
        C[:, :full].reshape(b, full // G, G)[rows[inside], g[inside]] = -np.inf
        C[~inside, full:] = -np.inf
        candidate = top, c0 // G + g, C.max(axis=1)
        if own is None:
            own = candidate
        else:
            _fold(*own, *candidate)
    if later:
        later = tuple(np.concatenate(parts) for parts in zip(*later))
    return later or None, own


def _fold(best, group, second, top, top_group, rest) -> None:
    """Merge a candidate best ``top`` in ``top_group``, with ``rest`` the
    best outside it, into the running ``best``, ``group`` and ``second``
    (in place).  The groups differ, so the lower of the two bests joins
    the runners-up."""
    np.maximum(second, np.maximum(rest, np.minimum(best, top)), out=second)
    wins = top > best
    np.copyto(best, top, where=wins)
    np.copyto(group, top_group, where=wins)


def _full_rows(X: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The largest ``|<x_i, x_j>|`` over ``j != i`` for each point i in
    ``rows``, a row maximum over :func:`~tsclust.geometry.abs_gram_rows`
    taken on the thread that made each block (the same bits on any thread
    count); a NaN product makes the score NaN.  No ``rows`` gives an empty
    array and starts no thread."""
    maxima = geometry.abs_gram_rows(X, rows, lambda _, C: C.max(axis=1))
    return np.concatenate([np.empty(0)] + maxima)
