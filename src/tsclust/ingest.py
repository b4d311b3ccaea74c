"""MNIST-style IDX ingestion and singular-value diagnostics.

The IDX layout: images carry a big-endian header ``magic=0x00000803,
count, rows, cols`` followed by unsigned-byte pixels in row-major order;
labels carry ``magic=0x00000801, count`` followed by unsigned bytes.
Only 28 x 28 images are accepted; pixels are scaled to [0, 1], not normalized.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagic,
    ConfigError,
    DimMismatch,
    InsufficientImages,
    NonFinite,
    TruncatedFile,
)
from .geometry import PointSet

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801
IMAGE_SIDE = 28
PIXELS = IMAGE_SIDE * IMAGE_SIDE


@dataclass(frozen=True)
class IdxDataset:
    """Vectorized images (``784 x N``, values in [0, 1]) with digit labels."""

    images: np.ndarray
    digit_labels: np.ndarray

    @property
    def N(self) -> int:
        return self.images.shape[1]


def _read_exact(fh, nbytes: int, path) -> bytes:
    data = fh.read(nbytes)
    if len(data) < nbytes:
        raise TruncatedFile(f"{path}: expected {nbytes} more bytes, got {len(data)}")
    return data


def load_idx(images_path, labels_path) -> IdxDataset:
    """Parse an IDX image/label file pair.

    Raises
    ------
    BadMagic
        On an unexpected magic number in either file.
    DimMismatch
        If the images are not 28 x 28 or the label count differs from the
        image count.
    TruncatedFile
        If either file is shorter than its header promises.
    """
    with open(images_path, "rb") as fh:
        magic, = struct.unpack(">I", _read_exact(fh, 4, images_path))
        if magic != IMAGE_MAGIC:
            raise BadMagic(f"{images_path}: magic 0x{magic:08x}, expected 0x{IMAGE_MAGIC:08x}")
        count, rows, cols = struct.unpack(">III", _read_exact(fh, 12, images_path))
        if (rows, cols) != (IMAGE_SIDE, IMAGE_SIDE):
            raise DimMismatch(f"{images_path}: images are {rows}x{cols}, expected 28x28")
        raw = _read_exact(fh, count * PIXELS, images_path)
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(count, PIXELS)
    with open(labels_path, "rb") as fh:
        magic, = struct.unpack(">I", _read_exact(fh, 4, labels_path))
        if magic != LABEL_MAGIC:
            raise BadMagic(f"{labels_path}: magic 0x{magic:08x}, expected 0x{LABEL_MAGIC:08x}")
        label_count, = struct.unpack(">I", _read_exact(fh, 4, labels_path))
        if label_count != count:
            raise DimMismatch(f"{label_count} labels for {count} images")
        labels = np.frombuffer(_read_exact(fh, label_count, labels_path), dtype=np.uint8)
    return IdxDataset(images=pixels.T.astype(float) / 255.0, digit_labels=labels.astype(int))


def subsample_digits(
    ds: IdxDataset,
    digits,
    n_per_digit: int,
    seed: int,
    center: bool = False,
) -> PointSet:
    """Uniform without-replacement sample of ``n_per_digit`` images per digit.

    Labels are re-indexed 1..len(digits) in ascending digit order.  The
    columns are the sampled images; ``center`` subtracts the mean image of
    the selection from them (off by default).

    Raises
    ------
    InsufficientImages
        If any requested digit has fewer than ``n_per_digit`` images.
    """
    digits = sorted(set(int(v) for v in digits))
    if n_per_digit < 1:
        raise ValueError(f"n_per_digit must be >= 1, got {n_per_digit}")
    rng = np.random.default_rng(seed)
    chosen, labels = [], []
    for k, digit in enumerate(digits, start=1):
        pool = np.flatnonzero(ds.digit_labels == digit)
        if pool.size < n_per_digit:
            raise InsufficientImages(
                f"digit {digit}: {pool.size} images available, {n_per_digit} requested"
            )
        sel = rng.choice(pool, size=n_per_digit, replace=False)
        chosen.append(ds.images[:, sel])
        labels.extend([k] * n_per_digit)
    data = np.hstack(chosen)
    if center:
        data = data - data.mean(axis=1, keepdims=True)
    return PointSet(data, np.asarray(labels, dtype=int))


def singular_value_profile(matrix) -> np.ndarray:
    """Thin-SVD singular values in descending order.

    Raises
    ------
    NonFinite
        If the matrix contains NaN or Inf.
    """
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.size == 0:
        raise ValueError(f"matrix must be 2-D and nonempty, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise NonFinite("matrix contains NaN or Inf")
    return np.linalg.svd(M, compute_uv=False)


def remove_top_principal_components(matrix, k: int) -> np.ndarray:
    """Subtract the projection onto the top-``k`` left singular vectors
    (columns stay in place; the dominant rank-``k`` structure is removed).

    Raises
    ------
    ConfigError
        Unless ``k < min(m, N)``: removing every component leaves only
        rounding noise.
    """
    M = np.asarray(matrix, dtype=float)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k == 0:
        return M.copy()
    if k >= min(M.shape):
        raise ConfigError(f"k={k} must be below min(m, N)={min(M.shape)} of a {M.shape} matrix")
    U, _, _ = np.linalg.svd(M, full_matrices=False)
    top = U[:, :k]
    return M - top @ (top.T @ M)
