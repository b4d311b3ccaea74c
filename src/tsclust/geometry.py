"""Point sets, the float64 |X^T X| kernel, and CSV reading and writing.

Points are stored column-wise: an ``m x N`` matrix holds ``N`` points in
``R^m``.  :func:`normalize_columns` is the one place that normalizes points.
The one float64 blocked |X^T X| kernel, :func:`abs_gram_rows`, runs its
blocks on one thread per usable CPU, with the same bits on any count; a
block runs in two pieces of at most 144 rows, so two threads hold about
one block between them.  It serves neighbor
selection, whose picks carry the ``exp`` weights' correlations, and the
outlier scores that the float32 screen cannot prove.
Its thread runner, :func:`_run_chunks`, is the package's only one: the
outlier screen runs its float32 strips on it too.
Every CSV the package writes goes through :func:`write_csv`.
"""

from __future__ import annotations

import csv
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import FileFormatError, InvalidDims, LengthMismatch, NonFinite, ZeroVector

#: Points per block of the |X^T X| kernel; a block holds this many rows of N
#: inner products, so memory stays at O(N * block) per thread instead of
#: O(N^2) (a block runs in two pieces of at most 144 rows).
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
        # max and min carry any NaN and reach any inf, with no m x N temporary.
        if not (np.isfinite(data.max()) and np.isfinite(data.min())):
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
        """Read a point set written by :meth:`to_csv`.

        Raises
        ------
        FileFormatError
            On an empty file, a label-only header, a row of the wrong width, a
            non-number cell or a negative or fractional label; names the line.
        """
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header:
                raise FileFormatError(f"{path}: empty CSV")
            has_labels = header[-1].strip().lower() == "label"
            m = len(header) - (1 if has_labels else 0)
            if m == 0:
                raise FileFormatError(f"{path}: no coordinate column")
            cols, labels = [], []
            for row in reader:
                if not row:
                    continue
                try:
                    if len(row) != len(header):
                        raise ValueError(f"{len(row)} fields, expected {len(header)}")
                    cols.append([float(v) for v in row[:m]])
                    if has_labels:
                        label = float(row[m])
                        if not label.is_integer():
                            raise ValueError(f"label {row[m]!r} is not an integer")
                        if label < 0:
                            raise ValueError(f"label {row[m]!r} is negative")
                        labels.append(int(label))
                except ValueError as exc:
                    raise FileFormatError(f"{path}, line {reader.line_num}: {exc}") from None
        if not cols:
            raise FileFormatError(f"{path}: no data rows")
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


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def abs_gram_rows(X: np.ndarray, rows, reduce) -> list:
    """``[reduce(chunk, C) for each chunk]`` over the chunks of ``rows``, in
    chunk order, where row ``b`` of ``C`` holds ``|<x_{chunk[b]}, x_i>|`` for
    every point i and ``-inf`` for ``i = chunk[b]``.

    ``rows`` is a ``range``, whose chunks are column slices of X, or an index
    array, whose columns are gathered one chunk at a time.  The two round
    alike but for a chunk that slices all of X: numpy then multiplies
    ``X^T X`` as a symmetric product.  Products that overflow to inf or NaN
    pass through without a warning; callers check for them.

    The chunks run on :func:`_run_chunks`, one thread per usable CPU, at
    most one per chunk.  Rows that fit one ``CORRELATION_BLOCK`` make one
    chunk and start no thread.  More rows make chunks of at most 144 rows,
    each ``CORRELATION_BLOCK`` cut in two by :func:`_cut`, the same on any
    CPU count, so the bits do not depend on it (with one BLAS thread: a
    threaded BLAS splits each product by its own thread count).  Each thread multiplies
    every chunk it claims, whole, into its own float64 block of the tallest
    chunk's height: memory stays at O(N * 144) per thread, and two threads
    hold about one ``CORRELATION_BLOCK x N`` block.  ``C`` is that block:
    ``reduce`` may overwrite it and must copy what it keeps; it runs under
    the kernel's numpy error state.
    """
    chunks = [rows[at:at + CORRELATION_BLOCK] for at in range(0, len(rows), CORRELATION_BLOCK)]
    if len(chunks) > 1:
        chunks = [piece for chunk in chunks for piece in _cut(chunk, X.size)]
    if not chunks:
        return []

    def product(i, block):
        chunk = chunks[i]
        Y = X[:, chunk.start:chunk.stop] if isinstance(chunk, range) else X[:, chunk]
        with np.errstate(over="ignore", invalid="ignore"):
            C = np.matmul(Y.T, X, out=block[:len(chunk)])
            np.abs(C, out=C)
            C[np.arange(len(chunk)), chunk] = -np.inf
            return reduce(chunk, C)

    workers = min(_usable_cpus(), len(chunks))
    height = max(len(chunk) for chunk in chunks)
    blocks = [np.empty((height, X.shape[1])) for _ in range(workers)]
    return _run_chunks(len(chunks), blocks, product)


def _cut(chunk, size: int) -> list:
    """A chunk of :func:`abs_gram_rows` over an X of ``size`` entries, in
    pieces of at most 144 rows.

    The cut falls at a multiple of 48 rows, and no piece has fewer than 48
    rows or makes fewer than 2^20 multiply-adds.  On the OpenBLAS build
    measured, the pieces then give the bits of the whole chunk (see
    CHANGES.md).
    """
    panel = 48
    if len(chunk) <= 3 * panel or panel * size < 2**20:
        return [chunk]
    at = 3 * panel if len(chunk) >= 4 * panel else 2 * panel
    return [chunk[:at], chunk[at:]]


def _run_chunks(count: int, buffers: list, task) -> list:
    """``[task(i, buffer) for i in range(count)]``, in chunk order, on one
    thread per buffer, the calling thread among them; ``buffer`` is the one
    that belongs to the thread running chunk i.

    Each thread claims the next unclaimed chunk when done with one, so a
    thread slowed by other load takes fewer.  The caller makes the buffers
    on its own thread: buffers made on the helpers stay resident in glibc's
    per-thread arenas after the call.  An exception in ``task`` stops the
    other threads at their next claim and reaches the caller.  No thread
    outlives the call, and one buffer starts none.
    """
    out = [None] * count
    lock = threading.Lock()
    claimed = 0

    def work(buffer):
        nonlocal claimed
        try:
            while True:
                with lock:
                    i, claimed = claimed, claimed + 1
                if i >= count:
                    return
                out[i] = task(i, buffer)
        except BaseException:
            with lock:
                claimed = count  # the other threads claim no more
            raise

    with ThreadPoolExecutor(max(len(buffers) - 1, 1)) as pool:
        helpers = [pool.submit(work, buffer) for buffer in buffers[1:]]
        work(buffers[0])
        for helper in helpers:
            helper.result()
    return out


def normalize_columns(points: PointSet) -> PointSet:
    """Scale every column to unit Euclidean norm, preserving labels.

    Memory: the output and O(N).  The output first holds the squares
    whose column sums give the norms, then the scaled points.

    Raises
    ------
    ZeroVector
        If any column is exactly zero.
    """
    # Each column times the power of two that puts its largest |entry| in
    # [0.5, 1) (exactly), so no norm overflows or underflows.
    X = points.data
    scale = -np.frexp(np.maximum(X.max(axis=0), -X.min(axis=0)))[1]
    data = np.ldexp(X, scale, out=np.empty_like(X))
    norms = np.sqrt(np.add.reduce(np.square(data, out=data), axis=0))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ZeroVector(int(zero[0]))
    np.ldexp(X, scale, out=data)
    return PointSet(np.divide(data, norms, out=data), points.labels)
