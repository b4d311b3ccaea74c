"""Clustering quality metrics: clustering error under optimal label matching,
the signed cluster-count error, the feature detection error of an adjacency
matrix, and outlier-detection confusion rates.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment

from .errors import LengthMismatch

#: Adjacency columns with norm at or below this contribute ratio 0 to the FDE.
FDE_NORM_TOL = 1e-14


def clustering_error(true_labels, est_labels) -> float:
    """Fraction of misclassified points under the best label matching.

    The confusion matrix between true and estimated clusters is matched by
    maximum-weight rectangular assignment (Hungarian algorithm), so each
    estimated cluster pairs with at most one true cluster and vice versa;
    the error is ``1 - matched / N``.  Invariant under relabeling of either
    argument.

    Raises
    ------
    LengthMismatch
        If the two label vectors have different lengths.
    """
    t = np.asarray(true_labels, dtype=int).ravel()
    e = np.asarray(est_labels, dtype=int).ravel()
    if t.size != e.size:
        raise LengthMismatch(f"{t.size} true labels vs {e.size} estimated")
    if t.size == 0:
        raise LengthMismatch("empty label vectors")
    _, ti = np.unique(t, return_inverse=True)
    _, ei = np.unique(e, return_inverse=True)
    confusion = np.zeros((ti.max() + 1, ei.max() + 1))
    np.add.at(confusion, (ti, ei), 1.0)
    rows, cols = linear_sum_assignment(-confusion)
    matched = confusion[rows, cols].sum()
    return float(1.0 - matched / t.size)


def el_error(L_true: int, L_hat: int) -> int:
    """Signed cluster-count error: 0 if exact, +1 if overestimated
    (``L_true < L_hat``), -1 if underestimated."""
    if L_true < 1 or L_hat < 1:
        raise ValueError("cluster counts must be >= 1")
    if L_true == L_hat:
        return 0
    return 1 if L_true < L_hat else -1


def feature_detection_error(A, true_labels) -> float:
    """Mean fraction of adjacency-column mass leaking across clusters.

    For column i, the ratio is the norm of the entries whose rows share
    point i's true label divided by the full column norm (columns with norm
    <= 1e-14 contribute 0).  The FDE is one minus the mean ratio; it is zero
    exactly when no edge joins points with different labels.  ``A`` may be
    dense or sparse; it is read through its nonzero entries, in ascending
    row order per column.

    Raises
    ------
    LengthMismatch
        If the label vector does not match the adjacency size.
    """
    A = sparse.csc_array(A, dtype=float)
    labels = np.asarray(true_labels, dtype=int).ravel()
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be square, got shape {A.shape}")
    N = A.shape[1]
    if labels.size != N:
        raise LengthMismatch(f"{labels.size} labels for {N} columns")
    A.sum_duplicates()
    rows = A.indices
    cols = np.repeat(np.arange(N), np.diff(A.indptr))
    squares = A.data * A.data
    same = labels[rows] == labels[cols]
    total = np.sqrt(np.bincount(cols, squares, minlength=N))
    within = np.sqrt(np.bincount(cols[same], squares[same], minlength=N))
    ratios = np.where(total > FDE_NORM_TOL, within / np.where(total > 0, total, 1.0), 0.0)
    return float(1.0 - ratios.mean())


def outlier_confusion(flags, truth_mask) -> tuple[float, int, int]:
    """Misclassification rate of outlier flags against the ground truth.

    Returns ``(misclassification_error, false_negatives, false_positives)``
    where a false negative is a true outlier left unflagged and a false
    positive is an inlier flagged as an outlier;
    ``misclassification_error = (FN + FP) / N``.
    """
    f = np.asarray(flags, dtype=bool).ravel()
    t = np.asarray(truth_mask, dtype=bool).ravel()
    if f.size != t.size:
        raise LengthMismatch(f"{f.size} flags vs {t.size} truth entries")
    if f.size == 0:
        raise LengthMismatch("empty flag vectors")
    fn = int(np.sum(~f & t))
    fp = int(np.sum(f & ~t))
    return (fn + fp) / f.size, fn, fp
