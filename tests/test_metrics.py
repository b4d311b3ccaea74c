import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsclust.errors import LengthMismatch
from tsclust.metrics import (
    clustering_error,
    el_error,
    feature_detection_error,
    outlier_confusion,
)


def brute_force_ce(true_labels, est_labels):
    """Exhaustive minimum over injective assignments of estimated clusters
    to true clusters (feasible for <= 5 labels per side)."""
    t = np.asarray(true_labels)
    e = np.asarray(est_labels)
    t_vals = np.unique(t)
    e_vals = np.unique(e)
    best = 0
    # Pad the smaller side with dummies and scan all bijections.
    size = max(len(t_vals), len(e_vals))
    t_pad = list(t_vals) + [None] * (size - len(t_vals))
    for perm in itertools.permutations(range(size)):
        matched = 0
        for j, ev in enumerate(e_vals):
            tv = t_pad[perm[j]]
            if tv is not None:
                matched += int(np.sum((e == ev) & (t == tv)))
        best = max(best, matched)
    return 1.0 - best / t.size


class TestClusteringError:
    def test_identical(self):
        assert clustering_error([1, 1, 2, 2], [1, 1, 2, 2]) == 0.0

    def test_relabeled(self):
        assert clustering_error([1, 1, 2, 2], [2, 2, 1, 1]) == 0.0

    def test_half_wrong(self):
        assert clustering_error([1, 1, 2, 2], [1, 2, 1, 2]) == 0.5

    def test_rectangular(self):
        # Estimated splits one true cluster: the extra piece is unmatched.
        assert clustering_error([1, 1, 1, 2], [1, 3, 3, 2]) == pytest.approx(0.25)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            clustering_error([1, 2], [1, 2, 3])

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        N = int(rng.integers(2, 31))
        true = rng.integers(1, rng.integers(2, 6), size=N)
        est = rng.integers(1, rng.integers(2, 6), size=N)
        assert clustering_error(true, est) == brute_force_ce(true, est)

    @given(
        labels=st.lists(st.integers(1, 4), min_size=2, max_size=40),
        mapping=st.permutations([1, 2, 3, 4]),
    )
    @settings(max_examples=60, deadline=None)
    def test_relabel_invariance(self, labels, mapping):
        true = np.asarray(labels)
        relabeled = np.asarray([mapping[v - 1] for v in labels])
        assert clustering_error(true, relabeled) == 0.0
        # And symmetry of the matching itself.
        rng = np.random.default_rng(1)
        est = rng.integers(1, 4, size=true.size)
        assert clustering_error(true, est) == pytest.approx(clustering_error(est, true))

    @pytest.mark.parametrize("seed", range(15))
    def test_upper_bound(self, seed):
        # CE <= 1 - 1/max(L, L_hat): an average over random injective
        # assignments already achieves matched >= N / max(L, L_hat).
        rng = np.random.default_rng(100 + seed)
        true = rng.integers(1, 5, size=25)
        est = rng.integers(1, 7, size=25)
        bound = 1.0 - 1.0 / max(len(np.unique(true)), len(np.unique(est)))
        assert 0.0 <= clustering_error(true, est) <= bound + 1e-12


class TestElError:
    def test_cases(self):
        assert el_error(3, 3) == 0
        assert el_error(2, 3) == 1
        assert el_error(3, 2) == -1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            el_error(0, 1)


class TestFeatureDetectionError:
    def test_block_diagonal_is_zero(self):
        A = np.zeros((4, 4))
        A[0, 1] = A[1, 0] = 0.5
        A[2, 3] = A[3, 2] = 0.8
        assert feature_detection_error(A, [1, 1, 2, 2]) == 0.0

    def test_all_cross_mass_is_one(self):
        A = np.zeros((4, 4))
        A[0, 2] = A[2, 0] = 1.0
        A[1, 3] = A[3, 1] = 1.0
        assert feature_detection_error(A, [1, 1, 2, 2]) == pytest.approx(1.0)

    def test_three_five_ratio(self):
        # Every column has within-label norm 3 and total norm 5 (3-4-5
        # triangle), so the error is 1 - 3/5.
        A = np.array(
            [
                [0.0, 3.0, 4.0, 0.0],
                [3.0, 0.0, 0.0, 4.0],
                [4.0, 0.0, 0.0, 3.0],
                [0.0, 4.0, 3.0, 0.0],
            ]
        )
        assert feature_detection_error(A, [1, 1, 2, 2]) == pytest.approx(0.4)

    def test_zero_column_counts_fully(self):
        A = np.zeros((3, 3))
        A[0, 1] = A[1, 0] = 1.0
        # Column 2 has zero norm: contributes ratio 0 (pessimistic).
        assert feature_detection_error(A, [1, 1, 2]) == pytest.approx(1.0 / 3.0)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            feature_detection_error(np.zeros((3, 3)), [1, 2])

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            Z = np.abs(rng.standard_normal((12, 12)))
            np.fill_diagonal(Z, 0.0)
            A = Z + Z.T
            labels = rng.integers(1, 4, size=12)
            assert 0.0 <= feature_detection_error(A, labels) <= 1.0


class TestOutlierConfusion:
    def test_perfect(self):
        flags = np.array([True, False, True])
        assert outlier_confusion(flags, flags) == (0.0, 0, 0)

    def test_inverted(self):
        truth = np.array([True, False, True, False])
        err, fn, fp = outlier_confusion(~truth, truth)
        assert err == 1.0 and fn == 2 and fp == 2

    def test_single_error_rate(self):
        truth = np.zeros(100, dtype=bool)
        flags = truth.copy()
        flags[17] = True
        err, fn, fp = outlier_confusion(flags, truth)
        assert err == pytest.approx(0.01)
        assert fn == 0 and fp == 1

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            outlier_confusion([True], [True, False])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: clustering_error([], []), LengthMismatch, "empty label vectors"),
        (lambda: feature_detection_error(np.zeros((2, 3)), [1, 1]), ValueError,
         "A must be square"),
        (lambda: outlier_confusion([], []), LengthMismatch, "empty flag vectors"),
    ],
    ids=["empty-labels", "non-square-adjacency", "empty-flags"],
)
def test_bad_input_rejected(call, error, message):
    with pytest.raises(error, match="^" + message):
        call()
