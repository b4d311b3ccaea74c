"""Invariances TSC must have, property-tested: the clustering does not
change when the points are permuted, when columns flip sign, when each
column is scaled by its own power of ten (10^-300 up to 10^300, past the
ranges where a plain Euclidean norm underflows or overflows), or when the
ambient space is rotated by a Haar-random orthogonal matrix."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tsclust.geometry import PointSet
from tsclust.metrics import clustering_error
from tsclust.synth import haar_basis, orthogonal_ensemble, union_of_subspaces
from tsclust.tsc import TscConfig, run_tsc

N_PER = 30
L = 3


def base_points(seed):
    bases = orthogonal_ensemble(24, L, 4, seed=seed)
    return union_of_subspaces(bases, N_PER, seed=seed + 100).points


def config(variant):
    # q > d keeps the ls eigengap away from its L_hat ~ N failure mode.
    return TscConfig(q=6, weight_variant=variant, seed=3)


def assert_same_clustering(reference, result, perm=None):
    # Every base input is clustered exactly, so "unchanged" is not vacuous.
    assert reference.L_hat == L
    expected = reference.labels if perm is None else reference.labels[perm]
    assert result.L_hat == reference.L_hat
    assert clustering_error(expected, result.labels) == 0.0


SEEDS = st.integers(min_value=0, max_value=3)
VARIANTS = st.sampled_from(["exp", "ls"])
N = L * N_PER


@settings(max_examples=20, deadline=None)
@given(seed=SEEDS, variant=VARIANTS, perm_seed=st.integers(0, 2**32 - 1))
def test_point_permutation(seed, variant, perm_seed):
    points = base_points(seed)
    perm = np.random.default_rng(perm_seed).permutation(N)
    reference = run_tsc(points, config(variant))
    result = run_tsc(PointSet(points.data[:, perm]), config(variant))
    assert_same_clustering(reference, result, perm)


@settings(max_examples=20, deadline=None)
@given(seed=SEEDS, variant=VARIANTS, signs=st.lists(st.booleans(), min_size=N, max_size=N))
def test_column_sign_flips(seed, variant, signs):
    points = base_points(seed)
    flip = np.where(signs, -1.0, 1.0)
    reference = run_tsc(points, config(variant))
    result = run_tsc(PointSet(points.data * flip), config(variant))
    assert_same_clustering(reference, result)


@settings(max_examples=20, deadline=None)
@given(
    seed=SEEDS,
    variant=VARIANTS,
    exponents=st.lists(st.integers(-300, 300), min_size=N, max_size=N),
)
def test_column_scaling(seed, variant, exponents):
    points = base_points(seed)
    scale = 10.0 ** np.array(exponents, dtype=float)
    reference = run_tsc(points, config(variant))
    result = run_tsc(PointSet(points.data * scale), config(variant))
    assert_same_clustering(reference, result)


@settings(max_examples=20, deadline=None)
@given(seed=SEEDS, variant=VARIANTS, rotation_seed=st.integers(0, 2**32 - 1))
def test_rotation(seed, variant, rotation_seed):
    points = base_points(seed)
    Q = haar_basis(24, 24, rotation_seed).basis
    reference = run_tsc(points, config(variant))
    result = run_tsc(PointSet(Q @ points.data), config(variant))
    assert_same_clustering(reference, result)
