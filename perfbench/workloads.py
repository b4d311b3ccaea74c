"""Benchmark workloads: seeded inputs, the op, and the check of its output.

An op is one ``run_tsc`` call for the ``tsc-*`` workloads and one experiment
trial for the ``exp-*`` workloads.  Inputs come from the benchmark seed
through ``tsclust.synth`` (or an experiment spec whose master seed is derived
from it); the program receives only the generated inputs.  Every op is
checked against ground truth with code of the benchmark's own.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from tsclust import experiments, geometry, metrics, numerics, outliers, synth, tsc

from spans import Tracer, public_functions

#: The stages ``run_tsc`` composes, in order; the traced ``tsc-*`` op calls
#: them one by one.
STAGES = (
    "geometry.normalize_columns",
    "tsc.select_neighbors",
    "tsc.compute_weights",
    "tsc.assemble_adjacency",
    "tsc.normalized_laplacian",
    "numerics.sym_eig",
    "tsc.estimate_L_eigengap",
    "numerics.kmeans",
)

#: Stages whose returned N x N arrays count towards ``tsc.dense_bytes``.
DENSE_STAGES = STAGES[1:6]

#: Functions whose results the check of an experiment trial reads, wrapped
#: in untraced runs too.
CAPTURED = ("synth.union_of_subspaces", "outliers.detect_outliers")

#: The program's scores, cross-checked against the benchmark's own.
SCORES = ("metrics.clustering_error", "metrics.feature_detection_error")

#: Functions whose time per op is a per-layer metric, named ``<function>.s``.
LAYER_TIMED = STAGES + ("outliers.detect_outliers",) + SCORES

#: Per-layer counts computed from what the stages return.
LAYER_COUNTS = (
    "tsc.graph_edges",
    "tsc.dense_bytes",
    "numerics.kmeans.iterations",
    "outliers.gram_gflop",
)

#: Columns per block when the benchmark computes the FDE of a dense adjacency.
FDE_BLOCK = 256


def sub_seed(*path: int) -> int:
    """A 32-bit seed drawn from the seed sequence ``path``."""
    return int(np.random.SeedSequence(list(path)).generate_state(1)[0])


def another(start: float, seconds: float, done: int) -> bool:
    """Whether one more op (or batch), as long as the average so far, still
    ends within ``seconds`` of ``start``; the first always runs."""
    elapsed = time.perf_counter() - start
    return done == 0 or elapsed * (done + 1) / done <= seconds


def traced_names() -> list[str]:
    """Every function a traced run wraps."""
    names = set(LAYER_TIMED) | set(CAPTURED) | set(public_functions("synth"))
    names.add("experiments.run_experiment")
    return sorted(names)


def clustering_error(truth: np.ndarray, labels: np.ndarray) -> float:
    """Share of points misclustered under the best one-to-one label matching."""
    _, ti = np.unique(truth, return_inverse=True)
    _, ei = np.unique(labels, return_inverse=True)
    confusion = np.zeros((ti.max() + 1, ei.max() + 1))
    np.add.at(confusion, (ti, ei), 1.0)
    rows, cols = linear_sum_assignment(confusion, maximize=True)
    return 1.0 - confusion[rows, cols].sum() / truth.size


def feature_detection_error(A, truth: np.ndarray) -> float:
    """One minus the mean share of each adjacency column's norm that stays
    within the point's true cluster (columns of norm <= 1e-14 give 0).

    A dense A is read one true cluster and column block at a time, a sparse
    one through its stored entries, so no N x N temporary is made."""
    N = truth.size
    if hasattr(A, "tocoo"):
        coo = A.tocoo(copy=True)
        coo.sum_duplicates()
        squares = coo.data**2
        same = truth[coo.row] == truth[coo.col]
        total = np.bincount(coo.col, squares, minlength=N)
        within = np.bincount(coo.col[same], squares[same], minlength=N)
    else:
        total = np.empty(N)
        within = np.empty(N)
        for label in np.unique(truth):
            rows = np.flatnonzero(truth == label)
            for start in range(0, rows.size, FDE_BLOCK):
                cols = rows[start:start + FDE_BLOCK]
                block = A[:, cols]
                inner = block[rows]
                total[cols] = np.einsum("ij,ij->j", block, block)
                within[cols] = np.einsum("ij,ij->j", inner, inner)
    total, within = np.sqrt(total), np.sqrt(within)
    ratios = np.divide(within, total, out=np.zeros(N), where=total > 1e-14)
    return 1.0 - ratios.mean()


def valid_labels(labels, L_hat: int, N: int) -> bool:
    """Labels are N integers that use every cluster id 1..L_hat."""
    labels = np.asarray(labels)
    return (
        labels.shape == (N,)
        and np.issubdtype(labels.dtype, np.integer)
        and 1 <= L_hat <= N
        and np.array_equal(np.unique(labels), np.arange(1, L_hat + 1))
    )


def _edge_count(A) -> int:
    nonzero = np.count_nonzero(A) if isinstance(A, np.ndarray) else A.count_nonzero()
    return int(nonzero - np.count_nonzero(A.diagonal())) // 2


def _square_arrays(value):
    values = [getattr(value, f.name) for f in fields(value)] if is_dataclass(value) else [value]
    for v in values:
        if isinstance(v, np.ndarray) and v.ndim == 2 and v.shape[0] == v.shape[1] > 1:
            yield v


def layer_counts(spans) -> dict[str, float]:
    """Totals of the computed per-layer counts over finished spans."""
    totals = dict.fromkeys(LAYER_COUNTS, 0.0)
    seen = set()
    for span in spans:
        if span.result is None:
            continue
        if span.name == "tsc.assemble_adjacency":
            totals["tsc.graph_edges"] += _edge_count(span.result.A)
        if span.name in DENSE_STAGES:
            for arr in _square_arrays(span.result):
                if id(arr) not in seen and arr.dtype == np.float64:
                    seen.add(id(arr))
                    totals["tsc.dense_bytes"] += arr.nbytes
        if span.name == "numerics.kmeans":
            totals["numerics.kmeans.iterations"] += span.result.iterations
        if span.name == "outliers.detect_outliers":
            m, N = span.args[0].data.shape
            totals["outliers.gram_gflop"] += 2.0 * m * N * N / 1e9
    return totals


@dataclass
class Stats:
    """What a run measured.  ``accuracy`` holds one minus the error of each
    op's output (clustering error, or outlier misclassification), failed ops
    at 0; ``l_hat_ok`` one flag per op that estimates the cluster count,
    failed ops counting as wrong.  ``problems`` lists outputs that failed
    their check and errors raised; any makes the run incorrect."""

    seconds: list[float] = field(default_factory=list)
    accuracy: list[float] = field(default_factory=list)
    l_hat_ok: list[bool] = field(default_factory=list)
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    busy_s: float = 0.0
    # Traced runs only: times of traced ops and of untraced ones, computed
    # counts, and the experiment harness's own time split.
    traced_s: list[float] = field(default_factory=list)
    reference_s: list[float] = field(default_factory=list)
    counts: dict = field(default_factory=lambda: dict.fromkeys(LAYER_COUNTS, 0.0))
    trial_s: float = 0.0
    experiment_s: float = 0.0

    def fail(self, seconds: float, estimates_L: bool, problem: str) -> None:
        self.failed += 1
        self.seconds.append(seconds)
        self.busy_s += seconds
        self.accuracy.append(0.0)
        if estimates_L:
            self.l_hat_ok.append(False)
        self.problems.append(problem)

    def add_counts(self, spans) -> None:
        for key, value in layer_counts(spans).items():
            self.counts[key] += value


@dataclass(frozen=True)
class TscWorkload:
    """``run_tsc`` on L Haar d-dim subspaces in R^m with n points each, q
    neighbors, the cluster count estimated, a fresh input per op."""

    name: str
    m: int
    d: int
    L: int
    n: int
    variant: str
    q: int

    def inputs(self, seed: int, index: int, n: int | None = None):
        op_seed = sub_seed(seed, index)
        bases = [synth.haar_basis(self.m, self.d, sub_seed(op_seed, l)) for l in range(self.L)]
        gt = synth.union_of_subspaces(bases, n or self.n, sub_seed(op_seed, self.L))
        return gt, tsc.TscConfig(q=self.q, weight_variant=self.variant, seed=op_seed)

    def setup(self, seed: int) -> None:
        self.inputs(seed, 0)

    def warm_up(self, seed: int) -> None:
        gt, config = self.inputs(seed, 1 << 30, n=20)
        tsc.run_tsc(gt.points, config)

    def measure(self, seed: int, seconds: float, traced: bool, tracer: Tracer) -> Stats:
        stats = Stats()
        start = time.perf_counter()
        index = 0
        while another(start, seconds, index):
            gt, config = self.inputs(seed, index)
            tracer.op = index
            index += 1
            t0 = time.perf_counter()
            try:
                if traced:
                    # Which twin runs first alternates with op and seed, so
                    # order effects cancel out of trace.overhead_s over runs.
                    staged_first = (seed + tracer.op) % 2 == 0
                    result, took = self._traced_op(gt, config, stats, tracer, staged_first)
                else:
                    result = tsc.run_tsc(gt.points, config)
                    took = time.perf_counter() - t0
            except Exception as exc:  # any error fails the op and the run
                stats.fail(time.perf_counter() - t0, True, f"{type(exc).__name__}: {exc}")
                continue
            self._check(stats, gt, result, took, tracer if traced else None)
            del result
        return stats

    def _check(self, stats: Stats, gt, result, took: float, tracer: Tracer | None) -> None:
        """Labels are valid, and their CE and L_hat are scored against the
        ground truth.  With a tracer (traced runs, which report no peak
        memory) the program's CE and FDE of this output, timed as layers,
        must also agree with the benchmark's own; the untraced run leaves
        them out so that its peak memory is that of ``run_tsc``."""
        truth = gt.points.labels
        if not valid_labels(result.labels, result.L_hat, truth.size):
            stats.fail(took, True, "invalid labels")
            return
        ce = clustering_error(truth, result.labels)
        if tracer is not None:
            fde = feature_detection_error(result.graph.A, truth)
            tracer.install(SCORES)
            try:
                agree = (
                    abs(metrics.clustering_error(truth, result.labels) - ce) <= 1e-12
                    and abs(metrics.feature_detection_error(result.graph.A, truth) - fde) <= 1e-9
                )
            finally:
                tracer.uninstall()
                tracer.release()
            if not agree:
                stats.fail(took, True, "the program's CE or FDE differs from the benchmark's")
                return
        stats.seconds.append(took)
        stats.busy_s += took
        stats.accuracy.append(1.0 - ce)
        stats.l_hat_ok.append(result.L_hat == self.L)

    def _traced_op(self, gt, config, stats: Stats, tracer: Tracer, staged_first: bool):
        """Compose the public stages under the tracer, and require an
        untraced ``run_tsc`` call on the same input, run before or after it,
        to give the same labels."""

        def staged():
            first = len(tracer.spans)
            tracer.install(STAGES)
            try:
                labels, L_hat = tracer.wrap("bench.staged_op", staged_pipeline)(gt.points, config)
            finally:
                tracer.uninstall()
                stats.add_counts(tracer.spans[first:])
                tracer.release()
            root = tracer.spans[first]
            stats.traced_s.append(root.end - root.start)
            return labels, L_hat

        if staged_first:
            labels, L_hat = staged()
        t0 = time.perf_counter()
        result = tsc.run_tsc(gt.points, config)
        reference_s = time.perf_counter() - t0
        if not staged_first:
            labels, L_hat = staged()
        stats.reference_s.append(reference_s)
        if not (np.array_equal(labels, result.labels) and L_hat == result.L_hat):
            stats.problems.append(f"op {tracer.op}: staged labels differ from run_tsc")
        return result, reference_s


def staged_pipeline(points, config) -> tuple[np.ndarray, int]:
    """``run_tsc`` composed from its public stages: labels and L_hat."""
    pts = geometry.normalize_columns(points)
    neighbors = tsc.select_neighbors(pts, config.q, normalize=True)
    Z = tsc.compute_weights(pts, neighbors, config.weight_variant, normalize=True)
    graph = tsc.assemble_adjacency(Z, neighbors)
    laplacian = tsc.normalized_laplacian(graph.A)
    decomposition = numerics.sym_eig(laplacian)
    L_hat, _ = tsc.estimate_L_eigengap(decomposition.eigenvalues, config.max_L)
    embedding = decomposition.eigenvectors[:, :L_hat].copy()
    # Row normalization as run_tsc does it.
    norms = np.linalg.norm(embedding, axis=1)
    keep = norms > tsc.ROW_NORM_TOL
    embedding[keep] /= norms[keep, None]
    embedding[~keep] = 0.0
    result = numerics.kmeans(
        embedding, L_hat, seed=config.seed,
        restarts=config.kmeans_restarts, max_iter=config.kmeans_max_iter,
    )
    return result.labels, L_hat


@dataclass(frozen=True)
class OutlierExpWorkload:
    """Trials of an outlier-detection experiment spec.

    A batch is one ``run_experiment`` call with one trial per grid cell and
    a master seed derived from the benchmark seed, so every batch covers the
    whole grid in the same proportions.
    """

    name: str
    spec: dict

    def batch_spec(self, seed: int, index: int):
        return experiments.load_spec(dict(self.spec, trials=1, seed=sub_seed(seed, index)))

    def setup(self, seed: int) -> None:
        self.batch_spec(seed, 0)

    def warm_up(self, seed: int) -> None:
        experiments.run_experiment(self.batch_spec(seed, 1 << 30))

    def measure(self, seed: int, seconds: float, traced: bool, tracer: Tracer) -> Stats:
        stats = Stats()
        capture = Tracer()
        start = time.perf_counter()
        index = 0
        while another(start, seconds, index):
            spec = self.batch_spec(seed, index)
            # A traced run alternates traced and untraced batches; their
            # difference is the tracing overhead.
            trace_this = traced and index % 2 == 0
            active = tracer if trace_this else capture
            active.op = index
            index += 1
            first = len(active.spans)
            active.install(traced_names() if trace_this else CAPTURED)
            t0 = time.perf_counter()
            try:
                result = experiments.run_experiment(spec)
            except Exception as exc:  # the batch counts as one failed op
                result = None
                stats.fail(time.perf_counter() - t0, False, f"{type(exc).__name__}: {exc}")
            finally:
                wall = time.perf_counter() - t0
                active.uninstall()
            if result is not None:
                spans = active.spans[first:]
                trial_s = [s for cell in result.manifest["cells"] for s in cell["trial_seconds"]]
                stats.busy_s += wall - sum(trial_s)  # the trials add their own time
                self._check(stats, active, spans, result, trial_s)
                if trace_this:
                    stats.traced_s.extend(trial_s)
                    stats.trial_s += sum(trial_s)
                    stats.experiment_s += wall
                    stats.add_counts(spans)
                elif traced:
                    stats.reference_s.extend(trial_s)
            active.release()
            capture.spans.clear()
        return stats

    @staticmethod
    def _check(stats: Stats, tracer: Tracer, spans, result, trial_s) -> None:
        """Recheck each trial's flags against its captured ground truth, and
        require the error the harness recorded to match."""
        rows = [dict(zip(result.trial_header, row)) for row in result.trial_rows]
        truths = [s.result for s in tracer.outermost("synth.union_of_subspaces", spans)]
        reports = [s.result for s in tracer.outermost("outliers.detect_outliers", spans)]
        if not len(truths) == len(reports) == len(rows) == len(trial_s):
            for took in trial_s:
                stats.fail(took, False, "captured calls do not match the trial records")
            return
        for record, gt, report, took in zip(rows, truths, reports, trial_s):
            ok, accuracy = _check_outliers(record, gt, report)
            if not ok:
                stats.fail(took, False, f"trial seed {record['seed']}: output fails its check")
                continue
            stats.seconds.append(took)
            stats.busy_s += took
            stats.accuracy.append(accuracy)


def _check_outliers(record: dict, gt, report, probes: int = 8) -> tuple[bool, float]:
    """Flags follow the noiseless threshold rule (the spec has no noise and
    no ``c``), a few scores recomputed directly agree, and the recorded error
    matches the flags against ``outlier_mask``."""
    X = gt.points.data
    m, N = X.shape
    threshold = outliers.NOISELESS_C * math.sqrt(math.log(N)) / math.sqrt(m)
    ok = (
        report.scores.shape == (N,)
        and math.isclose(report.threshold, threshold, rel_tol=1e-12)
        and np.array_equal(report.flags, report.scores < report.threshold)
    )
    for j in np.linspace(0, N - 1, probes).astype(int):
        corr = np.abs(X.T @ X[:, j])
        corr[j] = -np.inf
        ok = ok and math.isclose(report.scores[j], corr.max(), rel_tol=1e-9, abs_tol=1e-12)
    error = float(np.mean(report.flags != gt.outlier_mask))
    return ok and abs(error - record["outlier_err"]) <= 1e-12, 1.0 - error


WORKLOADS = {
    w.name: w
    for w in (
        TscWorkload("tsc-exp-n4000", m=200, d=5, L=5, n=800, variant="exp", q=15),
        OutlierExpWorkload("exp-outliers", {"scenario": "outliers", "n": 50}),
    )
}
