"""Seeded benchmark of tsclust, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from ``src/`` of the current directory; without it
the benchmark exits with status 2 and prints no result.  BLAS and OpenMP are
pinned to one thread and the run is a single process (set-up probes run one
at a time), so it starts no more threads or processes than ``nproc``.

An untraced run times set-up (median of five fresh interpreters that
import tsclust and build the first op's input), warms up on a small input,
then runs ops in a closed loop, one client, one op after another, for as
long as the next one, taking the average so far, still ends within
``--seconds``; it checks every output and prints the end-to-end metrics.  A
traced run (``--trace 1``) prints the per-layer metrics from spans held in
memory around calls into the program's public functions.

The workloads, ``tsc-exp-n4000`` and ``exp-outliers``, are described in
``BENCHMARK.json``, which says why each exists.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it,
starting with ``#``, record the environment and every metric with its unit.

Quality metrics are reported as shares that are right (``ok_frac``,
``accuracy_mean``, ``l_hat_ok_frac``) so that they are never zero; the
error forms (``failed_frac``, ``ce_mean``, ``l_hat_err_frac``,
``outlier_err_mean``) are printed on the ``#`` lines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "ops_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "ok_frac": "fraction",
    "accuracy_mean": "fraction",
    "l_hat_ok_frac": "fraction",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and that
    percentile; the maximum when that percentile would fall below the median
    (fewer than 20 samples)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    status = Path("/proc/self/status")
    if status.exists():
        for line in status.read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "process_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def setup_seconds(args) -> float:
    """Median set-up time over fresh interpreters, run one at a time."""
    probe = [sys.executable, __file__, "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(probe, capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def end_to_end(stats, setup_s: float) -> dict[str, float]:
    attempted = len(stats.seconds)
    ok = attempted - stats.failed
    return {
        "setup_s": setup_s,
        "op_s_p50": statistics.median(stats.seconds),
        "op_s_tail": tail(stats.seconds)[0],
        "ops_per_s": ok / stats.busy_s if stats.busy_s > 0 else 0.0,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": ok / attempted,
        "accuracy_mean": statistics.fmean(stats.accuracy),
        # Ops that estimate no cluster count (outlier trials) count as right.
        "l_hat_ok_frac": statistics.fmean(stats.l_hat_ok) if stats.l_hat_ok else 1.0,
    }


def per_layer(stats, tracer, workloads) -> dict[str, tuple[float, str]]:
    ops = max(len(stats.traced_s), 1)
    out = {f"{name}.s": (tracer.seconds(name) / ops, "s/op") for name in workloads.LAYER_TIMED}
    out["synth.s"] = (tracer.seconds(workloads.public_functions("synth")) / ops, "s/op")
    out["experiments.trial_s"] = (stats.trial_s / ops, "s/op")
    out["experiments.overhead_s"] = ((stats.experiment_s - stats.trial_s) / ops, "s/op")
    units = {"tsc.dense_bytes": "bytes/op", "outliers.gram_gflop": "GFLOP/op"}
    for name, total in stats.counts.items():
        out[name] = (total / ops, units.get(name, "count/op"))
    overhead = 0.0
    if stats.traced_s and stats.reference_s:
        overhead = statistics.median(stats.traced_s) - statistics.median(stats.reference_s)
    out["trace.overhead_s"] = (overhead, "s/op")
    return out


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = Path.cwd() / "src"
    if not (src / "tsclust" / "__init__.py").is_file():
        print(f"error: no tsclust sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        workload.setup(args.seed)
        print(time.perf_counter() - started)
        return 0

    setup_s = None if args.trace else setup_seconds(args)
    workload.warm_up(args.seed)
    tracer = Tracer()
    stats = workload.measure(args.seed, args.seconds, bool(args.trace), tracer)

    attempted = len(stats.seconds)
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops, {stats.failed} failed, closed loop, one client")
    for problem in stats.problems[:20]:
        print(f"# problem: {problem}")
    if args.trace:
        values = per_layer(stats, tracer, workloads)
    else:
        values = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(stats, setup_s).items()}
        tail_pct = tail(stats.seconds)[1]
        print(f"# op_s_tail is p{tail_pct:.1f} of {attempted} ops")
        error_forms = {"failed_frac": 1.0 - values["ok_frac"][0]}
        if stats.l_hat_ok:
            error_forms["ce_mean"] = 1.0 - values["accuracy_mean"][0]
            error_forms["l_hat_err_frac"] = 1.0 - values["l_hat_ok_frac"][0]
        else:
            error_forms["outlier_err_mean"] = 1.0 - values["accuracy_mean"][0]
        for name, value in error_forms.items():
            print(f"# {name} = {value:.6g} fraction")
    for name, (value, unit) in values.items():
        label = " (computed)" if name in workloads.LAYER_COUNTS else ""
        print(f"# {name} = {value:.6g} {unit}{label}")
    result = {
        "correct": not stats.problems,
        "attempted": attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
