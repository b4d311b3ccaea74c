"""Command-line entry point.

Subcommands: ``cluster`` (run the pipeline on a point CSV), ``experiment``
(execute a JSON experiment spec), ``outliers`` (score and flag a point CSV),
``gen`` (emit a synthetic labeled data set), and ``mnist-sv`` (per-digit
singular-value profiles of an IDX dataset).

Exit codes: 1 for I/O and file-format failures, 2 for configuration errors,
3 for numeric failures.  The ``TSC_SEED`` environment variable overrides the
seed of any command that takes one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, IdxFormatError, NonFinite, TscError
from .experiments import format_cell, load_spec_file, run_experiment, write_csv
from .geometry import PointSet
from .ingest import load_idx, remove_top_principal_components, singular_value_profile
from .numerics import derive_seed
from .outliers import detect_outliers, threshold_constant
from .synth import haar_ensemble, intersecting_pair, shared_intersection_ensemble, union_of_subspaces
from .tsc import ClusterResult, TscConfig, run_tsc


def _env_seed(seed: int) -> int:
    raw = os.environ.get("TSC_SEED")
    if raw is None:
        return seed
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"TSC_SEED must be an integer, got {raw!r}") from None


def _parse_L(value: str):
    if value == "estimate":
        return None
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"--L must be an integer or 'estimate', got {value!r}") from None


def _result_json(result: ClusterResult, config: TscConfig) -> dict:
    doc = result.to_json_dict()
    doc["q"] = config.q
    doc["weight_variant"] = config.weight_variant
    doc["seed"] = config.seed
    doc["artifact_version"] = __version__
    return doc


def _cmd_cluster(args) -> int:
    points = PointSet.from_csv(args.input)
    if args.remove_top_k:
        points = PointSet(
            remove_top_principal_components(points.data, args.remove_top_k), points.labels
        )
    config = TscConfig(
        q=args.q,
        weight_variant=args.variant,
        num_subspaces=_parse_L(args.L),
        max_L=args.max_L,
        seed=_env_seed(args.seed),
        kmeans_restarts=args.restarts,
        kmeans_max_iter=args.max_iter,
        correlation_normalize=not args.no_normalize,
    )
    result = run_tsc(points, config)
    stem = str(Path(args.input).with_suffix(""))
    labels_path = args.out_labels or stem + ".labels.csv"
    json_path = args.out_json or stem + ".result.json"
    result.labels_to_csv(labels_path)
    with open(json_path, "w") as fh:
        json.dump(_result_json(result, config), fh, indent=2)
        fh.write("\n")
    if args.out_edges:
        result.graph.edges_to_csv(args.out_edges)
    print(f"clustered {points.N} points into {result.L_hat} groups -> {labels_path}")
    return 0


def _cmd_experiment(args) -> int:
    spec = load_spec_file(args.spec)
    if os.environ.get("TSC_SEED") is not None:
        spec = replace(spec, seed=_env_seed(spec.seed))
    result = run_experiment(spec, jobs=args.jobs)
    write_csv(args.out, result.header, result.rows)
    manifest_path = args.manifest or args.out + ".manifest.json"
    with open(manifest_path, "w") as fh:
        json.dump(result.manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if args.per_trial:
        write_csv(args.per_trial, result.trial_header, result.trial_rows)
    print(f"{spec.scenario}: {len(result.rows)} cells x {spec.trials} trials -> {args.out}")
    return 0


def _cmd_outliers(args) -> int:
    points = PointSet.from_csv(args.input)
    report = detect_outliers(points, threshold_constant(args.c))
    out = args.out or str(Path(args.input).with_suffix("")) + ".outliers.csv"
    report.to_csv(out)
    print(
        f"flagged {int(report.flags.sum())}/{points.N} points "
        f"(threshold {format_cell(report.threshold)}) -> {out}"
    )
    return 0


def _cmd_gen(args) -> int:
    seed = _env_seed(args.seed)
    if args.t is not None:
        bases = list(intersecting_pair(args.m, args.d, args.t, derive_seed(seed, 1)))
    else:
        ensemble = shared_intersection_ensemble if args.shared else haar_ensemble
        bases = ensemble(args.m, args.L, args.d, derive_seed(seed, 1))
    inlier_scale = 1.0
    if args.inlier_scale == "auto":
        if args.sigma2 > 0:
            inlier_scale = 1.0 / math.sqrt(1.0 + args.sigma2)
    else:
        inlier_scale = float(args.inlier_scale)
    gt = union_of_subspaces(
        bases,
        args.n,
        derive_seed(seed, 2),
        sigma2=args.sigma2,
        erasures=args.s,
        n_outliers=args.outliers,
        outlier_mode=args.outlier_mode,
        inlier_scale=inlier_scale,
        noise_first=not args.erase_before_noise,
        params={
            "m": args.m,
            "d": args.d,
            "L": len(bases),
            "n": args.n,
            "t": args.t,
            "shared": bool(args.shared),
            "sigma2": args.sigma2,
            "s": args.s,
            "outliers": args.outliers,
            "outlier_mode": args.outlier_mode,
            "inlier_scale": inlier_scale,
            "master_seed": seed,
            "artifact_version": __version__,
        },
    )
    gt.save(args.out)
    print(f"wrote {gt.points.N} points in R^{gt.points.m} -> {args.out}.csv")
    return 0


def _cmd_mnist_sv(args) -> int:
    ds = load_idx(args.images, args.labels)
    digits = (
        list(range(10))
        if args.digits == "all"
        else sorted({int(v) for v in args.digits.split(",")})
    )
    rows = []
    for digit in digits:
        block = ds.images[:, ds.digit_labels == digit]
        if block.shape[1] == 0:
            continue
        if args.center:
            block = block - block.mean(axis=1, keepdims=True)
        if args.remove_top_k:
            block = remove_top_principal_components(block, args.remove_top_k)
        for i, value in enumerate(singular_value_profile(block)):
            rows.append([digit, i, float(value)])
    write_csv(args.out, ["digit", "index", "singular_value"], rows)
    print(f"singular values of {len(digits)} digit classes -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsclust",
        description="Subspace clustering by correlation thresholding.",
    )
    parser.add_argument("--version", action="version", version=f"tsclust {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="cluster a point CSV")
    p.add_argument("input", help="CSV with header x1,...,xm[,label], one point per row")
    p.add_argument("--q", type=int, required=True, help="neighbor count")
    p.add_argument("--variant", choices=("exp", "ls"), default="exp")
    p.add_argument("--L", default="estimate", help="cluster count, or 'estimate'")
    p.add_argument("--max-L", type=int, default=None, help="cap for the eigengap search")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--no-normalize", action="store_true", help="use raw inner products")
    p.add_argument("--remove-top-k", type=int, default=0, metavar="K",
                   help="remove the top-K principal components before clustering")
    p.add_argument("--out-labels", default=None)
    p.add_argument("--out-json", default=None)
    p.add_argument("--out-edges", default=None, help="also write the adjacency edge list")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("experiment", help="run a JSON experiment spec")
    p.add_argument("spec", help="experiment spec (JSON)")
    p.add_argument("--out", required=True, help="results CSV (one row per cell)")
    p.add_argument("--jobs", type=int, default=1, help="parallel trial workers")
    p.add_argument("--manifest", default=None, help="manifest path (default: <out>.manifest.json)")
    p.add_argument("--per-trial", default=None, help="also write one CSV row per trial")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("outliers", help="flag outliers in a point CSV")
    p.add_argument("input")
    p.add_argument("--c", default="noiseless", help="'noiseless', 'noisy', or a number")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_outliers)

    p = sub.add_parser("gen", help="emit a synthetic labeled data set")
    p.add_argument("--out", required=True, help="output prefix (writes PREFIX.csv, PREFIX.json)")
    p.add_argument("--m", type=int, required=True, help="ambient dimension")
    p.add_argument("--d", type=int, required=True, help="subspace dimension")
    p.add_argument("--L", type=int, default=2, help="number of subspaces")
    p.add_argument("--n", type=int, default=100, help="points per subspace")
    p.add_argument("--t", type=int, default=None,
                   help="intersection dimension (two-subspace construction)")
    p.add_argument("--shared", action="store_true",
                   help="shared-intersection ensemble (d/3 common dimensions)")
    p.add_argument("--sigma2", type=float, default=0.0, help="noise variance")
    p.add_argument("--s", type=int, default=0, help="erased entries per point")
    p.add_argument("--outliers", type=int, default=0, help="outlier count")
    p.add_argument("--outlier-mode", choices=("sphere", "gaussian"), default="sphere")
    p.add_argument("--inlier-scale", default="auto",
                   help="inlier scale factor; 'auto' = 1/sqrt(1+sigma2) when noisy")
    p.add_argument("--erase-before-noise", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("mnist-sv", help="per-digit singular-value profiles")
    p.add_argument("--images", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--digits", default="all", help="comma-separated digits, or 'all'")
    p.add_argument("--center", action="store_true", help="subtract the class mean image")
    p.add_argument("--remove-top-k", type=int, default=0, metavar="K")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mnist_sv)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, IdxFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NonFinite, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except (TscError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
