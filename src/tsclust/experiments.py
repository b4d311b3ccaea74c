"""Seeded Monte Carlo experiment harness.

A JSON spec names a scenario and its parameter grid; every grid cell runs
``trials`` independent instances whose seeds derive from the master seed, and
one CSV row per cell reports the averaged metrics.  Trial execution is pure,
so results are identical whether trials run serially or in a process pool.

Each scenario is defined in one :class:`Scenario` record: its spec defaults,
its sweep axes, the columns of its CSV row, its trial and its parameter
check.  A cell fills its axis values into the spec, and the trial and the
check both read that filled spec, so ``grid``, ``noise-grid`` and
``huge-noise`` share one trial and one check.

Scenarios
---------
``intersect``   two subspaces sharing a ``t``-dimensional intersection,
                swept over ``t`` (cluster count estimated by default).
``grid``        L i.i.d. random subspaces (or the shared-intersection
                ensemble) swept over (d, n), with optional erasures/noise.
``noise-grid``  random subspaces under additive noise, swept over
                (sigma2, d, n).
``huge-noise``  low-dimensional subspaces in a large ambient dimension under
                heavy noise, swept over (sigma2, n); ``s``, ``ensemble`` and
                ``noise_first`` apply as in ``grid``.
``outliers``    inliers on random subspaces plus structure-free outliers,
                swept over the ambient dimension; scores the detection rule.
``mnist``       handwritten-digit clustering on an IDX dataset, swept over
                the per-digit sample size.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable

import numpy as np

from . import __version__
from .errors import ConfigError
from .geometry import PointSet, write_csv
from .ingest import load_idx, subsample_digits
from .metrics import clustering_error, el_error, feature_detection_error, outlier_confusion
from .numerics import derive_seed
from .outliers import detect_outliers, threshold_constant
from .synth import (
    haar_ensemble,
    intersecting_pair,
    shared_intersection_ensemble,
    union_of_subspaces,
)
from .tsc import WEIGHT_VARIANTS, TscConfig, default_q, run_tsc


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a scenario tag plus its resolved parameters.

    Unset fields take scenario defaults in :func:`load_spec`.  ``q = None``
    applies the per-cluster-size default rule cell by cell; ``max_L = None``
    caps the eigengap search at :data:`tsclust.tsc.DEFAULT_MAX_L`.  Each
    annotation, built from ``int``, ``float``, ``bool``, ``str``, ``None`` and
    ``tuple[T, ...]``, names the JSON values :func:`load_spec` admits.
    """

    scenario: str
    seed: int = 0
    trials: int = 20
    variant: str = "exp"
    L_known: bool | None = None
    q: int | None = None
    max_L: int | None = None
    m: int | None = None
    d: int | None = None
    L: int | None = None
    n: int | None = None
    t_values: tuple[int, ...] | None = None
    d_values: tuple[int, ...] | None = None
    n_values: tuple[int, ...] | None = None
    sigma2_values: tuple[float, ...] | None = None
    m_values: tuple[int, ...] | None = None
    sigma2: float = 0.0
    s: int = 0
    ensemble: str = "haar"
    noise_first: bool = True
    c: float | str | None = None
    outlier_factor: float = 1.0
    images: str | None = None
    labels: str | None = None
    digits: tuple[int, ...] = (2, 4, 8)
    center: bool = False


_FIELD_NAMES = {f.name for f in fields(ExperimentSpec)}

#: The values each scalar annotation of ``ExperimentSpec`` admits.
_SCALAR_TYPES = {
    "int": numbers.Integral, "float": numbers.Real, "bool": (bool, np.bool_),
    "str": str, "None": type(None),
}

#: The fields that must be >= 1 wherever they are set, swept or not.
_COUNTS = ("trials", "q", "max_L", "m", "d", "L", "n")


def _admits(kind: str, value) -> bool:
    """Whether the annotation ``kind`` admits ``value``: a list for
    ``tuple[T, ...]`` when every entry is a ``T``; a bool is no number."""
    if kind.startswith("tuple["):
        entry = kind.removeprefix("tuple[").removesuffix(", ...]")
        return isinstance(value, (list, tuple)) and all(_admits(entry, v) for v in value)
    is_bool = isinstance(value, (bool, np.bool_))
    return isinstance(value, _SCALAR_TYPES[kind]) and is_bool == (kind == "bool")


def _check_types(raw: dict) -> None:
    """Reject a spec field whose value its annotation does not admit."""
    for f in fields(ExperimentSpec):
        if f.name in raw and not any(_admits(k, raw[f.name]) for k in f.type.split(" | ")):
            raise ConfigError(f"{f.name} must be {f.type}, got {raw[f.name]!r}")


def load_spec(raw: dict) -> ExperimentSpec:
    """Build a validated spec from a JSON-style dict, applying scenario
    defaults to unset fields.

    Raises
    ------
    ConfigError
        On unknown keys, unknown scenarios, a field its annotation does not
        admit (``"3"`` or ``true`` for an integer, ``[5.7]`` for a list of
        integers), ``null`` for a field the scenario needs, a null or empty
        sweep axis, a count below 1, ``d > m``, or a cell the scenario cannot
        run (infeasible dimensions, a bad ``c``).
    """
    if not isinstance(raw, dict):
        raise ConfigError("experiment spec must be a JSON object")
    unknown = set(raw) - _FIELD_NAMES
    if unknown:
        raise ConfigError(f"unknown spec keys: {sorted(unknown)}")
    scenario = raw.get("scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    _check_types(raw)
    merged = dict(_SCENARIOS[scenario].defaults)
    merged.update({k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()})
    spec = ExperimentSpec(**merged)
    for name in _SCENARIOS[scenario].needs:
        if getattr(spec, name) is None:
            raise ConfigError(f"{name} must not be null in scenario {scenario!r}")
    if spec.scenario == "intersect" and "t_values" not in raw:
        spec = replace(spec, t_values=tuple(range(max(spec.d, 0) + 1)))
    _validate(spec)
    return spec


def load_spec_file(path) -> ExperimentSpec:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return load_spec(raw)


def _validate(spec: ExperimentSpec) -> None:
    if spec.variant not in WEIGHT_VARIANTS:
        choices = " or ".join(map(repr, WEIGHT_VARIANTS))
        raise ConfigError(f"variant must be {choices}, got {spec.variant!r}")
    for _, field, _ in _SCENARIOS[spec.scenario].axes:
        if not getattr(spec, field):
            raise ConfigError(f"{field} must list at least one value")
    for cell in _cells(spec):
        filled = _filled(spec, cell)
        for name in _COUNTS:
            value = getattr(filled, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if None not in (filled.d, filled.m) and filled.d > filled.m:
            raise ConfigError(f"d must be <= m, got d={filled.d}, m={filled.m}")
        if not (math.isfinite(filled.sigma2) and filled.sigma2 >= 0):
            raise ConfigError(f"sigma2 must be finite and >= 0, got {filled.sigma2}")
        _SCENARIOS[spec.scenario].check(filled, cell)


def _cells(spec: ExperimentSpec) -> list[dict]:
    axes = _SCENARIOS[spec.scenario].axes
    return [
        {column: kind(value) for (column, _, kind), value in zip(axes, values)}
        for values in itertools.product(*(getattr(spec, field) for _, field, _ in axes))
    ]


def _filled(spec: ExperimentSpec, cell: dict) -> ExperimentSpec:
    """The spec with each cell value in its scalar field (``t`` has none)."""
    return replace(spec, **{k: v for k, v in cell.items() if k in _FIELD_NAMES})


def _cell_q(spec: ExperimentSpec, groups: int) -> int:
    q = spec.q if spec.q is not None else default_q(spec.n, spec.L_known)
    if q >= groups * spec.n:
        raise ConfigError(f"q={q} exceeds N-1={groups * spec.n - 1} at n={spec.n}")
    return q


def _check_intersect(spec: ExperimentSpec, cell: dict) -> None:
    t = cell["t"]
    if not 0 <= t <= spec.d:
        raise ConfigError(f"t values must lie in [0, d], got {t}")
    if 2 * spec.d - t > spec.m:
        raise ConfigError(f"need 2d - t <= m, got t={t}")
    _cell_q(spec, 2)


def _check_grid(spec: ExperimentSpec, cell: dict) -> None:
    if spec.ensemble not in ("haar", "shared"):
        raise ConfigError(f"ensemble must be 'haar' or 'shared', got {spec.ensemble!r}")
    if spec.ensemble == "shared" and spec.d % 3 != 0:
        raise ConfigError(f"shared ensemble needs d divisible by 3, got {spec.d}")
    if not 0 <= spec.s < spec.m:
        raise ConfigError(f"need 0 <= s < m, got s={spec.s}")
    _cell_q(spec, spec.L)


def _check_outliers(spec: ExperimentSpec, cell: dict) -> None:
    if 2 * spec.m % spec.d != 0:
        raise ConfigError(f"2m must be divisible by d, got m={spec.m}, d={spec.d}")
    if not (math.isfinite(spec.outlier_factor) and spec.outlier_factor >= 0):
        raise ConfigError(f"outlier_factor must be finite and >= 0, got {spec.outlier_factor}")
    threshold_constant(spec.c, spec.sigma2 > 0)


def _check_mnist(spec: ExperimentSpec, cell: dict) -> None:
    if not spec.images or not spec.labels:
        raise ConfigError("mnist scenario needs 'images' and 'labels' paths")
    if not all(0 <= v <= 9 for v in spec.digits) or len(set(spec.digits)) < 2:
        raise ConfigError(f"digits must list two or more distinct digits 0-9, got {spec.digits}")
    _cell_q(spec, len(set(spec.digits)))


def _cluster_record(spec: ExperimentSpec, points: PointSet, L_true: int, seed: int) -> dict:
    """Cluster ``points`` as the spec says and score against their labels."""
    config = TscConfig(
        q=_cell_q(spec, L_true),
        weight_variant=spec.variant,
        num_subspaces=L_true if spec.L_known else None,
        max_L=spec.max_L,
        seed=derive_seed(seed, 3),
    )
    result = run_tsc(points, config)
    return {
        "ce": clustering_error(points.labels, result.labels),
        "el": el_error(L_true, result.L_hat),
        "fde": feature_detection_error(result.graph.A, points.labels),
        "l_hat": result.L_hat,
    }


def _trial_intersect(spec: ExperimentSpec, cell: dict, seed: int) -> dict:
    U1, U2 = intersecting_pair(spec.m, spec.d, cell["t"], derive_seed(seed, 1))
    gt = union_of_subspaces([U1, U2], spec.n, derive_seed(seed, 2))
    return _cluster_record(spec, gt.points, 2, seed)


def _trial_grid(spec: ExperimentSpec, cell: dict, seed: int) -> dict:
    """Shared by ``grid``, ``noise-grid`` and ``huge-noise``."""
    ensemble = shared_intersection_ensemble if spec.ensemble == "shared" else haar_ensemble
    gt = union_of_subspaces(
        ensemble(spec.m, spec.L, spec.d, derive_seed(seed, 1)),
        spec.n,
        derive_seed(seed, 2),
        sigma2=spec.sigma2,
        erasures=spec.s,
        noise_first=spec.noise_first,
    )
    return _cluster_record(spec, gt.points, spec.L, seed)


def _trial_outliers(spec: ExperimentSpec, cell: dict, seed: int) -> dict:
    L = 2 * spec.m // spec.d
    noisy = spec.sigma2 > 0
    gt = union_of_subspaces(
        haar_ensemble(spec.m, L, spec.d, derive_seed(seed, 1)),
        spec.n,
        derive_seed(seed, 2),
        sigma2=spec.sigma2,
        n_outliers=int(round(spec.outlier_factor * L * spec.n)),
        outlier_mode="gaussian" if noisy else "sphere",
        inlier_scale=1.0 / math.sqrt(1.0 + spec.sigma2) if noisy else 1.0,
    )
    report = detect_outliers(gt.points, threshold_constant(spec.c, noisy))
    err, fn, fp = outlier_confusion(report.flags, gt.outlier_mask)
    return {"outlier_err": err, "fn": fn, "fp": fp}


_IDX_CACHE: dict = {}


def _trial_mnist(spec: ExperimentSpec, cell: dict, seed: int) -> dict:
    key = (spec.images, spec.labels)
    if key not in _IDX_CACHE:
        _IDX_CACHE[key] = load_idx(*key)
    ds = _IDX_CACHE[key]
    points = subsample_digits(ds, spec.digits, spec.n, derive_seed(seed, 2), spec.center)
    return _cluster_record(spec, points, len(set(spec.digits)), seed)


_CLUSTER_SUMMARY = (
    ("fde_mean", "mean", "fde"),
    ("ce_mean", "mean", "ce"),
    ("ce_std", "std", "ce"),
    ("el_mean", "mean", "el"),
)


@dataclass(frozen=True)
class Scenario:
    """Everything that defines one scenario.

    ``axes`` are the sweeps as ``(CSV column, spec field, type)``, the first
    outermost.  A CSV row holds the axis values, the spec fields in
    ``copied`` and the ``summary`` of the cell's trial records as ``(CSV
    column, "mean" or "std", record key)``.  ``needs`` names the scalar
    fields the trial reads that no axis fills.  ``trial(spec, cell, seed)`` and
    ``check(spec, cell)`` get the spec with the cell filled in.  They reach
    the library through module globals, which a tracer may swap.
    """

    defaults: dict
    axes: tuple
    trial: Callable
    check: Callable
    needs: tuple = ()
    copied: tuple = ()
    summary: tuple = _CLUSTER_SUMMARY


_SCENARIOS = {
    "intersect": Scenario(
        defaults=dict(m=200, d=10, n=200, L=2, L_known=False),
        axes=(("t", "t_values", int),),
        trial=_trial_intersect,
        check=_check_intersect,
        needs=("m", "d", "n", "L_known"),
    ),
    "grid": Scenario(
        defaults=dict(m=50, L=10, L_known=False, d_values=(5, 10, 15), n_values=(50, 100, 200)),
        axes=(("d", "d_values", int), ("n", "n_values", int)),
        trial=_trial_grid,
        check=_check_grid,
        needs=("m", "L", "L_known"),
        copied=("s",),
    ),
    "noise-grid": Scenario(
        defaults=dict(
            m=50, L=10, L_known=True, d_values=(5,), n_values=(100,),
            sigma2_values=(0.0, 0.1, 0.2, 0.3),
        ),
        axes=(("sigma2", "sigma2_values", float), ("d", "d_values", int), ("n", "n_values", int)),
        trial=_trial_grid,
        check=_check_grid,
        needs=("m", "L", "L_known"),
    ),
    "huge-noise": Scenario(
        defaults=dict(m=400, L=5, d=5, L_known=True, n_values=(100,), sigma2_values=(0.5, 1.0)),
        axes=(("sigma2", "sigma2_values", float), ("n", "n_values", int)),
        trial=_trial_grid,
        check=_check_grid,
        needs=("m", "L", "d", "L_known"),
    ),
    "outliers": Scenario(
        defaults=dict(d=5, n=50, m_values=(50, 100, 200), L_known=True),
        axes=(("m", "m_values", int),),
        trial=_trial_outliers,
        check=_check_outliers,
        needs=("d", "n"),
        summary=(
            ("misclassification_error", "mean", "outlier_err"),
            ("misclassification_std", "std", "outlier_err"),
            ("fn_mean", "mean", "fn"),
            ("fp_mean", "mean", "fp"),
        ),
    ),
    "mnist": Scenario(
        defaults=dict(L_known=True, n_values=(100,)),
        axes=(("n", "n_values", int),),
        trial=_trial_mnist,
        check=_check_mnist,
        needs=("L_known",),
        summary=(("ce_mean", "mean", "ce"), ("ce_std", "std", "ce")),
    ),
}

SCENARIOS = tuple(_SCENARIOS)


def trial_seed(master_seed: int, cell_index: int, trial_index: int) -> int:
    """Per-trial seed: a sub-stream of the cell's sub-stream of the master."""
    return derive_seed(derive_seed(master_seed, cell_index), trial_index)


def _run_trial_task(args):
    spec, cell, seed = args
    start = time.perf_counter()
    record = _SCENARIOS[spec.scenario].trial(_filled(spec, cell), cell, seed)
    record["seconds"] = time.perf_counter() - start
    return record


@dataclass(frozen=True)
class ExperimentResult:
    """Aggregated rows plus per-trial records and the reproducibility manifest."""

    header: list[str]
    rows: list[list]
    trial_header: list[str]
    trial_rows: list[list]
    manifest: dict


def _summarize(how: str, values: list) -> float:
    if how == "mean":
        return float(np.mean(values))
    return float(np.std(values, ddof=1)) if len(values) > 1 else 0.0


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> ExperimentResult:
    """Execute every (cell, trial) instance and aggregate per cell.

    ``jobs > 1`` fans trials out to a pool of at most one process per trial;
    records are collected in task order, so the output is bit-identical to a
    serial run.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    scenario = _SCENARIOS[spec.scenario]
    cells = _cells(spec)
    tasks = [
        (spec, cell, trial_seed(spec.seed, ci, ti))
        for ci, cell in enumerate(cells)
        for ti in range(spec.trials)
    ]
    if jobs == 1 or len(tasks) == 1:
        records = [_run_trial_task(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            records = list(pool.map(_run_trial_task, tasks, chunksize=1))

    param_keys = [axis[0] for axis in scenario.axes]
    rows, trial_rows, manifest_cells = [], [], []
    for ci, cell in enumerate(cells):
        cell_records = records[ci * spec.trials:(ci + 1) * spec.trials]
        rows.append(
            [cell[k] for k in param_keys]
            + [getattr(spec, field) for field in scenario.copied]
            + [_summarize(how, [r[key] for r in cell_records]) for _, how, key in scenario.summary]
        )
        for ti, rec in enumerate(cell_records):
            trial_rows.append(
                [spec.scenario, ti, trial_seed(spec.seed, ci, ti)]
                + [rec.get(k) for k in ("ce", "el", "fde", "outlier_err")]
                + [cell[k] for k in param_keys]
            )
        manifest_cells.append(
            {
                "params": cell,
                "trial_seeds": [trial_seed(spec.seed, ci, ti) for ti in range(spec.trials)],
                "trial_seconds": [rec["seconds"] for rec in cell_records],
            }
        )
    manifest = {
        "artifact_version": __version__,
        "spec": {k: v for k, v in asdict(spec).items() if v is not None},
        "master_seed": spec.seed,
        "jobs": jobs,
        "cells": manifest_cells,
    }
    return ExperimentResult(
        header=param_keys + list(scenario.copied) + [c for c, _, _ in scenario.summary],
        rows=rows,
        trial_header=["scenario", "trial", "seed", "ce", "el", "fde", "outlier_err"] + param_keys,
        trial_rows=trial_rows,
        manifest=manifest,
    )
