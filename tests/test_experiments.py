import json
import re
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from tsclust import experiments
from tsclust.errors import ConfigError
from tsclust.experiments import (
    ExperimentSpec,
    load_spec,
    load_spec_file,
    run_experiment,
    trial_seed,
)
from tsclust.geometry import format_cell

from test_ingest import synthetic_dataset


def small_intersect_spec(**overrides):
    raw = {
        "scenario": "intersect",
        "m": 40,
        "d": 5,
        "n": 40,
        "t_values": [0, 5],
        "trials": 3,
        "seed": 42,
        "L_known": True,
    }
    raw.update(overrides)
    return load_spec(raw)


class TestLoadSpec:
    def test_scenario_defaults(self):
        spec = load_spec({"scenario": "intersect"})
        assert spec.m == 200 and spec.d == 10 and spec.n == 200
        assert spec.t_values == tuple(range(11))
        assert spec.L_known is False

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            load_spec({"scenario": "intersect", "bananas": 3})

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError):
            load_spec({"scenario": "magic"})

    def test_dimension_validation(self):
        with pytest.raises(ConfigError):
            load_spec({"scenario": "intersect", "m": 10, "d": 8, "t_values": [0]})
        with pytest.raises(ConfigError):
            load_spec({"scenario": "grid", "ensemble": "shared", "d_values": [5]})
        with pytest.raises(ConfigError):
            load_spec({"scenario": "outliers", "d": 7, "m_values": [50]})
        with pytest.raises(ConfigError):
            load_spec({"scenario": "outliers", "d": 0})
        with pytest.raises(ConfigError):
            load_spec({"scenario": "mnist"})

    def test_q_at_least_cell_point_count_rejected(self):
        # The n=5 cell of L=10 has 50 points; every clustering scenario counts
        # its own: 2n for intersect, L*n for grid, (digits)*n for mnist.
        with pytest.raises(ConfigError, match="q=60 exceeds N-1=49"):
            load_spec({"scenario": "grid", "q": 60, "trials": 2, "d_values": [5],
                       "n_values": [50, 5]})
        assert load_spec({"scenario": "grid", "q": 49, "d_values": [5], "n_values": [5]}).q == 49
        with pytest.raises(ConfigError, match="q=20 exceeds N-1=19"):
            load_spec({"scenario": "intersect", "q": 20, "n": 10, "t_values": [0]})
        with pytest.raises(ConfigError, match="q=6 exceeds N-1=5"):
            load_spec({"scenario": "intersect", "n": 3, "t_values": [0]})  # default q
        with pytest.raises(ConfigError, match="q=8 exceeds N-1=5"):
            load_spec({"scenario": "mnist", "images": "i", "labels": "l", "digits": [2, 8, 8],
                       "q": 8, "n_values": [3]})
        with pytest.raises(ConfigError, match="^q has no effect in scenario 'outliers'"):
            load_spec({"scenario": "outliers", "q": 10**6})

    @pytest.mark.parametrize("raw", [[], "grid", None], ids=["list", "string", "null"])
    def test_non_object_spec_rejected(self, raw):
        with pytest.raises(ConfigError, match="^experiment spec must be a JSON object"):
            load_spec(raw)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError, match="^variant must be 'exp' or 'ls'"):
            load_spec({"scenario": "grid", "variant": "lasso"})

    @pytest.mark.parametrize("t", [-1, 6])
    def test_t_outside_zero_to_d_rejected(self, t):
        with pytest.raises(ConfigError, match=r"^t values must lie in \[0, d\]"):
            small_intersect_spec(t_values=[t])

    def test_trials_validation(self):
        with pytest.raises(ConfigError):
            small_intersect_spec(trials=0)

    @pytest.mark.parametrize(
        "value", [[], None, 5, [None], ["five"]],
        ids=["empty", "null", "scalar", "null-entry", "text-entry"],
    )
    def test_bad_sweep_axis_rejected(self, value):
        with pytest.raises(ConfigError):
            load_spec({"scenario": "grid", "d_values": value})

    @pytest.mark.parametrize(
        "scenario, field, value",
        [
            ("grid", "trials", "3"),
            ("grid", "seed", True),
            ("grid", "m", 50.0),
            ("outliers", "n", "50"),
            ("intersect", "q", "5"),
            ("grid", "sigma2", "0.5"),
            ("outliers", "outlier_factor", True),
            ("grid", "L_known", "no"),
            ("grid", "noise_first", 0),
            ("mnist", "center", "yes"),
            ("mnist", "images", 5),
            ("outliers", "c", True),
        ],
    )
    def test_mistyped_scalar_rejected(self, scenario, field, value):
        raw = {"scenario": scenario}
        if scenario == "mnist":
            raw.update(images="i.idx", labels="l.idx")
        raw[field] = value
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            load_spec(raw)

    @pytest.mark.parametrize(
        "raw",
        [
            {"scenario": "grid", "sigma2": float("nan")},
            {"scenario": "outliers", "sigma2": float("inf")},
            {"scenario": "noise-grid", "sigma2_values": [0.1, float("nan")]},
            {"scenario": "huge-noise", "sigma2_values": [float("inf")]},
            {"scenario": "grid", "sigma2": -0.1},
        ],
        ids=["nan", "inf", "nan-axis", "inf-axis", "negative"],
    )
    def test_bad_sigma2_rejected(self, raw):
        with pytest.raises(ConfigError, match="^sigma2 must be finite and >= 0"):
            load_spec(raw)

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"scenario": "outliers", "n": 0}, "n must be >= 1"),
            ({"scenario": "outliers", "n": -2}, "n must be >= 1"),
            ({"scenario": "intersect", "n": 0, "q": 5, "t_values": [0]}, "n must be >= 1"),
            ({"scenario": "grid", "q": 3, "n_values": [50, 0]}, "n must be >= 1"),
            ({"scenario": "mnist", "images": "i", "labels": "l", "q": 3, "n_values": [-1]},
             "n must be >= 1"),
            ({"scenario": "outliers", "outlier_factor": -1}, "outlier_factor must be finite and >= 0"),
            ({"scenario": "outliers", "outlier_factor": float("nan")},
             "outlier_factor must be finite and >= 0"),
            ({"scenario": "outliers", "outlier_factor": float("inf")},
             "outlier_factor must be finite and >= 0"),
        ],
        ids=["zero-n", "negative-n", "intersect-zero-n", "zero-n-axis", "mnist-negative-n",
             "negative-factor", "nan-factor", "inf-factor"],
    )
    def test_bad_n_or_outlier_factor_rejected(self, raw, message):
        with pytest.raises(ConfigError, match=f"^{message}"):
            load_spec(raw)

    @pytest.mark.parametrize(
        "digits",
        [[2, 2.5], [2, "a"], [2, True], [2, 10], [-1, 2], [2, 2], [2]],
        ids=["fraction", "text", "bool", "ten", "negative", "one-distinct", "one"],
    )
    def test_bad_digits_rejected(self, digits):
        with pytest.raises(ConfigError, match="^digits must"):
            load_spec({"scenario": "mnist", "images": "i", "labels": "l", "digits": digits})

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"scenario": "grid", "q": 3, "d_values": [5.7], "n_values": [20.9, True]},
             "d_values must be"),
            ({"scenario": "grid", "d_values": ["5"]}, "d_values must be"),
            ({"scenario": "grid", "d_values": "15"}, "d_values must be"),
            ({"scenario": "noise-grid", "sigma2_values": [True]}, "sigma2_values must be"),
            ({"scenario": "outliers", "m_values": "100"}, "m_values must be"),
            ({"scenario": "grid", "L": 0}, "L must be >= 1"),
            ({"scenario": "grid", "m": 0}, "m must be >= 1"),
            ({"scenario": "grid", "max_L": 0}, "max_L must be >= 1"),
            ({"scenario": "intersect", "d": 0}, "d must be >= 1"),
            ({"scenario": "huge-noise", "d": 0}, "d must be >= 1"),
            ({"scenario": "grid", "d_values": [0]}, "d must be >= 1"),
            ({"scenario": "intersect", "d": -1}, "d must be >= 1"),
            ({"scenario": "outliers", "d": 10, "m_values": [50, 5]}, "d must be <= m"),
            ({"scenario": "noise-grid", "sigma2_values": None}, "sigma2_values must list"),
            ({"scenario": "intersect", "t_values": None}, "t_values must list"),
        ],
        ids=["fraction-and-bool-entries", "text-entry", "string-axis", "bool-sigma2-entry",
             "string-m-axis", "zero-L", "zero-m", "zero-max-L", "intersect-zero-d",
             "huge-noise-zero-d", "zero-d-axis", "intersect-negative-d", "d-above-m-axis",
             "null-axis", "intersect-null-axis"],
    )
    def test_bad_sweep_or_count_rejected(self, raw, message):
        with pytest.raises(ConfigError, match=f"^{message}"):
            load_spec(raw)

    def test_integer_sigma2_entry_is_a_float_cell(self):
        spec = load_spec({"scenario": "noise-grid", "sigma2_values": [0, 0.1]})
        first = experiments._cells(spec)[0]["sigma2"]
        assert first == 0.0 and type(first) is float
        assert spec.sigma2_values == (0, 0.1)

    @pytest.mark.parametrize(
        "raw",
        [
            {"scenario": "grid", "sigma2": 0},
            {"scenario": "outliers", "outlier_factor": 2, "sigma2": 0.1},
            {"scenario": "grid", "q": None, "max_L": None},
            {"scenario": "grid", "L_known": True, "noise_first": False, "s": 0},
        ],
        ids=["int-sigma2", "int-factor", "nulls", "bools"],
    )
    def test_well_typed_scalars_load(self, raw):
        spec = load_spec(raw)
        assert all(getattr(spec, k) == v for k, v in raw.items())

    @pytest.mark.parametrize(
        "scenario, field",
        [("grid", "m"), ("intersect", "d"), ("outliers", "n"), ("noise-grid", "L")]
        + [(s, "L_known") for s in ("intersect", "grid", "noise-grid", "huge-noise", "mnist")]
        + [("intersect", "L"), ("outliers", "L_known")],
    )
    def test_null_for_needed_field_rejected(self, scenario, field):
        with pytest.raises(ConfigError, match=f"^{field} must not be null"):
            load_spec({"scenario": scenario, field: None})

    @pytest.mark.parametrize(
        "scenario, field, value",
        [
            ("intersect", "sigma2", 0.3),
            ("intersect", "s", 2),
            ("intersect", "ensemble", "shared"),
            ("intersect", "noise_first", False),
            ("intersect", "L", 5),
            ("outliers", "q", 10**6),
            ("outliers", "L", 3),
            ("outliers", "variant", "ls"),
            ("outliers", "max_L", 4),
            ("outliers", "s", 1),
            ("outliers", "L_known", False),
            ("grid", "d", 7),
            ("grid", "n", 30),
            ("grid", "c", 1.5),
            ("noise-grid", "sigma2", 0.5),
            ("huge-noise", "sigma2", 0.5),
            ("huge-noise", "t_values", [0, 1]),
            ("mnist", "L", 3),
            ("mnist", "m", 784),
            ("mnist", "sigma2", 0.1),
        ],
    )
    def test_field_the_scenario_does_not_read_rejected(self, scenario, field, value):
        raw = {"scenario": scenario, field: value}
        if scenario == "mnist":
            raw.update(images="i.idx", labels="l.idx")
        with pytest.raises(ConfigError, match=f"^{field} has no effect in scenario '{scenario}'"):
            load_spec(raw)

    def test_unread_field_at_its_unset_value_loads(self):
        raw = {"scenario": "outliers", "n": 50, "trials": 1, "seed": 7, "q": None,
               "variant": "exp", "s": 0, "noise_first": True, "digits": [2, 4, 8]}
        spec = load_spec(raw)
        assert spec == load_spec({"scenario": "outliers", "n": 50, "trials": 1, "seed": 7})

    def test_huge_noise_checks_grid_fields(self):
        with pytest.raises(ConfigError):
            load_spec({"scenario": "huge-noise", "ensemble": "bogus", "s": 3})
        with pytest.raises(ConfigError):
            load_spec({"scenario": "huge-noise", "m": 30, "s": 30})
        with pytest.raises(ConfigError):
            load_spec({"scenario": "huge-noise", "ensemble": "shared", "d": 5})


    def test_invalid_json_file_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"scenario": "grid",')
        with pytest.raises(ConfigError, match="^" + re.escape(f"{path}: invalid JSON")):
            load_spec_file(path)

class TestRunExperiment:
    def test_intersect_rows(self):
        spec = small_intersect_spec()
        result = run_experiment(spec)
        assert result.header == ["t", "fde_mean", "ce_mean", "ce_std", "el_mean"]
        assert len(result.rows) == 2
        t0, t5 = result.rows
        assert t0[0] == 0 and t5[0] == 5
        # Orthogonal pair clusters perfectly; identical subspaces cannot.
        assert t0[2] == 0.0
        assert t5[2] >= 0.3

    def test_deterministic_and_jobs_invariant(self):
        spec = small_intersect_spec()
        serial = run_experiment(spec, jobs=1)
        again = run_experiment(spec, jobs=1)
        parallel = run_experiment(spec, jobs=2)
        assert serial.rows == again.rows == parallel.rows
        assert serial.trial_rows == parallel.trial_rows

    def test_pool_holds_no_more_processes_than_trials(self, monkeypatch):
        # A stand-in pool that records its size and runs the trials in this
        # process, so no process is started.
        sizes = []

        class Recorder:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize):
                return map(fn, tasks)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", Recorder)
        spec = small_intersect_spec()  # 2 cells x 3 trials
        serial = run_experiment(spec)
        capped = run_experiment(spec, jobs=64)
        run_experiment(spec, jobs=4)
        assert sizes == [6, 4]
        assert capped.rows == serial.rows and capped.trial_rows == serial.trial_rows
        assert capped.manifest["jobs"] == 64

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ConfigError, match="^jobs must be >= 1"):
            run_experiment(small_intersect_spec(), jobs=0)

    def test_trial_seed_derivation(self):
        spec = small_intersect_spec()
        result = run_experiment(spec)
        cells = result.manifest["cells"]
        assert cells[0]["trial_seeds"] == [trial_seed(42, 0, t) for t in range(3)]
        assert len({s for c in cells for s in c["trial_seeds"]}) == 6

    def test_manifest_snapshot(self):
        spec = small_intersect_spec()
        result = run_experiment(spec)
        assert result.manifest["master_seed"] == 42
        assert result.manifest["spec"]["scenario"] == "intersect"
        assert len(result.manifest["cells"][0]["trial_seconds"]) == 3

    def test_per_trial_rows(self):
        spec = small_intersect_spec()
        result = run_experiment(spec)
        assert result.trial_header == [
            "scenario", "trial", "seed", "ce", "el", "fde", "outlier_err", "t",
        ]
        assert len(result.trial_rows) == 6
        assert result.trial_rows[0][0] == "intersect"
        assert result.trial_rows[0][6] is None  # no outlier metric here

    def test_outliers_scenario(self):
        spec = load_spec(
            {"scenario": "outliers", "m_values": [50], "n": 20, "trials": 2, "seed": 1}
        )
        result = run_experiment(spec)
        assert result.header[:2] == ["m", "misclassification_error"]
        assert len(result.rows) == 1
        assert result.rows[0][0] == 50
        assert 0.0 <= result.rows[0][1] <= 1.0

    def test_grid_scenario_with_erasures(self):
        spec = load_spec(
            {
                "scenario": "grid",
                "m": 30,
                "L": 3,
                "ensemble": "shared",
                "d_values": [6],
                "n_values": [40],
                "s": 3,
                "trials": 2,
                "seed": 5,
                "L_known": True,
            }
        )
        result = run_experiment(spec)
        assert result.header == ["d", "n", "s", "fde_mean", "ce_mean", "ce_std", "el_mean"]
        assert result.rows[0][:3] == [6, 40, 3]

    def test_noise_grid_scenario(self):
        spec = load_spec(
            {
                "scenario": "noise-grid",
                "m": 30,
                "L": 3,
                "d_values": [4],
                "n_values": [30],
                "sigma2_values": [0.0, 0.2],
                "trials": 2,
                "seed": 6,
            }
        )
        result = run_experiment(spec)
        assert len(result.rows) == 2
        assert result.rows[0][0] == 0.0 and result.rows[1][0] == 0.2

    def test_huge_noise_scenario(self):
        spec = load_spec(
            {
                "scenario": "huge-noise",
                "m": 60,
                "L": 3,
                "d": 3,
                "n_values": [20],
                "sigma2_values": [0.5, 1.0],
                "trials": 2,
                "seed": 8,
            }
        )
        result = run_experiment(spec)
        assert [row[:2] for row in result.rows] == [[0.5, 20], [1.0, 20]]
        assert all(0.0 <= row[3] <= 1.0 for row in result.rows)
        # s and ensemble take effect as in grid.
        erased = run_experiment(replace(spec, s=10))
        assert erased.rows != result.rows
        shared = load_spec(dict(asdict(spec), ensemble="shared", d=6, trials=1))
        assert len(run_experiment(shared).rows) == 2

    def test_mnist_scenario(self, tmp_path, write_idx):
        ds = synthetic_dataset(n_per_digit=30, digits=(2, 4, 8), seed=11)
        images = tmp_path / "imgs.idx"
        labels = tmp_path / "labs.idx"
        write_idx(ds, images, labels)
        spec = load_spec(
            {
                "scenario": "mnist",
                "images": str(images),
                "labels": str(labels),
                "n_values": [10],
                "trials": 2,
                "seed": 7,
            }
        )
        result = run_experiment(spec)
        assert result.header == ["n", "ce_mean", "ce_std"]
        assert len(result.rows) == 1
        assert 0.0 <= result.rows[0][1] <= 1.0


class TestFormatting:
    def test_seventeen_digits(self):
        assert format_cell(1.0 / 3.0) == "0.33333333333333331"
        assert format_cell(5) == "5"
        assert format_cell(None) == ""

    def test_spec_is_frozen(self):
        spec = small_intersect_spec()
        with pytest.raises(AttributeError):
            spec.seed = 1
        assert isinstance(spec, ExperimentSpec)


class TestOutlierConstantResolution:
    def test_defaults_follow_noise_level(self):
        from tsclust.outliers import NOISELESS_C, NOISY_C, threshold_constant

        def resolved(**overrides):
            raw = {"scenario": "outliers", "m_values": [50], "n": 5, "trials": 1}
            spec = load_spec(dict(raw, **overrides))
            return threshold_constant(spec.c, spec.sigma2 > 0)

        assert resolved() == NOISELESS_C
        assert resolved(sigma2=0.2) == NOISY_C
        assert resolved(c="noisy") == NOISY_C
        assert resolved(c=1.5) == 1.5

    def test_bad_c_string_rejected(self):
        from tsclust.outliers import threshold_constant

        with pytest.raises(ConfigError):
            threshold_constant("best")
        with pytest.raises(ConfigError):
            load_spec({"scenario": "outliers", "m_values": [50], "n": 5, "trials": 1, "c": "best"})

    @pytest.mark.parametrize("c", ["nan", "inf", "-1", 0.0, -1.0])
    def test_non_finite_or_nonpositive_c_rejected_at_load(self, c):
        with pytest.raises(ConfigError):
            load_spec({"scenario": "outliers", "m_values": [50], "n": 5, "trials": 1, "c": c})

    def test_noisy_scenario_uses_gaussian_outliers_and_rescaled_inliers(self):
        # Mechanism check: with sigma2 > 0 the generated outlier block is
        # Gaussian (norms spread around 1) and inliers carry the
        # 1/sqrt(1+sigma2) rescaling; the detection itself runs end to end.
        import math

        import numpy as np

        from tsclust.numerics import derive_seed
        from tsclust.synth import haar_basis, union_of_subspaces

        sigma2 = 0.3
        m, d, n, L = 60, 5, 20, 24
        seed = 31
        bases = [haar_basis(m, d, derive_seed(derive_seed(seed, 1), l)) for l in range(L)]
        gt = union_of_subspaces(
            bases, n, derive_seed(seed, 2), sigma2=sigma2, n_outliers=L * n,
            outlier_mode="gaussian", inlier_scale=1.0 / math.sqrt(1.0 + sigma2),
        )
        outlier_norms = np.linalg.norm(gt.points.data[:, gt.outlier_mask], axis=0)
        inlier_norms = np.linalg.norm(gt.points.data[:, ~gt.outlier_mask], axis=0)
        assert 0.9 <= float(np.mean(outlier_norms**2)) <= 1.1
        # Inlier squared norms concentrate around (1 + sigma2)/(1 + sigma2) = 1.
        assert 0.9 <= float(np.mean(inlier_norms**2)) <= 1.1
        assert np.std(outlier_norms) > np.std(inlier_norms) * 0.5


def readme_row_columns() -> dict:
    """Scenario name -> row columns, read from the README's scenario table."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([a-z-]+)` +\|.*\| `([a-z0-9_,]+)` +\|$", text, flags=re.M)
    return {name: columns.split(",") for name, columns in rows}


# Scenario -> (a one-cell spec, the sweep columns each per-trial row ends with).
TINY_SPECS = {
    "intersect": ({"m": 20, "d": 3, "n": 10, "t_values": [1]}, ["t"]),
    "grid": ({"m": 20, "L": 2, "d_values": [3], "n_values": [10]}, ["d", "n"]),
    "noise-grid": (
        {"m": 20, "L": 2, "d_values": [3], "n_values": [10], "sigma2_values": [0.1]},
        ["sigma2", "d", "n"],
    ),
    "huge-noise": (
        {"m": 40, "L": 2, "d": 3, "n_values": [10], "sigma2_values": [0.5]}, ["sigma2", "n"]
    ),
    "outliers": ({"m_values": [20], "n": 5}, ["m"]),
    "mnist": ({"n_values": [10]}, ["n"]),
}


@pytest.mark.parametrize("scenario", sorted(TINY_SPECS))
def test_manifest_spec_loads_again(scenario, tmp_path, write_idx):
    raw = dict(TINY_SPECS[scenario][0], scenario=scenario, trials=1, seed=3)
    if scenario == "mnist":
        ds = synthetic_dataset(n_per_digit=30, digits=(2, 4, 8), seed=11)
        raw["images"], raw["labels"] = str(tmp_path / "imgs.idx"), str(tmp_path / "labs.idx")
        write_idx(ds, raw["images"], raw["labels"])
    spec = load_spec(raw)
    snapshot = json.loads(json.dumps(run_experiment(spec).manifest["spec"]))
    assert load_spec(snapshot) == spec


@pytest.mark.parametrize("scenario", sorted(TINY_SPECS))
def test_headers_match_readme_table(scenario, tmp_path, write_idx):
    overrides, axes = TINY_SPECS[scenario]
    raw = dict(overrides, scenario=scenario, trials=1, seed=3)
    if scenario == "mnist":
        ds = synthetic_dataset(n_per_digit=30, digits=(2, 4, 8), seed=11)
        raw["images"], raw["labels"] = str(tmp_path / "imgs.idx"), str(tmp_path / "labs.idx")
        write_idx(ds, raw["images"], raw["labels"])
    result = run_experiment(load_spec(raw))
    columns = readme_row_columns()
    assert sorted(columns) == sorted(TINY_SPECS)
    assert result.header == columns[scenario]
    assert result.trial_header == ["scenario", "trial", "seed", "ce", "el", "fde", "outlier_err"] + axes
    assert len(result.rows) == 1 and len(result.rows[0]) == len(result.header)
