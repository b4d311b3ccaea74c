import re
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from tsclust.errors import ConfigError
from tsclust.experiments import (
    ExperimentSpec,
    format_cell,
    load_spec,
    run_experiment,
    trial_seed,
)
from tsclust.ingest import write_idx

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
            {"scenario": "grid", "sigma2": 0},
            {"scenario": "outliers", "outlier_factor": 2, "sigma2": 0.1},
            {"scenario": "grid", "q": None, "max_L": None, "L_known": None},
            {"scenario": "intersect", "L_known": True, "noise_first": False, "s": 0},
        ],
        ids=["int-sigma2", "int-factor", "nulls", "bools"],
    )
    def test_well_typed_scalars_load(self, raw):
        spec = load_spec(raw)
        assert all(getattr(spec, k) == v for k, v in raw.items())

    def test_huge_noise_checks_grid_fields(self):
        with pytest.raises(ConfigError):
            load_spec({"scenario": "huge-noise", "ensemble": "bogus", "s": 3})
        with pytest.raises(ConfigError):
            load_spec({"scenario": "huge-noise", "m": 30, "s": 30})
        with pytest.raises(ConfigError):
            load_spec({"scenario": "huge-noise", "ensemble": "shared", "d": 5})


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

    def test_mnist_scenario(self, tmp_path):
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
def test_headers_match_readme_table(scenario, tmp_path):
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
