import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from tsclust.geometry import PointSet
from tsclust.ingest import remove_top_principal_components, singular_value_profile
from tsclust.metrics import clustering_error
from tsclust.tsc import DEFAULT_MAX_L

from test_ingest import synthetic_dataset


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    env.pop("TSC_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "tsclust", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


@pytest.fixture()
def orthogonal_fixture(tmp_path):
    """Three orthogonal subspaces written to CSV via the gen command."""
    prefix = tmp_path / "fixture"
    proc = run_cli(
        "gen", "--out", prefix, "--m", 30, "--d", 5, "--L", 3, "--n", 40, "--seed", 12
    )
    assert proc.returncode == 0, proc.stderr
    return prefix.with_suffix(".csv")


class TestClusterCommand:
    @pytest.mark.parametrize("variant", ["exp", "ls"])
    def test_orthogonal_fixture_exact(self, tmp_path, orthogonal_fixture, variant):
        labels_out = tmp_path / "labels.csv"
        json_out = tmp_path / "result.json"
        proc = run_cli(
            "cluster", orthogonal_fixture, "--q", 5, "--L", 3, "--variant", variant,
            "--out-labels", labels_out, "--out-json", json_out,
        )
        assert proc.returncode == 0, proc.stderr
        truth = PointSet.from_csv(orthogonal_fixture).labels
        est = np.array(
            [int(line.split(",")[1]) for line in labels_out.read_text().splitlines()[1:]]
        )
        assert clustering_error(truth, est) == 0.0
        doc = json.loads(json_out.read_text())
        assert doc["L_hat"] == 3
        # The eigengap window, not all 120 eigenvalues.
        assert len(doc["laplacian_eigenvalues"]) == DEFAULT_MAX_L + 1

    def test_q_zero_exits_2(self, orthogonal_fixture):
        proc = run_cli("cluster", orthogonal_fixture, "--q", 0, "--L", 3)
        assert proc.returncode == 2

    def test_missing_input_exits_1(self, tmp_path):
        proc = run_cli("cluster", tmp_path / "nope.csv", "--q", 3)
        assert proc.returncode == 1

    @pytest.mark.parametrize("variant", ["exp", "ls"])
    def test_non_finite_input_exits_3(self, tmp_path, orthogonal_fixture, variant):
        lines = orthogonal_fixture.read_text().splitlines()
        fields = lines[7].split(",")
        fields[3] = "nan"
        lines[7] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        proc = run_cli("cluster", bad, "--q", 5, "--L", 3, "--variant", variant)
        assert proc.returncode == 3, proc.stderr
        assert "NaN or Inf" in proc.stderr

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x1,x2\n1.0,abc\n", ", line 2: could not convert string to float: 'abc'"),
            ("x1,x2\n1.0,2.0\n3.0\n", ", line 3: 1 fields, expected 2"),
            ("", ": empty CSV"),
            ("x1,label\n1.0,1\n2.0,1.5\n", ", line 3: label '1.5' is not an integer"),
            ("x1,label\n2.0,1\n1.0,-1\n", ", line 3: label '-1' is negative"),
            ("label\n1\n2\n", ": no coordinate column"),
        ],
    )
    def test_malformed_csv_exits_1(self, tmp_path, text, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        proc = run_cli("cluster", bad, "--q", 1)
        assert proc.returncode == 1, proc.stderr
        assert f"{bad}{message}" in proc.stderr

    def test_edges_output(self, tmp_path, orthogonal_fixture):
        edges = tmp_path / "edges.csv"
        proc = run_cli(
            "cluster", orthogonal_fixture, "--q", 5, "--L", 3, "--out-edges", edges,
            "--out-labels", tmp_path / "l.csv", "--out-json", tmp_path / "r.json",
        )
        assert proc.returncode == 0
        header = edges.read_text().splitlines()[0]
        assert header == "i,j,weight"


class TestOutliersCommand:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("x1,label\n2.0,1\n1.0,-1\n", ", line 3: label '-1' is negative"),
            ("label\n1\n2\n", ": no coordinate column"),
        ],
    )
    def test_malformed_csv_exits_1(self, tmp_path, text, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        proc = run_cli("outliers", bad, "--out", tmp_path / "flags.csv")
        assert proc.returncode == 1, proc.stderr
        assert f"{bad}{message}" in proc.stderr

    def test_named_constant_equals_literal(self, tmp_path, orthogonal_fixture):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert run_cli("outliers", orthogonal_fixture, "--c", "noiseless", "--out", out_a).returncode == 0
        assert run_cli(
            "outliers", orthogonal_fixture, "--c", repr(math.sqrt(6.0)), "--out", out_b
        ).returncode == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_noisy_constant(self, tmp_path, orthogonal_fixture):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert run_cli("outliers", orthogonal_fixture, "--c", "noisy", "--out", out_a).returncode == 0
        assert run_cli(
            "outliers", orthogonal_fixture, "--c", repr(2.3 * math.sqrt(6.0)), "--out", out_b
        ).returncode == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_single_point_exits_2(self, tmp_path):
        path = tmp_path / "one.csv"
        PointSet(np.ones((4, 1))).to_csv(path)
        proc = run_cli("outliers", path, "--c", "noiseless", "--out", tmp_path / "o.csv")
        assert proc.returncode == 2

    def test_bad_c_exits_2(self, tmp_path, orthogonal_fixture):
        proc = run_cli("outliers", orthogonal_fixture, "--c", "huge", "--out", tmp_path / "o.csv")
        assert proc.returncode == 2

    def test_overflowing_inner_products_exit_3(self, tmp_path, orthogonal_fixture):
        huge = tmp_path / "huge.csv"
        points = PointSet.from_csv(orthogonal_fixture)
        PointSet(points.data * 1e160, points.labels).to_csv(huge)
        out = tmp_path / "o.csv"
        proc = run_cli("outliers", huge, "--out", out)
        assert proc.returncode == 3, proc.stderr
        # The error line alone: numpy's own overflow warning does not precede it.
        assert len(proc.stderr.splitlines()) == 1 and "overflow" in proc.stderr, proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("c", ["nan", "inf", "-1"])
    def test_non_finite_or_nonpositive_c_exits_2(self, tmp_path, orthogonal_fixture, c):
        out = tmp_path / "o.csv"
        proc = run_cli("outliers", orthogonal_fixture, "--c", c, "--out", out)
        assert proc.returncode == 2
        assert not out.exists()


class TestExperimentCommand:
    def write_spec(self, tmp_path, **overrides):
        raw = {
            "scenario": "intersect",
            "m": 40,
            "d": 5,
            "n": 40,
            "t_values": [0, 5],
            "trials": 3,
            "seed": 9,
            "L_known": True,
        }
        raw.update(overrides)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(raw))
        return path

    def test_rerun_byte_identical(self, tmp_path):
        spec = self.write_spec(tmp_path)
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert run_cli("experiment", spec, "--out", out1).returncode == 0
        assert run_cli("experiment", spec, "--out", out2).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_jobs_byte_identical(self, tmp_path):
        spec = self.write_spec(tmp_path)
        out1, out2 = tmp_path / "j1.csv", tmp_path / "j2.csv"
        assert run_cli("experiment", spec, "--out", out1, "--jobs", 1).returncode == 0
        assert run_cli("experiment", spec, "--out", out2, "--jobs", 2).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_manifest_and_per_trial(self, tmp_path):
        spec = self.write_spec(tmp_path)
        out = tmp_path / "res.csv"
        per_trial = tmp_path / "trials.csv"
        proc = run_cli("experiment", spec, "--out", out, "--per-trial", per_trial)
        assert proc.returncode == 0
        manifest = json.loads((tmp_path / "res.csv.manifest.json").read_text())
        assert manifest["master_seed"] == 9
        lines = per_trial.read_text().splitlines()
        assert lines[0] == "scenario,trial,seed,ce,el,fde,outlier_err,t"
        assert len(lines) == 1 + 6

    def test_env_seed_override(self, tmp_path):
        spec = self.write_spec(tmp_path)
        out1, out2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
        assert run_cli("experiment", spec, "--out", out1).returncode == 0
        assert (
            run_cli("experiment", spec, "--out", out2, env_extra={"TSC_SEED": "123"}).returncode
            == 0
        )
        m1 = json.loads((tmp_path / "e1.csv.manifest.json").read_text())
        m2 = json.loads((tmp_path / "e2.csv.manifest.json").read_text())
        assert m1["master_seed"] == 9 and m2["master_seed"] == 123

    def test_non_integer_env_seed_exits_2(self, tmp_path):
        spec = self.write_spec(tmp_path)
        proc = run_cli("experiment", spec, "--out", tmp_path / "o.csv",
                       env_extra={"TSC_SEED": "abc"})
        assert proc.returncode == 2
        assert "TSC_SEED must be an integer" in proc.stderr
        assert not (tmp_path / "o.csv").exists()

    def test_bad_spec_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scenario": "intersect", "wat": 1}))
        proc = run_cli("experiment", path, "--out", tmp_path / "o.csv")
        assert proc.returncode == 2

    def test_mistyped_field_exits_2(self, tmp_path):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps({"scenario": "grid", "trials": "3"}))
        proc = run_cli("experiment", path, "--out", tmp_path / "o.csv")
        assert proc.returncode == 2
        assert "trials must be int" in proc.stderr

    def test_null_needed_field_exits_2(self, tmp_path):
        path = tmp_path / "null.json"
        path.write_text(json.dumps({"scenario": "outliers", "n": None}))
        proc = run_cli("experiment", path, "--out", tmp_path / "o.csv")
        assert proc.returncode == 2, proc.stderr
        assert "n must not be null" in proc.stderr

    def test_unread_field_exits_2(self, tmp_path):
        path = tmp_path / "unread.json"
        path.write_text(json.dumps({"scenario": "intersect", "sigma2": 0.3}))
        proc = run_cli("experiment", path, "--out", tmp_path / "o.csv")
        assert proc.returncode == 2, proc.stderr
        assert "sigma2 has no effect in scenario 'intersect'" in proc.stderr
        assert not (tmp_path / "o.csv").exists()

    def test_non_finite_sigma2_exits_2(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"scenario": "noise-grid", "sigma2_values": [NaN]}')
        proc = run_cli("experiment", path, "--out", tmp_path / "o.csv")
        assert proc.returncode == 2, proc.stderr
        assert "sigma2 must be finite" in proc.stderr

    def test_invalid_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli("experiment", path, "--out", tmp_path / "o.csv").returncode == 2

    def test_missing_spec_exits_1(self, tmp_path):
        assert (
            run_cli("experiment", tmp_path / "nope.json", "--out", tmp_path / "o.csv").returncode
            == 1
        )


class TestGenCommand:
    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("gen", "--out", a, "--m", 20, "--d", 3, "--L", 2, "--n", 15,
                       "--seed", 5).returncode == 0
        assert run_cli("gen", "--out", b, "--m", 20, "--d", 3, "--L", 2, "--n", 15,
                       "--seed", 5).returncode == 0
        assert a.with_suffix(".csv").read_bytes() == b.with_suffix(".csv").read_bytes()

    def test_env_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("gen", "--out", a, "--m", 20, "--d", 3, "--n", 15, "--seed", 5)
        run_cli("gen", "--out", b, "--m", 20, "--d", 3, "--n", 15, "--seed", 5,
                env_extra={"TSC_SEED": "99"})
        assert a.with_suffix(".csv").read_bytes() != b.with_suffix(".csv").read_bytes()
        manifest = json.loads(b.with_suffix(".json").read_text())
        assert manifest["master_seed"] == 99

    def test_outliers_and_erasures(self, tmp_path):
        prefix = tmp_path / "gt"
        proc = run_cli(
            "gen", "--out", prefix, "--m", 25, "--d", 3, "--L", 2, "--n", 10,
            "--s", 4, "--outliers", 6, "--seed", 3,
        )
        assert proc.returncode == 0, proc.stderr
        ps = PointSet.from_csv(prefix.with_suffix(".csv"))
        assert ps.N == 26
        assert int(np.sum(ps.labels == 0)) == 6
        manifest = json.loads(prefix.with_suffix(".json").read_text())
        assert len(manifest["erased_indices"]) == 26

    def test_intersecting_pair_mode(self, tmp_path):
        prefix = tmp_path / "pair"
        proc = run_cli(
            "gen", "--out", prefix, "--m", 40, "--d", 5, "--t", 2, "--n", 8, "--seed", 1
        )
        assert proc.returncode == 0, proc.stderr
        ps = PointSet.from_csv(prefix.with_suffix(".csv"))
        np.testing.assert_array_equal(np.unique(ps.labels), [1, 2])

    def test_infeasible_dims_exit_2(self, tmp_path):
        proc = run_cli("gen", "--out", tmp_path / "x", "--m", 4, "--d", 5, "--n", 3)
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--sigma2", "nan"], "sigma2 must be finite"),
            (["--sigma2", "inf"], "sigma2 must be finite"),
            (["--inlier-scale", "inf"], "inlier_scale must be finite and > 0"),
            (["--inlier-scale", "0"], "inlier_scale must be finite and > 0"),
            (["--inlier-scale", "-1"], "inlier_scale must be finite and > 0"),
            (["--inlier-scale", "abc"], "--inlier-scale must be 'auto' or a number"),
            (["--t", "1", "--L", "3"], "--t builds two subspaces: it takes no --shared"),
            (["--t", "1", "--shared"], "--t builds two subspaces: it takes no --shared"),
        ],
    )
    def test_bad_noise_or_scale_exit_2(self, tmp_path, flags, message):
        prefix = tmp_path / "x"
        proc = run_cli("gen", "--out", prefix, "--m", 20, "--d", 3, "--n", 5, *flags)
        assert proc.returncode == 2, proc.stderr
        assert message in proc.stderr
        assert not prefix.with_suffix(".csv").exists()


def run_mnist_sv(tmp_path, write_idx, *flags):
    """``mnist-sv`` on 12 synthetic images of each of the digits 1 and 5."""
    ds = synthetic_dataset(n_per_digit=12, digits=(1, 5), seed=2)
    images, labels = tmp_path / "i.idx", tmp_path / "l.idx"
    write_idx(ds, images, labels)
    return run_cli("mnist-sv", "--images", images, "--labels", labels, *flags)


class TestMnistSvCommand:
    def test_profiles(self, tmp_path, write_idx):
        out = tmp_path / "sv.csv"
        proc = run_mnist_sv(tmp_path, write_idx, "--digits", "1,5", "--out", out)
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "digit,index,singular_value"
        # 12 singular values per digit class.
        assert len(lines) == 1 + 24

    def test_all_reports_the_digits_present(self, tmp_path, write_idx):
        out = tmp_path / "sv.csv"
        proc = run_mnist_sv(tmp_path, write_idx, "--out", out)
        assert proc.returncode == 0, proc.stderr
        assert "of 2 digit classes" in proc.stdout
        assert {line.split(",")[0] for line in out.read_text().splitlines()[1:]} == {"1", "5"}

    @pytest.mark.parametrize(
        "flags, reduce",
        [
            (["--center"], lambda block: block - block.mean(axis=1, keepdims=True)),
            (["--remove-top-k", "2"], lambda block: remove_top_principal_components(block, 2)),
        ],
        ids=["center", "remove-top-k"],
    )
    def test_reduced_profiles(self, tmp_path, write_idx, flags, reduce):
        out = tmp_path / "sv.csv"
        proc = run_mnist_sv(tmp_path, write_idx, "--digits", "1,5", *flags, "--out", out)
        assert proc.returncode == 0, proc.stderr
        ds = synthetic_dataset(n_per_digit=12, digits=(1, 5), seed=2)
        expected = [
            [digit, i, value]
            for digit in (1, 5)
            for i, value in enumerate(
                singular_value_profile(reduce(ds.images[:, ds.digit_labels == digit]))
            )
        ]
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [[int(d), int(i), float(v)] for d, i, v in rows] == expected

    @pytest.mark.parametrize("digits", ["1,11", "-1", "1,a"])
    def test_digit_outside_0_9_exits_2(self, tmp_path, write_idx, digits):
        out = tmp_path / "sv.csv"
        proc = run_mnist_sv(tmp_path, write_idx, "--digits", digits, "--out", out)
        assert proc.returncode == 2, proc.stderr
        assert "--digits must be 'all' or digits 0-9" in proc.stderr
        assert not out.exists()

    def test_digit_without_images_exits_2(self, tmp_path, write_idx):
        out = tmp_path / "sv.csv"
        proc = run_mnist_sv(tmp_path, write_idx, "--digits", "1,7", "--out", out)
        assert proc.returncode == 2, proc.stderr
        assert "digit 7: no images" in proc.stderr
        assert not out.exists()

    def test_bad_magic_exits_1(self, tmp_path):
        images = tmp_path / "i.idx"
        labels = tmp_path / "l.idx"
        images.write_bytes(b"\x00\x00\x00\x00" + b"\x00" * 16)
        labels.write_bytes(b"\x00\x00\x08\x01\x00\x00\x00\x00")
        proc = run_cli(
            "mnist-sv", "--images", images, "--labels", labels, "--out", tmp_path / "o.csv"
        )
        assert proc.returncode == 1


class TestVersionFlag:
    def test_version(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert "tsclust" in proc.stdout


class TestClusterFlags:
    def test_remove_top_k_flag(self, tmp_path, orthogonal_fixture):
        proc = run_cli(
            "cluster", orthogonal_fixture, "--q", 5, "--L", 3, "--remove-top-k", 1,
            "--out-labels", tmp_path / "l.csv", "--out-json", tmp_path / "r.json",
        )
        assert proc.returncode == 0, proc.stderr

    def test_remove_top_k_of_every_component_exits_2(self, tmp_path, orthogonal_fixture):
        # The fixture has m = 30 < N = 120: k = 30 would leave rounding noise.
        proc = run_cli("cluster", orthogonal_fixture, "--q", 5, "--remove-top-k", 30,
                       "--out-labels", tmp_path / "l.csv", "--out-json", tmp_path / "r.json")
        assert proc.returncode == 2, proc.stderr
        assert "k=30 must be below min(m, N)=30" in proc.stderr
        assert not (tmp_path / "l.csv").exists()

    def test_no_normalize_flag(self, tmp_path, orthogonal_fixture):
        proc = run_cli(
            "cluster", orthogonal_fixture, "--q", 5, "--L", 3, "--no-normalize",
            "--out-labels", tmp_path / "l.csv", "--out-json", tmp_path / "r.json",
        )
        assert proc.returncode == 0, proc.stderr

    def test_no_normalize_overflow_exits_3_with_one_line(self, tmp_path, orthogonal_fixture):
        # Raw inner products of the points x1e160 overflow; stderr holds the
        # error line alone, without numpy's own overflow warning before it.
        huge = tmp_path / "huge.csv"
        points = PointSet.from_csv(orthogonal_fixture)
        PointSet(points.data * 1e160, points.labels).to_csv(huge)
        proc = run_cli("cluster", huge, "--q", 5, "--L", 3, "--no-normalize")
        assert proc.returncode == 3, proc.stderr
        assert len(proc.stderr.splitlines()) == 1 and "overflow" in proc.stderr, proc.stderr

    def test_bad_L_value_exits_2(self, orthogonal_fixture):
        proc = run_cli("cluster", orthogonal_fixture, "--q", 5, "--L", "many")
        assert proc.returncode == 2

    @pytest.mark.parametrize("flag", ["--max-iter", "--restarts"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_nonpositive_kmeans_budget_exits_2(self, tmp_path, orthogonal_fixture, flag, value):
        labels = tmp_path / "l.csv"
        proc = run_cli(
            "cluster", orthogonal_fixture, "--q", 5, flag, value, "--out-labels", labels,
            "--out-json", tmp_path / "r.json",
        )
        assert proc.returncode == 2, proc.stderr
        assert "config error" in proc.stderr and flag[2:].replace("-", "_") in proc.stderr
        assert not labels.exists()

    def test_L_above_N_exits_2_naming_num_subspaces(self, orthogonal_fixture):
        proc = run_cli("cluster", orthogonal_fixture, "--q", 5, "--L", 500)
        assert proc.returncode == 2
        assert "num_subspaces=500" in proc.stderr and "N=120" in proc.stderr, proc.stderr

    def test_seed_changes_nothing_when_estimation_trivial(self, tmp_path, orthogonal_fixture):
        # Same config, different kmeans seed: orthogonal case stays exact.
        outs = []
        for seed in (0, 7):
            labels = tmp_path / f"l{seed}.csv"
            proc = run_cli(
                "cluster", orthogonal_fixture, "--q", 5, "--L", 3, "--seed", seed,
                "--out-labels", labels, "--out-json", tmp_path / f"r{seed}.json",
            )
            assert proc.returncode == 0
            outs.append(
                np.array([int(l.split(",")[1]) for l in labels.read_text().splitlines()[1:]])
            )
        assert clustering_error(outs[0], outs[1]) == 0.0
