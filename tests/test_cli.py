"""Command-line surface: artifacts, manifests, determinism, exit codes."""

import hashlib
import json
import os

import numpy as np
import pytest

from bridgelab.cli import _write_csv, main
from bridgelab.model import ModelConfig, init, load_parameters, velocity_field_from
from bridgelab.numerics import NumericalError, RngStream
from bridgelab.schedules import shifted
from bridgelab.tasks import TaskSpec, evaluate, generate_pairs, pair_provider
from bridgelab.trainer import TrainConfig, train
from conftest import kernel_fingerprint


def read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def read_csv_rows(path: str) -> list[dict]:
    lines = read(path).strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestScheduleDump:
    def test_emits_expected_grid(self, tmp_path):
        out = str(tmp_path)
        assert main(["schedule", "dump", "--N", "4", "--gamma", "5", "--out-dir", out]) == 0
        rows = read_csv_rows(os.path.join(out, "schedule.csv"))
        ts = [float(r["t"]) for r in rows]
        np.testing.assert_allclose(ts, [0.0, 1 / 16, 1 / 6, 3 / 8, 1.0], rtol=1e-12)
        manifest = json.loads(read(os.path.join(out, "manifest.json")))
        assert manifest["command"] == "schedule_dump"
        assert "schedule.csv" in manifest["outputs"]


class TestAtomicWrites:
    def test_failed_csv_leaves_no_file(self, tmp_path):
        """Rows that raise midway leave neither the CSV nor its temporary file."""
        path = str(tmp_path / "x.csv")

        def rows():
            yield [1, 0.5]
            raise RuntimeError("row failed")

        with pytest.raises(RuntimeError, match="row failed"):
            _write_csv(path, ["i", "t"], rows())
        assert os.listdir(tmp_path) == []


class TestVerifyCommand:
    def test_passing_suite_exits_zero(self, tmp_path):
        out = str(tmp_path)
        code = main(
            ["verify", "--suite", "schedules", "--seed", "7", "--out-dir", out]
        )
        assert code == 0
        report = json.loads(read(os.path.join(out, "verify_report.json")))
        assert report["passed"] is True

    def test_impossible_override_exits_one(self, tmp_path):
        code = main(
            [
                "verify",
                "--suite",
                "schedules",
                "--seed",
                "7",
                "--override",
                "boundary_exactness=-1",
            ]
        )
        assert code == 1

    def test_reports_byte_identical_across_reruns(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            main(
                [
                    "verify",
                    "--suite",
                    "objectives",
                    "--mc",
                    "20000",
                    "--seed",
                    "7",
                    "--out-dir",
                    out,
                ]
            )
        assert read(os.path.join(a, "verify_report.json")) == read(
            os.path.join(b, "verify_report.json")
        )


# SHA-256 of the artifacts that `verify` and `profile` write for fixed
# arguments. Like tests/test_trainer.py::PINNED_RUNS they hold for the numpy
# they were recorded with (2.4.6); another numpy may change the normal draws
# or the ufunc rounding, and so every digest.
PINNED_VERIFY_REPORTS = {
    0: "c64b442dc353cec8b5d62daee03bf269c1812032ad7b57f8f91f96f1095ab8e6",
    7: "10d61d839bdf878156a041009e1880d5eaeedb26e428bcaf964324246dae2c9b",
}
PINNED_PROFILES = {
    ("displacement",): "d1199b112d57ed36d9fff1056669b3ef66a6941018d1ba85407fbb9000c4a18c",
    ("velocity",): "60b546437c0486341509aa4f106544c67c8d5c9eb6786d490c09f8a4729ebc4c",
    ("stabilized_velocity",): "39188a3422082e29f67735ceebb53426392d68da6070275d56b7e2bf85545d26",
    ("stabilized_velocity", "--grid", "0:0.99:50"): "bf4e6b1e631bf673198547777433981641a927709dae3b1532b19bac1a7e82fa",
}


# SHA-256 of the endpoints.csv that `sample --params` writes for a model that
# `train` wrote, per (task, activation): a tanh model on an unconditioned task
# and a smooth_relu model on a task with context.
PINNED_SAMPLED_ENDPOINTS = {
    ("gaussian_shift", "tanh"):
        "13128618e166c6654ae4652da6f626cf0c47c4f9fa58b19e8b4fe4d66d5fab6d",
    ("moons_rotate", "smooth_relu"):
        "720862a3a86e73e31b9f54b0fd0d77e283caf228f54f119059181b3cec014963",
}

# SHA-256 of the debug.csv that `train --debug` writes for a run whose 130
# steps of 32 pairs span blocks of 51, 51 and 28 steps.
PINNED_DEBUG_CSV = "35b5957a9411964bc197891e330567636a82c4c11002ba7a4b9a0aee1476855b"

# SHA-256 of the ablate summaries: the two ok rows of the PINNED_MANIFESTS
# "ablate" run, and the two error rows of
# TestAblateCommand::test_non_finite_score_is_an_error_row.
PINNED_ABLATE_CSV = "a3d1b7058c0895134fc4bccf45a3cff6eac12d6d395cc4cb2cc395bbd90f2c85"
PINNED_ABLATE_ERROR_CSV = "88708287d83a4072e5be182da162272511170a25459cad8e948a381a27aee485"


def sha256_of(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TestPinnedArtifacts:
    @pytest.mark.parametrize("seed", sorted(PINNED_VERIFY_REPORTS))
    def test_verify_report_unchanged(self, tmp_path, seed):
        out = str(tmp_path)
        main(["verify", "--suite", "all", "--mc", "100000", "--seed", str(seed), "--out-dir", out])
        assert sha256_of(os.path.join(out, "verify_report.json")) == PINNED_VERIFY_REPORTS[seed]

    @pytest.mark.parametrize("argv", sorted(PINNED_PROFILES))
    def test_profile_csv_unchanged(self, tmp_path, argv):
        objective, *flags = argv
        assert main(["profile", "--objective", objective, *flags, "--out-dir", str(tmp_path)]) == 0
        assert sha256_of(str(tmp_path / f"profile_{objective}.csv")) == PINNED_PROFILES[argv]

    @pytest.mark.parametrize("task,activation", sorted(PINNED_SAMPLED_ENDPOINTS))
    def test_sampled_endpoints_unchanged(self, tmp_path, task, activation):
        train_dir, out = str(tmp_path / "train"), str(tmp_path / "sample")
        argv = ["train", "--task", task, "--activation", activation, "--hidden", "16,16",
                "--steps", "40", "--seed", "4", "--out-dir", train_dir]
        assert main(argv) == 0
        params = os.path.join(train_dir, "params.bin")
        argv = ["sample", "--task", task, "--params", params, "--N", "16", "--runs", "64",
                "--seed", "4", "--out-dir", out]
        assert main(argv) == 0
        digest = sha256_of(os.path.join(out, "endpoints.csv"))
        assert digest == PINNED_SAMPLED_ENDPOINTS[task, activation], kernel_fingerprint()

    def test_debug_csv_unchanged(self, tmp_path):
        argv = ["train", "--steps", "130", "--batch-size", "32", "--debug", "--seed", "3",
                "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        assert sha256_of(str(tmp_path / "debug.csv")) == PINNED_DEBUG_CSV

    def test_ablate_csv_unchanged(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(PINNED_MANIFESTS["ablate"][1]) == 0
        assert sha256_of(os.path.join("out", "ablate_gamma.csv")) == PINNED_ABLATE_CSV


# One run of each artifact-producing command, from an empty working directory
# with relative paths, as (set-up argv or None, argv writing into "out", SHA-256
# of json.dumps(manifest without created_utc, sort_keys=True)). No manifest
# value comes from the network: the train digest is of the sample stream, and
# the sample run records its schedule and its model's objective.
_TINY_TRAIN = ["train", "--steps", "3", "--batch-size", "4", "--hidden", "4", "--seed", "1"]
PINNED_MANIFESTS = {
    "verify": (
        None,
        ["verify", "--suite", "schedules", "--mc", "4", "--out-dir", "out"],
        "6a967d033523c43401fb7c2d792d52bffee9ba797a41131bea8d392e6372c146",
    ),
    "profile": (
        None,
        ["profile", "--grid", "0:0.9:5", "--svg", "--out-dir", "out"],
        "944a02caf1d59b7bd71882b72b42ce2ade2762b4457c61f717ead21dc1ec4d83",
    ),
    "train": (
        None,
        [*_TINY_TRAIN, "--debug", "--out-dir", "out"],
        "e757ca9c9f81960f5120291dfe039519621c514157e00688adc2370bd65b0da1",
    ),
    "sample": (
        [*_TINY_TRAIN, "--out-dir", "model"],
        ["sample", "--params", "model/params.bin", "--runs", "4", "--N", "4",
         "--trajectories", "--seed", "1", "--out-dir", "out"],
        "6ccb9347da290350ccac59ac5e91f386d9fd0d835db26bbe0b31d2af0fb49b95",
    ),
    "ablate": (
        None,
        ["ablate", "--axis", "gamma", "--values", "1,2", "--steps", "3", "--batch-size", "4",
         "--hidden", "4", "--runs", "4", "--N", "4", "--seed", "1", "--out-dir", "out"],
        "e4a4eb57a4063454e8dd20f5060b613886eed84c72023d9dc4ac07c996440b26",
    ),
    "schedule_dump": (
        None,
        ["schedule", "dump", "--N", "4", "--out-dir", "out"],
        "a4bda5496b3ffcb411d9984d600292280da76e7e7f1e8540d745f21e8597c390",
    ),
}


class TestManifests:
    @pytest.fixture(params=sorted(PINNED_MANIFESTS))
    def run(self, request, tmp_path, monkeypatch):
        """(name, manifest) of one PINNED_MANIFESTS run, made in ``tmp_path``."""
        monkeypatch.chdir(tmp_path)
        setup, argv, _ = PINNED_MANIFESTS[request.param]
        if setup is not None:
            assert main(setup) == 0
        assert main(argv) == 0
        return request.param, json.loads(read(os.path.join("out", "manifest.json")))

    def test_manifest_unchanged(self, run):
        name, manifest = run
        assert manifest.pop("created_utc")
        digest = hashlib.sha256(json.dumps(manifest, sort_keys=True).encode()).hexdigest()
        assert digest == PINNED_MANIFESTS[name][2]

    def test_outputs_are_the_files_written(self, run):
        """``outputs`` names every file in the out dir but the manifest, and no other."""
        _, manifest = run
        assert set(manifest["outputs"]) == set(os.listdir("out")) - {"manifest.json"}


class TestProfileCommand:
    def test_velocity_profile_values(self, tmp_path):
        out = str(tmp_path)
        code = main(
            [
                "profile",
                "--objective",
                "velocity",
                "--dim",
                "1",
                "--distance2",
                "1",
                "--s",
                "1",
                "--out-dir",
                out,
                "--svg",
            ]
        )
        assert code == 0
        rows = read_csv_rows(os.path.join(out, "profile_velocity.csv"))
        assert list(rows[0].keys()) == ["t", "S", "C"]
        near09 = min(rows, key=lambda r: abs(float(r["t"]) - 0.9))
        assert float(near09["C"]) == pytest.approx(1.0 / 3.0, abs=0.02)
        assert os.path.exists(os.path.join(out, "profile_velocity.svg"))

    def test_stabilized_cumulative_linear(self, tmp_path):
        out = str(tmp_path)
        main(["profile", "--objective", "stabilized_velocity", "--out-dir", out])
        rows = read_csv_rows(os.path.join(out, "profile_stabilized_velocity.csv"))
        for r in rows[:: len(rows) // 10]:
            assert float(r["C"]) == pytest.approx(float(r["t"]) / 0.999, abs=0.01)

    @pytest.mark.parametrize("flag", ["--mc", "--seed"])
    def test_monte_carlo_flags_are_gone(self, tmp_path, capsys, flag):
        """S(t) is the closed form only: the Monte-Carlo draw count and the seed
        that fed those draws are unrecognized arguments, and nothing is written."""
        out = str(tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main(["profile", flag, "10", "--out-dir", out])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 10" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestTrainCommand:
    def test_artifacts_and_manifest(self, tmp_path):
        out = str(tmp_path)
        code = main(
            [
                "train",
                "--task",
                "gaussian_shift",
                "--objective",
                "stabilized_velocity",
                "--s",
                "1",
                "--steps",
                "200",
                "--seed",
                "7",
                "--out-dir",
                out,
            ]
        )
        assert code == 0
        assert os.path.exists(os.path.join(out, "params.bin"))
        stats = read_csv_rows(os.path.join(out, "stats.csv"))
        assert len(stats) == 200 // 50
        assert all(np.isfinite(float(r["loss"])) for r in stats)
        manifest = json.loads(read(os.path.join(out, "manifest.json")))
        assert manifest["seed"] == 7
        assert manifest["config"]["train_config"]["objective"] == "stabilized_velocity"
        assert "sample_stream_digest" in manifest["config"]

    def test_stats_csv_schema(self, tmp_path):
        """stats.csv holds the logged steps of the library's training run, floats as repr."""
        out = str(tmp_path)
        assert main(["train", "--steps", "100", "--seed", "7", "--out-dir", out]) == 0
        lines = read(os.path.join(out, "stats.csv")).splitlines()
        assert lines[0] == "step,loss,max_target_sqnorm,grad_norm,ms"
        spec = TaskSpec(name="gaussian_shift", dimension=2, shift=(2.0, 0.0))
        mconfig = ModelConfig(input_dim=2)
        params = init(mconfig, RngStream(seed=7, stream=900))
        _, stats = train(params, mconfig, pair_provider(spec), TrainConfig(steps=100, seed=7))
        expected = [f"{r.step},{r.loss!r},{r.max_target_sqnorm!r},{r.grad_norm!r}" for r in stats.rows]
        assert [line.rsplit(",", 1)[0] for line in lines[1:]] == expected

    def test_seed_required(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--task", "gaussian_shift", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2

    def test_debug_alpha_column_is_one_at_zero_noise_scale(self, tmp_path):
        out = str(tmp_path)
        code = main(
            [
                "train",
                "--task",
                "gaussian_shift",
                "--s",
                "0",
                "--steps",
                "60",
                "--seed",
                "7",
                "--debug",
                "--out-dir",
                out,
            ]
        )
        assert code == 0
        rows = read_csv_rows(os.path.join(out, "debug.csv"))
        assert len(rows) == 60
        assert all(float(r["mean_alpha_sq"]) == 1.0 for r in rows)
        assert all(float(r["max_alpha_sq"]) == 1.0 for r in rows)

    def test_objective_runs_share_sample_stream(self, tmp_path):
        digests = []
        for objective in ("velocity", "stabilized_velocity"):
            out = str(tmp_path / objective)
            main(
                [
                    "train",
                    "--objective",
                    objective,
                    "--steps",
                    "100",
                    "--seed",
                    "11",
                    "--out-dir",
                    out,
                ]
            )
            manifest = json.loads(read(os.path.join(out, "manifest.json")))
            digests.append(manifest["config"]["sample_stream_digest"])
        assert digests[0] == digests[1]


class TestSampleCommand:
    def test_oracle_corrected_exactness(self, tmp_path):
        out = str(tmp_path)
        code = main(
            [
                "sample",
                "--oracle",
                "--mode",
                "corrected",
                "--N",
                "4",
                "--runs",
                "64",
                "--seed",
                "3",
                "--out-dir",
                out,
                "--trajectories",
            ]
        )
        assert code == 0
        report = json.loads(read(os.path.join(out, "eval.json")))
        assert report["paired_mse"] <= 1e-10
        endpoints = read_csv_rows(os.path.join(out, "endpoints.csv"))
        assert len(endpoints) == 64
        traj = read_csv_rows(os.path.join(out, "trajectory.csv"))
        assert len(traj) == 5
        manifest = json.loads(read(os.path.join(out, "manifest.json")))
        assert manifest["config"]["schedule_points"][-1] == 1.0

    def test_shifted_schedule_echoed_in_manifest(self, tmp_path):
        out = str(tmp_path)
        main(
            [
                "sample",
                "--oracle",
                "--N",
                "4",
                "--gamma",
                "5",
                "--runs",
                "16",
                "--seed",
                "3",
                "--out-dir",
                out,
            ]
        )
        manifest = json.loads(read(os.path.join(out, "manifest.json")))
        np.testing.assert_allclose(
            manifest["config"]["schedule_points"], [0.0, 0.0625, 1 / 6, 0.375, 1.0], rtol=1e-9
        )

    def test_standard_vs_corrected_endpoint_residual(self, tmp_path):
        """The uncorrected scheme leaves ~ s^2/N residual endpoint noise per
        coordinate (measured as paired MSE against each run's own target);
        the corrected one leaves none (oracle field, N=8)."""
        mse = {}
        for mode in ("standard", "corrected"):
            out = str(tmp_path / mode)
            main(
                [
                    "sample",
                    "--oracle",
                    "--mode",
                    mode,
                    "--N",
                    "8",
                    "--runs",
                    "4096",
                    "--seed",
                    "5",
                    "--out-dir",
                    out,
                ]
            )
            report = json.loads(read(os.path.join(out, "eval.json")))
            mse[mode] = report["paired_mse"]
        assert mse["standard"] == pytest.approx(1.0 / 8.0, rel=0.1)
        assert mse["corrected"] <= 1e-20

    def test_requires_params_or_oracle(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--N", "4", "--runs", "8", "--seed", "1", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "config,argv",
        [
            (None, ["--oracle", "--params", "/nonexistent/params.bin"]),
            ({"params": "/nonexistent/params.bin"}, ["--oracle"]),
            ({"oracle": True}, ["--params", "/nonexistent/params.bin"]),
        ],
        ids=["flags", "params-in-config", "oracle-in-config"],
    )
    def test_oracle_and_params_exclude_each_other(self, tmp_path, config, argv):
        prefix = []
        if config is not None:
            path = str(tmp_path / "config.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            prefix = ["--config", path]
        out = str(tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main([*prefix, "sample", *argv, "--seed", "1", "--out-dir", out])
        assert exc.value.code == 2
        assert not os.path.exists(out)

    def test_trajectory_is_run_zero(self, tmp_path):
        """trajectory.csv follows run 0 of the batch: it starts at pair 0's x0
        and its last row is row 0 of endpoints.csv, bit for bit. Standard mode
        keeps noise on the last step, so a separately sampled path would differ."""
        out = str(tmp_path)
        argv = ["sample", "--oracle", "--mode", "standard", "--s", "1", "--N", "4"]
        argv += ["--runs", "8", "--seed", "3", "--trajectories", "--out-dir", out]
        assert main(argv) == 0
        traj = read_csv_rows(os.path.join(out, "trajectory.csv"))
        endpoints = read_csv_rows(os.path.join(out, "endpoints.csv"))
        coords = ["coord_0", "coord_1"]
        assert [row["k"] for row in traj] == ["0", "1", "2", "3", "4"]
        assert [traj[-1][c] for c in coords] == [endpoints[0][c] for c in coords]
        spec = TaskSpec(name="gaussian_shift", dimension=2, shift=(2.0, 0.0))
        x0 = generate_pairs(spec, 8, RngStream(seed=3, stream=700).split(1)).x0[0]
        assert [traj[0][c] for c in coords] == [repr(float(v)) for v in x0]


def train_displacement_params(out: str) -> str:
    argv = ["train", "--objective", "displacement", "--steps", "20", "--seed", "5", "--out-dir", out]
    assert main(argv) == 0
    return os.path.join(out, "params.bin")


class TestSampleRecordedObjective:
    def test_recorded_objective_used_without_flag(self, tmp_path):
        """A displacement-trained file samples as displacement: its endpoints are
        the library's, through the displacement reading of the same network."""
        params_path = train_displacement_params(str(tmp_path / "train"))
        out = str(tmp_path / "out")
        argv = ["sample", "--params", params_path, "--N", "8", "--runs", "16", "--seed", "2"]
        assert main(argv + ["--out-dir", out]) == 0
        mconfig, params, _ = load_parameters(params_path)
        expected, _ = evaluate(
            lambda batch: velocity_field_from(params, mconfig, "displacement"),
            pair_provider(TaskSpec(name="gaussian_shift", dimension=2, shift=(2.0, 0.0))),
            shifted(8, 1.0),
            "corrected",
            1.0,
            16,
            RngStream(seed=2, stream=700),
        )
        rows = read_csv_rows(os.path.join(out, "endpoints.csv"))
        endpoints = np.array([[float(r["coord_0"]), float(r["coord_1"])] for r in rows])
        assert np.array_equal(endpoints, expected)
        manifest = json.loads(read(os.path.join(out, "manifest.json")))
        assert manifest["config"]["objective"] == "displacement"

    def test_version_one_container_exits_two(self, tmp_path, capsys):
        """A container written before the objective field is rejected, not guessed at."""
        config = ModelConfig(input_dim=2, hidden=(4,))
        params = init(config, RngStream(seed=28))
        header = (
            '{"config": {"activation": "tanh", "context_dim": 0, "hidden": [4], "input_dim": 2, '
            f'"time_features": 8}}, "count": {params.size}, "format": "bridgelab-params", "version": 1}}'
        )
        path = str(tmp_path / "v1.bin")
        with open(path, "wb") as fh:
            fh.write(header.encode("utf-8") + b"\n" + params.astype("<f8").tobytes())
        out = str(tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--params", path, "--seed", "2", "--out-dir", out])
        assert exc.value.code == 2
        assert capsys.readouterr().err == "error: unsupported parameter container version 1\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "key,value",
        [("input_dim", 2.0), ("time_features", 8.0), ("context_dim", 0.0), ("hidden", [4.0]),
         ("input_dim", True)],
    )
    def test_non_integer_config_field_exits_two(self, tmp_path, capsys, key, value):
        """A header whose integer fields are floats or bools is rejected before any output."""
        config = {"activation": "tanh", "context_dim": 0, "hidden": [4], "input_dim": 2,
                  "time_features": 8, key: value}
        params = init(ModelConfig(input_dim=2, hidden=(4,)), RngStream(seed=28))
        header = {"config": config, "count": int(params.size), "format": "bridgelab-params",
                  "objective": "velocity", "version": 2}
        path = str(tmp_path / "floats.bin")
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n" + params.astype("<f8").tobytes())
        out = str(tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--params", path, "--seed", "2", "--out-dir", out])
        assert exc.value.code == 2
        assert "must be an integer" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_overflowing_time_features_exit_two(self, tmp_path, capsys):
        """A header whose top time frequency overflows float64 is rejected before any output."""
        config = {"activation": "tanh", "context_dim": 0, "hidden": [4], "input_dim": 2,
                  "time_features": 2048}
        count = (2 + 2048 + 1) * 4 + (4 + 1) * 2
        header = {"config": config, "count": count, "format": "bridgelab-params",
                  "objective": "velocity", "version": 2}
        path = str(tmp_path / "wide.bin")
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n" + bytes(8 * count))
        out = str(tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--params", path, "--seed", "2", "--out-dir", out])
        assert exc.value.code == 2
        assert "overflows float64" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("count,edit", [(53, lambda p: p[:-8]), (55, lambda p: p + bytes(8))])
    def test_count_not_the_models_exits_two(self, tmp_path, capsys, count, edit):
        """A header count that is not its model's parameter count is rejected,
        even when the payload holds that many values."""
        params = _rewrite_params(
            tmp_path, lambda header, payload: ({**header, "count": count}, edit(payload))
        )
        out = str(tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--params", params, "--seed", "1", "--runs", "4", "--out-dir", out])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert params in err and str(count) in err and "54" in err, err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_weight_exits_two(self, tmp_path, capsys, value):
        """A container holding a non-finite weight is rejected at load, naming
        the file, not reported as a sampler failure."""
        first = np.array([value], dtype="<f8").tobytes()
        params = _rewrite_params(tmp_path, lambda header, payload: (header, first + payload[8:]))
        out = str(tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--params", params, "--seed", "1", "--runs", "4", "--out-dir", out])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert params in err and "non-finite" in err, err
        assert not os.path.exists(out)

    def test_foreign_container_exits_two(self, tmp_path, capsys):
        params = str(tmp_path / "bogus.bin")
        out = str(tmp_path / "out")
        incomplete = b'{"format": "bridgelab-params", "version": 2, "objective": "velocity"}'
        for header in (b"not json", b"[]", b"5", b"null", b'"bridgelab-params"', incomplete):
            with open(params, "wb") as fh:
                fh.write(header + b"\n")
            with pytest.raises(SystemExit) as exc:
                main(["sample", "--params", params, "--seed", "2", "--out-dir", out])
            assert exc.value.code == 2, header
            assert capsys.readouterr().err == f"error: not a parameter container: {params}\n"
            assert not os.path.exists(out)


def _rewrite_params(tmp_path, edit) -> str:
    """The 54-value params.bin of a 2-step, 4-wide run, rewritten by ``edit``:
    (header dict, payload bytes) -> (header dict, payload bytes)."""
    train_dir = str(tmp_path / "train")
    assert main(["train", "--steps", "2", "--hidden", "4", "--seed", "1", "--out-dir", train_dir]) == 0
    path = os.path.join(train_dir, "params.bin")
    with open(path, "rb") as fh:
        header, _, payload = fh.read().partition(b"\n")
    header, payload = edit(json.loads(header), payload)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n" + payload)
    return path


def _seed_flag(argv: list[str]) -> list[str]:
    """``--seed 1`` for every command but ``schedule dump`` and ``profile``, which draw nothing."""
    return [] if argv[0] in ("schedule", "profile") else ["--seed", "1"]


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--oracle", "--N", "0"],
            ["sample", "--oracle", "--gamma", "0.5"],
            ["train", "--task", "grid_colorize", "--grid-size", "9"],
            ["ablate", "--axis", "steps", "--values", "4,0", "--steps", "5"],
            ["train", "--steps", "0"],
            ["train", "--hidden", "0"],
            ["train", "--batch-size", "0"],
            ["train", "--log-every", "0", "--steps", "5"],
            ["train", "--s", "nan", "--steps", "5"],
            ["sample", "--oracle", "--runs", "0"],
            ["sample", "--oracle", "--s", "-1"],
            ["ablate", "--axis", "noise_scale", "--values", "0,-1", "--steps", "5"],
            ["ablate", "--axis", "objective", "--values", "velocity,displacement", "--runs", "1", "--steps", "5"],
            ["profile", "--dim", "0"],
            ["profile", "--grid", "0:1:10"],
            ["profile", "--s", "-1"],
            ["profile", "--s", "nan"],
            ["profile", "--s", "inf"],
            ["profile", "--distance2", "nan"],
            ["schedule", "dump", "--N", "4", "--gamma", "nan"],
            ["sample", "--oracle", "--s", "inf"],
            ["sample", "--oracle", "--gamma", "nan"],
            ["sample", "--oracle", "--gamma", "inf"],
            ["train", "--s", "inf", "--steps", "5"],
            ["train", "--lr", "nan", "--steps", "5"],
            ["train", "--lr", "-1", "--steps", "2"],
            ["train", "--time-features", "2048", "--steps", "2", "--batch-size", "4", "--hidden", "4"],
            ["ablate", "--axis", "noise_scale", "--values", "1,inf", "--steps", "5"],
            ["verify", "--suite", "schedules", "--override", "boundary_exactness=abc"],
            ["verify", "--suite", "schedules", "--override", "boundary_exactness=nan"],
            ["verify", "--suite", "schedules", "--mc", "-5"],
            ["train", "--hidden", ""],
            ["ablate", "--axis", "gamma", "--values", "1,2", "--hidden", ",", "--steps", "5"],
            ["train", "--shift", "nan,0"],
            ["sample", "--oracle", "--shift", "inf,0"],
            ["train", "--task", "moons_rotate", "--angle", "nan"],
            ["sample", "--oracle", "--task", "moons_rotate", "--angle", "inf"],
            # numpy refuses these sizes before touching memory: no address space holds them
            ["schedule", "dump", "--N", "1000000000000000"],
            ["sample", "--oracle", "--N", "1000000000000000"],
            ["sample", "--oracle", "--runs", "1000000000000000"],
            ["train", "--batch-size", "1000000000000000", "--steps", "1"],
            ["train", "--hidden", "1000000000000000", "--steps", "1"],
            ["ablate", "--axis", "gamma", "--values", "1,2", "--runs", "1000000000000000", "--steps", "1"],
            ["train", "--task", "signal_refine", "--repeat", "2", "--dim", "1000000000000000", "--steps", "1"],
            ["sample", "--oracle", "--task", "signal_refine", "--repeat", "2", "--dim", "1000000000000000"],
            ["profile", "--dim", "1000000000000000"],
        ],
        ids=[
            "sample-N0",
            "sample-gamma-below-1",
            "train-grid-too-large",
            "ablate-steps0",
            "train-steps0",
            "train-hidden0",
            "train-batch-size0",
            "train-log-every0",
            "train-noise-scale-nan",
            "sample-runs0",
            "sample-negative-noise-scale",
            "ablate-negative-noise-scale",
            "ablate-runs1",
            "profile-dim0",
            "profile-grid-beyond-0.999",
            "profile-negative-noise-scale",
            "profile-noise-scale-nan",
            "profile-noise-scale-inf",
            "profile-distance-nan",
            "schedule-dump-gamma-nan",
            "sample-noise-scale-inf",
            "sample-gamma-nan",
            "sample-gamma-inf",
            "train-noise-scale-inf",
            "train-lr-nan",
            "train-lr-negative",
            "train-time-features-overflow",
            "ablate-noise-scale-inf",
            "verify-override-not-a-number",
            "verify-override-nan",
            "verify-negative-mc",
            "train-hidden-empty",
            "ablate-hidden-empty",
            "train-shift-nan",
            "sample-shift-inf",
            "train-angle-nan",
            "sample-angle-inf",
            "schedule-dump-N-unallocatable",
            "sample-N-unallocatable",
            "sample-runs-unallocatable",
            "train-batch-size-unallocatable",
            "train-hidden-unallocatable",
            "ablate-runs-unallocatable",
            "train-dim-unallocatable",
            "sample-dim-unallocatable",
            "profile-dim-unallocatable",
        ],
    )
    def test_bad_argument_exits_two_before_any_output(self, tmp_path, capsys, argv):
        out = str(tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main(argv + _seed_flag(argv) + ["--out-dir", out])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--steps", "2", "--hidden", "4"],
            ["sample", "--oracle", "--runs", "4", "--N", "4"],
            ["verify", "--suite", "schedules", "--mc", "4"],
            ["ablate", "--axis", "gamma", "--values", "1,2", "--steps", "2", "--hidden", "4",
             "--runs", "4"],
        ],
        ids=["train", "sample", "verify", "ablate"],
    )
    def test_seed_outside_u64_exits_two(self, tmp_path, capsys, argv, seed):
        """A seed is a Philox key word: 2^64 + 5 and -2^64 + 5 used to alias
        seed 5, and -1 to alias 2^64 - 1, with the given seed in the manifest."""
        out = str(tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", seed, "--out-dir", out])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: seed must be an integer in [0, 2^64), got {seed}\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "argv",
        [["train", "--steps", "2", "--hidden", "4"], ["sample", "--oracle", "--runs", "4", "--N", "4"]],
        ids=["train", "sample"],
    )
    def test_task_seed_outside_u64_exits_two(self, tmp_path, capsys, argv):
        """--task-seed is a split index of the data stream: -1 aliased 2^64 - 1."""
        out = str(tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--task-seed", "-1", "--seed", "1", "--out-dir", out])
        assert exc.value.code == 2
        assert "must be an integer in [0, 2^64), got -1" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "step,argv",
        [
            ("train", ["train", "--steps", "2", "--hidden", "4"]),
            ("evaluate", ["sample", "--oracle", "--runs", "4"]),
            ("evaluate", ["ablate", "--axis", "gamma", "--values", "1,2", "--steps", "2",
                          "--hidden", "4", "--runs", "4"]),
            ("run_suite", ["verify", "--suite", "schedules", "--mc", "4"]),
            ("target_profile", ["profile", "--grid", "0:0.9:5"]),
            ("shifted", ["schedule", "dump", "--N", "4"]),
        ],
        ids=["train", "sample", "ablate", "verify", "profile", "schedule-dump"],
    )
    def test_memory_error_while_computing_exits_two(self, tmp_path, capsys, monkeypatch, step, argv):
        """A MemoryError from a command's compute step is a usage error, and the
        out dir is never made."""

        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 14.2 PiB")

        monkeypatch.setattr(f"bridgelab.cli.{step}", refuse)
        out = str(tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main(argv + _seed_flag(argv) + ["--out-dir", out])
        assert exc.value.code == 2
        assert capsys.readouterr().err == "error: Unable to allocate 14.2 PiB\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize("objective", ["displacement", "velocity", "stabilized_velocity"])
    @pytest.mark.parametrize(
        "overflow",
        [["--s", "1e200"], ["--distance2", "1e308"]],
        ids=["s-closed", "distance2-closed"],  # the closed-form S(t), the only one there is
    )
    def test_overflowing_profile_exits_two(self, tmp_path, capsys, objective, overflow):
        """Finite inputs whose S(t) or its integral overflow float64 write no NaN profile."""
        out = str(tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--objective", objective, *overflow, "--out-dir", out])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: profile ")
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "trained,sampled",
        [
            (["--task", "grid_colorize", "--grid-size", "2"], ["--task", "gaussian_shift"]),
            (["--task", "moons_rotate"], ["--task", "gaussian_shift"]),
            (["--task", "gaussian_shift"], ["--task", "moons_rotate"]),
        ],
        ids=["grid-model-on-gaussian-shift", "moons-model-on-gaussian-shift",
             "gaussian-shift-model-on-moons"],
    )
    def test_params_for_another_task_exits_two(self, tmp_path, capsys, trained, sampled):
        """A model whose state or context width is not the task's is rejected."""
        train_dir = str(tmp_path / "train")
        argv = ["train", *trained, "--hidden", "4", "--steps", "2", "--seed", "1"]
        assert main(argv + ["--out-dir", train_dir]) == 0
        capsys.readouterr()
        params = os.path.join(train_dir, "params.bin")
        out = str(tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main(["sample", *sampled, "--params", params, "--seed", "1", "--out-dir", out])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(f"error: --params {params} holds a model")
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--suite", "schedules", "--out", "manifest.json"],
            ["schedule", "dump", "--N", "3", "--out", "x.csv"],
            ["sample", "--oracle", "--seed", "1", "--runs", "4", "--traj"],
            ["schedule", "dump", "--N", "3", "--config", "/nonexistent.json"],
        ],
        ids=["verify-out", "schedule-dump-out", "sample-flag-prefix", "config-after-subcommand"],
    )
    def test_unknown_flag_is_rejected(self, tmp_path, capsys, monkeypatch, argv):
        """Only --out-dir names where a command writes, and a flag is matched
        exactly: neither --out nor a prefix of another flag is accepted.
        --config is read only before the subcommand, so after it the file is
        never opened."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_out_in_config_is_rejected(self, tmp_path, capsys):
        path = str(tmp_path / "config.json")
        with open(path, "w") as fh:
            json.dump({"out": "r.json"}, fh)
        with pytest.raises(SystemExit) as exc:
            main(["--config", path, "verify", "--suite", "schedules", "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: --config {path}: no option is named out\n"
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("cut", [3, 8])
    def test_truncated_params_names_file_and_sizes(self, tmp_path, capsys, cut):
        """A container short of its payload is reported with its path, the bytes
        found and the bytes its header's count needs."""
        train_dir = str(tmp_path / "train")
        argv = ["train", "--steps", "3", "--seed", "1", "--out-dir", train_dir]
        assert main(argv) == 0
        params = os.path.join(train_dir, "params.bin")
        with open(params, "rb") as fh:
            raw = fh.read()
        with open(params, "wb") as fh:
            fh.write(raw[:-cut])
        payload = len(raw) - raw.index(b"\n") - 1
        capsys.readouterr()
        out = str(tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--params", params, "--seed", "1", "--out-dir", out])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert params in err and str(payload - cut) in err and str(payload) in err, err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("grid", ["a:b", "0:0.5:2.5", "0:0.5:-1", "1,x"])
    def test_bad_grid_names_the_flag(self, tmp_path, capsys, grid):
        out = str(tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--grid", grid, "--out-dir", out])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--grid" in err and grid in err and "start:stop:count" in err, err
        assert not os.path.exists(out)

    def test_unknown_override_is_named(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "schedules", "--override", "nosuchcheck=1", "--out-dir", out])
        assert exc.value.code == 2
        assert capsys.readouterr().err == "error: suite 'schedules' has no check named nosuchcheck\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "argv,values",
        [
            (["sample", "--oracle", "--runs", "0"], ["got 0"]),
            (["train", "--shift", "1,2,3"], ["length 2", "got 3"]),
            (["train", "--task", "grid_colorize", "--grid-size", "9"], ["[2, 8]", "got 9"]),
            (["train", "--task", "signal_refine", "--dim", "10", "--repeat", "4"], ["10", "4"]),
        ],
        ids=["sample-runs0", "train-shift-length", "train-grid-too-large", "train-repeat-not-a-divisor"],
    )
    def test_task_error_names_its_values(self, tmp_path, capsys, argv, values):
        """A task parameter or pair count out of its domain is reported with the value given."""
        out = str(tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "1", "--out-dir", out])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert all(value in err for value in values), err
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "content",
        [None, "directory", "{not json", "[1, 2]"],
        ids=["missing", "directory", "invalid-json", "json-list"],
    )
    def test_bad_config_file_exits_two(self, tmp_path, capsys, content):
        """A missing file, a directory, invalid JSON and a JSON list."""
        config = str(tmp_path / "config.json")
        if content == "directory":
            os.mkdir(config)
        elif content is not None:
            with open(config, "w") as fh:
                fh.write(content)
        out = str(tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main(["--config", config, "schedule", "dump", "--N", "4", "--out-dir", out])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "config",
        [{"steps": 5.5}, {"hidden": 32.5}, {"hidden": []}, {"lr": "fast"}, {"steps": None},
         {"zero_context": 1}, {"task": "bogus"}, {"optimizer": ["adam", "sgd"]}],
        ids=["float-steps", "float-hidden", "empty-hidden", "text-lr", "null-steps",
             "number-for-flag", "unknown-choice", "list-for-choice"],
    )
    def test_bad_config_value_exits_two(self, tmp_path, capsys, config):
        """Config values go through their option's type and choices, like flag text."""
        path = str(tmp_path / "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        out = str(tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main(["--config", path, "train", "--steps", "3", "--seed", "1", "--out-dir", out])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not os.path.exists(out)

    def test_unknown_config_key_is_named(self, tmp_path, capsys):
        path = str(tmp_path / "config.json")
        with open(path, "w") as fh:
            json.dump({"stepz": 5}, fh)
        out = str(tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main(["--config", path, "train", "--steps", "3", "--seed", "1", "--out-dir", out])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: --config {path}: no option is named stepz\n"
        assert not os.path.exists(out)

    def test_unwritable_out_dir_exits_two(self, tmp_path, capsys):
        blocker = str(tmp_path / "file")
        with open(blocker, "w") as fh:
            fh.write("x")
        with pytest.raises(SystemExit) as exc:
            main(["schedule", "dump", "--N", "4", "--out-dir", blocker])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(f"error: cannot make output directory {blocker}")

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_params_exits_two(self, tmp_path, capsys, kind):
        params = str(tmp_path / "params.bin")
        if kind == "directory":
            os.mkdir(params)
        out = str(tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--params", params, "--seed", "1", "--out-dir", out])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read --params {params}")
        assert not os.path.exists(out)


class TestAblateCommand:
    def test_non_finite_score_is_an_error_row(self, tmp_path):
        """Pairs 1.4e154 apart: seed 2's one training step draws t = 0.68, so
        its displacement target (1 - t)(x1 - x0) and gradient stay finite,
        but the scores of the endpoints overflow. Each cell is an error row."""
        out = str(tmp_path)
        argv = ["ablate", "--shift", "1e154,1e154", "--objective", "displacement", "--s", "0",
                "--axis", "steps", "--values", "2,4", "--steps", "1", "--batch-size", "1",
                "--hidden", "1", "--time-features", "2", "--runs", "4", "--seed", "2"]
        assert main([*argv, "--out-dir", out]) == 0
        rows = read_csv_rows(os.path.join(out, "ablate_steps.csv"))
        assert [r["value"] for r in rows] == ["2", "4"]
        for row in rows:
            assert row["status"].startswith("error:non-finite paired_mse")
            assert row["energy_distance"] == ""
        assert sha256_of(os.path.join(out, "ablate_steps.csv")) == PINNED_ABLATE_ERROR_CSV

    def test_failed_shared_training_is_an_error_row(self, tmp_path):
        """Seed 1's one training step overflows the gradient. On the steps
        axis the shared model is trained inside each cell, so each cell is an
        error row, as on the objective axis."""
        out = str(tmp_path)
        argv = ["ablate", "--shift", "1e154,1e154", "--objective", "displacement", "--s", "0",
                "--axis", "steps", "--values", "2,4", "--steps", "1", "--batch-size", "1",
                "--hidden", "1", "--time-features", "2", "--runs", "4", "--seed", "1"]
        assert main([*argv, "--out-dir", out]) == 0
        rows = read_csv_rows(os.path.join(out, "ablate_steps.csv"))
        assert [r["value"] for r in rows] == ["2", "4"]
        for row in rows:
            assert row["status"] == "error:non-finite gradient at step 1"
            assert row["final_loss"] == ""

    def test_noise_scale_axis_produces_all_rows(self, tmp_path):
        out = str(tmp_path)
        code = main(
            [
                "ablate",
                "--axis",
                "noise_scale",
                "--values",
                "0,1",
                "--steps",
                "150",
                "--runs",
                "128",
                "--seed",
                "13",
                "--out-dir",
                out,
            ]
        )
        assert code == 0
        rows = read_csv_rows(os.path.join(out, "ablate_noise_scale.csv"))
        assert [r["value"] for r in rows] == ["0", "1"]
        assert all(r["status"] == "ok" for r in rows)

    def test_equal_training_configurations_train_once(self, tmp_path, monkeypatch):
        """A cell whose training configuration equals that of the last model
        trained reuses that model, whatever the axis."""
        calls = []

        def counting_train(*args, **kwargs):
            calls.append(args[3])
            return train(*args, **kwargs)

        monkeypatch.setattr("bridgelab.cli.train", counting_train)
        argv = ["ablate", "--axis", "noise_scale", "--values", "0.5,0.5", "--steps", "3",
                "--batch-size", "4", "--hidden", "4", "--runs", "4", "--N", "4", "--seed", "1"]
        assert main([*argv, "--out-dir", str(tmp_path)]) == 0
        assert [config.noise_scale for config in calls] == [0.5]
        first, second = read_csv_rows(os.path.join(str(tmp_path), "ablate_noise_scale.csv"))
        assert first["status"] == "ok" and first == second

    def test_needs_two_values(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "ablate",
                    "--axis",
                    "noise_scale",
                    "--values",
                    "1",
                    "--seed",
                    "13",
                    "--out-dir",
                    str(tmp_path),
                ]
            )
        assert exc.value.code == 2

    def test_objective_axis_ordering(self, tmp_path):
        """Table-style objective comparison through the CLI: under plain
        gradient descent the stabilized objective ends at a lower energy
        distance than raw velocity (shared seeds and sample streams)."""
        out = str(tmp_path)
        code = main(
            [
                "ablate",
                "--axis",
                "objective",
                "--values",
                "velocity,stabilized_velocity",
                "--task",
                "gaussian_shift",
                "--steps",
                "2000",
                "--optimizer",
                "sgd",
                "--lr",
                "1e-2",
                "--runs",
                "1024",
                "--seed",
                "2",
                "--out-dir",
                out,
            ]
        )
        assert code == 0
        rows = read_csv_rows(os.path.join(out, "ablate_objective.csv"))
        ed = {r["value"]: float(r["energy_distance"]) for r in rows}
        assert ed["stabilized_velocity"] <= ed["velocity"]

    def test_steps_axis_reuses_one_model_and_mse_improves(self, tmp_path):
        """Sampling-step sweep over a fixed model: at s=0 the path is a plain
        ODE integration, so paired MSE is non-increasing in N (10% slack)."""
        out = str(tmp_path)
        code = main(
            [
                "ablate",
                "--axis",
                "steps",
                "--values",
                "4,8,16,64",
                "--s",
                "0",
                "--steps",
                "600",
                "--runs",
                "512",
                "--seed",
                "13",
                "--out-dir",
                out,
            ]
        )
        assert code == 0
        rows = read_csv_rows(os.path.join(out, "ablate_steps.csv"))
        assert [r["value"] for r in rows] == ["4", "8", "16", "64"]
        mses = [float(r["paired_mse"]) for r in rows]
        for earlier, later in zip(mses, mses[1:]):
            assert later <= 1.10 * earlier
        losses = {r["final_loss"] for r in rows}
        assert len(losses) == 1  # one shared trained model across cells

    def test_gamma_axis_changes_schedule_only(self, tmp_path):
        out = str(tmp_path)
        code = main(
            [
                "ablate",
                "--axis",
                "gamma",
                "--values",
                "1,5",
                "--N",
                "8",
                "--steps",
                "150",
                "--runs",
                "128",
                "--seed",
                "13",
                "--out-dir",
                out,
            ]
        )
        assert code == 0
        rows = read_csv_rows(os.path.join(out, "ablate_gamma.csv"))
        assert [r["value"] for r in rows] == ["1", "5"]
        assert all(r["status"] == "ok" for r in rows)


class TestNumericalFailureExitCode:
    def test_divergent_training_exits_three(self, tmp_path):
        code = main(
            [
                "train",
                "--task",
                "gaussian_shift",
                "--steps",
                "2000",
                "--batch-size",
                "4",
                "--optimizer",
                "sgd",
                "--lr",
                "5.0",
                "--hidden",
                "4",
                "--time-features",
                "2",
                "--objective",
                "velocity",
                "--seed",
                "3",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 3


    @pytest.mark.parametrize(
        "argv,code",
        [
            (["train", "--s", "1e200", "--steps", "5", "--seed", "1"], 3),
            (["train", "--s", "1e308", "--steps", "3", "--batch-size", "4", "--seed", "2"], 3),
            (["train", "--s", "1e308", "--objective", "velocity", "--steps", "3",
              "--batch-size", "4", "--seed", "1"], 3),
            (["sample", "--oracle", "--s", "1e308", "--runs", "4", "--seed", "1"], 3),
            (["sample", "--oracle", "--N", "3", "--gamma", "1e300", "--runs", "4", "--seed", "1"], 0),
            (["schedule", "dump", "--N", "1000000", "--gamma", "1e308"], 2),
        ],
        ids=["train-overflow", "train-target-overflow", "train-later-step-overflow",
             "sample-overflow", "sample-extreme-gamma", "schedule-overflow"],
    )
    def test_overflow_exits_without_a_warning(self, tmp_path, capsys, argv, code):
        """Overflow is reported by the exit code and its error line alone; tier-1
        turns a RuntimeWarning on the way into a test failure."""
        try:
            assert main([*argv, "--out-dir", str(tmp_path)]) == code
        except SystemExit as exc:
            assert exc.code == code
        assert "Warning" not in capsys.readouterr().err

    def test_overflowing_update_exits_three(self, tmp_path, capsys):
        """An SGD step of 1e308 times the gradient overflows the parameters:
        the step is a numerical failure, and no params.bin is written."""
        out = str(tmp_path)
        argv = ["train", "--optimizer", "sgd", "--lr", "1e308", "--steps", "1", "--seed", "1"]
        assert main([*argv, "--out-dir", out]) == 3
        err = capsys.readouterr().err
        assert "non-finite parameters after the update at step 1" in err
        assert "Warning" not in err
        assert not os.path.exists(os.path.join(out, "params.bin"))

    def test_training_error_leaves_no_out_dir(self, tmp_path, capsys, monkeypatch):
        """A numerical failure before the first write exits 3 and makes no out dir."""

        def diverge(*args, **kwargs):
            raise NumericalError("non-finite loss at step 1")

        monkeypatch.setattr("bridgelab.cli.train", diverge)
        out = str(tmp_path / "out")
        assert main(["train", "--steps", "2", "--seed", "1", "--out-dir", out]) == 3
        assert capsys.readouterr().err == "numerical failure: non-finite loss at step 1\n"
        assert not os.path.exists(out)

    def test_non_finite_score_exits_three(self, tmp_path, capsys):
        """Endpoints 1e200 from the origin are finite, but their squared
        distances overflow: the energy distance is an error, not a NaN score."""
        out = str(tmp_path)
        argv = ["sample", "--oracle", "--shift", "1e200,0", "--runs", "64", "--seed", "1"]
        assert main([*argv, "--out-dir", out]) == 3
        assert "non-finite energy_distance" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "eval.json"))


class TestConfigPrecedence:
    def test_flags_beat_config_file_beats_defaults(self, tmp_path):
        config_path = str(tmp_path / "config.json")
        with open(config_path, "w") as fh:
            json.dump({"N": 6, "gamma": 2.0}, fh)
        out = str(tmp_path / "out")
        main(
            [
                "--config",
                config_path,
                "schedule",
                "dump",
                "--N",
                "3",
                "--out-dir",
                out,
            ]
        )
        manifest = json.loads(read(os.path.join(out, "manifest.json")))
        assert manifest["config"]["N"] == 3  # flag wins
        assert manifest["config"]["gamma"] == 2.0  # config file beats default
        rows = read_csv_rows(os.path.join(out, "schedule.csv"))
        assert len(rows) == 4

    def test_config_values_read_like_flag_text(self, tmp_path):
        """A number or list in the file means what its text would mean as a flag."""
        config_path = str(tmp_path / "config.json")
        with open(config_path, "w") as fh:
            json.dump({"hidden": 8, "shift": [1, 0], "steps": 3, "zero-context": True}, fh)
        out = str(tmp_path / "out")
        assert main(["--config", config_path, "train", "--seed", "1", "--out-dir", out]) == 0
        config = json.loads(read(os.path.join(out, "manifest.json")))["config"]
        assert config["hidden"] == [8]
        assert config["shift"] == [1.0, 0.0]
        assert config["train_config"]["steps"] == 3
        assert config["zero_context"] is True

    @pytest.mark.parametrize(
        "config,argv",
        [
            ({"seed": 3, "steps": 5}, ["train"]),
            ({"seed": 3}, ["sample", "--oracle", "--runs", "4"]),
            ({"seed": 3}, ["ablate", "--axis", "gamma", "--values", "1,2", "--steps", "2", "--runs", "2"]),
            ({"axis": "gamma"}, ["ablate", "--seed", "3", "--values", "1,2", "--steps", "2", "--runs", "2"]),
            ({"values": [1, 2]}, ["ablate", "--seed", "3", "--axis", "gamma", "--steps", "2", "--runs", "2"]),
            ({"N": 3}, ["schedule", "dump"]),
        ],
        ids=["train-seed", "sample-seed", "ablate-seed", "ablate-axis", "ablate-values", "dump-N"],
    )
    def test_config_satisfies_required_option(self, tmp_path, config, argv):
        """A required option set in the file needs no flag."""
        config_path = str(tmp_path / "config.json")
        with open(config_path, "w") as fh:
            json.dump(config, fh)
        out = str(tmp_path / "out")
        assert main(["--config", config_path, *argv, "--out-dir", out]) == 0
        resolved = json.loads(read(os.path.join(out, "manifest.json")))["config"]
        for key, value in config.items():
            expected = ",".join(map(str, value)) if isinstance(value, list) else value
            assert resolved.get(key, resolved.get("train_config", {}).get(key)) == expected
