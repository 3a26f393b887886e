"""The verify suites measure the library's own code: breaking it fails the check."""

import threading

import numpy as np
import pytest
from scipy import stats

from bridgelab import objectives, sampler, verify
from bridgelab.cli import main
from bridgelab.numerics import NumericalError
from bridgelab.verify import run_suite
from conftest import traced_peak


def failed(report: dict) -> set[str]:
    return {c["name"] for c in report["checks"] if not c["passed"]}


class TestChecksDriveLibraryCode:
    def test_conditional_variance_runs_corrected_sampler(self, monkeypatch):
        """A corrected amplitude 10% too large fails every conditional_var check."""
        plan = sampler.plan_steps

        def loud_plan(*args):
            dt, eta = plan(*args)
            return dt, 1.1 * eta

        monkeypatch.setattr(sampler, "plan_steps", loud_plan)
        names = failed(run_suite("bridge", seed=0, mc=100_000))
        assert {n for n in names if n.startswith("conditional_var_")} == {
            "conditional_var_0.25_0.5",
            "conditional_var_0.5_0.75",
            "conditional_var_0.1_0.9",
        }

    def test_mc_profile_check_runs_objective_alpha_sq(self, monkeypatch):
        """Dropping the stabilized alpha^2 fails the Monte-Carlo S(t) check."""
        monkeypatch.setattr(
            objectives, "objective_alpha_sq", lambda kind, pair, t, s: np.ones(len(pair))
        )
        assert "profile_mc_vs_closed_form_worst_sigma" in failed(
            run_suite("objectives", seed=0, mc=100_000)
        )


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        run_suite("nope")


def test_bridge_suite_releases_each_checks_arrays():
    """Each Monte-Carlo check's (1e5, 2) arrays are gone before the next
    check draws its own, so the suite peaks under 10 MB (16.7 MB when they
    were carried into the next check)."""
    checks, peak = traced_peak(verify.bridge_suite, 0)
    assert all(measured <= bound for _, measured, bound in checks)
    assert peak <= 10_000_000


def test_bridge_suite_at_the_benchmark_draw_count_peaks_at_five_state_arrays():
    """``verify --mc 100000`` reaches its peak memory in the bridge suite: the
    conditional-variance check integrates (1e5, 2) states, and the suite peaks
    at 6.8 MiB. A change that widens that working set past five (1e5, 2)
    float64 arrays (8 MB) fails here."""
    report, peak = traced_peak(run_suite, "bridge", 0, 100_000)
    assert report["passed"]
    assert peak <= 5 * 100_000 * 2 * 8


class TestChiSquareConstants:
    """The goodness-of-fit edges and bound are computed without scipy; pin them to it."""

    def test_critical_value_is_scipys_bit_for_bit(self):
        assert verify._CHI2_999_DF19 == stats.chi2.ppf(0.999, df=19)

    def test_bin_edges_are_normal_quantiles(self):
        expected = stats.norm.ppf(np.linspace(0.0, 1.0, 21))
        np.testing.assert_allclose(verify._gof_edges(), expected, rtol=0.0, atol=1e-15)


class TestEndpointVarianceSweep:
    """run_suite runs the sampler suite's endpoint-variance sweep on a worker
    thread; the report must read as if every check ran in order on one."""

    def test_all_is_the_four_suites_in_order(self):
        singles = [
            check
            for name in ("bridge", "objectives", "sampler", "schedules")
            for check in run_suite(name, seed=0)["checks"]
        ]
        assert run_suite("all", seed=0)["checks"] == singles

    @pytest.mark.parametrize(
        "seed, expected", [(0, 0.010981475582586109), (7, 0.012203157840211976)]
    )
    def test_substreams_are_pinned(self, seed, expected):
        report = run_suite("sampler", seed=seed)
        measured = {c["name"]: c["measured"] for c in report["checks"]}
        assert measured["standard_endpoint_variance"] == expected

    @pytest.mark.parametrize("worker_only", [False, True], ids=["everywhere", "worker-only"])
    def test_sweep_error_reaches_caller_and_worker_is_joined(
        self, monkeypatch, tmp_path, worker_only
    ):
        """A NumericalError keeps its type (and, from the worker, its
        identity), `verify` exits 3, and no thread outlives the call."""
        statistics = verify.endpoint_statistics
        raised = []

        def failing(*args, **kwargs):
            if worker_only and threading.current_thread() is threading.main_thread():
                return statistics(*args, **kwargs)
            raised.append(NumericalError("state became non-finite at step 0"))
            raise raised[-1]

        monkeypatch.setattr(verify, "endpoint_statistics", failing)
        before = threading.active_count()
        with pytest.raises(NumericalError) as caught:
            run_suite("sampler", seed=0)
        assert threading.active_count() == before
        if worker_only:
            assert caught.value is raised[0]
        assert main(["verify", "--suite", "all", "--out-dir", str(tmp_path)]) == 3
        assert threading.active_count() == before
        assert not (tmp_path / "verify_report.json").exists()
