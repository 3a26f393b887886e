"""The verify suites measure the library's own code: breaking it fails the check."""

import math
import sys
import threading

import numpy as np
import pytest
from scipy import stats

from bridgelab import objectives, sampler, trainer, verify
from bridgelab.cli import main
from bridgelab.numerics import NumericalError
from bridgelab.schedules import Schedule
from bridgelab.verify import run_suite
from conftest import traced_peak


def failed(report: dict) -> set[str]:
    return {c["name"] for c in report["checks"] if not c["passed"]}


def _worst_sigma(*kinds: str) -> set[str]:
    return {f"trainer_profile_worst_sigma_{kind}" for kind in kinds}


# One defect per row, as (module, function, mutant of it, the trainer-draw
# checks that it fails), each patched where the trainer's step_blocks looks the
# function up.
_DRAW_MUTANTS = {
    "state-noise-variance-x1.1": (
        trainer, "sample_state", lambda f: lambda pair, t, eps, s: f(pair, t, eps, s * math.sqrt(1.1)),
        _worst_sigma("displacement", "velocity", "stabilized_velocity", "stabilized_velocity_s2"),
    ),
    "velocity-over-1-t-plus-1e-3": (
        objectives, "velocity_target",
        lambda f: lambda pair, sample: f(pair, sample) * ((1 - sample.t) / (1 - sample.t + 1e-3))[:, None],
        _worst_sigma("stabilized_velocity", "stabilized_velocity_s2"),
    ),
    "alpha-sq-without-D": (
        objectives, "alpha_factor", lambda f: lambda pair, t, s: 1 + (f(pair, t, s) - 1) / pair.dimension,
        _worst_sigma("stabilized_velocity", "stabilized_velocity_s2"),
    ),
    "alpha-sq-s-in-place-of-s-squared": (
        objectives, "alpha_factor", lambda f: lambda pair, t, s: f(pair, t, math.sqrt(s)),
        _worst_sigma("stabilized_velocity_s2"),
    ),
    "alpha-sq-ones": (
        trainer, "objective_alpha_sq", lambda f: lambda kind, pair, t, s: np.ones(len(pair)),
        _worst_sigma("stabilized_velocity", "stabilized_velocity_s2"),
    ),
    "time-squared": (
        trainer, "uniform", lambda f: lambda rng, shape: f(rng, shape) ** 2,
        _worst_sigma("displacement", "velocity") | {"trainer_time_chi2"},
    ),
    "noise-x0.9": (
        trainer, "gaussian", lambda f: lambda rng, shape: 0.9 * f(rng, shape),
        _worst_sigma("displacement", "velocity", "stabilized_velocity", "stabilized_velocity_s2"),
    ),
    "loss-weight-1-over-alpha": (
        verify, "loss", lambda f: lambda prediction, targets, alpha_sq: f(prediction, targets, np.sqrt(alpha_sq)),
        _worst_sigma("stabilized_velocity", "stabilized_velocity_s2"),
    ),
}


def _sampler_plan(dt_factor=1.0, standard_eta_sq_factor=1.0):
    """A mutant of ``plan_steps`` that scales every dt, or the standard eta^2."""

    def mutate(plan):
        def mutant(schedule, mode, s):
            dt, eta = plan(schedule, mode, s)
            if mode == "standard":
                eta = eta * math.sqrt(standard_eta_sq_factor)
            return dt * dt_factor, eta

        return mutant

    return mutate


def _one_ulp_off_at_gamma_1(shifted):
    def mutant(n, gamma):
        schedule = shifted(n, gamma)
        if gamma != 1.0 or n < 2:
            return schedule
        points = schedule.points.copy()
        points[1] = np.nextafter(points[1], 1.0)
        return Schedule(points)

    return mutant


# One defect per row, as (suite, module, function, mutant of it, every check
# of the suite that it fails), each patched where the suite's code looks the
# function up.
_SUITE_MUTANTS = {
    "M1-state-noise-variance-x1.1": (
        "bridge", verify, "sample_state",
        lambda f: lambda pair, t, eps, s: f(pair, t, eps, s * math.sqrt(1.1)),
        {f"marginal_var_t{t}_s{s}" for t in (0.1, 0.5, 0.9) for s in (0.5, 1.0, 2.0)} | {"expansion_identity_abs"},
    ),
    "M4-standard-eta-sq-x1.1": (
        "sampler", sampler, "plan_steps", _sampler_plan(standard_eta_sq_factor=1.1), {"standard_endpoint_variance"},
    ),
    "M5-integrate-dt-x1.01": (
        "sampler", sampler, "plan_steps", _sampler_plan(dt_factor=1.01),
        {"oracle_corrected_mse", "standard_s0_exact", "bridge_marginal_endpoint_pinned"},
    ),
    "shifted-one-ulp-off-at-gamma-1": (
        "schedules", verify, "shifted", _one_ulp_off_at_gamma_1, {"gamma1_bitwise_uniform"},
    ),
    "alpha-sq-over-1-t-plus-1e-3": (
        "objectives", objectives, "alpha_factor",
        lambda f: lambda pair, t, s: 1 + (f(pair, t, s) - 1) * (1 - t) / (1 - t + 1e-3),
        {"profile_stabilized_linear"} | _worst_sigma("stabilized_velocity", "stabilized_velocity_s2"),
    ),
    "alpha-sq-x1.02": (
        "objectives", objectives, "alpha_factor", lambda f: lambda pair, t, s: 1.02 * f(pair, t, s),
        _worst_sigma("stabilized_velocity", "stabilized_velocity_s2"),
    ),
}


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

    @pytest.mark.parametrize("mutant", list(_DRAW_MUTANTS))
    def test_trainer_draw_checks_fail_on_defects(self, monkeypatch, mutant):
        """A defect in the trainer's draws, or in the state, target and alpha^2
        code that they run through, or in the loss that weighs them, fails the
        named trainer-draw checks and no other of them. The eight suites take
        about 1 s."""
        module, name, mutate, expected = _DRAW_MUTANTS[mutant]
        monkeypatch.setattr(module, name, mutate(getattr(module, name)))
        names = failed(run_suite("objectives", seed=0, mc=100_000))
        assert {n for n in names if n.startswith("trainer_")} == expected

    @pytest.mark.parametrize("mutant", list(_SUITE_MUTANTS))
    def test_suite_checks_fail_on_defects(self, monkeypatch, mutant):
        """A defect in the state noise, alpha^2, the sampler's step plan or
        the schedule grid fails exactly the named checks of its suite. The six
        suites take about 1 s."""
        suite, module, name, mutate, expected = _SUITE_MUTANTS[mutant]
        monkeypatch.setattr(module, name, mutate(getattr(module, name)))
        assert failed(run_suite(suite, seed=0, mc=100_000)) == expected


@pytest.mark.parametrize("seed", [0, 7])
def test_objectives_suite_builds_no_target_of_its_own(monkeypatch, seed):
    """The objectives suite draws nothing through verify's own Gaussian: its
    draws are the trainer's. On the unit pair the stabilized C(t) is the line
    t / 0.999 exactly, so its check reads 0.0 under its round-off bound."""

    def refusing(*args):
        raise AssertionError("the objectives suite drew a target of its own")

    monkeypatch.setattr(verify, "gaussian", refusing)
    report = run_suite("objectives", seed=seed)
    assert report["passed"]
    measured = {c["name"]: c["measured"] for c in report["checks"]}
    assert measured["profile_stabilized_linear"] == 0.0


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        run_suite("nope")


@pytest.mark.parametrize("mc", [2.5, True], ids=["float", "bool"])
def test_draw_count_must_be_an_integer(mc):
    """A float or bool draw count is rejected, not run and written into the report."""
    with pytest.raises(ValueError, match=f"Monte-Carlo draw count must be an integer, got {mc!r}"):
        run_suite("schedules", 0, mc)


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
    """run_suite submits the sampler suite's endpoint-variance sweep to a
    one-worker pool, and the calling thread runs the combinations that the
    worker has not started; the report must read as if every check ran in
    order on one thread."""

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

    def test_each_combination_runs_once(self, monkeypatch):
        """Each combination runs on the worker or, once cancelled there, on
        the calling thread, and none is run twice or skipped, which the
        maximum that the check reports need not show."""
        shifted, statistics = verify.shifted, verify.endpoint_statistics
        made, ran = {}, []

        def recording_shifted(n, g):
            schedule = shifted(n, g)
            made[schedule] = (n, g)
            return schedule

        def recording(mode, field, pair, schedule, s, runs, rng):
            if runs == 20_000:
                ran.append((*made[schedule], s))
            return statistics(mode, field, pair, schedule, s, runs, rng)

        monkeypatch.setattr(verify, "shifted", recording_shifted)
        monkeypatch.setattr(verify, "endpoint_statistics", recording)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to expose an unlocked take or update
        try:
            report = run_suite("sampler", seed=0)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(ran) == sorted((n, g, s) for n, g in verify._SCHEDULES_GRID for s in (1.0, 2.0))
        measured = {c["name"]: c["measured"] for c in report["checks"]}
        assert measured["standard_endpoint_variance"] == 0.010981475582586109

    def test_calling_thread_takes_its_share(self, monkeypatch):
        """The worker holds its first combination until the calling thread has
        run 19, so the calling thread must take every combination that the
        worker has not started, from the last one back."""
        shifted, statistics = verify.shifted, verify.endpoint_statistics
        made, ran = {}, {"main": [], "worker": []}
        main_done = threading.Event()

        def recording_shifted(n, g):
            schedule = shifted(n, g)
            made[schedule] = (n, g)
            return schedule

        def holding(mode, field, pair, schedule, s, runs, rng):
            if runs == 20_000:
                on_main = threading.current_thread() is threading.main_thread()
                ran["main" if on_main else "worker"].append((*made[schedule], s))
                if not on_main and len(ran["worker"]) == 1:
                    main_done.wait(timeout=60)
                if on_main and len(ran["main"]) == 19:
                    main_done.set()
            return statistics(mode, field, pair, schedule, s, runs, rng)

        monkeypatch.setattr(verify, "shifted", recording_shifted)
        monkeypatch.setattr(verify, "endpoint_statistics", holding)
        report = run_suite("sampler", seed=0)
        assert (len(ran["main"]), len(ran["worker"])) == (19, 1)
        assert ran["worker"] == [verify._SWEEP[0][1:]]
        assert sorted(ran["main"] + ran["worker"]) == sorted(c[1:] for c in verify._SWEEP)
        measured = {c["name"]: c["measured"] for c in report["checks"]}
        assert measured["standard_endpoint_variance"] == 0.010981475582586109

    @pytest.mark.parametrize("suite", ["bridge", "objectives", "schedules"])
    def test_suites_without_sampler_start_no_worker(self, monkeypatch, suite):
        """Only the sampler suite sweeps, so no other suite may start a worker
        or run a sweep combination."""

        def refusing(*args):
            raise AssertionError("a suite without the sampler ran the sweep")

        threads = set(threading.enumerate())
        seen = []
        func = verify._SUITE_FUNCS[suite]

        def watched(**kwargs):
            seen.append(set(threading.enumerate()))
            checks = func(**kwargs)
            seen.append(set(threading.enumerate()))
            return checks

        monkeypatch.setattr(verify, "endpoint_statistics", refusing)
        monkeypatch.setitem(verify._SUITE_FUNCS, suite, watched)
        assert run_suite(suite, seed=0)["passed"]
        assert seen == [threads, threads]
        assert threads == {threading.current_thread()}

    @pytest.mark.parametrize("fails", ["everywhere", "worker-only", "main-only"])
    def test_sweep_error_reaches_caller_and_worker_is_joined(self, monkeypatch, tmp_path, fails):
        """The first NumericalError reaches the caller as the object raised,
        `verify` exits 3, and no thread outlives the call. Outside worker-only,
        the calling thread fails only once the worker has started its first
        combination (everywhere: at the calling thread's first sampler call;
        main-only: in its share of the sweep). The worker holds that
        combination until the failure, finishes it, and then starts no other."""
        statistics = verify.endpoint_statistics
        raised = []
        worker_started, main_failed = threading.Event(), threading.Event()
        worker_started_after_failure = []

        def failing(*args):
            on_main = threading.current_thread() is threading.main_thread()
            in_sweep = args[5] == 20_000  # each sweep combination integrates 20000 runs
            if on_main and (fails == "worker-only" or (fails == "main-only" and not in_sweep)):
                return statistics(*args)
            if on_main:
                worker_started.wait(timeout=60)
            elif fails != "worker-only":
                worker_started_after_failure.append(main_failed.is_set())
                worker_started.set()
                main_failed.wait(timeout=60)
                result = statistics(*args)
                if fails == "main-only":
                    return result
            raised.append(NumericalError("state became non-finite at step 0"))
            if on_main:
                main_failed.set()
            raise raised[-1]

        monkeypatch.setattr(verify, "endpoint_statistics", failing)
        before = threading.active_count()
        with pytest.raises(NumericalError) as caught:
            run_suite("sampler", seed=0)
        assert threading.active_count() == before
        assert caught.value is raised[0]
        if fails != "worker-only":
            assert worker_started_after_failure == [False]
        worker_started.clear()
        main_failed.clear()
        assert main(["verify", "--suite", "all", "--out-dir", str(tmp_path)]) == 3
        assert threading.active_count() == before
        assert not (tmp_path / "verify_report.json").exists()
