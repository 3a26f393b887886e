"""Statistical verification suites: every closed-form claim gets an oracle.

Each check compares a measured quantity against a bound (pass iff
measured <= bound). Bounds come from the analytic sampling distribution of
the estimator (4.5-sigma family-wise bounds on Monte-Carlo means, 2-5%
relative or 0.01-0.02 absolute tolerances, the 0.999 quantile of a
chi-square goodness of fit, and round-off or exact-zero requirements) and
can be overridden by name. Given a seed and a draw count, every suite is
fully deterministic, so reports are byte-stable. That holds although the
sampler suite's endpoint-variance sweep runs on two threads: ``run_suite``
shares its combinations between a worker and the calling thread, and the
check reports their maximum. Measurements run the library's own code paths
(state construction, targets, alpha^2, the trainer's ``step_blocks`` draws
and the integrator), so a check certifies the code that trains and samples,
not a re-derivation of it.

Suites: bridge (marginal/conditional moments and target identities),
objectives (normalization law, loss-contribution profiles and S(t) on the
trainer's draws), sampler (endpoint exactness and variance laws), schedules
(grid contract).
"""

from __future__ import annotations

import itertools
import json
import math
import threading
from typing import Callable

import numpy as np

from .bridge import (
    T_CLAMP,
    EndpointPair,
    conditional_variance,
    displacement_target,
    interpolate,
    marginal_variance,
    sample_state,
    velocity_target,
)
from .model import ModelConfig
from .numerics import RngStream, _integer, gaussian, uniform
from .objectives import (
    ObjectiveKind,
    alpha_factor,
    default_profile_grid,
    expected_target_sqnorm,
    loss,
    target_profile,
)
from .sampler import endpoint_statistics, integrate, oracle_field, plan_steps
from .schedules import Schedule, shifted
from .tasks import TaskSpec, pair_provider
from .trainer import TrainConfig, step_blocks

SUITES = ("bridge", "objectives", "sampler", "schedules", "all")

# Fixed desk-scale endpoint pair, a (1, D) batch, shared by the statistical suites.
_X0 = np.array([[0.3, -1.2]])
_X1 = np.array([[1.7, 0.4]])

# Chi-square goodness of fit of the Gaussian source: 20 equiprobable bins
# with standard-normal quantile edges, and the 0.999 quantile of chi-square
# with 19 degrees of freedom (scipy.stats.chi2.ppf(0.999, 19), bit for bit).
_CHI2_999_DF19 = 43.82019596451753


def _gof_edges() -> np.ndarray:
    """The 21 bin edges; statistics is imported here so no other command loads it."""
    from statistics import NormalDist

    quantiles = map(NormalDist().inv_cdf, np.linspace(0.0, 1.0, 21)[1:-1])
    return np.array([-math.inf, *quantiles, math.inf])


# A suite's result: (check name, measured, bound); it passes iff measured <= bound.
Check = tuple[str, float, float]


# ---------------------------------------------------------------------------
# bridge suite
# ---------------------------------------------------------------------------


def bridge_suite(seed: int, mc: int = 100_000) -> list[Check]:
    rng = RngStream(seed=seed).split(1)
    pair = EndpointPair(_X0, _X1)
    d = pair.dimension
    checks: list[Check] = []
    # The fixed relative tolerances are calibrated for 1e5 draws; never run
    # the variance laws with less, whatever --mc asks for.
    mc = max(mc, 100_000)

    # Mean deviations are reported in estimator sigmas with a family-wise
    # bound of 4.5 (18 coordinate comparisons; a literal 3-sigma gate flags
    # ~5% of correct runs). Variance bounds are the stated 3% relative, which
    # is ~6.7 sigma at 1e5 draws. States come from the library's (B, D)
    # sample_state on the pair broadcast over the draws.
    drawn = EndpointPair(np.broadcast_to(_X0, (mc, d)), np.broadcast_to(_X1, (mc, d)))
    for ti, t in enumerate((0.1, 0.5, 0.9)):
        for si, s in enumerate((0.5, 1.0, 2.0)):
            eps = gaussian(rng.split(10 * ti + si), (mc, d))
            states = sample_state(drawn, t, eps, s).state
            true_var = marginal_variance(t, s)
            mean_dev = np.max(np.abs(states.mean(axis=0) - interpolate(pair, t)))
            checks.append(
                (f"marginal_mean_sigma_t{t}_s{s}", mean_dev / math.sqrt(true_var / mc), 4.5)
            )
            var_dev = np.max(np.abs(states.var(axis=0, ddof=1) / true_var - 1.0))
            checks.append((f"marginal_var_t{t}_s{s}", var_dev, 0.03))
            del eps, states  # before the next check draws its own (mc, D) arrays

    # Conditional variance through the corrected sampler: on the grid
    # [0, t1, t2, 1] with the oracle drift, the step from t1 to t2 adds
    # noise whose variance must be Var(X_t2 | X_t1).
    field = oracle_field(pair.x1)
    for i, (t1, t2) in enumerate(((0.25, 0.5), (0.5, 0.75), (0.1, 0.9))):
        s = 1.0
        path = []
        integrate(
            drawn.x0,
            field,
            Schedule([0.0, t1, t2, 1.0]),
            "corrected",
            s,
            rng.split(100 + i),
            lambda k, states: path.append(states if k in (1, 2) else None),
        )
        _, states1, states2, _ = path
        residual = states2 - states1 - (t2 - t1) * field(states1, t1)
        emp_cond_var = residual.var(axis=0, ddof=1)
        true_cond = conditional_variance(t1, t2, s)
        checks.append(
            (f"conditional_var_{t1}_{t2}", np.max(np.abs(emp_cond_var / true_cond - 1.0)), 0.03)
        )
        del path, states1, states2, residual

    # Deterministic identities on a sweep of 200 random samples. Each (t, s,
    # eps) is drawn in turn from the stream; the sweep then runs as one batch
    # with one time per row, each row's noise scale folded into its eps.
    ident = rng.split(200)
    draws = [(uniform(ident, ()), uniform(ident, ()), gaussian(ident, d)) for _ in range(200)]
    t, s, eps = (np.array(column) for column in zip(*draws))
    t, s = t * 0.99, s * 3.0
    swept = EndpointPair(np.broadcast_to(_X0, eps.shape), np.broadcast_to(_X1, eps.shape))
    sample = sample_state(swept, t, s[:, None] * eps, 1.0)
    u = velocity_target(swept, sample)
    dsp = displacement_target(swept, sample)
    scale = np.maximum(1.0, np.max(np.abs(dsp), axis=1))
    identity = np.max(np.abs(dsp - (1.0 - t)[:, None] * u), axis=1) / scale
    expansion = (swept.x1 - swept.x0) - (s * np.sqrt(t / (1.0 - t)))[:, None] * eps
    checks.append(("target_identity_rel", np.max(identity), 1e-15))
    checks.append(("expansion_identity_abs", np.max(np.abs(u - expansion)), 1e-12))

    pinning = max(
        marginal_variance(0.0, 1.0),
        marginal_variance(1.0, 1.0),
        float(np.max(np.abs(interpolate(pair, 0.0) - pair.x0))),
        float(np.max(np.abs(interpolate(pair, 1.0) - pair.x1))),
    )
    checks.append(("endpoint_pinning", pinning, 0.0))

    # Normal-source sanity: chi-square goodness of fit over quantile bins.
    gof_draws = 100_000
    draws = gaussian(rng.split(300), (gof_draws,))
    observed, _ = np.histogram(draws, bins=_gof_edges())
    expected = gof_draws / 20.0
    chi2_stat = float(np.sum((observed - expected) ** 2 / expected))
    checks.append(("gaussian_chi2_gof", chi2_stat, _CHI2_999_DF19))

    return checks


# ---------------------------------------------------------------------------
# objectives suite
# ---------------------------------------------------------------------------

# The trainer-draw checks bin t into this many equal bins over [0, 1 - T_CLAMP).
_TIME_BINS = 20


def _trainer_bins(seed: int, kind: ObjectiveKind) -> np.ndarray:
    """(3, 20): each time bin's count, sum and sum of squares of the training
    loss of a zero prediction, ||target||^2 / alpha^2 through
    ``objectives.loss``, over the rows ``step_blocks`` draws for ``kind``.

    The task is a gaussian_shift whose every pair has the fixed pair's
    x1 - x0, so every row shares that pair's closed form. The 25 steps of
    4096 rows are a fixed count: scaled with --mc, a huge --mc would loop for
    years instead of failing fast in numpy's allocation. No network runs: the
    smallest model config only sizes the input rows that step_blocks builds.
    """
    spec = TaskSpec("gaussian_shift", 2, shift=tuple((_X1 - _X0)[0].tolist()), seed=seed)
    config = TrainConfig(objective=kind, steps=25, batch_size=4096, seed=seed)
    model = ModelConfig(input_dim=2, hidden=(1,), time_features=2)
    sums = np.zeros((3, _TIME_BINS))
    for _, sample, alpha_sq, targets, _ in step_blocks(pair_provider(spec), config, model):
        v = loss(np.zeros_like(targets), targets, alpha_sq)[0]
        bins = np.minimum(sample.t * (_TIME_BINS / (1.0 - T_CLAMP)), _TIME_BINS - 1).astype(np.intp)
        sums += [np.bincount(bins, w, minlength=_TIME_BINS) for w in (None, v, v * v)]
    return sums


def objectives_suite(seed: int, mc: int = 100_000) -> list[Check]:
    rng = RngStream(seed=seed).split(2)
    pair = EndpointPair(_X0, _X1)
    d = pair.dimension
    diff = pair.x1 - pair.x0
    dist_sq = float(np.sum(diff * diff))
    s = 1.0
    checks: list[Check] = []

    # Worst per-point deviation in estimator sigmas. The bound of 4.5 sigma
    # keeps the family-wise false-alarm rate ~1e-4 over the 21-point grid
    # (a literal per-point 3-sigma gate would flag ~5% of correct runs).
    # The target is built inline in its expansion form, on purpose: the law
    # is checked against a form the library does not use.
    grid = np.concatenate([np.arange(0.05, 0.951, 0.05), [0.995]])
    ratio_draws = max(mc // 4, 25_000)
    worst_z = 0.0
    worst_ratio = 0.0
    for i, (t, alpha_sq) in enumerate(zip(grid.tolist(), alpha_factor(pair, grid, s))):
        eps = gaussian(rng.split(10 + i), (ratio_draws, d))
        u = (pair.x1 - pair.x0) - s * math.sqrt(t / (1.0 - t)) * eps
        u_sqnorms = np.sum(u * u, axis=1)
        stab_sqnorms = u_sqnorms / alpha_sq
        se = float(np.std(stab_sqnorms, ddof=1)) / math.sqrt(ratio_draws)
        worst_z = max(worst_z, abs(float(np.mean(stab_sqnorms)) - dist_sq) / se)
        ratio = float(np.mean(u_sqnorms)) / dist_sq
        worst_ratio = max(worst_ratio, abs(ratio / alpha_sq - 1.0))
        del eps, u, u_sqnorms, stab_sqnorms
    checks.append(("alpha_law_stabilized_worst_sigma", worst_z, 4.5))
    checks.append(("alpha_law_velocity_ratio", worst_ratio, 0.03))

    # Loss-contribution profiles against their closed-form landmarks (unit
    # distance in one dimension, unit noise scale).
    unit_pair = EndpointPair(np.array([[0.0]]), np.array([[1.0]]))
    grid_i = default_profile_grid(1000)
    _, c_v = target_profile(ObjectiveKind.VELOCITY, unit_pair, 1.0, grid_i)
    idx09 = int(np.argmin(np.abs(grid_i - 0.9)))
    checks.append(("profile_velocity_c09", abs(c_v[idx09] - 1.0 / 3.0), 0.02))
    _, c_d = target_profile(ObjectiveKind.DISPLACEMENT, unit_pair, 1.0, grid_i)
    idx05 = int(np.argmin(np.abs(grid_i - 0.5)))
    checks.append(("profile_displacement_c05", abs(c_d[idx05] - 0.751), 0.02))
    _, c_s = target_profile(ObjectiveKind.STABILIZED_VELOCITY, unit_pair, 1.0, grid_i)
    checks.append(("profile_stabilized_linear", np.max(np.abs(c_s - grid_i / 0.999)), 0.01))

    # S(t) on the trainer's own draws, binned by t. A bin's mean is gated at
    # 4.5 sigma against the closed form averaged over the bin (midpoint rule,
    # 1000 points a bin), or for the stabilized objective against the flat
    # ||x1 - x0||^2 itself, which unlike its closed form does not move with a
    # defect in alpha^2. Velocity's last bin is not gated: 1/(1 - t) makes its
    # tail heavy.
    mid = (np.arange(_TIME_BINS * 1000) + 0.5) * ((1.0 - T_CLAMP) / (_TIME_BINS * 1000))
    for kind in ObjectiveKind:
        count, total, total_sq = _trainer_bins(seed, kind)
        closed = dist_sq
        if kind is not ObjectiveKind.STABILIZED_VELOCITY:
            closed = expected_target_sqnorm(kind, pair, s, mid).reshape(_TIME_BINS, -1).mean(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):  # a bin of < 2 rows fails as NaN
            mean = total / count
            se = np.sqrt((total_sq - count * mean * mean) / ((count - 1) * count))
            z = np.abs(mean - closed) / se
        gated = z[:-1] if kind is ObjectiveKind.VELOCITY else z
        checks.append((f"trainer_profile_worst_sigma_{kind.value}", np.max(gated), 4.5))
    # The trainer's time stream does not depend on the objective, so the last
    # objective's bin counts are every objective's.
    expected = np.sum(count) / _TIME_BINS
    checks.append(("trainer_time_chi2", np.sum((count - expected) ** 2 / expected), _CHI2_999_DF19))

    # alpha monotonicity in t and in s (closed form, fine grids).
    t_grid = np.linspace(0.0, 0.99, 200)
    alphas_t = alpha_factor(pair, t_grid, 1.5)
    s_grid = np.linspace(0.0, 4.0, 200)
    alphas_s = np.concatenate([alpha_factor(pair, 0.7, v) for v in s_grid.tolist()])
    mono_violations = float(np.sum(np.diff(alphas_t) < 0) + np.sum(np.diff(alphas_s) < 0))
    checks.append(("alpha_monotonic", mono_violations, 0.0))
    alpha_floor = float(1.0 - min(np.min(alphas_t), np.min(alphas_s)))
    checks.append(("alpha_floor_at_one", alpha_floor, 0.0))

    return checks


# ---------------------------------------------------------------------------
# sampler suite
# ---------------------------------------------------------------------------


# (n_steps, gamma) of the shifted schedules the sampler suite sweeps.
_SCHEDULES_GRID = [(n, g) for n in (1, 2, 4, 16, 64) for g in (1.0, 5.0)]

# (k, n_steps, gamma, s) of the endpoint-variance sweep's 20 combinations,
# largest n first, so that the last ones taken are the shortest; k numbers
# the combination's substream.
_SWEEP = sorted(
    ((k, n, g, s) for k, ((n, g), s) in enumerate(itertools.product(_SCHEDULES_GRID, (1.0, 2.0)))),
    key=lambda combination: -combination[1],
)


class _EndpointVarianceSweep:
    """Worst relative deviation of the standard sampler's endpoint variance
    from s^2 dt_{N-1}, over the schedule grid and s in (1, 2), shared by a
    worker thread and the calling thread.

    The 5% bound is verified at 2e4 runs, so it sits at ~5 estimator sigmas
    even across the 20-combination grid. Each combination draws its own
    substream of the sampler suite's stream, so the 20 variance estimates are
    independent. The work is Philox draws and ufuncs on (20000, 2) blocks,
    which release the GIL. The worker starts on construction and takes
    combinations one at a time from ``_SWEEP``; ``result`` has the calling
    thread take from the same list. The result is a maximum, so it does not
    depend on which thread ran which combination. The first exception on
    either thread empties the list, and ``result`` raises it once the worker
    has finished its last combination.
    """

    def __init__(self, seed: int):
        self._rng = RngStream(seed=seed).split(3).split(2)
        self._todo = list(_SWEEP)
        self._worst = 0.0
        self._error: Exception | None = None
        self._lock = threading.Lock()
        self._worker = threading.Thread(target=self._run_share, name="endpoint-variance-sweep")
        self._worker.start()

    def _run_share(self) -> None:
        """Run combinations until none is left; a failure is recorded, not raised."""
        pair = EndpointPair(_X0, _X1)
        try:
            while True:
                with self._lock:
                    if not self._todo:
                        return
                    k, n, g, s = self._todo.pop(0)
                sch = shifted(n, g)
                st = endpoint_statistics(
                    "standard", oracle_field(pair.x1), pair, sch, s, 20_000, self._rng.split(k)
                )
                expected = s * s * float(sch.points[-1] - sch.points[-2])
                with self._lock:
                    self._worst = max(self._worst, abs(st.variance / expected - 1.0))
        except Exception as error:
            with self._lock:
                self._todo.clear()
                if self._error is None:
                    self._error = error

    def stop(self) -> None:
        """Leave the worker no more combinations and wait for it to finish."""
        with self._lock:
            self._todo.clear()
        self._worker.join()

    def result(self) -> float:
        """Run the calling thread's share, join the worker, and return the
        worst deviation, or raise the first exception either thread raised."""
        self._run_share()
        self._worker.join()
        if self._error is not None:
            raise self._error
        return self._worst


def sampler_suite(
    seed: int, mc: int = 100_000, *, endpoint_variance: Callable[[], float]
) -> list[Check]:
    """``endpoint_variance`` is ``_EndpointVarianceSweep(seed).result``. The
    suite calls it after its other checks, so the calling thread joins the
    sweep only once it has nothing else to do, and puts the check second in
    the report."""
    rng = RngStream(seed=seed).split(3)
    pair = EndpointPair(_X0, _X1)
    checks: list[Check] = []
    mc = max(mc, 100_000)  # fixed tolerances are calibrated for 1e5 draws

    worst_mse = 0.0
    for n, g in _SCHEDULES_GRID:
        for s in (0.0, 1.0, 2.0):
            st = endpoint_statistics(
                "corrected", oracle_field(pair.x1), pair, shifted(n, g), s, 8, rng.split(1)
            )
            worst_mse = max(worst_mse, st.mse)
    checks.append(("oracle_corrected_mse", worst_mse, 1e-20))

    st0 = endpoint_statistics(
        "standard", oracle_field(pair.x1), pair, shifted(8, 1.0), 0.0, 16, rng.split(3)
    )
    checks.append(("standard_s0_exact", st0.mse, 1e-20))

    # Final corrected step is exactly noiseless for every schedule.
    worst_eta = max(
        abs(plan_steps(shifted(n, g), "corrected", 2.0)[1][-1]) for n, g in _SCHEDULES_GRID
    )
    checks.append(("final_step_noiseless", worst_eta, 0.0))

    # Driftless accumulation: with a zero field the endpoint variance equals
    # the sum of squared per-step amplitudes (direct check of the
    # variance-corrected noise schedule).
    sch = shifted(16, 1.0)
    zero_field = lambda x, t: np.zeros_like(x)
    origin_pair = EndpointPair(np.zeros((1, 1)), np.zeros((1, 1)))
    st = endpoint_statistics("corrected", zero_field, origin_pair, sch, 1.0, mc, rng.split(4))
    _, eta = plan_steps(sch, "corrected", 1.0)
    predicted = sum(e**2 for e in eta.tolist())  # left to right, not numpy's pairwise order
    checks.append(("driftless_amplitude_accumulation", abs(st.variance / predicted - 1.0), 0.03))

    # Marginal tracking: with the conditional drift toward a zero target the
    # corrected sampler's state variance reproduces the bridge marginal
    # s^2 t (1-t) at every grid time (telescoping conditional variances).
    s = 1.0
    sch = shifted(8, 1.0)
    deviations = [0.0]

    def track(k, states):
        expected = marginal_variance(float(sch.points[k]), s)
        if expected > 0.0:
            deviations.append(abs(float(np.var(states, ddof=1)) / expected - 1.0))

    states = integrate(
        np.zeros((mc, 1)), oracle_field(np.zeros((1, 1))), sch, "corrected", s, rng.split(5), track
    )
    checks.append(("bridge_marginal_tracking", max(deviations), 0.03))
    checks.append(("bridge_marginal_endpoint_pinned", float(np.var(states, ddof=1)), 0.0))

    # Determinism: identical (seed, schedule, field) gives identical trajectories.
    def trajectory() -> list:
        states = []
        integrate(
            pair.x0,
            oracle_field(pair.x1),
            shifted(8, 5.0),
            "corrected",
            1.0,
            RngStream(seed=seed, stream=77),
            lambda k, x: states.append(x),
        )
        return states

    det = max(float(np.max(np.abs(a - b))) for a, b in zip(trajectory(), trajectory()))
    checks.append(("trajectory_determinism", det, 0.0))

    checks.insert(1, ("standard_endpoint_variance", endpoint_variance(), 0.05))
    return checks


# ---------------------------------------------------------------------------
# schedules suite
# ---------------------------------------------------------------------------


def schedules_suite(seed: int, mc: int = 0) -> list[Check]:
    del seed, mc  # deterministic contract checks
    n_values = (1, 2, 3, 7, 64, 1000, 10_000)
    gamma_values = (1.0, 1.5, 2.0, 5.0, 100.0)

    boundary = 0.0
    monotonic_violations = 0.0
    growth_violations = 0.0
    densify_violations = 0.0
    bitwise_mismatch = 0.0
    for n in n_values:
        for g in gamma_values:
            sch = shifted(n, g)
            boundary = max(boundary, abs(sch.points[0]), abs(sch.points[-1] - 1.0))
            diffs = np.diff(sch.points)
            monotonic_violations += float(np.sum(diffs <= 0.0))
            if g > 1.0:
                growth_violations += float(np.sum(np.diff(diffs) < 0.0))
                if n >= 2 and not sch.points[1] < 1.0 / n:
                    densify_violations += 1.0
        bitwise_mismatch += float(np.sum(shifted(n, 1.0).points != np.arange(n + 1) / n))

    return [
        ("boundary_exactness", boundary, 0.0),
        ("strict_monotonicity", monotonic_violations, 0.0),
        ("step_growth_gamma_gt1", growth_violations, 0.0),
        ("early_densification", densify_violations, 0.0),
        ("gamma1_bitwise_uniform", bitwise_mismatch, 0.0),
    ]


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

_SUITE_FUNCS = {
    "bridge": bridge_suite,
    "objectives": objectives_suite,
    "sampler": sampler_suite,
    "schedules": schedules_suite,
}


def run_suite(
    suite: str, seed: int = 0, mc: int = 100_000, overrides: dict | None = None
) -> dict:
    """Run one named suite (or 'all'); returns a deterministic report dict.

    ``overrides`` maps a check name to a bound that replaces the suite's own;
    a name that the suite does not check is rejected. With the sampler suite,
    a worker thread shares the endpoint-variance sweep with the calling
    thread. It is joined before this returns or raises, and the first
    exception raised on either thread reaches the caller as that object.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    mc = _integer("Monte-Carlo draw count", mc)
    if mc < 0:
        raise ValueError(f"Monte-Carlo draw count must be >= 0, got {mc}")
    RngStream(seed=seed)  # rejects a seed outside [0, 2^64), even for a suite that draws nothing
    overrides = overrides or {}
    # The sweep's worker starts now, while the selected suites run here, and
    # this thread takes what is left once the sampler suite's other checks
    # are done. Only the sweep's (20000, 2) blocks run on the worker: a
    # worker's malloc arena keeps the freed (mc, D) blocks of the bridge and
    # sampler suites, which would raise peak memory.
    sweep = _EndpointVarianceSweep(seed) if suite in ("all", "sampler") else None
    checks = []
    try:
        for name, func in _SUITE_FUNCS.items():
            if suite not in ("all", name):
                continue
            kwargs = {"endpoint_variance": sweep.result} if name == "sampler" else {}
            for check, measured, bound in func(seed=seed, mc=mc, **kwargs):
                measured = float(measured)
                bound = float(overrides.get(check, bound))
                checks.append(
                    {
                        "suite": name,
                        "name": check,
                        "measured": measured,
                        "bound": bound,
                        "passed": measured <= bound,
                    }
                )
    finally:
        if sweep is not None:
            sweep.stop()
    unknown = sorted(set(overrides) - {c["name"] for c in checks})
    if unknown:
        raise ValueError(f"suite {suite!r} has no check named {', '.join(unknown)}")
    return {
        "suite": suite,
        "seed": seed,
        "mc": mc,
        "checks": checks,
        "failed": [c["name"] for c in checks if not c["passed"]],
        "passed": all(c["passed"] for c in checks),
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
