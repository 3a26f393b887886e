"""Traced run: spans around calls into each bridgelab layer, and the per-layer metrics.

The wrappers live here, not in the program. ``Tracer.install`` replaces each
target function wherever a bridgelab module holds a reference to it (module
attributes, including ``from x import y`` copies and aliases, and module-level
dicts such as ``verify._SUITE_FUNCS``), so the wrapper is what the calling
module looks up. ``uninstall`` puts the originals back. A target whose module
or name does not exist is skipped and the metrics it feeds are reported as
absent, so a refactor that removes a public name does not break the traced
run. The untraced run never imports this module.

Self time is a call's duration minus the durations of the wrapped calls made
inside it; a layer's self time is the sum over its targets. Every value is per
op (one train + sample + verify session).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

# ---------------------------------------------------------------------------
# hooks: count work at the boundary, from arguments and results
# ---------------------------------------------------------------------------


def _arg(target: "Target", name: str, args: tuple, kwargs: dict):
    i = target.positions.get(name)
    if i is not None and i < len(args):
        return args[i]
    return kwargs.get(name)


def _count_rng(tracer: "Tracer", target: "Target", fn, args, kwargs):
    out = fn(*args, **kwargs)
    tracer.counters["numerics.rng_values"] += out.size
    return out


def _model_hook(pass_factor: int):
    """forward costs 2 flops per weight per row; backward re-runs forward and
    forms weight and input gradients, 3x that."""

    def hook(tracer: "Tracer", target: "Target", fn, args, kwargs):
        out = fn(*args, **kwargs)
        config = _arg(target, "config", args, kwargs)
        x = _arg(target, "x", args, kwargs)
        if config is None or x is None:
            tracer.missing.add("model.flops")
            return out
        rows = x.shape[0] if getattr(x, "ndim", 1) == 2 else 1
        widths = config.layer_widths
        weights = sum(a * b for a, b in zip(widths[:-1], widths[1:]))
        tracer.counters[f"{target.layer}_rows"] += rows
        tracer.counters["model.flops"] += 2 * pass_factor * rows * weights
        return out

    return hook


def _count_pairs(tracer: "Tracer", target: "Target", fn, args, kwargs):
    out = fn(*args, **kwargs)
    tracer.counters["tasks.pairs_generated"] += len(out)
    return out


def _count_ed_pairs(tracer: "Tracer", target: "Target", fn, args, kwargs):
    a = _arg(target, "a", args, kwargs)
    b = _arg(target, "b", args, kwargs)
    if a is None or b is None:
        tracer.missing.add("tasks.energy_distance_pairs")
    else:
        na, nb = len(a), len(b)
        tracer.counters["tasks.energy_distance_pairs"] += na * nb + na * na + nb * nb
    return fn(*args, **kwargs)


def _integrator(tracer: "Tracer", target: "Target", fn, args, kwargs):
    """Counts steps and field evaluations at the outermost integrator only."""
    if tracer.integrator_depth > 0:
        return fn(*args, **kwargs)
    args = list(args)
    wrapped_any = False
    for name in ("field", "field_batch", "make_field"):
        value = _arg(target, name, args, kwargs)
        if value is None:
            continue
        counted = tracer.counting_factory(value) if name == "make_field" else tracer.counting_field(value)
        i = target.positions[name]
        if i < len(args):
            args[i] = counted
        else:
            kwargs[name] = counted
        wrapped_any = True
    if not wrapped_any:
        tracer.missing.add("sampler.field_calls")
    schedule = _arg(target, "schedule", args, kwargs)
    if schedule is None:
        tracer.missing.add("sampler.steps")
    else:
        tracer.counters["sampler.steps"] += schedule.n_steps
    tracer.integrator_depth += 1
    try:
        return fn(*args, **kwargs)
    finally:
        tracer.integrator_depth -= 1


# ---------------------------------------------------------------------------
# targets
# ---------------------------------------------------------------------------


@dataclass
class Target:
    module: str
    name: str
    layer: str
    hook: Callable | None = None
    present: bool = False
    positions: dict = field(default_factory=dict)
    calls: int = 0
    incl_ns: int = 0
    self_ns: int = 0

    @property
    def qualname(self) -> str:
        return f"{self.module.removeprefix('bridgelab.')}.{self.name}"


def default_targets() -> list[Target]:
    t = Target
    model = "bridgelab.model"
    return [
        t("bridgelab.numerics", "gaussian", "numerics.rng", _count_rng),
        t("bridgelab.numerics", "uniform", "numerics.rng", _count_rng),
        *(t("bridgelab.bridge", n, "bridge") for n in (
            "interpolate", "sample_state", "velocity_target", "displacement_target",
            "marginal_variance", "conditional_variance", "sample_joint")),
        *(t("bridgelab.objectives", n, "objectives") for n in (
            "alpha_factor", "stabilized_target", "raw_target", "loss", "loss_gradient",
            "expected_target_sqnorm", "target_profile")),
        t(model, "forward", "model.forward", _model_hook(1)),
        t(model, "backward", "model.backward", _model_hook(3)),
        t("bridgelab.trainer", "train", "trainer"),
        t("bridgelab.trainer", "train_step", "trainer"),
        t("bridgelab.tasks", "generate_pairs", "tasks.generate_pairs", _count_pairs),
        t("bridgelab.tasks", "energy_distance", "tasks.energy_distance", _count_ed_pairs),
        # integrators; sampler.integrate is the planned single integrator
        t("bridgelab.tasks", "simulate_endpoints_for_pairs", "sampler", _integrator),
        t("bridgelab.sampler", "integrate", "sampler", _integrator),
        t("bridgelab.sampler", "sample", "sampler", _integrator),
        t("bridgelab.sampler", "simulate_endpoints", "sampler", _integrator),
        *(t("bridgelab.sampler", n, "sampler") for n in (
            "step", "plan_steps", "noise_amplitude", "endpoint_statistics")),
        t("bridgelab.schedules", "uniform", "schedules"),
        t("bridgelab.schedules", "shifted", "schedules"),
        *(t("bridgelab.verify", f"{s}_suite", f"verify.{s}") for s in (
            "bridge", "objectives", "sampler", "schedules")),
        t("bridgelab.cli", "main", "cli"),
    ]


class Tracer:
    def __init__(self, targets: list[Target] | None = None):
        self.targets = default_targets() if targets is None else targets
        self.counters: Counter = Counter()
        self.missing: set[str] = set()  # counts a hook could not take
        self.integrator_depth = 0
        self.step_ns: list[int] = []  # inclusive train_step durations, all traced ops
        self._frames: list[list] = []  # [child_ns] per open wrapped call
        self._undo: list[tuple] = []
        self._resolve()

    # -- installation -------------------------------------------------------

    def _resolve(self) -> None:
        for tg in self.targets:
            try:
                fn = getattr(importlib.import_module(tg.module), tg.name)
            except (ImportError, AttributeError):
                continue
            tg.present = callable(fn)
            if tg.present:
                try:
                    tg.positions = {p: i for i, p in enumerate(inspect.signature(fn).parameters)}
                except (TypeError, ValueError):
                    tg.positions = {}

    def install(self) -> None:
        """Wrap every present target for one op; counters restart at zero."""
        self.counters = Counter()
        for tg in self.targets:
            tg.calls = tg.incl_ns = tg.self_ns = 0
        originals = {}
        for tg in self.targets:
            if tg.present:
                fn = getattr(importlib.import_module(tg.module), tg.name)
                originals[id(fn)] = (fn, self._wrap(fn, tg))
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    setattr(mod, key, originals[id(value)][1])
                    self._undo.append((mod.__dict__, key, value))
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in originals and originals[id(v)][0] is v:
                            value[k] = originals[id(v)][1]
                            self._undo.append((value, k, v))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            owner[key] = value
        self._undo.clear()

    def _wrap(self, fn, tg: Target):
        frames = self._frames
        clock = time.perf_counter_ns
        hook = tg.hook
        tracer = self
        keep_steps = tg.qualname == "trainer.train_step"

        def wrapper(*args, **kwargs):
            frame = [0]
            frames.append(frame)
            start = clock()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(tracer, tg, fn, args, kwargs)
            finally:
                dur = clock() - start
                frames.pop()
                if frames:
                    frames[-1][0] += dur
                tg.calls += 1
                tg.incl_ns += dur
                tg.self_ns += dur - frame[0]
                if keep_steps:
                    tracer.step_ns.append(dur)

        return functools.update_wrapper(wrapper, fn)

    def counting_field(self, field_fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters["sampler.field_calls"] += 1
            return field_fn(*args, **kwargs)

        return counted

    def counting_factory(self, make_field):
        def make(*args, **kwargs):
            return self.counting_field(make_field(*args, **kwargs))

        return make

    # -- results ------------------------------------------------------------

    def op_snapshot(self) -> dict:
        """Per-op totals of the op just traced, keyed by metric name (absent: None)."""
        present: dict[str, bool] = {}
        calls_n, incl_ns, self_ns = Counter(), Counter(), Counter()
        for tg in self.targets:
            present[tg.layer] = present.get(tg.layer, False) or tg.present
            calls_n[tg.layer] += tg.calls
            incl_ns[tg.layer] += tg.incl_ns
            self_ns[tg.layer] += tg.self_ns

        def calls(layer):
            return calls_n[layer] if present.get(layer) else None

        def self_s(layer):
            return self_ns[layer] / 1e9 if present.get(layer) else None

        def incl_s(layer):
            return incl_ns[layer] / 1e9 if present.get(layer) else None

        def count(name, layer):
            return self.counters[name] if present.get(layer) and name not in self.missing else None

        snap = {
            "numerics.rng_calls": calls("numerics.rng"),
            "numerics.rng_values": count("numerics.rng_values", "numerics.rng"),
            "numerics.rng_s": self_s("numerics.rng"),
            "bridge.calls": calls("bridge"),
            "bridge.s": self_s("bridge"),
            "objectives.calls": calls("objectives"),
            "objectives.s": self_s("objectives"),
            "model.forward_calls": calls("model.forward"),
            "model.forward_rows": count("model.forward_rows", "model.forward"),
            "model.forward_s": self_s("model.forward"),
            "model.backward_calls": calls("model.backward"),
            "model.backward_s": self_s("model.backward"),
            "model.flops": count("model.flops", "model.forward"),
            "trainer.step_s": self_s("trainer"),
            "tasks.generate_pairs_s": incl_s("tasks.generate_pairs"),
            "tasks.pairs_generated": count("tasks.pairs_generated", "tasks.generate_pairs"),
            "tasks.energy_distance_s": self_s("tasks.energy_distance"),
            "tasks.energy_distance_pairs": count("tasks.energy_distance_pairs", "tasks.energy_distance"),
            "sampler.integrate_s": self_s("sampler"),
            "sampler.steps": count("sampler.steps", "sampler"),
            "sampler.field_calls": count("sampler.field_calls", "sampler"),
            "schedules.s": self_s("schedules"),
            "verify.bridge_s": incl_s("verify.bridge"),
            "verify.objectives_s": incl_s("verify.objectives"),
            "verify.sampler_s": incl_s("verify.sampler"),
            "verify.schedules_s": incl_s("verify.schedules"),
            "cli.self_s": self_s("cli"),
        }
        snap["numerics.rng_ns_per_value"] = _ratio(snap["numerics.rng_s"], snap["numerics.rng_values"], 1e9)
        model_s = None
        if snap["model.forward_s"] is not None and snap["model.backward_s"] is not None:
            model_s = snap["model.forward_s"] + snap["model.backward_s"]
        snap["model.gflops_per_s"] = _ratio(snap["model.flops"], model_s, 1e-9)
        snap["tasks.energy_distance_ns_per_pair"] = _ratio(
            snap["tasks.energy_distance_s"], snap["tasks.energy_distance_pairs"], 1e9
        )
        return snap

    def step_percentiles(self) -> tuple[float | None, float | None]:
        if len(self.step_ns) < 2:
            return None, None
        q = statistics.quantiles([d / 1e6 for d in self.step_ns], n=10)
        return q[4], q[8]


def _ratio(num, den, scale):
    if num is None or den is None or den == 0:
        return None
    return num / den * scale


def _package_modules():
    """Every loaded bridgelab module: the places a reference to a target can live."""
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "bridgelab" or name.startswith("bridgelab."))
    ]
