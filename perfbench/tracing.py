"""Hooks, spans and per-layer metrics for the traced benchmark run.

The hooks wrap public functions of each manibo module from outside the
package; ``src/`` is never edited.  The modules import these functions by
name, so a hook replaces every module attribute that refers to the original
function, not only the one in the defining module.  ``GpModel.build`` is
replaced on the class.  A name that no longer exists is recorded as a
missing hook: its metrics read 0 and the run goes on.

Each hooked call records a span (name, start, end, parent).  Self time is a
span's duration minus the durations of its child spans; calls are
sequential, so children never overlap.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

OBJECTIVE = "experiments.objective"
LOOP = "bo.run"
OPTIMIZER_SPANS = {
    LOOP: "ebo",
    "baselines.nelder_mead": "nelder_mead",
    "baselines.riemannian_gd": "gd",
}


@dataclass(frozen=True)
class Hook:
    """One hooked function: span name, defining module, attribute path, an
    optional flag on (args, result) whose true results are counted, whether
    to keep the arguments of the latest call, and the workloads on which it
    must fire (None: all)."""

    name: str
    module: str
    attr: str
    flag: Optional[Callable] = None
    keep_args: bool = False
    workloads: Optional[tuple[str, ...]] = None


HOOKS = (
    Hook("bo.run", "manibo.bo", "run"),
    Hook("egp.fit_hyperparams", "manibo.egp", "fit_hyperparams"),
    Hook("egp.GpModel.build", "manibo.egp", "GpModel.build",
         flag=lambda args, result: getattr(result, "jitter", 0.0) > 0.0),
    Hook("egp.log_marginal_likelihood", "manibo.egp", "log_marginal_likelihood"),
    Hook("acquisition.maximize", "manibo.acquisition", "maximize", keep_args=True),
    Hook("acquisition.ascend", "manibo.acquisition", "ascend"),
    Hook("manifolds.retract_embedded", "manibo.manifolds", "retract_embedded"),
    Hook("manifolds.tangent_project_embedded", "manibo.manifolds",
         "tangent_project_embedded"),
    Hook("bo.proposal_dedup", "manibo.bo", "proposal_dedup",
         flag=lambda args, result: len(args) > 1 and result is not args[1]),
    Hook("baselines.riemannian_gd", "manibo.baselines", "riemannian_gd",
         workloads=("frechet-sphere",)),
    Hook("baselines.nelder_mead", "manibo.baselines", "nelder_mead"),
    Hook("cli.write_trace_csv", "manibo.cli", "write_trace_csv"),
)

# The CLI builds its objective through one of these factories; the hook
# wraps the ``fn`` of the objective each returns.  The oracle value a
# factory computes with ``fn`` before returning is not an evaluation.
OBJECTIVE_FACTORIES = (
    "frechet_grad_objective", "grassmann_objective", "spd_regression_objective",
)


class Tracer:
    """Spans of one traced seed run, kept in memory."""

    def __init__(self) -> None:
        # Each span: [name, start, end, parent index or -1, raised, flagged].
        self.spans: list[list] = []
        self.last_args: dict[str, tuple] = {}
        self._stack: list[int] = []

    def wrap(self, hook_name: str, fn: Callable, flag=None, keep_args=False) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        last_args = self.last_args

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            span = [hook_name, clock(), 0.0, stack[-1] if stack else -1, False, False]
            stack.append(len(spans))
            spans.append(span)
            if keep_args:
                last_args[hook_name] = args
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if flag is not None:
                span[5] = bool(flag(args, result))
            return result

        return hooked

    def wrap_objective_factory(self, factory: Callable) -> Callable:
        @functools.wraps(factory)
        def hooked_factory(*args, **kwargs):
            made = factory(*args, **kwargs)
            if hasattr(made, "base"):  # GradObjective: the baseline GD uses .base.fn
                base = made.base
                hooked = dataclasses.replace(base, fn=self.wrap(OBJECTIVE, base.fn))
                return dataclasses.replace(made, base=hooked)
            return dataclasses.replace(made, fn=self.wrap(OBJECTIVE, made.fn))

        return hooked_factory


def _manibo_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "manibo" or name.startswith("manibo."))]


class Installed:
    """Context manager that installs every hook on a tracer and restores the
    original attributes on exit.  ``missing`` lists hooks whose target is
    gone."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def _replace_everywhere(self, original, replacement) -> None:
        for module in _manibo_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, key, value))
                    setattr(module, key, replacement)

    def __enter__(self) -> "Installed":
        for hook in HOOKS:
            try:
                module = importlib.import_module(hook.module)
            except ImportError:
                self.missing.append(hook.name)
                continue
            owner_name, _, attr = hook.attr.rpartition(".")
            if owner_name:  # a method, replaced on its class
                owner = getattr(module, owner_name, None)
                descriptor = vars(owner).get(attr) if owner is not None else None
                func = getattr(descriptor, "__func__", None)
                if func is None:
                    self.missing.append(hook.name)
                    continue
                self._restore.append((owner, attr, descriptor))
                wrapped = self.tracer.wrap(hook.name, func, hook.flag, hook.keep_args)
                setattr(owner, attr, type(descriptor)(wrapped))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(hook.name)
                continue
            self._replace_everywhere(
                original,
                self.tracer.wrap(hook.name, original, hook.flag, hook.keep_args),
            )
        experiments = importlib.import_module("manibo.experiments")
        found = False
        for attr in OBJECTIVE_FACTORIES:
            original = getattr(experiments, attr, None)
            if original is not None:
                found = True
                self._replace_everywhere(
                    original, self.tracer.wrap_objective_factory(original)
                )
        if not found:
            self.missing.append(OBJECTIVE)
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    raised: int = 0
    flagged: int = 0


def summarize(spans: list[list]) -> tuple[dict[str, LayerStats], Counter]:
    """Per-name stats, and call counts keyed by (name, parent name)."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    stats: dict[str, LayerStats] = defaultdict(LayerStats)
    by_parent: Counter = Counter()
    for index, (name, start, end, parent, raised, flagged) in enumerate(spans):
        entry = stats[name]
        entry.calls += 1
        entry.total_s += end - start
        entry.self_s += end - start - child_s[index]
        entry.raised += raised
        entry.flagged += flagged
        by_parent[name, spans[parent][0] if parent >= 0 else None] += 1
    return stats, by_parent


def coverage_problems(workload, stats, by_parent, outcome, missing) -> list[str]:
    """Checks that the hooks saw all the work the outputs report.

    - objective calls under the eBO loop equal its ``n_evals``; under
      Nelder-Mead, its finite-valued rows (a failed retraction writes an
      ``inf`` row without calling the objective); under gradient descent,
      at least its ``n_evals`` (backtracks of a final rejected step are not
      recorded); and none happen outside an optimizer;
    - GpModel.build calls made directly by the loop equal its iterations;
    - every hook fires on the workloads where it should.
    """
    problems = []
    optimizers = outcome.summary["optimizers"]
    if OBJECTIVE not in missing:
        for span_name, key in OPTIMIZER_SPANS.items():
            if key not in optimizers or span_name in missing:
                continue
            calls = by_parent[OBJECTIVE, span_name]
            reported = int(optimizers[key]["n_evals"])
            if key == "nelder_mead":
                finite = sum(row["f_next"] not in ("inf", "nan")
                             for row in outcome.csv_rows[key])
                ok = calls == finite
            elif key == "gd":
                ok = calls >= reported
            else:
                ok = calls == reported
            if not ok:
                problems.append(
                    f"{OBJECTIVE}: {calls} calls under {span_name}, outputs report {reported}"
                )
        strays = stats[OBJECTIVE].calls - sum(
            by_parent[OBJECTIVE, span_name] for span_name in OPTIMIZER_SPANS
        )
        if strays and not any(span_name in missing for span_name in OPTIMIZER_SPANS):
            problems.append(f"{OBJECTIVE}: {strays} calls outside any optimizer")
    if "egp.GpModel.build" not in missing and LOOP not in missing:
        loop_builds = by_parent["egp.GpModel.build", LOOP]
        iterations = int(optimizers["ebo"]["iterations"])
        if loop_builds != iterations:
            problems.append(
                f"egp.GpModel.build: {loop_builds} loop builds for {iterations} iterations"
            )
    for hook in HOOKS:
        expected = hook.workloads is None or workload.name in hook.workloads
        if expected and hook.name not in missing and stats[hook.name].calls == 0:
            problems.append(f"{hook.name}: never fired")
    if OBJECTIVE not in missing and stats[OBJECTIVE].calls == 0:
        problems.append(f"{OBJECTIVE}: never fired")
    return problems


PROBE_POINTS = 64
PROBE_REPEATS = 3


def probe_us(state, seed: int) -> dict[str, Optional[float]]:
    """µs per call of ``posterior`` and of ``pi_value`` + ``pi_gradient_ambient``
    on the loop's final acquisition state, at seeded random points.

    The loop reaches these only through private helpers, so they are called
    here directly.  Returns None for a function that no longer exists.
    """
    manibo_egp = importlib.import_module("manibo.egp")
    acquisition = importlib.import_module("manibo.acquisition")
    manifolds = importlib.import_module("manibo.manifolds")
    posterior = getattr(manibo_egp, "posterior", None)
    pi_value = getattr(acquisition, "pi_value", None)
    pi_gradient = getattr(acquisition, "pi_gradient_ambient", None)
    random_point = getattr(manifolds, "random_point", None)
    result: dict[str, Optional[float]] = {"egp.posterior.us": None, "acquisition.pi.us": None}
    if state is None or random_point is None:
        return result
    rng = np.random.default_rng(seed)
    points = [random_point(state.model.data.kind, rng) for _ in range(PROBE_POINTS)]

    def per_call_us(call) -> float:
        times = []
        for _ in range(PROBE_REPEATS):
            tick = time.perf_counter()
            for point in points:
                call(point)
            times.append((time.perf_counter() - tick) / len(points) * 1e6)
        return statistics.median(times)

    if posterior is not None:
        result["egp.posterior.us"] = per_call_us(lambda x: posterior(state.model, x))
    if pi_value is not None and pi_gradient is not None:
        result["acquisition.pi.us"] = per_call_us(
            lambda x: (pi_value(state, x), pi_gradient(state, x))
        )
    return result


def layer_metrics(
    stats, by_parent, run_s: float, iterations: int, probes: dict
) -> dict[str, float]:
    """Per-layer metrics of one traced seed run; shares are of ``run_s``,
    the whole ``manibo run`` call."""
    build = stats["egp.GpModel.build"]
    retract = stats["manifolds.retract_embedded"]
    objective = stats[OBJECTIVE]
    fit = stats["egp.fit_hyperparams"]
    maximize = stats["acquisition.maximize"]
    loop_builds = by_parent["egp.GpModel.build", LOOP]
    return {
        "egp.fit_hyperparams.calls": fit.calls,
        "egp.fit_hyperparams.s": fit.total_s,
        "egp.fit_hyperparams.share": fit.total_s / run_s,
        "egp.GpModel.build.calls": build.calls,
        "egp.GpModel.build.self_s": build.self_s,
        "egp.GpModel.build.jitter": build.flagged,
        "egp.GpModel.build.failed": build.raised,
        "egp.build.useful_ratio": loop_builds / build.calls if build.calls else 0.0,
        "egp.log_marginal_likelihood.calls": stats["egp.log_marginal_likelihood"].calls,
        "egp.log_marginal_likelihood.self_s": stats["egp.log_marginal_likelihood"].self_s,
        "egp.posterior.us": probes["egp.posterior.us"] or 0.0,
        "acquisition.maximize.calls": maximize.calls,
        "acquisition.maximize.s": maximize.total_s,
        "acquisition.maximize.share": maximize.total_s / run_s,
        "acquisition.ascend.calls": stats["acquisition.ascend"].calls,
        "acquisition.ascend.self_s": stats["acquisition.ascend"].self_s,
        "acquisition.ascend.failed": stats["acquisition.ascend"].raised,
        "acquisition.pi.us": probes["acquisition.pi.us"] or 0.0,
        "manifolds.retract_embedded.calls": retract.calls,
        "manifolds.retract_embedded.self_s": retract.self_s,
        "manifolds.retract_embedded.self_share": retract.self_s / run_s,
        "manifolds.tangent_project_embedded.calls":
            stats["manifolds.tangent_project_embedded"].calls,
        "manifolds.tangent_project_embedded.self_s":
            stats["manifolds.tangent_project_embedded"].self_s,
        "bo.run.s": stats[LOOP].total_s,
        "bo.iterations": iterations,
        "bo.proposal_dedup.calls": stats["bo.proposal_dedup"].calls,
        "bo.proposal_dedup.self_s": stats["bo.proposal_dedup"].self_s,
        "bo.proposal_dedup.perturbed": stats["bo.proposal_dedup"].flagged,
        "experiments.objective.calls": objective.calls,
        "experiments.objective.self_s": objective.self_s,
        "experiments.objective.share": objective.self_s / run_s,
        "baselines.riemannian_gd.s": stats["baselines.riemannian_gd"].total_s,
        "baselines.nelder_mead.s": stats["baselines.nelder_mead"].total_s,
        "cli.write_trace_csv.s": stats["cli.write_trace_csv"].total_s,
    }
