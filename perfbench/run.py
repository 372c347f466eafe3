"""Benchmark of manibo: one closed-loop client that drives ``manibo run``
through the public ``manibo.cli.main`` entry point, in-process, one seed at
a time, and checks every seed's outputs against the closed-form oracle.

    python3 perfbench/run.py --workload frechet-sphere --seed 0 --seconds 30 --trace 0

``--trace 0`` first runs the probe seeds that ``--seed`` selects, then
cycles through the workload's measured set (fixed run seeds, in an order
that ``--seed`` rotates) until ``--seconds`` have passed and every measured
seed has run; it reports the end-to-end metrics over the measured set, with
each time in nominal seconds (see speed.py).
``--trace 1`` runs the seeds that ``--seed`` selects, each once untraced
and once with hooks on every module's public functions, and reports the
per-layer metrics and the tracing overhead.  ``--smoke`` cuts the budget to
a few iterations and the measured set to one seed, for the benchmark's own
tests.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
describe the run and the environment.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import speed
from workloads import WORKLOADS, OutputError, SeedOutcome, check_seed_output

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench-out"

# The workload process and its set-up children run with one BLAS/OpenMP
# thread: multithreaded BLAS on the small matrices here adds CPU time and
# wall-time spread, not speed.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_SAMPLES = 5
# The run seeds of workload seed s are (s + 1) * SEED_STRIDE + 0, 1, ..., so
# they never coincide with a measured set (run seeds 0 .. measured_seeds - 1).
SEED_STRIDE = 10_000
PROBE_SEEDS = 1  # seed-selected runs before the measured set; also the warm-up
SMOKE_ITERS = 2

# name -> (unit, better); the end-to-end metrics, reported with --trace 0.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s.mean": ("s", "lower"),
    "iter_ms.p90": ("ms", "lower"),
    "neg_log10_err.p50": ("digits", "higher"),
    "evals_to_tol.p50": ("count", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
DETERMINISTIC = ("neg_log10_err.p50", "evals_to_tol.p50")

# name -> (unit, better); the per-layer metrics, reported with --trace 1.
# Counts and seconds are means per traced seed run; shares are of the
# traced ``manibo run`` call.
PER_LAYER = {
    "egp.fit_hyperparams.calls": ("count", "lower"),
    "egp.fit_hyperparams.s": ("s", "lower"),
    "egp.fit_hyperparams.share": ("ratio", "lower"),
    "egp.GpModel.build.calls": ("count", "lower"),
    "egp.GpModel.build.self_s": ("s", "lower"),
    "egp.GpModel.build.jitter": ("count", "lower"),
    "egp.GpModel.build.failed": ("count", "lower"),
    "egp.build.useful_ratio": ("ratio", "higher"),
    "egp.log_marginal_likelihood.calls": ("count", "lower"),
    "egp.log_marginal_likelihood.self_s": ("s", "lower"),
    "egp.posterior.us": ("us", "lower"),
    "acquisition.maximize.calls": ("count", "lower"),
    "acquisition.maximize.s": ("s", "lower"),
    "acquisition.maximize.share": ("ratio", "lower"),
    "acquisition.ascend.calls": ("count", "lower"),
    "acquisition.ascend.self_s": ("s", "lower"),
    "acquisition.ascend.failed": ("count", "lower"),
    "acquisition.pi.us": ("us", "lower"),
    "manifolds.retract_embedded.calls": ("count", "lower"),
    "manifolds.retract_embedded.self_s": ("s", "lower"),
    "manifolds.retract_embedded.self_share": ("ratio", "lower"),
    "manifolds.tangent_project_embedded.calls": ("count", "lower"),
    "manifolds.tangent_project_embedded.self_s": ("s", "lower"),
    "bo.run.s": ("s", "lower"),
    "bo.iterations": ("count", "higher"),
    "bo.proposal_dedup.calls": ("count", "lower"),
    "bo.proposal_dedup.self_s": ("s", "lower"),
    "bo.proposal_dedup.perturbed": ("count", "lower"),
    "experiments.objective.calls": ("count", "lower"),
    "experiments.objective.self_s": ("s", "lower"),
    "experiments.objective.share": ("ratio", "lower"),
    "baselines.riemannian_gd.s": ("s", "lower"),
    "baselines.nelder_mead.s": ("s", "lower"),
    "cli.write_trace_csv.s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
    "trace.missing_hooks": ("count", "lower"),
    "trace.coverage_failed": ("count", "lower"),
}


@dataclass
class SeedRun:
    run_s: float
    outcome: Optional[SeedOutcome]  # None when the run failed
    bad_output: bool  # the run completed but its output failed a check
    ref_s: float = field(default=math.nan)  # the reference's time around the run

    @property
    def nominal_s(self) -> float:
        return speed.nominal(self.run_s, self.ref_s)

    def nominal_iter_ms(self) -> list[float]:
        return [speed.nominal(ms, self.ref_s) for ms in self.outcome.iter_ms]

    @property
    def ok(self) -> bool:
        return self.outcome is not None and self.outcome.met_tolerance


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_ITERS} iterations per seed and a one-seed measured set")
    return parser.parse_args(argv)


def measure_setup(samples: int) -> tuple[float, float]:
    """Time of a fresh interpreter that imports the CLI, i.e. from workload
    process start to the point where ``manibo run`` can be called: the
    median in nominal seconds and the median in wall seconds."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import manibo.cli"
    nominal, wall = [], []
    ref_before = speed.reference_s()
    for _ in range(samples):
        tick = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                       stdout=subprocess.DEVNULL)
        wall.append(time.perf_counter() - tick)
        ref_after = speed.reference_s()
        nominal.append(speed.nominal(wall[-1], (ref_before + ref_after) / 2))
        ref_before = ref_after
    return statistics.median(nominal), statistics.median(wall)


def calibrated(run: SeedRun, ref_before: float) -> float:
    """Set the run's reference time from the reference timed before it and
    once more now; returns the new reference time."""
    ref_after = speed.reference_s()
    run.ref_s = (ref_before + ref_after) / 2
    return ref_after


def run_seed(cli_main, workload, seed: int, out_dir: Path, iters) -> SeedRun:
    """One ``manibo run`` call, timed, then its output checks.  A failed
    seed is counted, never retried."""
    echoed = io.StringIO()
    error = None
    gc.collect()
    tick = time.perf_counter()
    try:
        with contextlib.redirect_stdout(echoed):
            cli_main(workload.cli_args(seed, out_dir, iters), standalone_mode=False)
    except SystemExit as exc:  # an aborted run exits 1
        error = f"manibo run exited with {exc.code}"
    except Exception as exc:  # noqa: BLE001 - the failure is recorded and counted
        error = f"manibo run raised {exc!r}"
    run_s = time.perf_counter() - tick
    outcome = None
    bad_output = False
    if error is None and f"seed {seed}: ok" not in echoed.getvalue():
        error = f"manibo run printed {echoed.getvalue()!r}"
    if error is None:
        try:
            outcome = check_seed_output(workload, out_dir)
        except OutputError as exc:
            error, bad_output = str(exc), True
    shutil.rmtree(out_dir, ignore_errors=True)
    if error is not None:
        print(f"# seed {seed} failed: {error}", file=sys.stderr)
    elif not outcome.met_tolerance:
        print(f"# seed {seed} missed the tolerance: log10 error {outcome.log10_err:.3f}",
              file=sys.stderr)
    return SeedRun(run_s, outcome, bad_output)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def completed_runs(measured: dict[int, list[SeedRun]]) -> dict[int, list[SeedRun]]:
    completed = {seed: [run for run in runs if run.outcome] for seed, runs in measured.items()}
    return {seed: runs for seed, runs in completed.items() if runs}


def iteration_ms(measured: dict[int, list[SeedRun]]) -> list[float]:
    """The eBO iteration times of every measured seed in nominal ms, each
    the median over that seed's runs, so that each seed weighs the same
    however often it ran."""
    return [statistics.median(times)
            for runs in completed_runs(measured).values()
            for times in zip(*(run.nominal_iter_ms() for run in runs))]


def end_to_end_metrics(measured: dict[int, list[SeedRun]], setup_s: float) -> dict:
    """Timings are in nominal seconds, each measured seed's the median over
    its runs.  ``run_s.mean`` is their mean: on a fixed set of seeds, a
    mean averages the remaining noise over every seed, where a median
    would take it from the one or two middle seeds.  The oracle metrics
    are over each measured seed's first run."""
    completed = completed_runs(measured)
    firsts = [runs[0] for runs in measured.values()]
    never = max((runs[0].outcome.budget + 1 for runs in completed.values()), default=0)
    per_seed_s = [_median([run.nominal_s for run in runs]) for runs in completed.values()]
    return {
        "setup_s": setup_s,
        "run_s.mean": statistics.fmean(per_seed_s) if per_seed_s else 0.0,
        "iter_ms.p90": percentile(iteration_ms(measured), 90),
        # A failed seed scores 0 digits and never meets the tolerance.
        "neg_log10_err.p50": _median(
            [-run.outcome.log10_err if run.outcome else 0.0 for run in firsts]
        ),
        "evals_to_tol.p50": float(_median(
            [run.outcome.evals_to_tol if run.outcome else never for run in firsts]
        )),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_pair(cli_main, workload, seed, out_dir, iters, index):
    """The same seed untraced and traced, in alternating order; returns
    (untraced run, traced run, per-layer metrics, missing hooks, problems)."""
    import tracing

    def traced():
        tracer = tracing.Tracer()
        with tracing.Installed(tracer) as installed:
            run = run_seed(cli_main, workload, seed, out_dir, iters)
        return run, tracer, installed.missing

    if index % 2 == 0:
        plain = run_seed(cli_main, workload, seed, out_dir, iters)
        run, tracer, missing = traced()
    else:
        run, tracer, missing = traced()
        plain = run_seed(cli_main, workload, seed, out_dir, iters)
    if run.outcome is None:
        return plain, run, None, missing, []
    stats, by_parent = tracing.summarize(tracer.spans)
    problems = tracing.coverage_problems(workload, stats, by_parent, run.outcome, missing)
    state_args = tracer.last_args.get("acquisition.maximize")
    probes = tracing.probe_us(state_args[0] if state_args else None, seed)
    missing = missing + [name for name, value in probes.items() if value is None]
    iterations = int(run.outcome.summary["optimizers"]["ebo"]["iterations"])
    layers = tracing.layer_metrics(stats, by_parent, run.run_s, iterations, probes)
    return plain, run, layers, missing, problems


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "manibo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; "none"
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def blas_threads() -> dict:
    """Thread count that each loaded OpenBLAS reports, by library file name."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return found
    for library in sorted(libraries):
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[Path(library).name] = getter()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy
    from importlib.metadata import version

    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "click": version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_threads": blas_threads(),
    }


def report(metrics: dict, table: dict, extra: dict) -> None:
    for name, value in metrics.items():
        unit, better = table[name]
        note = " (deterministic)" if name in DETERMINISTIC else ""
        print(f"#   {name:<44} {value:>14.6g} {unit:<6} {better} is better{note}")
    for name, (value, unit, note) in extra.items():
        print(f"#   {name:<44} {value:>14.6g} {unit:<6} {note}")


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("MANIBO_OUT", None)  # it would override --out
    sys.path.insert(0, str(SRC))
    try:
        from manibo.cli import main as cli_main
    except ImportError as exc:
        print(f"perfbench: cannot import manibo from {SRC}: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    iters = SMOKE_ITERS if args.smoke else None
    first_seed = (args.seed + 1) * SEED_STRIDE
    if not args.trace:
        setup_s, setup_wall_s = measure_setup(1 if args.smoke else SETUP_SAMPLES)
        measured_set = list(range(1 if args.smoke else workload.measured_seeds))
        shift = args.seed % len(measured_set)
        order = measured_set[shift:] + measured_set[:shift]

    out_base = OUT_ROOT / f"{workload.name}-{os.getpid()}"
    runs: list[SeedRun] = []  # the probe runs, or with --trace 1 the traced runs
    plain_runs: list[SeedRun] = []
    measured: dict[int, list[SeedRun]] = {}
    layer_runs: list[dict] = []
    missing: set[str] = set()
    problems: list[str] = []
    start = time.perf_counter()
    try:
        if not args.trace:
            ref_s = speed.reference_s()
            for seed in range(first_seed, first_seed + PROBE_SEEDS):
                runs.append(run_seed(cli_main, workload, seed, out_base / f"seed-{seed}", iters))
                ref_s = calibrated(runs[-1], ref_s)
            for index, seed in enumerate(itertools.cycle(order)):
                if index >= len(order) and time.perf_counter() - start >= args.seconds:
                    break
                run = run_seed(cli_main, workload, seed, out_base / f"seed-{seed}", iters)
                ref_s = calibrated(run, ref_s)
                measured.setdefault(seed, []).append(run)
        for index in range(SEED_STRIDE if args.trace else 0):
            if index >= 1 and time.perf_counter() - start >= args.seconds:
                break
            seed = first_seed + index
            plain, run, layers, seed_missing, seed_problems = traced_pair(
                cli_main, workload, seed, out_base / f"seed-{seed}", iters, index
            )
            plain_runs.append(plain)
            runs.append(run)
            missing.update(seed_missing)
            problems.extend(f"seed {seed}: {problem}" for problem in seed_problems)
            if layers is not None:
                layer_runs.append(layers)
    finally:
        shutil.rmtree(out_base, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT_ROOT.rmdir()  # only when no other run is using it

    # A seed run fails when it aborts, raises or writes output that breaks
    # the contract; only the last makes the result incorrect.  A run that
    # completes but misses the tolerance is not a failed operation; it counts
    # in failed_frac and evals_to_tol.
    measured_runs = [run for seed_runs in measured.values() for run in seed_runs]
    attempted = runs + plain_runs + measured_runs
    failed = sum(run.outcome is None for run in attempted)
    correct = not any(run.bad_output for run in attempted)
    own = f"run seeds {first_seed}..{first_seed + len(runs) - 1}"
    if args.trace:
        print(f"# perfbench {workload.name} --seed {args.seed} --trace 1: closed loop, "
              f"1 client, {own}, each untraced and traced")
    else:
        print(f"# perfbench {workload.name} --seed {args.seed} --trace 0: closed loop, "
              f"1 client, probe {own}, then {len(measured_runs)} runs of the measured set "
              f"(run seeds 0..{len(order) - 1}, starting at {order[0]})")
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    if args.trace:
        metrics = {name: statistics.fmean(layers[name] for layers in layer_runs)
                   if layer_runs else 0.0
                   for name in PER_LAYER if not name.startswith("trace.")}
        traced_s = [run.run_s for run in runs if run.outcome]
        plain_s = [run.run_s for run in plain_runs if run.outcome]
        metrics["trace.overhead"] = _median(traced_s) / _median(plain_s) if plain_s else 0.0
        metrics["trace.missing_hooks"] = len(missing)
        metrics["trace.coverage_failed"] = len(problems)
        for name in sorted(missing):
            print(f"# missing hook: {name} (its metrics read 0)")
        for problem in problems:
            print(f"# coverage check failed: {problem}")
        print(f"# per-layer metrics, means over {len(layer_runs)} traced seed runs:")
        report(metrics, PER_LAYER, {})
    else:
        metrics = end_to_end_metrics(measured, setup_s)
        iter_ms = iteration_ms(measured)
        completed = completed_runs(measured)
        # Each distinct run seed once: the first run of each measured seed, and the probes.
        distinct = [seed_runs[0] for seed_runs in measured.values()] + runs
        measured_runs = [run for seed_runs in completed.values() for run in seed_runs]
        print(f"# end-to-end metrics, times in nominal seconds: run_s over "
              f"{len(completed)} measured seeds ({len(measured_runs)} completed runs), "
              f"iter_ms over {len(iter_ms)} iterations (each a median over its seed's "
              f"runs), oracle metrics over the {len(measured)} measured seeds:")
        wall_s = [_median([run.run_s for run in seed_runs]) for seed_runs in completed.values()]
        report(metrics, END_TO_END, {
            "iter_ms.p50": (_median(iter_ms), "ms", "lower is better (not bounded: see README)"),
            "setup_wall_s": (setup_wall_s, "s", "setup_s in wall seconds"),
            "run_wall_s.mean": (statistics.fmean(wall_s) if wall_s else 0.0, "s",
                                "run_s.mean in wall seconds"),
            "ref_ms.p50": (1e3 * _median([run.ref_s for run in measured_runs]), "ms",
                           f"the reference's time ({1e3 * speed.NOMINAL_REF_S:g} ms nominal)"),
            "log10_err.p50": (-metrics["neg_log10_err.p50"], "log10",
                              "lower is better (deterministic)"),
            "failed_frac": (sum(not run.ok for run in distinct) / len(distinct),
                            "ratio", "lower is better (deterministic): measured and probe "
                            "seeds that failed or missed the tolerance"),
        })
    print(json.dumps({"correct": correct, "attempted": len(attempted),
                      "failed": failed, "metrics": {
                          name: {"value": value, "unit": (PER_LAYER if args.trace
                                                          else END_TO_END)[name][0]}
                          for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
