"""Command-line entry point: run the benchmark experiments, emit CSV traces
and a summary JSON.

Output contract per run directory: one ``<optimizer>.csv`` per enabled
optimizer with the fixed header ``iter,f_next,f_best,err_to_oracle,wall_ms``
(UTF-8, LF line endings, floats at 17 significant digits), plus a
``summary.json`` carrying the fully resolved configuration, oracle value,
and per-optimizer outcomes.

Per-row wall times are written only with ``--timings``; by default the cell
is left empty so identical seeds reproduce byte-identical CSV files on one
platform (one numpy/BLAS build; another build can differ in the last
digits).  The
summary JSON always reports measured wall time.  ``MANIBO_OUT`` overrides
the output directory.
"""

from __future__ import annotations

import configparser
import dataclasses
import importlib
import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import click

from . import __version__
from .baselines import nelder_mead, riemannian_gd
from .bo import BoConfig, Objective, RunTrace, run
from .egp import KernelParams
from .experiments import (
    frechet_grad_objective,
    generate_spd_regression_data,
    latitude_circle_problem,
    random_approx_problem,
    grassmann_objective,
    response_design,
    spd_regression_objective,
)

EXPERIMENTS = ("frechet-sphere", "grassmann-approx", "spd-regression", "custom")
BASELINES = ("gd", "nelder-mead")

# Per-experiment iteration and design-size defaults, applied when neither the
# config file nor a flag sets them.
DEFAULT_BUDGETS = {
    "frechet-sphere": (25, 5),
    "grassmann-approx": (30, 6),
    "spd-regression": (30, 8),
    "custom": (25, 5),
}

KNOWN_FILE_KEYS = {
    "run": {
        "experiment",
        "seed",
        "seeds",
        "iters",
        "init",
        "refit-every",
        "baselines",
        "out",
        "timings",
    },
    "kernel": {"lengthscale", "amplitude", "noise"},
    "frechet-sphere": {"latitude", "n-data"},
    "grassmann-approx": {"rows", "cols", "subspace-dim"},
    "spd-regression": {"n-locations", "noise", "bandwidth", "query"},
    "custom": {"objective"},
}


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved run configuration; every default is materialized."""

    experiment: str
    seed: int
    out: str
    iters: int
    init: int
    refit_every: int = 5
    baselines: tuple[str, ...] = ()
    seeds: Optional[tuple[int, ...]] = None
    timings: bool = False
    kernel_lengthscale: Optional[float] = None
    kernel_amplitude: Optional[float] = None
    kernel_noise: Optional[float] = None
    latitude: float = -0.5
    n_data: int = 8
    rows: int = 3
    cols: int = 6
    subspace_dim: int = 2
    n_locations: int = 75
    noise: float = 0.05
    bandwidth: float = 0.1
    query: float = 0.5
    objective: Optional[str] = None

    def kernel_params(self) -> Optional[KernelParams]:
        values = (self.kernel_lengthscale, self.kernel_amplitude, self.kernel_noise)
        if all(v is None for v in values):
            return None
        if any(v is None for v in values):
            raise ConfigError(
                "kernel lengthscale, amplitude, and noise must be set together"
            )
        return KernelParams(*values)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["seeds"] = list(self.seeds) if self.seeds is not None else None
        out["baselines"] = list(self.baselines)
        return out


def _parse_config_file(path: str) -> dict[tuple[str, str], str]:
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {exc}") from exc
    values: dict[tuple[str, str], str] = {}
    for section in parser.sections():
        if section not in KNOWN_FILE_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in KNOWN_FILE_KEYS[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            values[(section, key)] = value
    return values


def _convert(raw: str, kind: str, label: str):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            lowered = raw.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"invalid {kind} for {label}: {raw!r}") from exc


def _parse_int_list(raw: str, label: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"invalid integer list for {label}: {raw!r}") from exc


# (flag name, file section, file key, type) for every scalar setting.
_FIELD_SPECS = [
    ("experiment", "run", "experiment", "str"),
    ("seed", "run", "seed", "int"),
    ("iters", "run", "iters", "int"),
    ("init", "run", "init", "int"),
    ("refit_every", "run", "refit-every", "int"),
    ("out", "run", "out", "str"),
    ("timings", "run", "timings", "bool"),
    ("kernel_lengthscale", "kernel", "lengthscale", "float"),
    ("kernel_amplitude", "kernel", "amplitude", "float"),
    ("kernel_noise", "kernel", "noise", "float"),
    ("latitude", "frechet-sphere", "latitude", "float"),
    ("n_data", "frechet-sphere", "n-data", "int"),
    ("rows", "grassmann-approx", "rows", "int"),
    ("cols", "grassmann-approx", "cols", "int"),
    ("subspace_dim", "grassmann-approx", "subspace-dim", "int"),
    ("n_locations", "spd-regression", "n-locations", "int"),
    ("noise", "spd-regression", "noise", "float"),
    ("bandwidth", "spd-regression", "bandwidth", "float"),
    ("query", "spd-regression", "query", "float"),
    ("objective", "custom", "objective", "str"),
]


def resolve_config(config_path: Optional[str], flags: dict) -> ExperimentConfig:
    """Merge built-in defaults, the config file, and explicit flags (highest
    precedence last), then validate."""
    file_values = _parse_config_file(config_path) if config_path else {}
    merged: dict = {}
    for field_name, section, key, type_name in _FIELD_SPECS:
        if (section, key) in file_values:
            merged[field_name] = _convert(
                file_values[(section, key)], type_name, f"[{section}] {key}"
            )
        if flags.get(field_name) is not None:
            merged[field_name] = flags[field_name]

    baselines_raw = None
    if ("run", "baselines") in file_values:
        baselines_raw = file_values[("run", "baselines")]
    if flags.get("baselines") is not None:
        baselines_raw = flags["baselines"]
    if baselines_raw:
        merged["baselines"] = tuple(
            part.strip() for part in baselines_raw.split(",") if part.strip()
        )

    seeds_raw = None
    if ("run", "seeds") in file_values:
        seeds_raw = file_values[("run", "seeds")]
    if flags.get("seeds") is not None:
        seeds_raw = flags["seeds"]
    if seeds_raw:
        merged["seeds"] = _parse_int_list(seeds_raw, "seeds")

    if "experiment" not in merged:
        raise ConfigError("experiment is required (flag --experiment or [run] experiment)")
    if merged["experiment"] not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {merged['experiment']!r}; choose from {', '.join(EXPERIMENTS)}"
        )
    if "seed" not in merged:
        raise ConfigError("seed is required for reproducibility (flag --seed or [run] seed)")

    env_out = os.environ.get("MANIBO_OUT")
    if env_out:
        merged["out"] = env_out
    merged.setdefault("out", "manibo-runs")

    default_iters, default_init = DEFAULT_BUDGETS[merged["experiment"]]
    merged.setdefault("iters", default_iters)
    merged.setdefault("init", default_init)

    cfg = ExperimentConfig(**merged)
    for baseline in cfg.baselines:
        if baseline not in BASELINES:
            raise ConfigError(
                f"unknown baseline {baseline!r}; choose from {', '.join(BASELINES)}"
            )
    if "gd" in cfg.baselines and cfg.experiment != "frechet-sphere":
        raise ConfigError(
            "the gd baseline needs an analytic gradient and is only available "
            "for frechet-sphere"
        )
    if cfg.iters < 0 or cfg.init < 1:
        raise ConfigError("iters must be >= 0 and init >= 1")
    if cfg.experiment == "custom" and not cfg.objective:
        raise ConfigError("custom experiment requires objective = module:callable")
    cfg.kernel_params()  # validates pairing
    return cfg


def _load_custom_objective(dotted_path: str, seed: int) -> Objective:
    module_name, _, attr = dotted_path.partition(":")
    if not module_name or not attr:
        raise ConfigError(
            f"objective must look like module:callable, got {dotted_path!r}"
        )
    try:
        module = importlib.import_module(module_name)
        factory = getattr(module, attr)
    except (ImportError, AttributeError) as exc:
        raise ConfigError(f"cannot load objective {dotted_path!r}: {exc}") from exc
    objective = factory(seed)
    if not isinstance(objective, Objective):
        raise ConfigError(
            f"objective factory {dotted_path!r} did not return an Objective"
        )
    return objective


def _build_objective(cfg: ExperimentConfig, seed: int):
    """Returns (objective, grad_objective or None, init points or None)."""
    if cfg.experiment == "frechet-sphere":
        problem = latitude_circle_problem(n_points=cfg.n_data, z=cfg.latitude)
        grad_obj = frechet_grad_objective(problem)
        return grad_obj.base, grad_obj, None
    if cfg.experiment == "grassmann-approx":
        problem = random_approx_problem(
            n=cfg.rows, m=cfg.cols, p=cfg.subspace_dim, seed=seed
        )
        return grassmann_objective(problem), None, None
    if cfg.experiment == "spd-regression":
        problem = generate_spd_regression_data(
            n=cfg.n_locations,
            noise=cfg.noise,
            seed=seed,
            bandwidth=cfg.bandwidth,
            query=cfg.query,
        )
        init = response_design(problem, cfg.init, seed)
        return spd_regression_objective(problem), None, init
    return _load_custom_objective(cfg.objective, seed), None, None


def _format_float(value: float) -> str:
    return format(value, ".17g")


def write_trace_csv(trace: RunTrace, path: Path, timings: bool = False) -> None:
    """One row per trace record; the oracle column holds log10 of the
    extrinsic distance to the oracle (empty when no oracle is known)."""
    lines = ["iter,f_next,f_best,err_to_oracle,wall_ms"]
    for rec in trace.records:
        if rec.err_to_oracle is None:
            err = ""
        else:
            err = _format_float(math.log10(max(rec.err_to_oracle, 1e-300)))
        wall = _format_float(rec.wall_ms) if timings else ""
        lines.append(
            f"{rec.iteration},{_format_float(rec.value)},"
            f"{_format_float(rec.best_value)},{err},{wall}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def _optimizer_summary(trace: RunTrace, csv_name: str, wall_ms: float) -> dict:
    final = trace.final
    return {
        "final_value": final.best_value,
        "err_to_oracle": final.err_to_oracle,
        "log10_err": (
            math.log10(max(final.err_to_oracle, 1e-300))
            if final.err_to_oracle is not None
            else None
        ),
        "n_evals": final.n_evals,
        "iterations": final.iteration,
        "aborted": trace.aborted,
        "abort_reason": trace.abort_reason,
        "wall_ms": wall_ms,
        "csv": csv_name,
    }


def _run_single_seed(cfg: ExperimentConfig, seed: int, out_dir: Path) -> bool:
    """Execute one seed into out_dir; returns True when any optimizer aborted."""
    out_dir.mkdir(parents=True, exist_ok=True)
    objective, grad_objective, init_points = _build_objective(cfg, seed)
    bo_cfg = BoConfig(
        n_init=cfg.init,
        n_iters=cfg.iters,
        refit_every=cfg.refit_every,
        kernel=cfg.kernel_params(),
        seed=seed,
        init_points=init_points,
    )
    summary: dict = {
        "config": {**cfg.to_dict(), "seed": seed},
        "oracle": {
            "known": objective.oracle_value is not None,
            "value": objective.oracle_value,
        },
        "optimizers": {},
    }
    aborted = False

    tick = time.perf_counter()
    _, _, trace = run(objective, bo_cfg)
    ebo_wall = (time.perf_counter() - tick) * 1e3
    write_trace_csv(trace, out_dir / "ebo.csv", timings=cfg.timings)
    summary["optimizers"]["ebo"] = _optimizer_summary(trace, "ebo.csv", ebo_wall)
    aborted |= trace.aborted
    x0 = trace.records[0].best_point

    if "gd" in cfg.baselines:
        tick = time.perf_counter()
        _, gd_trace = riemannian_gd(grad_objective, x0, max_iters=cfg.iters)
        gd_wall = (time.perf_counter() - tick) * 1e3
        write_trace_csv(gd_trace, out_dir / "gd.csv", timings=cfg.timings)
        summary["optimizers"]["gd"] = _optimizer_summary(gd_trace, "gd.csv", gd_wall)
    if "nelder-mead" in cfg.baselines:
        tick = time.perf_counter()
        _, nm_trace = nelder_mead(objective, x0, max_evals=cfg.init + cfg.iters)
        nm_wall = (time.perf_counter() - tick) * 1e3
        write_trace_csv(nm_trace, out_dir / "nelder_mead.csv", timings=cfg.timings)
        summary["optimizers"]["nelder_mead"] = _optimizer_summary(
            nm_trace, "nelder_mead.csv", nm_wall
        )

    with open(out_dir / "summary.json", "w", encoding="utf-8", newline="\n") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return aborted


_OPTIONS = [
    click.option("--config", "config_path", type=click.Path(), default=None,
                 help="Config file (INI sections mirroring the flags)."),
    click.option("--experiment", type=click.Choice(EXPERIMENTS), default=None),
    click.option("--seed", type=int, default=None),
    click.option("--seeds", type=str, default=None,
                 help="Comma-separated seeds; each runs into seed-<s>/ subdirectories."),
    click.option("--iters", type=int, default=None, help="Optimization iterations."),
    click.option("--init", type=int, default=None, help="Initial design size."),
    click.option("--refit-every", type=int, default=None,
                 help="Hyperparameter refit cadence (0 disables fitting)."),
    click.option("--baselines", type=str, default=None,
                 help="Comma-separated subset of: gd, nelder-mead."),
    click.option("--out", type=str, default=None, help="Output directory."),
    click.option("--timings/--no-timings", default=None,
                 help="Write per-row wall times (breaks byte-reproducibility)."),
    click.option("--kernel-lengthscale", type=float, default=None),
    click.option("--kernel-amplitude", type=float, default=None),
    click.option("--kernel-noise", type=float, default=None),
    click.option("--latitude", type=float, default=None,
                 help="frechet-sphere: height of the data circle."),
    click.option("--n-data", type=int, default=None,
                 help="frechet-sphere: number of data points."),
    click.option("--rows", type=int, default=None, help="grassmann-approx: matrix rows."),
    click.option("--cols", type=int, default=None, help="grassmann-approx: matrix cols."),
    click.option("--subspace-dim", type=int, default=None,
                 help="grassmann-approx: target subspace dimension."),
    click.option("--n-locations", type=int, default=None,
                 help="spd-regression: number of covariate locations."),
    click.option("--noise", type=float, default=None,
                 help="spd-regression: response noise scale."),
    click.option("--bandwidth", type=float, default=None,
                 help="spd-regression: kernel bandwidth."),
    click.option("--query", type=float, default=None,
                 help="spd-regression: covariate location to estimate."),
    click.option("--objective", type=str, default=None,
                 help="custom: module:callable returning an Objective given a seed."),
]


def _with_options(command):
    for option in reversed(_OPTIONS):
        command = option(command)
    return command


@click.group()
@click.version_option(version=__version__)
def main():
    """Bayesian optimization on embedded manifolds."""


@main.command("run")
@_with_options
def cmd_run(config_path, **flags):
    """Run an experiment; write CSV traces and summary.json per seed."""
    try:
        cfg = resolve_config(config_path, flags)
    except (ConfigError, ValueError) as exc:
        raise click.UsageError(str(exc))
    seeds = cfg.seeds if cfg.seeds else (cfg.seed,)
    base_dir = Path(cfg.out)
    any_aborted = False
    for seed in seeds:
        out_dir = base_dir if len(seeds) == 1 else base_dir / f"seed-{seed}"
        try:
            aborted = _run_single_seed(cfg, seed, out_dir)
        except ConfigError as exc:
            raise click.UsageError(str(exc))
        any_aborted |= aborted
        status = "aborted" if aborted else "ok"
        click.echo(f"seed {seed}: {status} -> {out_dir}")
    if any_aborted:
        raise SystemExit(1)


@main.command("validate")
@_with_options
def cmd_validate(config_path, **flags):
    """Check a configuration without running; print the resolved settings."""
    try:
        cfg = resolve_config(config_path, flags)
        if cfg.experiment == "custom":
            _load_custom_objective(cfg.objective, cfg.seed)
    except (ConfigError, ValueError) as exc:
        raise click.UsageError(str(exc))
    click.echo(json.dumps(cfg.to_dict(), indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
