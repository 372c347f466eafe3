"""Command-line entry point: run the benchmark experiments, emit CSV traces
and a summary JSON.

Two tables define the command line.  ``EXPERIMENTS`` maps each experiment
name to its default budget and the builder of its problem.  The fields of
``ExperimentConfig`` are the settings: each field's metadata gives its INI
section, how its text parses and, for some, the values it accepts, and the
click options, the accepted INI keys and the resolved configuration all come
from those fields.  A flag ``--refit-every`` is the field ``refit_every``
and the key ``refit-every`` of its section, without the section's prefix
(``--kernel-noise`` is ``[kernel] noise``).

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
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Callable, Optional

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


class ConfigError(Exception):
    pass


def _frechet_sphere(cfg: ExperimentConfig, seed: int):
    problem = latitude_circle_problem(n_points=cfg.n_data, z=cfg.latitude)
    return frechet_grad_objective(problem), None


def _grassmann_approx(cfg: ExperimentConfig, seed: int):
    problem = random_approx_problem(n=cfg.rows, m=cfg.cols, p=cfg.subspace_dim, seed=seed)
    return grassmann_objective(problem), None


def _spd_regression(cfg: ExperimentConfig, seed: int):
    problem = generate_spd_regression_data(
        n=cfg.n_locations,
        noise=cfg.noise,
        seed=seed,
        bandwidth=cfg.bandwidth,
        query=cfg.query,
    )
    init = response_design(problem, cfg.init, seed)
    return spd_regression_objective(problem), init


def _custom(cfg: ExperimentConfig, seed: int):
    """The objective that ``module:callable`` returns for the seed."""
    dotted_path = cfg.objective
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
    try:
        objective = factory(seed)
    except Exception as exc:
        raise ConfigError(
            f"objective factory {dotted_path!r} failed for seed {seed}: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    if not isinstance(objective, Objective):
        raise ConfigError(
            f"objective factory {dotted_path!r} did not return an Objective"
        )
    return objective, None


@dataclass(frozen=True)
class Experiment:
    """A CLI experiment: the iteration budget and design size used when
    neither the config file nor a flag sets them, and the builder of its
    problem, which returns (objective, initial design or None) for the
    resolved settings and a seed."""

    iters: int
    init: int
    build: Callable[[ExperimentConfig, int], tuple]


EXPERIMENTS = {
    "frechet-sphere": Experiment(25, 5, _frechet_sphere),
    "grassmann-approx": Experiment(30, 6, _grassmann_approx),
    "spd-regression": Experiment(30, 8, _spd_regression),
    "custom": Experiment(25, 5, _custom),
}


def _setting(section: str, kind: str, default=MISSING, help=None, choices=None):
    """One setting: an ``ExperimentConfig`` field whose text (from the config
    file or a text flag) parses as ``kind``: int, float, bool, str, ints (a
    comma-separated integer list) or names (a comma-separated name list).
    With ``choices``, the str or each name must be one of them."""
    metadata = {"section": section, "kind": kind, "help": help, "choices": choices}
    return field(default=default, metadata=metadata)


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """Fully resolved run configuration; every default is materialized.

    The fields are the settings, in the order ``--help`` lists them."""

    experiment: str = _setting("run", "str", choices=tuple(EXPERIMENTS))
    seed: int = _setting("run", "int")
    seeds: Optional[tuple[int, ...]] = _setting(
        "run", "ints", None, "Comma-separated seeds; each runs into seed-<s>/ subdirectories."
    )
    iters: int = _setting("run", "int", help="Optimization iterations.")
    init: int = _setting("run", "int", help="Initial design size.")
    refit_every: int = _setting(
        "run", "int", 5, "Hyperparameter refit cadence (0 disables fitting)."
    )
    baselines: tuple[str, ...] = _setting(
        "run", "names", (), "Comma-separated baselines to run.", ("gd", "nelder-mead")
    )
    out: str = _setting("run", "str", "manibo-runs", "Output directory.")
    timings: bool = _setting(
        "run", "bool", False, "Write per-row wall times (breaks byte-reproducibility)."
    )
    kernel_lengthscale: Optional[float] = _setting("kernel", "float", None)
    kernel_amplitude: Optional[float] = _setting("kernel", "float", None)
    kernel_noise: Optional[float] = _setting("kernel", "float", None)
    latitude: float = _setting(
        "frechet-sphere", "float", -0.5, "frechet-sphere: height of the data circle."
    )
    n_data: int = _setting(
        "frechet-sphere", "int", 8, "frechet-sphere: number of data points."
    )
    rows: int = _setting("grassmann-approx", "int", 3, "grassmann-approx: matrix rows.")
    cols: int = _setting("grassmann-approx", "int", 6, "grassmann-approx: matrix cols.")
    subspace_dim: int = _setting(
        "grassmann-approx", "int", 2, "grassmann-approx: target subspace dimension."
    )
    n_locations: int = _setting(
        "spd-regression", "int", 75, "spd-regression: number of covariate locations."
    )
    noise: float = _setting(
        "spd-regression", "float", 0.05, "spd-regression: response noise scale."
    )
    bandwidth: float = _setting(
        "spd-regression", "float", 0.1, "spd-regression: kernel bandwidth."
    )
    query: float = _setting(
        "spd-regression", "float", 0.5, "spd-regression: covariate location to estimate."
    )
    objective: Optional[str] = _setting(
        "custom", "str", None, "custom: module:callable returning an Objective given a seed."
    )

    def kernel_params(self) -> Optional[KernelParams]:
        values = (self.kernel_lengthscale, self.kernel_amplitude, self.kernel_noise)
        if all(v is None for v in values):
            return None
        if any(v is None for v in values):
            raise ConfigError(
                "kernel lengthscale, amplitude, and noise must be set together"
            )
        return KernelParams(*values)


def _flag(setting: dataclasses.Field) -> str:
    return "--" + setting.name.replace("_", "-")


def _file_key(setting: dataclasses.Field) -> tuple[str, str]:
    """The setting's (section, key) in a config file: the key is the flag's
    name without the section's prefix."""
    section = setting.metadata["section"]
    return section, _flag(setting)[2:].removeprefix(section + "-")


_FILE_KEYS = {_file_key(setting): setting for setting in fields(ExperimentConfig)}
_KIND_NAMES = {"ints": "integer list"}
_CLICK_TYPES = {"int": int, "float": float, "str": str, "ints": str, "names": str}


def _parse(raw: str, setting: dataclasses.Field, label: str):
    """The setting's value from its text; a ``ConfigError`` naming ``label``
    unless the text parses and, where the setting lists choices, each value
    is one of them."""
    kind, choices = setting.metadata["kind"], setting.metadata["choices"]
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
        if kind == "ints":  # an empty list leaves the setting unset
            return tuple(int(part) for part in raw.split(",") if part.strip()) if raw else None
    except ValueError as exc:
        raise ConfigError(f"invalid {_KIND_NAMES.get(kind, kind)} for {label}: {raw!r}") from exc
    names = (raw,) if kind == "str" else tuple(
        part.strip() for part in raw.split(",") if part.strip()
    )
    for name in names:
        if choices and name not in choices:
            raise ConfigError(f"unknown {label} {name!r}; choose from {', '.join(choices)}")
    return raw if kind == "str" else names


def _read_config_file(path: str) -> dict[str, object]:
    """The settings a config file gives, parsed, by field name."""
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {exc}") from exc
    sections = {section for section, _ in _FILE_KEYS}
    values: dict[str, object] = {}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            setting = _FILE_KEYS.get((section, key))
            if setting is None:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            values[setting.name] = _parse(raw, setting, f"[{section}] {key}")
    return values


def resolve_config(config_path: Optional[str], flags: dict) -> ExperimentConfig:
    """Merge built-in defaults, the config file, and explicit flags (highest
    precedence last), then validate."""
    merged = _read_config_file(config_path) if config_path else {}
    for setting in fields(ExperimentConfig):
        value = flags.get(setting.name)
        if isinstance(value, str):  # a text flag parses as the file's text does
            value = _parse(value, setting, _flag(setting))
        elif value is None:
            continue
        merged[setting.name] = value

    if "experiment" not in merged:
        raise ConfigError("experiment is required (flag --experiment or [run] experiment)")
    if "seed" not in merged:
        raise ConfigError("seed is required for reproducibility (flag --seed or [run] seed)")

    env_out = os.environ.get("MANIBO_OUT")
    if env_out:
        merged["out"] = env_out

    experiment = EXPERIMENTS[merged["experiment"]]
    merged.setdefault("iters", experiment.iters)
    merged.setdefault("init", experiment.init)

    cfg = ExperimentConfig(**merged)
    if cfg.iters < 0 or cfg.init < 1 or cfg.refit_every < 0:
        raise ConfigError("iters must be >= 0, init >= 1 and refit-every >= 0")
    for name, seeds in (("seed", (cfg.seed,)), ("seeds", cfg.seeds or ())):
        if any(seed < 0 for seed in seeds):
            raise ConfigError(f"--{name} must be >= 0, got {min(seeds)}")
    repeated = [seed for i, seed in enumerate(cfg.seeds or ()) if seed in cfg.seeds[:i]]
    if repeated:  # its second run would overwrite the first's seed-<s>/
        raise ConfigError(f"--seeds repeats seed {repeated[0]}")
    if cfg.experiment == "custom" and not cfg.objective:
        raise ConfigError("custom experiment requires objective = module:callable")
    cfg.kernel_params()  # validates pairing
    return cfg


def build_problem(cfg: ExperimentConfig, seed: int) -> tuple:
    """The experiment's (objective, initial design or None) for one seed.  A
    setting its builder rejects, as a ``ValueError`` or a ``ConfigError``,
    is a usage error, and so is the gd baseline for an objective without a
    gradient."""
    try:
        objective, init = EXPERIMENTS[cfg.experiment].build(cfg, seed)
    except (ConfigError, ValueError) as exc:
        raise click.UsageError(str(exc))
    if "gd" in cfg.baselines and objective.grad is None:
        raise click.UsageError(
            f"the gd baseline needs an analytic gradient, which the "
            f"{cfg.experiment} objective does not have"
        )
    return objective, init


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
        "n_evals": trace.n_evals,
        "iterations": final.iteration,
        "aborted": trace.aborted,
        "abort_reason": trace.abort_reason,
        "wall_ms": wall_ms,
        "csv": csv_name,
    }


def _run_single_seed(cfg: ExperimentConfig, seed: int, out_dir: Path) -> bool:
    """Execute one seed into out_dir; returns True when any optimizer aborted.
    A failed first evaluation is a usage error, and nothing is written."""
    objective, init_points = build_problem(cfg, seed)
    bo_cfg = BoConfig(
        n_init=cfg.init,
        n_iters=cfg.iters,
        refit_every=cfg.refit_every,
        kernel=cfg.kernel_params(),
        seed=seed,
        init_points=init_points,
    )
    summary: dict = {
        "config": {**dataclasses.asdict(cfg), "seed": seed},
        "oracle": {
            "known": objective.oracle_value is not None,
            "value": objective.oracle_value,
        },
        "optimizers": {},
    }
    # The baselines start from x0, the best point of eBO's initial design.
    optimizers = {"ebo": lambda: run(objective, bo_cfg)}
    if "gd" in cfg.baselines:
        optimizers["gd"] = lambda: riemannian_gd(objective, x0, max_iters=cfg.iters)
    if "nelder-mead" in cfg.baselines:
        optimizers["nelder_mead"] = lambda: nelder_mead(
            objective, x0, max_evals=cfg.init + cfg.iters
        )
    traces = {}
    for name, optimize in optimizers.items():
        tick = time.perf_counter()
        try:
            traces[name] = optimize()
        except Exception as exc:  # a user objective may raise anything
            raise click.UsageError(
                f"seed {seed}: {name} failed on its first evaluation: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        wall_ms = (time.perf_counter() - tick) * 1e3
        summary["optimizers"][name] = _optimizer_summary(traces[name], f"{name}.csv", wall_ms)
        x0 = traces["ebo"].records[0].best_point

    out_dir.mkdir(parents=True, exist_ok=True)
    for name, trace in traces.items():
        write_trace_csv(trace, out_dir / f"{name}.csv", timings=cfg.timings)
    with open(out_dir / "summary.json", "w", encoding="utf-8", newline="\n") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return any(trace.aborted for trace in traces.values())


def _with_options(command):
    for setting in reversed(fields(ExperimentConfig)):
        meta, flag = setting.metadata, _flag(setting)
        if meta["kind"] == "bool":
            option = click.option(f"{flag}/--no-{flag[2:]}", default=None, help=meta["help"])
        else:
            choices = f"[{'|'.join(meta['choices'])}]" if meta["choices"] else None
            option = click.option(flag, type=_CLICK_TYPES[meta["kind"]], default=None,
                                  help=meta["help"], metavar=choices)
        command = option(command)
    return click.option("--config", "config_path", type=click.Path(), default=None,
                        help="Config file (INI sections mirroring the flags).")(command)


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
        aborted = _run_single_seed(cfg, seed, out_dir)
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
    except (ConfigError, ValueError) as exc:
        raise click.UsageError(str(exc))
    build_problem(cfg, cfg.seed)
    click.echo(json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
