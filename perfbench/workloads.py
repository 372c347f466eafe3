"""The benchmark's workloads and the per-seed output checks.

Each workload is one ``manibo run`` CLI experiment at its default budget.
One seed run is checked here against the output contract (fixed CSV
header, one row per iteration, finite non-increasing ``f_best``, oracle
fields in ``summary.json``) and scored against the closed-form oracle with
the acceptance-suite tolerance.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

CSV_HEADER = ["iter", "f_next", "f_best", "err_to_oracle", "wall_ms"]


class OutputError(Exception):
    """A seed run wrote output that breaks the output contract."""


@dataclass(frozen=True)
class Workload:
    """One CLI experiment: its extra flags, the optimizers it runs, the
    tolerance a seed must meet, and how many seeds form the measured set.

    The measured set is run seeds ``0 .. measured_seeds - 1``, the same in
    every run.  Run seeds differ in work by up to 3x, so a set drawn afresh
    per workload seed would move ``run_s.mean`` by which seeds were drawn;
    on a fixed set, run-to-run differences are the program's and the
    machine's.  Every run completes the set at least once, however fast or
    slow the program is, so the oracle metrics repeat exactly.
    """

    name: str
    flags: tuple[str, ...]
    optimizers: tuple[str, ...]
    tolerance: str  # "err": distance to the oracle; "value": f_best / oracle value
    tolerance_limit: float
    measured_seeds: int

    def cli_args(self, seed: int, out_dir: Path, iters: int | None = None) -> list[str]:
        args = ["run", "--experiment", self.name, "--seed", str(seed),
                "--out", str(out_dir), "--timings", *self.flags]
        if iters is not None:
            args += ["--iters", str(iters)]
        return args

    def meets_tolerance(self, row: dict, oracle_value: float) -> bool:
        if self.tolerance == "err":
            return float(row["err_to_oracle"]) <= math.log10(self.tolerance_limit)
        return float(row["f_best"]) <= self.tolerance_limit * oracle_value


# Why each workload is here (shares measured with --trace 1 are quoted in
# BENCHMARK.json):
# - frechet-sphere is fit-heavy: hyperparameter fitting dominates eBO time
#   and retraction is a cheap closed-form geodesic.  It is the only
#   workload that runs the gradient-descent baseline.
# - grassmann-approx mixes fitting and ascent, and each trial step of the
#   ascent pays an eigendecomposition in the retraction.
# - spd-regression is ascent-heavy: most time goes to maximizing the
#   acquisition, over many posterior queries, rather than to fitting.
WORKLOADS = {
    "frechet-sphere": Workload(
        name="frechet-sphere",
        flags=("--baselines", "gd,nelder-mead"),
        optimizers=("ebo", "gd", "nelder_mead"),
        tolerance="err",
        tolerance_limit=1e-2,
        measured_seeds=20,
    ),
    "grassmann-approx": Workload(
        name="grassmann-approx",
        flags=("--baselines", "nelder-mead"),
        optimizers=("ebo", "nelder_mead"),
        tolerance="value",
        tolerance_limit=1.05,
        measured_seeds=10,
    ),
    "spd-regression": Workload(
        name="spd-regression",
        flags=("--baselines", "nelder-mead", "--query", "0.5"),
        optimizers=("ebo", "nelder_mead"),
        tolerance="err",
        tolerance_limit=1e-2,
        measured_seeds=12,
    ),
}


@dataclass(frozen=True)
class SeedOutcome:
    """What one well-formed seed run produced, as the metrics need it."""

    log10_err: float
    budget: int  # objective evaluations eBO may make: initial design + iterations
    evals_to_tol: int  # budget + 1 when the tolerance is never met
    met_tolerance: bool  # the final incumbent meets the tolerance
    iter_ms: list[float]  # eBO wall times of rows 1.., row 0 excluded
    summary: dict
    csv_rows: dict[str, list[dict]]


def _read_csv(path: Path) -> list[dict]:
    if not path.is_file():
        raise OutputError(f"{path.name} is missing")
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise OutputError(f"{path.name} header is {header}")
        rows = [dict(zip(CSV_HEADER, cells)) for cells in reader]
    if not rows:
        raise OutputError(f"{path.name} has no rows")
    return rows


def _finite(value, label: str) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise OutputError(f"{label} is {value!r}") from None
    if not math.isfinite(number):
        raise OutputError(f"{label} is {value!r}")
    return number


def _check_trace(name: str, rows: list[dict], entry: dict) -> None:
    iters = [int(row["iter"]) for row in rows]
    if iters != list(range(iters[0], iters[0] + len(rows))):
        raise OutputError(f"{name}.csv iter column is not consecutive")
    if iters[-1] != entry["iterations"]:
        raise OutputError(
            f"{name}.csv ends at iter {iters[-1]}, summary says {entry['iterations']}"
        )
    best = [_finite(row["f_best"], f"{name}.csv f_best") for row in rows]
    if any(later > earlier for earlier, later in zip(best, best[1:])):
        raise OutputError(f"{name}.csv f_best increases")
    for row in rows:
        _finite(row["err_to_oracle"], f"{name}.csv err_to_oracle")
    if entry["aborted"]:
        raise OutputError(f"{name} aborted: {entry['abort_reason']}")
    _finite(entry["final_value"], f"summary {name}.final_value")
    _finite(entry["log10_err"], f"summary {name}.log10_err")


def check_seed_output(workload: Workload, out_dir: Path) -> SeedOutcome:
    """Check one seed's output directory; raises OutputError on any breach."""
    try:
        with open(out_dir / "summary.json", encoding="utf-8") as handle:
            summary = json.load(handle)
        oracle = summary["oracle"]
        config = summary["config"]
        optimizers = summary["optimizers"]
        budget = int(config["init"]) + int(config["iters"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise OutputError(f"summary.json unreadable: {exc!r}") from None
    if oracle.get("known") is not True:
        raise OutputError("summary.json reports no oracle")
    oracle_value = _finite(oracle.get("value"), "oracle value")
    if sorted(optimizers) != sorted(workload.optimizers):
        raise OutputError(f"summary.json optimizers are {sorted(optimizers)}")

    csv_rows = {}
    try:
        for name in workload.optimizers:
            entry = optimizers[name]
            rows = _read_csv(out_dir / entry["csv"])
            _check_trace(name, rows, entry)
            csv_rows[name] = rows
    except (KeyError, ValueError) as exc:
        raise OutputError(f"malformed optimizer output: {exc!r}") from None

    ebo = csv_rows["ebo"]
    if len(ebo) != int(config["iters"]) + 1 or ebo[0]["iter"] != "0":
        raise OutputError(f"ebo.csv has {len(ebo)} rows for {config['iters']} iterations")
    iter_ms = [_finite(row["wall_ms"], "ebo.csv wall_ms") for row in ebo[1:]]
    evals_to_tol = next(
        (int(config["init"]) + int(row["iter"]) for row in ebo
         if workload.meets_tolerance(row, oracle_value)),
        budget + 1,
    )
    return SeedOutcome(
        log10_err=float(optimizers["ebo"]["log10_err"]),
        budget=budget,
        evals_to_tol=evals_to_tol,
        met_tolerance=workload.meets_tolerance(ebo[-1], oracle_value),
        iter_ms=iter_ms,
        summary=summary,
        csv_rows=csv_rows,
    )
