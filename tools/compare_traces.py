"""Check that two checkouts of manibo write the same traces.

    python3 tools/compare_traces.py TREE_A TREE_B [--seeds N] [--first-seed S]
                                                  [--iters N] [--with-held-out]

Runs ``manibo run`` on every benchmark workload's measured run seeds (the
flags and seed counts of ``perfbench/workloads.py``, without ``--timings``)
once from each tree, each run in its own interpreter with
``PYTHONPATH=<tree>/src`` and one BLAS thread.  Every CSV must match byte
for byte, and every ``summary.json`` once its ``wall_ms`` and ``out`` entries
are set aside.  Prints each file that differs and exits 1 if any does, 0
if every file is identical.  For each workload with a differing
``summary.json`` it also prints, in both trees, every seed's eBO
``log10_err`` and the two medians, then every seed's eBO ``evals_to_tol``
(the objective evaluations until the incumbent first meets the workload's
tolerance, ``Workload.meets_tolerance``, read from ``ebo.csv``; the budget
plus one if it never does) and the two medians.  Last, one line per such
workload pairs the seeds: the mean of the per-seed eBO ``log10_err``
differences, TREE_B minus TREE_A (positive is worse), their standard
error, how many seeds got better, worse or stayed equal, and the p-value
of a Wilcoxon signed-rank test on the differences (``n/a`` when every
difference is zero).  The paired mean removes the spread between seeds,
which dominates a median.

``--with-held-out`` also runs the held-out seeds 100..119 on every
workload in the same call.  Each seed set then prints its own report, and
one last line per workload with a differing ``summary.json`` in either set
pools the paired differences of both sets' seeds.

``--seeds N`` runs N seeds per workload instead of its measured set's
count and ``--iters N`` overrides each experiment's iteration budget, for
a quick check.  ``--first-seed S`` runs seeds S, S + 1, ... instead of 0,
1, ...: ``--first-seed 100 --seeds 20`` runs the held-out seeds 100..119
on every workload.  Traces are byte-reproducible on one numpy/BLAS build,
so compare trees on the same machine.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

# What differs between two runs of the same program: measured times and the
# output directory.
VOLATILE_KEYS = ("wall_ms", "out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The held-out seed set: seeds 100..119 on every workload.
HELD_OUT_FIRST_SEED = 100
HELD_OUT_SEEDS = 20


def run_args(workload, seed: int, out_dir: Path, iters) -> list[str]:
    """The benchmark's CLI arguments for one seed, without ``--timings``, so
    that the CSVs carry no wall times."""
    return [arg for arg in workload.cli_args(seed, out_dir, iters) if arg != "--timings"]


def run_seed(tree: Path, args: list[str]) -> int:
    """One ``manibo run`` from the tree's sources in a fresh interpreter;
    returns its exit code (1 for an aborted run, which still writes its
    outputs)."""
    env = {key: value for key, value in os.environ.items() if key != "MANIBO_OUT"}
    env["PYTHONPATH"] = str(tree / "src")
    env.update({var: "1" for var in THREAD_VARS})
    return subprocess.run(
        [sys.executable, "-m", "manibo.cli", *args],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def _without_volatile(value):
    if isinstance(value, dict):
        return {k: _without_volatile(v) for k, v in value.items() if k not in VOLATILE_KEYS}
    if isinstance(value, list):
        return [_without_volatile(v) for v in value]
    return value


def _load_summary(path: Path):
    """The parsed ``summary.json`` at path, or None if it is missing or
    not JSON."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _same_file(a: Path, b: Path) -> bool:
    if not (a.is_file() and b.is_file()):
        return False
    if a.name == "summary.json":
        loaded = [_load_summary(path) for path in (a, b)]
        if None in loaded:
            return False
        return _without_volatile(loaded[0]) == _without_volatile(loaded[1])
    return a.read_bytes() == b.read_bytes()


def _ebo_log10_err(path: Path):
    """The eBO ``log10_err`` of the summary at path, or None if it has none."""
    try:
        return float(_load_summary(path)["optimizers"]["ebo"]["log10_err"])
    except (TypeError, KeyError, ValueError):
        return None


def _ebo_evals_to_tol(workload, seed_dir: Path):
    """The objective evaluations eBO made until its incumbent first met the
    workload's tolerance (the budget plus one if it never did), from the
    seed's ``ebo.csv`` and ``summary.json``; None if either is missing or
    malformed."""
    summary = _load_summary(seed_dir / "summary.json")
    try:
        init = int(summary["config"]["init"])
        budget = init + int(summary["config"]["iters"])
        oracle_value = float(summary["oracle"]["value"])
        with open(seed_dir / "ebo.csv", encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        return next((init + int(row["iter"]) for row in rows
                     if workload.meets_tolerance(row, oracle_value)), budget + 1)
    except (OSError, TypeError, KeyError, ValueError):
        return None


def _shown(value, spec: str = ".4f") -> str:
    return "none" if value is None else format(value, spec)


def _metric_lines(workload: str, seeds: list[str], label: str, values, spec: str) -> list[str]:
    """Each seed's eBO value of a metric under both trees, then the two
    medians over the seeds that have one."""
    lines = [f"{workload}/{seed}: ebo {label} {_shown(x, spec)} -> {_shown(y, spec)}"
             for seed, x, y in zip(seeds, *values)]
    medians = [_shown(statistics.median(found) if found else None, spec)
               for found in ([value for value in side if value is not None] for side in values)]
    lines.append(f"{workload}: median ebo {label} {medians[0]} -> {medians[1]}")
    return lines


def _paired_line(workload: str, values, label: str = "paired") -> str:
    """The mean of the per-seed differences, second tree minus first, over
    the seeds that have a value in both; their standard error; how many
    seeds got better (lower), worse or stayed equal; and the Wilcoxon
    signed-rank p-value of the differences."""
    diffs = [y - x for x, y in zip(*values) if x is not None and y is not None]
    mean = statistics.fmean(diffs) if diffs else None
    sem = statistics.stdev(diffs) / math.sqrt(len(diffs)) if len(diffs) > 1 else None
    # Imported here, not at the top: the tools that import this module set
    # ``THREAD_VARS`` before anything loads BLAS.
    from scipy.stats import wilcoxon

    better, worse = sum(d < 0 for d in diffs), sum(d > 0 for d in diffs)
    # With every difference zero, scipy warns and returns p = 1.
    p_value = format(wilcoxon(diffs).pvalue, ".4g") if better + worse else "n/a"
    return (f"{workload}: {label} ebo log10_err difference mean {_shown(mean, '+.4f')} "
            f"se {_shown(sem)} over {len(diffs)} seeds: {better} better, {worse} worse, "
            f"{len(diffs) - better - worse} equal, wilcoxon p {p_value}")


def _changed_workloads(differ: list[str]) -> set[str]:
    """The workloads (top-level directories) with a differing ``summary.json``."""
    return {name.split("/")[0] for name in differ if name.endswith("/summary.json")}


def _seed_dirs(a: Path, b: Path, workload: str):
    """The workload's seed labels in numeric order, and the seeds'
    directories under a and under b."""
    seeds = sorted({path.parent.name for root in (a, b)
                    for path in (root / workload).glob("*/summary.json")},
                   key=lambda label: int(label.rpartition("-")[2]))
    return seeds, [[root / workload / seed for seed in seeds] for root in (a, b)]


def _differing_workloads(a: Path, b: Path, differ: list[str]):
    """Each workload with a differing ``summary.json``, with its
    ``_seed_dirs``."""
    for workload in sorted(_changed_workloads(differ)):
        yield workload, *_seed_dirs(a, b, workload)


def _ebo_log10_errs(dirs) -> list[list]:
    return [[_ebo_log10_err(seed_dir / "summary.json") for seed_dir in side] for side in dirs]


def error_lines(a: Path, b: Path, differ: list[str]) -> list[str]:
    """For each workload with a differing ``summary.json``: each seed's eBO
    ``log10_err`` under a and b and the two medians; then, for a benchmark
    workload, the same for its ``evals_to_tol``."""
    lines = []
    for workload, seeds, dirs in _differing_workloads(a, b, differ):
        lines += _metric_lines(workload, seeds, "log10_err", _ebo_log10_errs(dirs), ".4f")
        benchmark = WORKLOADS.get(workload)
        if benchmark is not None:
            evals = [[_ebo_evals_to_tol(benchmark, seed_dir) for seed_dir in side]
                     for side in dirs]
            lines += _metric_lines(workload, seeds, "evals_to_tol", evals, "g")
    return lines


def paired_lines(a: Path, b: Path, differ: list[str]) -> list[str]:
    """For each workload with a differing ``summary.json``, the paired
    differences of its seeds' eBO ``log10_err``, b minus a."""
    return [_paired_line(workload, _ebo_log10_errs(dirs))
            for workload, _, dirs in _differing_workloads(a, b, differ)]


def pooled_lines(sets) -> list[str]:
    """For each workload with a differing ``summary.json`` in any of the
    seed sets, each an ``(a, b, differ)`` triple, the paired differences of
    its eBO ``log10_err``, b minus a, over the seeds of every set."""
    lines = []
    for workload in sorted(set().union(*(_changed_workloads(differ) for _, _, differ in sets))):
        pooled = [[], []]
        for a, b, _ in sets:
            for side, errs in zip(pooled, _ebo_log10_errs(_seed_dirs(a, b, workload)[1])):
                side += errs
        lines.append(_paired_line(workload, pooled, "pooled paired"))
    return lines


def compare_dirs(a: Path, b: Path) -> tuple[list[str], int]:
    """The relative paths of the CSV and ``summary.json`` files under a or
    b that differ (or exist on one side only), and how many were compared."""
    names = sorted(
        {path.relative_to(root).as_posix()
         for root in (a, b)
         for pattern in ("*.csv", "summary.json")
         for path in root.rglob(pattern)}
    )
    return [name for name in names if not _same_file(a / name, b / name)], len(names)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--seeds", type=int, default=None,
                        help="N seeds per workload (default: its measured set's count)")
    parser.add_argument("--first-seed", type=int, default=0,
                        help="run seeds S, S + 1, ... (default 0)")
    parser.add_argument("--iters", type=int, default=None,
                        help="override each experiment's iteration budget")
    parser.add_argument("--with-held-out", action="store_true",
                        help=f"also run the held-out seeds {HELD_OUT_FIRST_SEED}.."
                             f"{HELD_OUT_FIRST_SEED + HELD_OUT_SEEDS - 1} and pool the pairs")
    args = parser.parse_args(argv)
    if args.first_seed < 0:
        parser.error(f"--first-seed must be >= 0, got {args.first_seed}")
    trees = [tree.resolve() for tree in (args.tree_a, args.tree_b)]
    for tree in trees:
        if not (tree / "src" / "manibo").is_dir():
            parser.error(f"{tree} has no src/manibo")
    # Each seed set: a header (none for a lone set) and each workload's seeds.
    measured = {workload.name: range(args.first_seed, args.first_seed + (
        workload.measured_seeds if args.seeds is None else args.seeds))
        for workload in WORKLOADS.values()}
    seed_sets = [(None, measured)]
    if args.with_held_out:
        held_out = range(HELD_OUT_FIRST_SEED, HELD_OUT_FIRST_SEED + HELD_OUT_SEEDS)
        if any(seed in held_out for seeds in measured.values() for seed in seeds):
            parser.error("the seeds run overlap the held-out seeds")
        seed_sets = [("-- measured seeds", measured),
                     (f"-- held-out seeds {held_out[0]}..{held_out[-1]}",
                      dict.fromkeys(measured, held_out))]

    lines, compared_sets, failed = [], [], False
    with tempfile.TemporaryDirectory(prefix="compare-traces-") as tmp:
        for index, (header, seeds_of) in enumerate(seed_sets):
            outs = [Path(tmp) / str(index) / side for side in ("a", "b")]
            runs = []  # (label, args for tree a, args for tree b)
            for workload in WORKLOADS.values():
                for seed in seeds_of[workload.name]:
                    label = f"{workload.name}/seed-{seed}"
                    runs.append((label, *(run_args(workload, seed, out / label, args.iters)
                                          for out in outs)))
            differ = []
            # The two trees' runs of one seed go side by side.
            with ThreadPoolExecutor(max_workers=2) as pool:
                for label, args_a, args_b in runs:
                    codes = list(pool.map(run_seed, trees, (args_a, args_b)))
                    if codes[0] != codes[1]:
                        differ.append(f"{label}: exit codes {codes[0]} and {codes[1]}")
            files, compared = compare_dirs(*outs)
            differ += files
            failed = failed or bool(differ)
            compared_sets.append((*outs, files))
            lines += [] if header is None else [header]
            lines += [f"differs: {line}" for line in differ]
            lines += error_lines(*outs, files) + paired_lines(*outs, files)
            lines.append(f"{compared - len(files)} of {compared} files identical "
                         f"over {len(runs)} seed runs")
        pooled = pooled_lines(compared_sets) if len(compared_sets) > 1 else []
        lines += ["-- pooled", *pooled] if pooled else []
    for line in lines:
        print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
