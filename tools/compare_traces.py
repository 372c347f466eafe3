"""Check that two checkouts of manibo write the same traces.

    python3 tools/compare_traces.py TREE_A TREE_B [--seeds N] [--iters N]

Runs ``manibo run`` on every benchmark workload's measured run seeds (the
flags and seed counts of ``perfbench/workloads.py``, without ``--timings``)
once from each tree, each run in its own interpreter with
``PYTHONPATH=<tree>/src`` and one BLAS thread.  Every CSV must match byte
for byte, and every ``summary.json`` once its ``wall_ms`` and ``out`` entries
are set aside.  Prints each file that differs and exits 1 if any does, 0
if every file is identical.  For each workload with a differing
``summary.json`` it also prints every seed's eBO ``log10_err`` in both
trees and the two medians.

``--seeds N`` runs only the first N seeds of each measured set and
``--iters N`` overrides each experiment's iteration budget, for a quick
check.  Traces are byte-reproducible on one numpy/BLAS build, so compare
trees on the same machine.
"""

from __future__ import annotations

import argparse
import json
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


def _shown(err) -> str:
    return "none" if err is None else f"{err:.4f}"


def error_lines(a: Path, b: Path, differ: list[str]) -> list[str]:
    """For each workload (a top-level directory) with a differing
    ``summary.json``: each seed's eBO ``log10_err`` under a and b, then the
    two medians over the seeds that have one."""
    lines = []
    workloads = sorted({name.split("/")[0] for name in differ
                        if name.endswith("/summary.json")})
    for workload in workloads:
        seeds = sorted({path.parent.name for root in (a, b)
                        for path in (root / workload).glob("*/summary.json")},
                       key=lambda label: int(label.rpartition("-")[2]))
        errs = [[_ebo_log10_err(root / workload / seed / "summary.json") for seed in seeds]
                for root in (a, b)]
        for seed, err_a, err_b in zip(seeds, *errs):
            lines.append(f"{workload}/{seed}: ebo log10_err {_shown(err_a)} -> {_shown(err_b)}")
        medians = [_shown(statistics.median(found) if found else None)
                   for found in ([err for err in side if err is not None] for side in errs)]
        lines.append(f"{workload}: median ebo log10_err {medians[0]} -> {medians[1]}")
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
                        help="only the first N seeds of each measured set")
    parser.add_argument("--iters", type=int, default=None,
                        help="override each experiment's iteration budget")
    args = parser.parse_args(argv)
    trees = [tree.resolve() for tree in (args.tree_a, args.tree_b)]
    for tree in trees:
        if not (tree / "src" / "manibo").is_dir():
            parser.error(f"{tree} has no src/manibo")

    runs = []  # (label, args for tree a, args for tree b)
    with tempfile.TemporaryDirectory(prefix="compare-traces-") as tmp:
        outs = [Path(tmp) / "a", Path(tmp) / "b"]
        for workload in WORKLOADS.values():
            count = workload.measured_seeds
            if args.seeds is not None:
                count = min(count, args.seeds)
            for seed in range(count):
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
        errors = error_lines(*outs, files)
    differ += files
    for line in differ:
        print(f"differs: {line}")
    for line in errors:
        print(line)
    print(f"{compared - len(files)} of {compared} files identical over {len(runs)} seed runs")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
