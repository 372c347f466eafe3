"""Record the benchmark's results as ``BENCH_<workload>.json`` files.

    python3 tools/bench_record.py [WORKLOAD ...] [--seed S] [--seconds N]

For each workload (default: every benchmark workload), runs

    python3 perfbench/run.py --workload W --seed S --seconds N --trace T

in a subprocess, once with ``--trace 0`` (the end-to-end metrics) and once
with ``--trace 1`` (the per-layer metrics), and writes ``BENCH_<W>.json``
at the repository root.  For each of the two runs the file keeps the
command, the environment from its ``# env`` line (commit, digest of
``src/manibo``, versions, threads) and its result line:
``correct``, ``attempted``, ``failed`` and every metric with its unit.
``--trace 1`` averages its counts over as many seeds as fit in
``--seconds``, so its counts compare across commits only where
``attempted`` is equal.  Commit the files a performance change measured;
``git log -p BENCH_*.json`` is then the trajectory.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

ENV_PREFIX = "# env "
LEVELS = {0: "end_to_end", 1: "per_layer"}


def bench_command(workload: str, seed: int, seconds: float, trace: int) -> list[str]:
    return ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]


def parse_output(stdout: str) -> dict:
    """The ``# env`` line's environment and the last line's result from
    ``perfbench/run.py`` standard output; raises ValueError when either is
    missing or is not JSON."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    env = [line[len(ENV_PREFIX):] for line in lines if line.startswith(ENV_PREFIX)]
    if len(env) != 1:
        raise ValueError("perfbench output has no single '# env' line")
    result = json.loads(lines[-1])
    missing = {"correct", "attempted", "failed", "metrics"} - set(result)
    if missing:
        raise ValueError(f"perfbench result line lacks {sorted(missing)}")
    return {"env": json.loads(env[0]), **{key: result[key] for key in
                                          ("correct", "attempted", "failed", "metrics")}}


def run_level(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in a subprocess, parsed; raises RuntimeError if it
    exits non-zero."""
    command = bench_command(workload, seed, seconds, trace)
    done = subprocess.run([sys.executable, *command], cwd=ROOT, capture_output=True,
                          text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}: {done.stderr}")
    return {"command": ["python3", *command], **parse_output(done.stdout)}


def write_record(out_dir: Path, workload: str, levels: dict) -> Path:
    """Writes ``BENCH_<workload>.json`` from the parsed runs, keyed by
    ``--trace`` value; returns its path."""
    record = {"workload": workload, **{LEVELS[trace]: levels[trace] for trace in levels}}
    path = out_dir / f"BENCH_{workload}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help=f"any of {', '.join(WORKLOADS)} (default: all)")
    parser.add_argument("--seed", type=int, default=0, help="perfbench --seed (default 0)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="perfbench --seconds (default 30)")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.workloads) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads {unknown}")
    for workload in args.workloads or list(WORKLOADS):
        levels = {trace: run_level(workload, args.seed, args.seconds, trace)
                  for trace in LEVELS}
        print(f"wrote {write_record(ROOT, workload, levels)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
