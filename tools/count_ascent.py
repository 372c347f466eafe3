"""Count the acquisition ascent's work on the benchmark workloads.

    python3 tools/count_ascent.py [--tree TREE] [--seeds N] [--iters N]

Runs ``manibo run`` with each benchmark workload's flags
(``perfbench/workloads.py``) on seeds 0..3, in this process, from
``TREE/src`` (default: this checkout), with ``acquisition.ascend`` and
``acquisition.retract_embedded`` wrapped.  Every ``maximize`` makes one
``ascend`` call on its stack of starts, and every ascent round one stacked
retraction of its trial rows, so the wrappers count, for PI and for
exploit rounds apart:

- rounds: the retractions made inside ``ascend``;
- trial rows: the rows those retractions stacked;
- the median and the 90th percentile of the rounds per ``maximize``;
- starts: the rows that rank, those to which ``ascend`` returned a finite
  value;
- dropped starts: ``ASCENT_STARTS`` less the starts, per call: the random
  draws that failed ``ascend``'s trust test, NaN (an Spd draw outside the
  chart) or outside the trust radius, and returned at -inf;
- NaN trial rows: the trial rows the retractions returned as NaN, which
  the ascent rejects;
- incumbent proposals: the ``ascend`` calls whose winner (the ``argmax`` of
  the values it returned, the earliest on ties) is row 0, the incumbent's
  start, returned unmoved, so that ``maximize`` proposes the incumbent
  itself.

The counts are exact and repeat on one numpy/BLAS build, so two trees'
tables compare line by line; the run pins BLAS to one thread.  ``--seeds
N`` runs seeds 0..N-1 instead, and ``--iters N`` overrides each
experiment's iteration budget, for a quick check.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import os
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
from compare_traces import THREAD_VARS, WORKLOADS, run_args  # noqa: E402

# Before numpy or scipy loads BLAS: one thread, as the benchmark runs.
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import numpy as np  # noqa: E402

KINDS = ("PI", "exploit")


class AscentCounter:
    """Wraps ``ascend`` and ``retract_embedded`` in the acquisition module
    and tallies each ``ascend`` call's ranked and dropped starts, rounds,
    trial rows, NaN trial rows and whether it proposes the unmoved
    incumbent under its round's kind."""

    def __init__(self, acquisition):
        self.acquisition = acquisition
        self.rounds = {kind: [] for kind in KINDS}  # per ascend call
        self.rows = {kind: 0 for kind in KINDS}
        self.nan_rows = {kind: 0 for kind in KINDS}
        self.starts = {kind: 0 for kind in KINDS}
        self.dropped = {kind: 0 for kind in KINDS}
        self.incumbent = {kind: 0 for kind in KINDS}
        self._current = None  # [rounds, rows, NaN rows] of the ascend call under way

    def _ascend(self, state, e):
        kind = "exploit" if state.exploit else "PI"
        self._current = [0, 0, 0]
        try:
            out, acq = self._real_ascend(state, e)
            ranked = int(np.isfinite(acq).sum())
            self.starts[kind] += ranked
            self.dropped[kind] += self.acquisition.ASCENT_STARTS - ranked
            if int(np.argmax(acq)) == 0 and np.array_equal(out[0], e[0]):
                self.incumbent[kind] += 1
            return out, acq
        finally:
            rounds, rows, nan_rows = self._current
            self._current = None
            self.rounds[kind].append(rounds)
            self.rows[kind] += rows
            self.nan_rows[kind] += nan_rows

    def _retract(self, kind, e, v, t):
        out = self._real_retract(kind, e, v, t)
        if self._current is not None:
            self._current[0] += 1
            self._current[1] += len(e)
            self._current[2] += int(np.isnan(out.reshape(len(out), -1)[:, 0]).sum())
        return out

    @contextlib.contextmanager
    def installed(self):
        module = self.acquisition
        self._real_ascend, self._real_retract = module.ascend, module.retract_embedded
        module.ascend, module.retract_embedded = self._ascend, self._retract
        try:
            yield self
        finally:
            module.ascend, module.retract_embedded = self._real_ascend, self._real_retract


def count_workload(cli_main, acquisition, workload, seeds, iters, out_dir: Path):
    """The counter after running the workload's seeds; raises if a seed's
    run does not finish."""
    counter = AscentCounter(acquisition)
    with counter.installed():
        for seed in seeds:
            args = run_args(workload, seed, out_dir / f"seed-{seed}", iters)
            echoed = io.StringIO()
            with contextlib.redirect_stdout(echoed):
                cli_main(args, standalone_mode=False)
            if f"seed {seed}: ok" not in echoed.getvalue():
                raise RuntimeError(f"{workload.name} seed {seed}: {echoed.getvalue()!r}")
    return counter


def table_lines(counters: dict) -> list[str]:
    """The markdown table of the counts, one row per workload."""
    lines = [
        "| workload | rounds, PI + exploit | trial rows, PI + exploit "
        "| median rounds per `maximize`, PI / exploit (p90) "
        "| starts, PI + exploit | dropped starts, PI + exploit "
        "| NaN trial rows, PI + exploit | incumbent proposals, PI + exploit |",
        "|---|---|---|---|---|---|---|---|",
    ]

    def total(counts):
        return f"{counts['PI']:,} + {counts['exploit']:,} = {sum(counts.values()):,}"

    for name, counter in counters.items():
        rounds = {kind: sum(counter.rounds[kind]) for kind in KINDS}
        medians = [statistics.median(counter.rounds[kind]) if counter.rounds[kind] else 0
                   for kind in KINDS]
        p90s = [float(np.percentile(counter.rounds[kind], 90.0)) if counter.rounds[kind] else 0
                for kind in KINDS]
        lines.append(
            f"| {name} | {total(rounds)} | {total(counter.rows)} "
            f"| {medians[0]:g} / {medians[1]:g} ({p90s[0]:g} / {p90s[1]:g}) "
            f"| {total(counter.starts)} | {total(counter.dropped)} "
            f"| {total(counter.nan_rows)} | {total(counter.incumbent)} |"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="the checkout whose src/manibo runs (default: this one)")
    parser.add_argument("--seeds", type=int, default=4, help="seeds per workload (default 4)")
    parser.add_argument("--iters", type=int, default=None,
                        help="override each experiment's iteration budget")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")
    src = args.tree.resolve() / "src"
    if not (src / "manibo").is_dir():
        parser.error(f"{args.tree} has no src/manibo")
    os.environ.pop("MANIBO_OUT", None)  # it would override --out
    sys.path.insert(0, str(src))
    cli_main = importlib.import_module("manibo.cli").main
    acquisition = importlib.import_module("manibo.acquisition")

    seeds = range(args.seeds)
    counters = {}
    with tempfile.TemporaryDirectory(prefix="count-ascent-") as tmp:
        for workload in WORKLOADS.values():
            counters[workload.name] = count_workload(
                cli_main, acquisition, workload, seeds, args.iters, Path(tmp) / workload.name
            )
    print(f"# ascent counts from {src}, seeds {seeds[0]}..{seeds[-1]}"
          + ("" if args.iters is None else f", --iters {args.iters}"))
    for line in table_lines(counters):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
