"""Count the acquisition ascent's work on the benchmark workloads.

    python3 tools/count_ascent.py [--tree TREE] [--seeds N] [--iters N]

Runs ``manibo run`` with each benchmark workload's flags
(``perfbench/workloads.py``) on seeds 0..3, in this process, from
``TREE/src`` (default: this checkout), with ``acquisition.ascend`` wrapped.
Every ``maximize`` makes one ``ascend`` call on its stack of starts, and
the wrapper keeps what each call returns: its ``AscentWork`` record, its
values and its rows.  From those it counts, for PI and for exploit rounds
apart:

- rounds: the record's rounds, one stacked retraction each;
- trial rows: the rows those retractions stacked;
- the median and the 90th percentile of the rounds per ``maximize``;
- starts: the rows that rank, those to which ``ascend`` returned a finite
  value;
- dropped starts: ``ASCENT_STARTS`` less the starts, per call: the random
  draws that failed ``ascend``'s trust test, NaN (an Spd draw outside the
  chart) or outside the trust radius, and returned at -inf;
- NaN trial rows: the record's trial rows that scored NaN, which the
  ascent rejects;
- incumbent proposals: the ``ascend`` calls whose winner (the ``argmax`` of
  the values it returned, the earliest on ties) is row 0, the incumbent's
  start, returned unmoved, so that ``maximize`` proposes the incumbent
  itself.

The counts are exact and repeat on one numpy/BLAS build, so two trees'
tables compare line by line; the run pins BLAS to one thread.  A tree whose
``ascend`` returns no ``AscentWork`` (before the record existed) cannot be
counted.  ``--seeds N`` runs seeds 0..N-1 instead, and ``--iters N``
overrides each experiment's iteration budget, for a quick check.
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


def count_workload(cli_main, acquisition, workload, seeds, iters, out_dir: Path) -> list:
    """Per ``ascend`` call of the workload's seed runs: its round's kind,
    its ``AscentWork``, its starts that rank and whether it proposes the
    unmoved incumbent; raises if a seed's run does not finish."""
    calls = []
    real_ascend = acquisition.ascend

    def ascend(state, e):
        out, acq, work = real_ascend(state, e)
        unmoved = int(np.argmax(acq)) == 0 and np.array_equal(out[0], e[0])
        calls.append(
            ("exploit" if state.exploit else "PI", work, int(np.isfinite(acq).sum()), unmoved)
        )
        return out, acq, work

    acquisition.ascend = ascend
    try:
        for seed in seeds:
            args = run_args(workload, seed, out_dir / f"seed-{seed}", iters)
            echoed = io.StringIO()
            with contextlib.redirect_stdout(echoed):
                cli_main(args, standalone_mode=False)
            if f"seed {seed}: ok" not in echoed.getvalue():
                raise RuntimeError(f"{workload.name} seed {seed}: {echoed.getvalue()!r}")
    finally:
        acquisition.ascend = real_ascend
    return calls


def table_lines(calls: dict, starts_per_call: int) -> list[str]:
    """The markdown table of the counts, one row per workload, from its
    ``count_workload`` calls; ``starts_per_call`` is ``ASCENT_STARTS``."""
    lines = [
        "| workload | rounds, PI + exploit | trial rows, PI + exploit "
        "| median rounds per `maximize`, PI / exploit (p90) "
        "| starts, PI + exploit | dropped starts, PI + exploit "
        "| NaN trial rows, PI + exploit | incumbent proposals, PI + exploit |",
        "|---|---|---|---|---|---|---|---|",
    ]

    def total(counts):
        return f"{counts[0]:,} + {counts[1]:,} = {sum(counts):,}"

    for name, workload_calls in calls.items():
        # Per kind, one row per call: rounds, trial rows, starts, dropped
        # starts, NaN trial rows and whether it proposes the incumbent.
        rows = {kind: [] for kind in KINDS}
        for kind, work, ranked, unmoved in workload_calls:
            rows[kind].append((work.rounds, work.trial_rows, ranked, starts_per_call - ranked,
                               work.nan_rows, unmoved))
        per_call = [np.array(rows[kind], dtype=int).reshape(-1, 6) for kind in KINDS]
        sums = [[int(counts[:, column].sum()) for counts in per_call] for column in range(6)]
        rounds = [counts[:, 0] if len(counts) else [0] for counts in per_call]
        medians = [statistics.median(counts) for counts in rounds]
        p90s = [float(np.percentile(counts, 90.0)) for counts in rounds]
        lines.append(
            f"| {name} | {total(sums[0])} | {total(sums[1])} "
            f"| {medians[0]:g} / {medians[1]:g} ({p90s[0]:g} / {p90s[1]:g}) "
            f"| {' | '.join(total(column) for column in sums[2:])} |"
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
    calls = {}
    with tempfile.TemporaryDirectory(prefix="count-ascent-") as tmp:
        for workload in WORKLOADS.values():
            calls[workload.name] = count_workload(
                cli_main, acquisition, workload, seeds, args.iters, Path(tmp) / workload.name
            )
    print(f"# ascent counts from {src}, seeds {seeds[0]}..{seeds[-1]}"
          + ("" if args.iters is None else f", --iters {args.iters}"))
    for line in table_lines(calls, acquisition.ASCENT_STARTS):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
