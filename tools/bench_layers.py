"""Time one acquisition ascent and one ``maximize`` per manifold kind on
fixed states.

    python3 tools/bench_layers.py [--tree TREE ...] [--repeats K]

For each benchmark kind (the sphere S^2, the Grassmannian Gr(2, 3) and
Spd(3), on the problems of the three benchmark workloads) and each data
size n in 10 and 38, builds one fixed state from ``SEED``: n design
points (random points; on Spd a subset of the regression responses, as the
run's design is), their objective values, median-heuristic hyperparameters
and the run's trust radius (the design's diameter).  On that state, once
for a PI round and once for an exploit round, it times ``maximize(state,
SEED)`` and the ``ascend`` call inside it, on the same starts: the
incumbent and the ``ASCENT_STARTS - 1`` random draws that ``maximize``
draws from the seed.  It prints the microseconds per ``ascend`` call, per
ascent round and per ``maximize`` call, each the minimum over K timed
calls; what ``maximize`` adds to its ``ascend`` is drawing the starts and
unembedding the winner.  The round count and the starts column, the rows
that rank (those ``ascend`` returns a finite value for, the others failing
its trust test), come from one untimed call under
``count_ascent.AscentCounter``, which counts the stacked retraction every
round makes.

Unlike ``perfbench/run.py --trace 1``, which averages over whole runs
whose trajectories move with every change to the traces, the states here
are fixed, so the numbers compare the cost of one call across commits.
Each ``--tree`` (default: this checkout) loads its own ``src/manibo`` side
by side in this process, the timed calls alternate between the trees, and
one table per tree follows: on a shared machine the speed drifts between
separate runs by more than a change to one layer saves.  With two or more
trees a last table gives, per case, each later tree's us per ``ascend``
and per ``maximize`` divided by the first tree's (tree 1).  Nothing is
stored.  BLAS is pinned to one thread.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
from compare_traces import THREAD_VARS  # noqa: E402

# Before numpy loads BLAS: one thread, as the benchmark runs.
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import numpy as np  # noqa: E402
from count_ascent import AscentCounter  # noqa: E402

SEED = 0
SIZES = (10, 38)


def load_manibo(tree: Path, name: str):
    """The ``manibo`` package of ``tree/src``, imported under ``name`` so
    that several trees load side by side."""
    init = tree / "src" / "manibo" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def problems(manibo) -> dict:
    """Per kind, its benchmark objective and a function drawing n design
    points from a generator."""
    ex = manibo.experiments

    def random_points(kind):
        return lambda n, rng: [manibo.manifolds.random_point(kind, rng) for _ in range(n)]

    sphere = ex.frechet_grad_objective(ex.latitude_circle_problem())
    grassmann = ex.grassmann_objective(ex.random_approx_problem(seed=SEED))
    spd_problem = ex.generate_spd_regression_data(seed=SEED)
    return {
        "sphere": (sphere, random_points(sphere.kind)),
        "grassmann": (grassmann, random_points(grassmann.kind)),
        "spd": (
            ex.spd_regression_objective(spd_problem),
            lambda n, rng: list(ex.response_design(spd_problem, n, int(rng.integers(2**31)))),
        ),
    }


def ascent_states(manibo, objective, draw, n: int):
    """The PI and the exploit state on n points drawn from ``SEED``, and
    the starts ``maximize(state, SEED)`` ascends on either: the incumbent
    and the raw draws."""
    acquisition, egp = manibo.acquisition, manibo.egp
    rng = np.random.default_rng(SEED)
    points = draw(n, rng)
    data = egp.GpDataset.from_points(points, [objective.fn(x) for x in points])
    model = egp.GpModel.build(egp.median_heuristic_params(data), data)
    radius = math.sqrt(float(np.max(data.sq_dists)))
    best = float(np.min(data.values))
    states = {
        name: acquisition.AcquisitionState(model, best, radius, exploit=exploit)
        for name, exploit in (("PI", False), ("exploit", True))
    }
    incumbent = manibo.manifolds.embed(points[int(np.argmin(data.values))])
    draws = data.kind.random_embedded(np.random.default_rng(SEED), acquisition.ASCENT_STARTS - 1)
    return states, np.concatenate([incumbent[None], draws])


def cases(manibo) -> list[tuple]:
    """Every (kind, n, round) with its state, starts, ranked starts and
    rounds."""
    acquisition = manibo.acquisition
    found = []
    for kind, (objective, draw) in problems(manibo).items():
        for n in SIZES:
            states, starts = ascent_states(manibo, objective, draw, n)
            for name, state in states.items():
                with AscentCounter(acquisition).installed() as counter:
                    acquisition.ascend(state, starts)
                ranked, rounds = counter.starts[name], counter.rounds[name][-1]
                found.append(((kind, n, name), state, starts, ranked, rounds))
    return found


def time_trees(trees: list, repeats: int) -> list[dict]:
    """Per tree, the minimum time of each case's ``ascend`` and
    ``maximize`` call in microseconds, keyed by the case and the call's
    name, over ``repeats`` calls that alternate between the trees (in turn
    first)."""
    best = [{} for _ in trees]
    for repeat in range(repeats):
        shift = repeat % len(trees)
        for t in list(range(len(trees)))[shift:] + list(range(len(trees)))[:shift]:
            manibo, tree_cases = trees[t]
            acquisition = manibo.acquisition
            for key, state, starts, *_ in tree_cases:
                for name, call, args in (
                    ("ascend", acquisition.ascend, (state, starts)),
                    ("maximize", acquisition.maximize, (state, SEED)),
                ):
                    tick = time.perf_counter()
                    call(*args)
                    elapsed = (time.perf_counter() - tick) * 1e6
                    best[t][key, name] = min(elapsed, best[t].get((key, name), math.inf))
    return best


def table_lines(tree_cases: list[tuple], best: dict) -> list[str]:
    lines = [
        "| kind | n | round | starts | rounds | us per ascend | us per round"
        " | us per maximize |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for key, _, _, ranked, rounds in tree_cases:
        us = best[key, "ascend"]
        per_round = f"{us / rounds:.1f}" if rounds else "-"
        lines.append(
            f"| {' | '.join(map(str, key))} | {ranked} | {rounds} | {us:.0f}"
            f" | {per_round} | {best[key, 'maximize']:.0f} |"
        )
    return lines


def ratio_lines(tree_cases: list[tuple], best: list[dict]) -> list[str]:
    """Per case, every later tree's us per ``ascend`` and per ``maximize``
    divided by the first tree's: one number per case and call."""
    others = range(2, len(best) + 1)
    lines = [
        "| kind | n | round | "
        + " | ".join(f"ascend, tree {t} | maximize, tree {t}" for t in others)
        + " |",
        "|---|---|---|" + "---|---|" * len(others),
    ]
    for key, *_ in tree_cases:
        cells = [
            f"{tree_best[key, name] / best[0][key, name]:.3f}"
            for tree_best in best[1:]
            for name in ("ascend", "maximize")
        ]
        lines.append(f"| {' | '.join(map(str, key))} | {' | '.join(cells)} |")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, action="append",
                        help="a checkout whose src/manibo runs; repeat to compare "
                             "(default: this one)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed calls per state and tree; the minimum is printed (default 5)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    paths = [tree.resolve() for tree in args.tree or [ROOT]]
    for path in paths:
        if not (path / "src" / "manibo").is_dir():
            parser.error(f"{path} has no src/manibo")
    trees = []
    for index, path in enumerate(paths):
        manibo = load_manibo(path, f"manibo_tree{index}")
        trees.append((manibo, cases(manibo)))
    best = time_trees(trees, args.repeats)
    for path, (_, tree_cases), tree_best in zip(paths, trees, best):
        print(f"# ascent timings from {path / 'src'}, seed {SEED}, min of {args.repeats}")
        for line in table_lines(tree_cases, tree_best):
            print(line)
    if len(trees) > 1:
        print(f"# us per call over tree 1's, {paths[0] / 'src'}; trees in --tree order")
        for line in ratio_lines(trees[0][1], best):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
