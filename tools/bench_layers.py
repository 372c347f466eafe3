"""Time one acquisition ascent per manifold kind on fixed states.

    python3 tools/bench_layers.py [--tree TREE ...] [--repeats K]

For each benchmark kind (the sphere S^2, the Grassmannian Gr(2, 3) and
Spd(3), on the problems of the three benchmark workloads) and each data
size n in 10 and 38, builds one fixed state from ``SEED``: n design
points (random points; on Spd a subset of the regression responses, as the
run's design is), their objective values, median-heuristic hyperparameters
and the run's trust radius (the design's diameter).  On that state it
ascends ``maximize``'s starts, the incumbent and the ``_random_starts``
drawn from the seed, once for a PI round and once for an exploit round, and
prints the microseconds per ``ascend`` call and per ascent round, each the
minimum over K timed calls.  The round count comes from one untimed call
under ``count_ascent.AscentCounter``, which counts the stacked retraction
every round makes.

Unlike ``perfbench/run.py --trace 1``, which averages over whole runs
whose trajectories move with every change to the traces, the states here
are fixed, so the numbers compare the cost of one call across commits.
Each ``--tree`` (default: this checkout) loads its own ``src/manibo`` side
by side in this process, the timed calls alternate between the trees, and
one table per tree follows: on a shared machine the speed drifts between
separate runs by more than a change to one layer saves.  Nothing is
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
    the starts ``maximize`` would ascend on them."""
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
    starts = acquisition._random_starts(states["PI"], rng)
    return states, np.concatenate([incumbent[None], starts])


def cases(manibo) -> list[tuple]:
    """Every (kind, n, round) with its state, starts and rounds."""
    acquisition = manibo.acquisition
    found = []
    for kind, (objective, draw) in problems(manibo).items():
        for n in SIZES:
            states, starts = ascent_states(manibo, objective, draw, n)
            for name, state in states.items():
                with AscentCounter(acquisition).installed() as counter:
                    acquisition.ascend(state, starts)
                found.append(((kind, n, name), state, starts, counter.rounds[name][-1]))
    return found


def time_trees(trees: list, repeats: int) -> list[dict]:
    """Per tree, the minimum time of each case's ``ascend`` call in
    microseconds, over ``repeats`` calls that alternate between the trees
    (in turn first)."""
    best = [{} for _ in trees]
    for repeat in range(repeats):
        shift = repeat % len(trees)
        for t in list(range(len(trees)))[shift:] + list(range(len(trees)))[:shift]:
            manibo, tree_cases = trees[t]
            for key, state, starts, _ in tree_cases:
                tick = time.perf_counter()
                manibo.acquisition.ascend(state, starts)
                elapsed = (time.perf_counter() - tick) * 1e6
                best[t][key] = min(elapsed, best[t].get(key, math.inf))
    return best


def table_lines(tree_cases: list[tuple], best: dict) -> list[str]:
    lines = [
        "| kind | n | round | starts | rounds | us per ascend | us per round |",
        "|---|---|---|---|---|---|---|",
    ]
    for (kind, n, name), _, starts, rounds in tree_cases:
        us = best[(kind, n, name)]
        per_round = f"{us / rounds:.1f}" if rounds else "-"
        lines.append(
            f"| {kind} | {n} | {name} | {len(starts)} | {rounds} | {us:.0f} | {per_round} |"
        )
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
        print(f"# ascend timings from {path / 'src'}, seed {SEED}, min of {args.repeats}")
        for line in table_lines(tree_cases, tree_best):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
