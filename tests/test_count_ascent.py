"""tools/count_ascent.py: the ascent's rounds and trial rows per workload."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "count_ascent.py"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _tool():
    spec = importlib.util.spec_from_file_location("count_ascent", TOOL)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):  # the tool pins BLAS threads on import
        spec.loader.exec_module(module)
    return module


def test_pins_blas_threads_before_numpy_and_scipy_load():
    # BLAS reads its thread count once, when numpy or scipy first loads it,
    # so the tool must set the variables before either import.  The probe
    # records them at each package's first import.  Loading the tool loads
    # numpy; scipy loads later, when the tool imports manibo to run, which
    # the probe stands in for by importing scipy after the tool.
    probe = f"""
import importlib.abc, importlib.util, json, os, sys
seen = {{}}
class Probe(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name in ("numpy", "scipy") and name not in seen:
            seen[name] = [os.environ.get(var) for var in {THREAD_VARS!r}]
sys.meta_path.insert(0, Probe())
spec = importlib.util.spec_from_file_location("count_ascent", {str(TOOL)!r})
spec.loader.exec_module(importlib.util.module_from_spec(spec))
import scipy.linalg
print(json.dumps(seen))
"""
    env = {key: value for key, value in os.environ.items() if key not in THREAD_VARS}
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {"numpy": ["1"] * 3, "scipy": ["1"] * 3}


def test_one_seed_smoke():
    result = subprocess.run(
        [sys.executable, str(TOOL), "--seeds", "1", "--iters", "2"],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert lines[0].endswith("seeds 0..0, --iters 2")
    assert lines[1].startswith("| workload | rounds, PI + exploit |")
    rows = {line.split(" | ")[0].lstrip("| "): line for line in lines[3:]}
    assert sorted(rows) == ["frechet-sphere", "grassmann-approx", "spd-regression"]
    for line in rows.values():
        # Two iterations: one PI round, then one exploit round, each with
        # at least one ascent round and one trial row.
        rounds = line.split(" | ")[1]
        pi, exploit = (int(part.replace(",", "")) for part in rounds.split(" = ")[0].split(" + "))
        assert pi >= 1 and exploit >= 1


def test_counts_rounds_and_rows_per_kind():
    tool = _tool()

    class Acquisition:
        ASCENT_STARTS = 5

        # Each start (rows, of which NaN, value, shift) is one round, which
        # stacks that many trial rows; the fake retraction returns the NaN
        # ones first, as 2 x 2 rows.  The start returns the value, moved by
        # its shift; a start at -inf is dropped.
        def ascend(self, state, e):
            e = np.array(e, dtype=float)
            for rows, nan in e[:, :2].astype(int):
                self.retract_embedded(None, np.zeros((rows, 2, 2)), None, nan)
            out = e.copy()
            out[:, 0] += e[:, 3]
            return out, e[:, 2]

        def retract_embedded(self, kind, e, v, t):
            out = e.copy()
            out[:t] = np.nan
            return out

    module = Acquisition()
    counter = tool.AscentCounter(module)
    with counter.installed():
        # The incumbent's row wins on a tie, unmoved: an incumbent proposal.
        module.ascend(SimpleNamespace(exploit=False), [(4, 1, 0.5, 0), (2, 0, 0.5, 0)])
        # It wins, moved; then another row wins: neither is one.  The last
        # row of the last call returns at -inf: a dropped start.
        module.ascend(SimpleNamespace(exploit=True), [(3, 3, 1.0, 1)])
        module.ascend(
            SimpleNamespace(exploit=True), [(1, 0, 0.0, 0), (1, 1, 2.0, 0), (1, 0, -np.inf, 0)]
        )
        # A retraction outside an ascend call is not counted.
        module.retract_embedded(None, np.zeros((9, 2, 2)), None, 9)
    assert module.ascend.__func__ is Acquisition.ascend  # restored
    assert counter.rounds == {"PI": [2], "exploit": [1, 3]}
    assert counter.rows == {"PI": 6, "exploit": 6}
    assert counter.nan_rows == {"PI": 1, "exploit": 4}
    # Starts, those with a finite value, and dropped starts: 5 less the
    # starts, per call.
    assert counter.starts == {"PI": 2, "exploit": 3}
    assert counter.dropped == {"PI": 3, "exploit": 7}
    assert counter.incumbent == {"PI": 1, "exploit": 0}
    assert tool.table_lines({"w": counter})[2].endswith(
        "| 2 + 3 = 5 | 3 + 7 = 10 | 1 + 4 = 5 | 1 + 0 = 1 |"
    )
