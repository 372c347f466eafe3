"""tools/count_ascent.py: the ascent's rounds and trial rows per workload."""

import importlib.util
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "count_ascent.py"


def _tool():
    spec = importlib.util.spec_from_file_location("count_ascent", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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

    class Kind:
        # A start's flat row is its (rows, of which NaN) pair.
        def flatten_rows(self, e):
            return np.array(e, dtype=float)

    class State:
        def __init__(self, exploit):
            self.exploit = exploit
            self.model = SimpleNamespace(data=SimpleNamespace(kind=Kind()))

    class Acquisition:
        ASCENT_STARTS = 5

        # A start lies within the trust radius if its flat row lies within
        # 3 of the origin.
        def _within_trust(self, state, w):
            return np.linalg.norm(w, axis=1) <= 3.0

        # Each start is one round, which stacks (rows, of which NaN) trial
        # rows; the fake retraction returns the NaN ones first, as 2 x 2
        # rows.
        def ascend(self, state, e):
            for rows, nan in e:
                self.retract_embedded(None, np.zeros((rows, 2, 2)), None, nan)
            return e

        def retract_embedded(self, kind, e, v, t):
            out = e.copy()
            out[:t] = np.nan
            return out

    module = Acquisition()
    counter = tool.AscentCounter(module)
    with counter.installed():
        module.ascend(State(False), [(4, 1), (2, 0)])
        module.ascend(State(True), [(3, 3)])
        module.ascend(State(True), [(1, 0), (1, 1), (1, 0)])
        # A retraction outside an ascend call is not counted.
        module.retract_embedded(None, np.zeros((9, 2, 2)), None, 9)
    assert module.ascend.__func__ is Acquisition.ascend  # restored
    assert counter.rounds == {"PI": [2], "exploit": [1, 3]}
    assert counter.rows == {"PI": 6, "exploit": 6}
    assert counter.nan_rows == {"PI": 1, "exploit": 4}
    assert tool.table_lines({"w": counter})[2].endswith("| 1 + 4 = 5 |")
    # Starts, dropped starts (5 less the starts, per call) and starts
    # outside the radius: (4, 1) and (3, 3).
    assert counter.starts == {"PI": 2, "exploit": 4}
    assert counter.dropped == {"PI": 3, "exploit": 6}
    assert counter.outside == {"PI": 1, "exploit": 1}
    assert tool.table_lines({"w": counter})[2].endswith(
        "| 2 + 4 = 6 | 3 + 6 = 9 | 1 + 1 = 2 | 1 + 4 = 5 |"
    )
