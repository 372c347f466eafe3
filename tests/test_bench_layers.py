"""tools/bench_layers.py: the ascent's cost per call on fixed states."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np

import manibo
from manibo import acquisition

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_layers.py"
HEADER = (
    "| kind | n | round | starts | rounds | us per ascend | us per round | us per maximize |"
)


def _run(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=300
    )


def _tables(stdout):
    """Per tree, its title line and its rows as lists of cells."""
    tables = []
    for line in stdout.splitlines():
        if line.startswith("# "):
            tables.append((line, []))
        elif line.startswith("| ") and line != HEADER:
            tables[-1][1].append(line.strip("| ").split(" | "))
        else:
            assert line in (HEADER, "|---|---|---|---|---|---|---|---|"), line
    return tables


def test_one_repeat_smoke():
    result = _run("--repeats", "1")
    assert result.returncode == 0, result.stdout + result.stderr
    [(title, rows)] = _tables(result.stdout)
    assert title == f"# ascent timings from {ROOT / 'src'}, seed 0, min of 1"
    assert [(kind, n, name) for kind, n, name, *_ in rows] == [
        (kind, n, name)
        for kind in ("sphere", "grassmann", "spd")
        for n in ("10", "38")
        for name in ("PI", "exploit")
    ]
    for *_, starts, rounds, per_call, per_round, per_maximize in rows:
        assert 1 <= int(starts) <= 10
        assert int(rounds) >= 1
        assert float(per_call) > 0.0 and float(per_round) > 0.0
        assert float(per_maximize) > 0.0


def test_trees_load_side_by_side():
    # The same checkout twice: two tables over the same states and rounds.
    result = _run("--repeats", "1", "--tree", str(ROOT), "--tree", str(ROOT))
    assert result.returncode == 0, result.stdout + result.stderr
    first, second = _tables(result.stdout)
    assert first[0] == second[0]
    assert [row[:5] for row in first[1]] == [row[:5] for row in second[1]]


def test_rejects_no_repeats():
    result = _run("--repeats", "0")
    assert result.returncode == 2
    assert "--repeats must be >= 1" in result.stderr


def test_maximize_ascends_the_timed_starts(monkeypatch):
    # The two timed calls of a case do the same ascent: the ``maximize``
    # column adds only the draw of the starts and the unembedding.
    spec = importlib.util.spec_from_file_location("bench_layers", TOOL)
    tool = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):  # the tool pins BLAS threads on import
        spec.loader.exec_module(tool)
    seen = []
    real_ascend = acquisition.ascend

    def spy(state, e):
        seen.append(np.array(e))
        return real_ascend(state, e)

    cases = tool.cases(manibo)
    monkeypatch.setattr(acquisition, "ascend", spy)
    for _, state, starts, _ in cases:
        acquisition.maximize(state, tool.SEED)
        np.testing.assert_array_equal(seen[-1], starts)
    assert len(seen) == len(cases) == 12
