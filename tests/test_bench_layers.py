"""tools/bench_layers.py: the ascent's cost per call on fixed states."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import manibo
from manibo import acquisition

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_layers.py"
HEADER = (
    "| kind | n | round | starts | rounds | us per ascend | us per round | us per maximize |"
)


def _tool():
    spec = importlib.util.spec_from_file_location("bench_layers", TOOL)
    tool = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):  # the tool pins BLAS threads on import
        spec.loader.exec_module(tool)
    return tool


def _run(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=300
    )


def _tables(stdout):
    """Per table (one per tree, then the ratio table), its title line, its
    header and its rows as lists of cells."""
    tables = []
    for line in stdout.splitlines():
        if line.startswith("# "):
            tables.append((line, None, []))
        elif line.startswith("| kind | "):
            tables[-1] = (tables[-1][0], line, [])
        elif line.startswith("| "):
            tables[-1][2].append(line.strip("| ").split(" | "))
        else:
            assert line == "|" + "---|" * len(tables[-1][1].strip("| ").split(" | ")), line
    return tables


def test_one_repeat_smoke():
    result = _run("--repeats", "1")
    assert result.returncode == 0, result.stdout + result.stderr
    [(title, header, rows)] = _tables(result.stdout)
    assert title == f"# ascent timings from {ROOT / 'src'}, seed 0, min of 1"
    assert header == HEADER
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
    first, second, ratios = _tables(result.stdout)
    assert first[:2] == second[:2] and first[1] == HEADER
    assert [row[:5] for row in first[2]] == [row[:5] for row in second[2]]
    # Then one row per case: the second tree's us per call over the first's.
    assert ratios[0] == f"# us per call over tree 1's, {ROOT / 'src'}; trees in --tree order"
    assert ratios[1] == "| kind | n | round | ascend, tree 2 | maximize, tree 2 |"
    assert [row[:3] for row in ratios[2]] == [row[:3] for row in first[2]]
    for (*_, ascend, maximize), one, two in zip(ratios[2], first[2], second[2]):
        # The tables print rounded microseconds; the ratios use the raw ones.
        assert float(ascend) == pytest.approx(float(two[5]) / float(one[5]), rel=0.01, abs=1e-3)
        assert float(maximize) == pytest.approx(float(two[7]) / float(one[7]), rel=0.01, abs=1e-3)


def test_rejects_no_repeats():
    result = _run("--repeats", "0")
    assert result.returncode == 2
    assert "--repeats must be >= 1" in result.stderr


def test_maximize_ascends_the_timed_starts(monkeypatch):
    # The two timed calls of a case do the same ascent: the ``maximize``
    # column adds only the draw of the starts and the unembedding.  The
    # timed starts are the incumbent and every raw draw, and the starts
    # column counts those that rank.
    tool = _tool()
    seen = []
    real_ascend = acquisition.ascend

    def spy(state, e):
        seen.append(np.array(e))
        return real_ascend(state, e)

    cases = tool.cases(manibo)
    monkeypatch.setattr(acquisition, "ascend", spy)
    for _, state, starts, ranked, _ in cases:
        acquisition.maximize(state, tool.SEED)
        np.testing.assert_array_equal(seen[-1], starts)
        assert len(starts) == acquisition.ASCENT_STARTS
        assert ranked == np.isfinite(real_ascend(state, starts)[1]).sum()
    assert len(seen) == len(cases) == 12


def test_tree_without_ascent_work_prints_no_rounds(monkeypatch):
    # A tree from before ``ascend`` returned its ``AscentWork`` returns the
    # rows and values only: its starts still rank, and its rounds and us
    # per round print as "-".
    tool = _tool()
    real_ascend = acquisition.ascend
    monkeypatch.setattr(acquisition, "ascend", lambda state, e: real_ascend(state, e)[:2])
    cases = tool.cases(manibo)
    best = {(key, name): 1.0 for key, *_ in cases for name in ("ascend", "maximize")}
    for line, (*_, ranked, rounds) in zip(tool.table_lines(cases, best)[2:], cases, strict=True):
        assert rounds is None
        assert line.strip("| ").split(" | ")[3:] == [str(ranked), "-", "1", "-", "1"]
