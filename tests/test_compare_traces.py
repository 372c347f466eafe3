"""tools/compare_traces.py: two checkouts' traces compared file by file."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "compare_traces.py"


def _tool():
    spec = importlib.util.spec_from_file_location("compare_traces", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(root, name, text):
    path = root / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _summary(wall_ms, out, value):
    return json.dumps({"config": {"out": out, "seed": 0},
                       "optimizers": {"ebo": {"wall_ms": wall_ms, "final_value": value}}})


def test_tree_matches_itself():
    result = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--seeds", "1", "--iters", "2"],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    # frechet-sphere writes 3 CSVs, the other two workloads 2, each a summary.
    assert result.stdout.splitlines()[-1] == "10 of 10 files identical over 3 seed runs"


def test_lists_every_file_that_differs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root, wall, out in ((a, 1.0, "x"), (b, 2.0, "y")):
        # Differ only in measured time and output directory: identical.
        _write(root, "w/seed-0/summary.json", _summary(wall, out, 0.5))
        _write(root, "w/seed-0/ebo.csv", "iter,f_next\n0,1\n")
    _write(a, "w/seed-1/summary.json", _summary(1.0, "x", 0.5))
    _write(b, "w/seed-1/summary.json", _summary(1.0, "x", 0.25))
    _write(a, "w/seed-1/ebo.csv", "iter,f_next\n0,1\n")
    _write(b, "w/seed-1/ebo.csv", "iter,f_next\n0,1.0\n")
    _write(a, "w/seed-1/gd.csv", "iter\n")
    differ, compared = _tool().compare_dirs(a, b)
    assert differ == ["w/seed-1/ebo.csv", "w/seed-1/gd.csv", "w/seed-1/summary.json"]
    assert compared == 5
