"""tools/compare_traces.py: two checkouts' traces compared file by file."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

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


def _errored(log10_err):
    return json.dumps({"optimizers": {"ebo": {"log10_err": log10_err, "wall_ms": 1.0}}})


def test_prints_each_seeds_error_where_a_summary_differs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    # Seeds 10 and 2 sort by number; seed 2 differs only in wall_ms.
    for seed, err_a, err_b in ((0, -8.0, -8.5), (2, -7.0, -7.0), (10, -9.0, -6.0)):
        _write(a, f"w/seed-{seed}/summary.json", _errored(err_a))
        _write(b, f"w/seed-{seed}/summary.json", _errored(err_b))
    # A workload whose summaries all agree prints nothing.
    for root in (a, b):
        _write(root, "v/seed-0/summary.json", _errored(-3.0))
    tool = _tool()
    differ, _ = tool.compare_dirs(a, b)
    assert differ == ["w/seed-0/summary.json", "w/seed-10/summary.json"]
    assert tool.error_lines(a, b, differ) == [
        "w/seed-0: ebo log10_err -8.0000 -> -8.5000",
        "w/seed-2: ebo log10_err -7.0000 -> -7.0000",
        "w/seed-10: ebo log10_err -9.0000 -> -6.0000",
        "w: median ebo log10_err -8.0000 -> -7.0000",
    ]


def test_error_printout_marks_a_missing_error(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _write(a, "w/seed-0/summary.json", _errored(-8.0))
    _write(b, "w/seed-0/summary.json", "not json")
    _write(a, "w/seed-1/summary.json", _errored(-6.0))
    tool = _tool()
    differ, _ = tool.compare_dirs(a, b)
    assert tool.error_lines(a, b, differ) == [
        "w/seed-0: ebo log10_err -8.0000 -> none",
        "w/seed-1: ebo log10_err -6.0000 -> none",
        "w: median ebo log10_err -7.0000 -> none",
    ]


def test_main_prints_the_errors_after_the_differing_files(tmp_path, monkeypatch, capsys):
    tool = _tool()
    trees = [tmp_path / "a", tmp_path / "b"]
    for tree in trees:
        (tree / "src" / "manibo").mkdir(parents=True)
    workload = SimpleNamespace(name="w", measured_seeds=2,
                               cli_args=lambda seed, out, iters: [str(out), str(seed)])
    monkeypatch.setattr(tool, "WORKLOADS", {"w": workload})

    def fake_run(tree, args):
        out, seed = Path(args[0]), int(args[1])
        err = -8.0 - seed if tree == trees[0].resolve() else -8.0 + seed
        _write(out, "summary.json", _errored(err))
        return 0

    monkeypatch.setattr(tool, "run_seed", fake_run)
    assert tool.main([str(tree) for tree in trees]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: w/seed-1/summary.json",
        "w/seed-0: ebo log10_err -8.0000 -> -8.0000",
        "w/seed-1: ebo log10_err -9.0000 -> -7.0000",
        "w: median ebo log10_err -8.5000 -> -7.5000",
        "1 of 2 files identical over 2 seed runs",
    ]
