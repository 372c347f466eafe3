"""tools/compare_traces.py: two checkouts' traces compared file by file."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import Workload  # noqa: E402

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


def test_pairs_each_seeds_error_difference(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    # Differences b - a of -1, 0, 1, 2 and 3: mean 1, sample variance 2.5,
    # standard error sqrt(2.5 / 5).  Seed 5 has no error in b and is left
    # out of the pairs.
    for seed, diff in enumerate([-1.0, 0.0, 1.0, 2.0, 3.0]):
        _write(a, f"w/seed-{seed}/summary.json", _errored(-8.0 + seed))
        _write(b, f"w/seed-{seed}/summary.json", _errored(-8.0 + seed + diff))
    _write(a, "w/seed-5/summary.json", _errored(-8.0))
    _write(b, "w/seed-5/summary.json", "not json")
    # One pair has no standard error.
    _write(a, "u/seed-0/summary.json", _errored(-8.0))
    _write(b, "u/seed-0/summary.json", _errored(-8.5))
    # Only workloads whose summaries differ are paired.
    for root in (a, b):
        _write(root, "v/seed-0/summary.json", _errored(-3.0))
    tool = _tool()
    differ, _ = tool.compare_dirs(a, b)
    assert tool.paired_lines(a, b, differ) == [
        "u: paired ebo log10_err difference mean -0.5000 se none over 1 seeds: "
        "1 better, 0 worse, 0 equal, wilcoxon p 1",
        "w: paired ebo log10_err difference mean +1.0000 se 0.7071 "
        "over 5 seeds: 1 better, 3 worse, 1 equal, wilcoxon p 0.375",
    ]


def test_wilcoxon_p_value_of_known_differences():
    # Six positive differences: every sign pattern of six ranks is equally
    # likely under the null, and only all-positive and all-negative are as
    # extreme, so the two-sided exact p is 2 / 2**6.  With every difference
    # zero there is no test to run.
    tool = _tool()
    six_worse = [[-8.0] * 6, [-8.0 + 0.1 * k for k in range(1, 7)]]
    assert tool._paired_line("w", six_worse).endswith(
        "0 better, 6 worse, 0 equal, wilcoxon p 0.03125")
    assert tool._paired_line("w", [[-8.0] * 3, [-8.0] * 3]).endswith(
        "0 better, 0 worse, 3 equal, wilcoxon p n/a")
    assert tool._paired_line("w", [[None], [-8.0]]).endswith("0 equal, wilcoxon p n/a")


def _seed_run(root, name, log10_err, errs):
    """A seed's summary.json and ebo.csv: 2 initial points, then one row per
    entry of errs (log10 distances to the oracle)."""
    summary = {"config": {"init": 2, "iters": len(errs) - 1},
               "oracle": {"known": True, "value": 0.0},
               "optimizers": {"ebo": {"log10_err": log10_err, "wall_ms": 1.0}}}
    _write(root, f"{name}/summary.json", json.dumps(summary))
    rows = ["iter,f_next,f_best,err_to_oracle,wall_ms"]
    rows += [f"{i},1,1,{err}," for i, err in enumerate(errs)]
    _write(root, f"{name}/ebo.csv", "\n".join(rows) + "\n")


class _FakeWorkload(Workload):
    """A workload whose CLI arguments are only its output directory and
    seed, for a ``run_seed`` stand-in."""

    def cli_args(self, seed, out_dir, iters=None):
        return [str(out_dir), str(seed)]


def _tolerance_workload(name):
    """A workload of 2 measured seeds whose tolerance is an oracle error of
    at most 1e-2."""
    return _FakeWorkload(name=name, flags=(), optimizers=("ebo",), tolerance="err",
                         tolerance_limit=1e-2, measured_seeds=2)


def test_prints_each_seeds_evals_to_tolerance(tmp_path, monkeypatch):
    a, b = tmp_path / "a", tmp_path / "b"
    tool = _tool()
    monkeypatch.setattr(tool, "WORKLOADS", {"w": _tolerance_workload("w")})
    # Seed 0 meets the tolerance at iter 1 in a and iter 3 in b; seed 1
    # never does in a (the budget, 2 + 3, plus one), and at iter 0 in b.
    _seed_run(a, "w/seed-0", -2.5, [-1.0, -2.0, -2.5, -2.5])
    _seed_run(b, "w/seed-0", -3.0, [-1.0, -1.5, -1.9, -3.0])
    _seed_run(a, "w/seed-1", -1.0, [-1.0, -1.0, -1.0, -1.0])
    _seed_run(b, "w/seed-1", -4.0, [-2.0, -4.0, -4.0, -4.0])
    differ, _ = tool.compare_dirs(a, b)
    assert tool.error_lines(a, b, differ)[3:] == [
        "w/seed-0: ebo evals_to_tol 3 -> 5",
        "w/seed-1: ebo evals_to_tol 6 -> 2",
        "w: median ebo evals_to_tol 4.5 -> 3.5",
    ]


def test_evals_to_tolerance_marks_a_missing_trace(tmp_path, monkeypatch):
    a, b = tmp_path / "a", tmp_path / "b"
    tool = _tool()
    monkeypatch.setattr(tool, "WORKLOADS", {"w": _tolerance_workload("w")})
    _seed_run(a, "w/seed-0", -2.5, [-1.0, -2.5])
    _seed_run(b, "w/seed-0", -3.0, [-1.0, -3.0])
    (b / "w/seed-0/ebo.csv").unlink()
    differ, _ = tool.compare_dirs(a, b)
    assert tool.error_lines(a, b, differ)[2:] == [
        "w/seed-0: ebo evals_to_tol 3 -> none",
        "w: median ebo evals_to_tol 3 -> none",
    ]


def test_main_prints_the_errors_after_the_differing_files(tmp_path, monkeypatch, capsys):
    tool = _tool()
    trees = [tmp_path / "a", tmp_path / "b"]
    for tree in trees:
        (tree / "src" / "manibo").mkdir(parents=True)
    monkeypatch.setattr(tool, "WORKLOADS", {"w": _tolerance_workload("w")})

    def fake_run(tree, args):
        out, seed = Path(args[0]), int(args[1])
        err = -8.0 - seed if tree == trees[0].resolve() else -8.0 + seed
        _seed_run(out.parent, out.name, err, [-1.0, err])
        return 0

    monkeypatch.setattr(tool, "run_seed", fake_run)
    assert tool.main([str(tree) for tree in trees]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: w/seed-1/ebo.csv",
        "differs: w/seed-1/summary.json",
        "w/seed-0: ebo log10_err -8.0000 -> -8.0000",
        "w/seed-1: ebo log10_err -9.0000 -> -7.0000",
        "w: median ebo log10_err -8.5000 -> -7.5000",
        "w/seed-0: ebo evals_to_tol 3 -> 3",
        "w/seed-1: ebo evals_to_tol 3 -> 3",
        "w: median ebo evals_to_tol 3 -> 3",
        "w: paired ebo log10_err difference mean +1.0000 se 1.0000 over 2 seeds: "
        "0 better, 1 worse, 1 equal, wilcoxon p 1",
        "2 of 4 files identical over 2 seed runs",
    ]


def test_first_seed_and_seeds_choose_the_seeds_run(tmp_path, monkeypatch, capsys):
    # --seeds sets the count even beyond the measured set's 2 seeds, and
    # --first-seed where it starts: seeds 100..102.
    tool = _tool()
    trees = [tmp_path / "a", tmp_path / "b"]
    for tree in trees:
        (tree / "src" / "manibo").mkdir(parents=True)
    monkeypatch.setattr(tool, "WORKLOADS", {"w": _tolerance_workload("w")})
    labels = []

    def fake_run(tree, args):
        out, seed = Path(args[0]), int(args[1])
        labels.append((out.name, seed))
        _seed_run(out.parent, out.name, -8.0, [-8.0])
        return 0

    monkeypatch.setattr(tool, "run_seed", fake_run)
    assert tool.main([str(tree) for tree in trees] + ["--first-seed", "100", "--seeds", "3"]) == 0
    assert sorted(set(labels)) == [("seed-100", 100), ("seed-101", 101), ("seed-102", 102)]
    assert capsys.readouterr().out.splitlines() == ["6 of 6 files identical over 3 seed runs"]


def test_pools_the_pairs_of_both_seed_sets(tmp_path):
    sets = []
    # w: differences b - a of -1, 0 and 1 in the first set, 2 and 3 in the
    # second; pooled, as in the single-set case above, mean 1 and standard
    # error sqrt(2.5 / 5).  v differs only in the second set, by 0.5 on one
    # seed; its first set's equal seeds still count: differences 0, 0 and
    # 0.5, mean 1/6 and standard error sqrt(1/12 / 3).  u never differs.
    for index, (w_diffs, v_diffs) in enumerate((([-1.0, 0.0, 1.0], [0.0, 0.0]),
                                                ([2.0, 3.0], [0.5]))):
        a, b = tmp_path / f"{index}a", tmp_path / f"{index}b"
        for name, diffs in (("w", w_diffs), ("v", v_diffs), ("u", [0.0])):
            for seed, diff in enumerate(diffs, start=100 * index):
                _write(a, f"{name}/seed-{seed}/summary.json", _errored(-8.0 + seed))
                _write(b, f"{name}/seed-{seed}/summary.json", _errored(-8.0 + seed + diff))
        sets.append((a, b, _tool().compare_dirs(a, b)[0]))
    assert _tool().pooled_lines(sets) == [
        "v: pooled paired ebo log10_err difference mean +0.1667 se 0.1667 over 3 seeds: "
        "0 better, 1 worse, 2 equal, wilcoxon p 1",
        "w: pooled paired ebo log10_err difference mean +1.0000 se 0.7071 over 5 seeds: "
        "1 better, 3 worse, 1 equal, wilcoxon p 0.375",
    ]


def test_with_held_out_runs_and_pools_both_seed_sets(tmp_path, monkeypatch, capsys):
    # The measured seeds 0 and 1 and the held-out seeds 100..119, with b one
    # digit worse on seeds 1 and 100: differences 0 and 1 in the first set,
    # 1 and nineteen 0s in the second, two 1s among 22 pooled.
    tool = _tool()
    trees = [tmp_path / "a", tmp_path / "b"]
    for tree in trees:
        (tree / "src" / "manibo").mkdir(parents=True)
    monkeypatch.setattr(tool, "WORKLOADS", {"w": _tolerance_workload("w")})
    seeds_run = []

    def fake_run(tree, args):
        out, seed = Path(args[0]), int(args[1])
        seeds_run.append(seed)
        err = -7.0 if seed in (1, 100) and tree == trees[1].resolve() else -8.0
        _seed_run(out.parent, out.name, err, [-1.0, err])
        return 0

    monkeypatch.setattr(tool, "run_seed", fake_run)
    assert tool.main([str(tree) for tree in trees] + ["--with-held-out"]) == 1
    assert sorted(set(seeds_run)) == [0, 1] + list(range(100, 120))
    out = capsys.readouterr().out.splitlines()
    held_out = out.index("-- held-out seeds 100..119")
    assert out[0] == "-- measured seeds"
    assert out[held_out - 2:held_out] == [
        "w: paired ebo log10_err difference mean +0.5000 se 0.5000 over 2 seeds: "
        "0 better, 1 worse, 1 equal, wilcoxon p 1",
        "2 of 4 files identical over 2 seed runs",
    ]
    assert out[-3:] == [
        "38 of 40 files identical over 20 seed runs",
        "-- pooled",
        "w: pooled paired ebo log10_err difference mean +0.0909 se 0.0627 over 22 seeds: "
        "0 better, 2 worse, 20 equal, wilcoxon p 0.1573",
    ]


def test_held_out_seeds_must_not_overlap_the_seeds_run(tmp_path, monkeypatch):
    tool = _tool()
    trees = [tmp_path / "a", tmp_path / "b"]
    for tree in trees:
        (tree / "src" / "manibo").mkdir(parents=True)
    monkeypatch.setattr(tool, "WORKLOADS", {"w": _tolerance_workload("w")})
    monkeypatch.setattr(tool, "run_seed", lambda tree, args: pytest.fail("ran a seed"))
    with pytest.raises(SystemExit):
        tool.main([str(tree) for tree in trees] + ["--first-seed", "99", "--with-held-out"])
