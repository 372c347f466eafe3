"""Tests of the benchmark itself.

    python3 -m pytest perfbench

The smoke tests run every workload, untraced and traced, at a tiny budget
and check that every metric ``BENCHMARK.json`` declares is emitted.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, OutputError, SeedOutcome, check_seed_output  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [entry["name"] for entry in BENCHMARK["workloads"]])
def test_smoke_run_emits_every_declared_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [entry["name"] for entry in declared]
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert math.isfinite(metric["value"])
    if trace:
        assert result["metrics"]["trace.missing_hooks"]["value"] == 0
        assert result["metrics"]["trace.coverage_failed"]["value"] == 0


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", BENCHMARK["workloads"][0]["name"], "--seed", "0",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_timings_are_nominal_and_each_measured_seed_weighs_once():
    def seed_run(run_s, ref_s, iter_ms):
        outcome = SeedOutcome(log10_err=-3.0, budget=8, evals_to_tol=6, met_tolerance=True,
                              iter_ms=iter_ms, summary={}, csv_rows={})
        return run.SeedRun(run_s, outcome, False, ref_s)

    nominal = speed.NOMINAL_REF_S
    measured = {
        0: [seed_run(1.0, nominal, [10.0, 20.0])],
        # 6 s where the reference ran twice as long is 3 nominal seconds.
        1: [seed_run(3.0, nominal, [30.0, 40.0]), seed_run(6.0, 2 * nominal, [60.0, 80.0]),
            seed_run(9.0, nominal, [90.0, 90.0])],
    }
    metrics = run.end_to_end_metrics(measured, setup_s=0.5)
    assert metrics["run_s.mean"] == pytest.approx((1.0 + 3.0) / 2)
    assert sorted(run.iteration_ms(measured)) == pytest.approx([10.0, 20.0, 30.0, 40.0])
    assert metrics["neg_log10_err.p50"] == 3.0 and metrics["evals_to_tol.p50"] == 6.0


def test_declared_workloads_are_the_runnable_ones():
    assert [entry["name"] for entry in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.fixture(scope="module")
def sphere_output(tmp_path_factory):
    from manibo.cli import main

    out = tmp_path_factory.mktemp("sphere")
    workload = WORKLOADS["frechet-sphere"]
    main(workload.cli_args(5, out, iters=3), standalone_mode=False)
    return workload, out


def test_output_checks_accept_a_clean_run(sphere_output):
    workload, out = sphere_output
    outcome = check_seed_output(workload, out)
    assert len(outcome.iter_ms) == 3
    assert outcome.budget == 5 + 3
    assert 5 <= outcome.evals_to_tol <= outcome.budget + 1


@pytest.mark.parametrize("damage", ["f_best_rises", "row_missing", "no_oracle", "header"])
def test_output_checks_reject_damaged_output(sphere_output, tmp_path, damage):
    workload, out = sphere_output
    shutil.copytree(out, tmp_path / "run")
    ebo = tmp_path / "run" / "ebo.csv"
    lines = ebo.read_text().splitlines()
    if damage == "f_best_rises":
        cells = lines[-1].split(",")
        cells[2] = repr(float(cells[2]) + 1.0)
        lines[-1] = ",".join(cells)
    elif damage == "row_missing":
        del lines[-1]
    elif damage == "header":
        lines[0] = lines[0].replace("wall_ms", "wall")
    else:
        summary_path = tmp_path / "run" / "summary.json"
        summary = json.loads(summary_path.read_text())
        summary["oracle"] = {"known": False, "value": None}
        summary_path.write_text(json.dumps(summary))
    ebo.write_text("\n".join(lines) + "\n")
    with pytest.raises(OutputError):
        check_seed_output(workload, tmp_path / "run")


def test_hooks_reach_names_imported_elsewhere_and_are_restored():
    import manibo.acquisition
    import manibo.bo
    import manibo.cli
    import manibo.egp

    originals = (manibo.cli.run, manibo.bo.fit_hyperparams,
                 manibo.acquisition.retract_embedded, manibo.egp.GpModel.__dict__["build"])
    with tracing.Installed(tracing.Tracer()) as installed:
        assert installed.missing == []
        assert manibo.cli.run is manibo.bo.run is not originals[0]
        assert manibo.bo.fit_hyperparams is not originals[1]
        assert manibo.acquisition.retract_embedded is not originals[2]
        assert manibo.egp.GpModel.__dict__["build"] is not originals[3]
    assert (manibo.cli.run, manibo.bo.fit_hyperparams,
            manibo.acquisition.retract_embedded,
            manibo.egp.GpModel.__dict__["build"]) == originals


def test_a_removed_name_is_a_missing_hook_not_a_crash(monkeypatch):
    import manibo.bo

    monkeypatch.delattr(manibo.bo, "proposal_dedup")
    with tracing.Installed(tracing.Tracer()) as installed:
        pass
    assert installed.missing == ["bo.proposal_dedup"]


def test_self_time_excludes_child_spans():
    spans = [["outer", 0.0, 10.0, -1, False, False],
             ["inner", 1.0, 4.0, 0, False, True],
             ["inner", 5.0, 6.0, 0, True, False]]
    stats, by_parent = tracing.summarize(spans)
    assert stats["outer"].total_s == 10.0 and stats["outer"].self_s == 6.0
    assert stats["inner"].calls == 2 and stats["inner"].self_s == 4.0
    assert (stats["inner"].raised, stats["inner"].flagged) == (1, 1)
    assert by_parent["inner", "outer"] == 2
