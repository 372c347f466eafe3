import json

import pytest
from click.testing import CliRunner

from manibo.cli import main


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture(autouse=True)
def _no_env_override(monkeypatch):
    monkeypatch.delenv("MANIBO_OUT", raising=False)


def _run(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


class TestRun:
    def test_frechet_with_gd_baseline(self, runner, tmp_path):
        out = tmp_path / "exp"
        result = _run(
            runner,
            "run",
            "--experiment", "frechet-sphere",
            "--seed", "7",
            "--iters", "6",
            "--init", "4",
            "--baselines", "gd",
            "--out", str(out),
        )
        assert result.exit_code == 0, result.output
        assert (out / "ebo.csv").exists()
        assert (out / "gd.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["oracle"]["known"]
        assert set(summary["optimizers"]) == {"ebo", "gd"}
        assert summary["config"]["iters"] == 6
        assert summary["optimizers"]["ebo"]["wall_ms"] > 0.0

    def test_csv_schema(self, runner, tmp_path):
        out = tmp_path / "exp"
        result = _run(
            runner,
            "run",
            "--experiment", "frechet-sphere",
            "--seed", "3",
            "--iters", "5",
            "--init", "3",
            "--out", str(out),
        )
        assert result.exit_code == 0
        lines = (out / "ebo.csv").read_text().splitlines()
        assert lines[0] == "iter,f_next,f_best,err_to_oracle,wall_ms"
        assert len(lines) == 1 + 1 + 5  # header + init row + iterations
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[3] != ""  # oracle known: log10 error present
        assert first[4] == ""  # timings off by default

    def test_rerun_is_byte_identical(self, runner, tmp_path):
        args = [
            "run",
            "--experiment", "frechet-sphere",
            "--seed", "9",
            "--iters", "5",
            "--init", "3",
            "--baselines", "gd,nelder-mead",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert _run(runner, *args, "--out", str(out_a)).exit_code == 0
        assert _run(runner, *args, "--out", str(out_b)).exit_code == 0
        for name in ("ebo.csv", "gd.csv", "nelder_mead.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_grassmann_summary_near_oracle(self, runner, tmp_path):
        out = tmp_path / "exp"
        result = _run(
            runner,
            "run",
            "--experiment", "grassmann-approx",
            "--seed", "3",
            "--baselines", "nelder-mead",
            "--out", str(out),
        )
        assert result.exit_code == 0, result.output
        summary = json.loads((out / "summary.json").read_text())
        oracle = summary["oracle"]["value"]
        assert summary["optimizers"]["ebo"]["final_value"] <= 1.05 * oracle

    def test_seeds_fanout(self, runner, tmp_path):
        out = tmp_path / "fan"
        result = _run(
            runner,
            "run",
            "--experiment", "frechet-sphere",
            "--seed", "1",
            "--seeds", "1,2",
            "--iters", "3",
            "--init", "3",
            "--out", str(out),
        )
        assert result.exit_code == 0
        assert (out / "seed-1" / "summary.json").exists()
        assert (out / "seed-2" / "summary.json").exists()

    def test_timings_flag_populates_wall_column(self, runner, tmp_path):
        out = tmp_path / "exp"
        result = _run(
            runner,
            "run",
            "--experiment", "frechet-sphere",
            "--seed", "2",
            "--iters", "3",
            "--init", "3",
            "--timings",
            "--out", str(out),
        )
        assert result.exit_code == 0
        lines = (out / "ebo.csv").read_text().splitlines()
        assert float(lines[1].split(",")[4]) > 0.0

    def test_env_var_overrides_out(self, runner, tmp_path, monkeypatch):
        env_dir = tmp_path / "env-dir"
        monkeypatch.setenv("MANIBO_OUT", str(env_dir))
        result = _run(
            runner,
            "run",
            "--experiment", "frechet-sphere",
            "--seed", "4",
            "--iters", "2",
            "--init", "3",
            "--out", str(tmp_path / "flag-dir"),
        )
        assert result.exit_code == 0
        assert (env_dir / "summary.json").exists()
        assert not (tmp_path / "flag-dir").exists()

    def test_custom_objective(self, runner, tmp_path, monkeypatch):
        module = tmp_path / "toy_objective.py"
        module.write_text(
            "import numpy as np\n"
            "from manibo import Objective, Sphere\n"
            "def make(seed):\n"
            "    target = np.array([0.0, 0.0, 1.0])\n"
            "    return Objective(kind=Sphere(2), fn=lambda x: float(np.sum((x.coords - target) ** 2)))\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        out = tmp_path / "exp"
        result = _run(
            runner,
            "run",
            "--experiment", "custom",
            "--objective", "toy_objective:make",
            "--seed", "5",
            "--iters", "4",
            "--init", "3",
            "--out", str(out),
        )
        assert result.exit_code == 0, result.output
        summary = json.loads((out / "summary.json").read_text())
        assert not summary["oracle"]["known"]

    def test_abort_exits_one_with_partial_trace(self, runner, tmp_path, monkeypatch):
        module = tmp_path / "flaky_objective.py"
        module.write_text(
            "import itertools, numpy as np\n"
            "from manibo import Objective, Sphere\n"
            "def make(seed):\n"
            "    counter = itertools.count()\n"
            "    def fn(x):\n"
            "        return float('nan') if next(counter) >= 5 else float(x.coords[2])\n"
            "    return Objective(kind=Sphere(2), fn=fn)\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        out = tmp_path / "exp"
        result = runner.invoke(
            main,
            [
                "run",
                "--experiment", "custom",
                "--objective", "flaky_objective:make",
                "--seed", "5",
                "--iters", "8",
                "--init", "4",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 1
        assert (out / "ebo.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["optimizers"]["ebo"]["aborted"]

    def test_gd_rejected_off_sphere(self, runner, tmp_path):
        result = runner.invoke(
            main,
            [
                "run",
                "--experiment", "grassmann-approx",
                "--seed", "1",
                "--baselines", "gd",
                "--out", str(tmp_path),
            ],
        )
        assert result.exit_code == 2


class TestValidate:
    def test_valid_file(self, runner, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "[run]\n"
            "experiment = frechet-sphere\n"
            "seed = 12\n"
            "iters = 4\n"
            "baselines = gd\n"
            "[frechet-sphere]\n"
            "latitude = -0.4\n"
        )
        result = _run(runner, "validate", "--config", str(config))
        assert result.exit_code == 0
        resolved = json.loads(result.output)
        assert resolved["experiment"] == "frechet-sphere"
        assert resolved["seed"] == 12
        assert resolved["iters"] == 4
        assert resolved["latitude"] == -0.4
        assert resolved["init"] == 5  # materialized default

    def test_unknown_key_named(self, runner, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("[run]\nexperiment = frechet-sphere\nseed = 1\nbogus = 2\n")
        result = runner.invoke(main, ["validate", "--config", str(config)])
        assert result.exit_code == 2
        assert "bogus" in result.output

    def test_unknown_section_rejected(self, runner, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("[run]\nexperiment = frechet-sphere\nseed = 1\n[extra]\na = 1\n")
        result = runner.invoke(main, ["validate", "--config", str(config)])
        assert result.exit_code == 2

    def test_missing_seed_rejected(self, runner, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("[run]\nexperiment = frechet-sphere\n")
        result = runner.invoke(main, ["validate", "--config", str(config)])
        assert result.exit_code == 2
        assert "seed" in result.output

    def test_flags_override_file(self, runner, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("[run]\nexperiment = frechet-sphere\nseed = 1\niters = 9\n")
        result = _run(runner, "validate", "--config", str(config), "--iters", "2")
        assert result.exit_code == 0
        assert json.loads(result.output)["iters"] == 2

    def test_unknown_experiment_rejected(self, runner):
        result = runner.invoke(main, ["validate", "--experiment", "nope", "--seed", "1"])
        assert result.exit_code == 2

    def test_bad_custom_objective_rejected(self, runner):
        result = runner.invoke(
            main,
            [
                "validate",
                "--experiment", "custom",
                "--objective", "no_such_module:nope",
                "--seed", "1",
            ],
        )
        assert result.exit_code == 2

    def test_kernel_params_must_pair(self, runner):
        result = runner.invoke(
            main,
            [
                "validate",
                "--experiment", "frechet-sphere",
                "--seed", "1",
                "--kernel-lengthscale", "0.5",
            ],
        )
        assert result.exit_code == 2


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize(
    "settings",
    [
        ["--experiment", "frechet-sphere", "--latitude", "2"],
        ["--experiment", "grassmann-approx", "--rows", "7"],
        ["--experiment", "spd-regression", "--init", "100"],
        ["--experiment", "spd-regression", "--query", "100"],
    ],
)
def test_setting_the_problem_rejects_is_a_usage_error(runner, tmp_path, command, settings):
    result = runner.invoke(main, [command, "--seed", "1", "--out", str(tmp_path), *settings])
    assert result.exit_code == 2, result.output
    assert "Error:" in result.output
    assert not any(tmp_path.iterdir())
