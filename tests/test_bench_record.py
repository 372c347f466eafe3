"""tools/bench_record.py: perfbench output parsed into BENCH_<workload>.json."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"

ENV = {"commit": "abc1234", "src_sha256": "00ff", "numpy": "2.4.6", "nproc": 2}
END_TO_END = {"correct": True, "attempted": 13, "failed": 0,
              "metrics": {"run_s.mean": {"value": 0.25, "unit": "s"}}}
PER_LAYER = {"correct": True, "attempted": 20, "failed": 0,
             "metrics": {"acquisition.ascend.calls": {"value": 31.5, "unit": "count"}}}


def _tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stdout(result, env=ENV):
    return "\n".join([
        "# perfbench spd-regression --seed 0 --trace 0: closed loop, 1 client",
        f"# env {json.dumps(env, sort_keys=True)}",
        "# end-to-end metrics, times in nominal seconds:",
        "#   run_s.mean   0.25 s lower is better",
        json.dumps(result),
        "",
    ])


def test_parses_the_env_line_and_the_result_line():
    parsed = _tool().parse_output(_stdout(END_TO_END))
    assert parsed == {"env": ENV, **END_TO_END}


@pytest.mark.parametrize("stdout", [
    _stdout(END_TO_END).replace("# env ", "# environment "),  # no env line
    _stdout(END_TO_END) + _stdout(END_TO_END),  # two env lines
    _stdout(END_TO_END) + "# trailing comment\n",  # last line is not the result
    _stdout({"correct": True, "metrics": {}}),  # no attempted or failed
])
def test_rejects_output_without_an_env_line_or_result(stdout):
    with pytest.raises(ValueError):
        _tool().parse_output(stdout)


def test_writes_both_levels_with_attempted(tmp_path):
    tool = _tool()
    levels = {trace: {"command": tool.bench_command("spd-regression", 3, 30.0, trace)}
              | tool.parse_output(_stdout(result))
              for trace, result in ((0, END_TO_END), (1, PER_LAYER))}
    path = tool.write_record(tmp_path, "spd-regression", levels)
    assert path.name == "BENCH_spd-regression.json"
    written = json.loads(path.read_text(encoding="utf-8"))
    assert written["workload"] == "spd-regression"
    assert written["end_to_end"]["attempted"] == 13
    assert written["per_layer"]["attempted"] == 20
    assert written["per_layer"]["metrics"] == PER_LAYER["metrics"]
    assert written["end_to_end"]["env"] == ENV
    assert written["per_layer"]["command"][-2:] == ["--trace", "1"]
    assert "--seed 3 --seconds 30 " in " ".join(written["end_to_end"]["command"])
