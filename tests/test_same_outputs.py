import importlib.util
import json
import os
from pathlib import Path

import test_sweep
from jpmsim import sweep

_ROOT = Path(__file__).parents[1]
_SPEC = importlib.util.spec_from_file_location("same_outputs", _ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)


def result(name, **kw):
    return {"name": name, "exit": 0, "stdout": "", "stderr": "", "files": {}, **kw}


def test_equal_sides_have_no_difference():
    side = [result("a", stdout="x"), result("b", exit=2, files={"out.csv": "00"})]
    assert same_outputs.compare(side, [dict(r) for r in side]) == []


def test_each_differing_output_is_named():
    parent = [result("a"), result("b"), result("c")]
    change = [result("a", exit=3), result("b", stderr="warning\n"),
              result("c", stdout="1", files={"out.csv": "ff"})]
    diffs = same_outputs.compare(parent, change)
    assert [d.split(" differs")[0] for d in diffs] == [
        "a: exit", "b: stderr", "c: stdout", "c: files"]


def test_different_case_lists_differ():
    assert same_outputs.compare([result("a")], [result("b")]) == [
        "the two sides ran different cases"]


def test_runs_cases_like_the_command_line(tmp_path):
    # the spec written from a SweepSpec builds the same sweep through the CLI
    grids = same_outputs.test_grid_cases(_ROOT)
    names = [case["name"] for case in grids]
    assert "pm overflow seed 1 json" in names and "stacked exp csv" in names
    spec = next(c for c in grids if c["name"] == "stacked exp json")
    cases = [spec, next(c for c in grids if c["name"] == "stacked exp csv"),
             *[c for c in same_outputs.optimize_cases() if c["argv"][-2:] == ["--t-m", "0"]]]
    home = os.getcwd()
    out = same_outputs.run_cases(cases, tmp_path)
    assert os.getcwd() == home
    expected = sweep.run_sweep(test_sweep.stacked_spec("exp")).to_json()
    assert (out[0]["exit"], out[0]["stdout"], out[0]["files"]) == (0, expected + "\n", {})
    assert out[1]["exit"] == 0 and list(out[1]["files"]) == ["out.csv"]
    assert out[1]["stdout"] == "wrote out.csv\n"
    assert out[2]["exit"] == 2 and "t_end" in out[2]["stderr"]
    assert json.loads(json.dumps(out)) == out


def test_seeded_grids_are_8x8_continuous_and_repeat():
    for seed in range(same_outputs.SEEDED_GRIDS):
        raw = same_outputs.seeded_grid(seed)
        assert raw == same_outputs.seeded_grid(seed)
        assert raw["drive"]["kind"] == "continuous"
        assert raw["axis1"]["points"] == raw["axis2"]["points"] == 8
