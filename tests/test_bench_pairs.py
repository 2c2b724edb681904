import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
           {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}]


def runs_of(values):
    return [{"result": {"metrics": {name: {"value": v} for name, v in pair.items()}}}
            for pair in values]


def test_wins_respect_direction_and_ties():
    parent = [{"ops_per_s": 1.0, "latency_p50_ms": 10.0}] * 4
    change = [{"ops_per_s": 2.0, "latency_p50_ms": 5.0},
              {"ops_per_s": 1.0, "latency_p50_ms": 10.0},  # a tie counts for neither
              {"ops_per_s": 0.5, "latency_p50_ms": 20.0},
              {"ops_per_s": 3.0, "latency_p50_ms": 4.0}]
    out = bench_pairs.compare({"parent": runs_of(parent), "change": runs_of(change)}, METRICS)
    assert out["ops_per_s"]["change_wins"] == 2
    assert out["latency_p50_ms"]["change_wins"] == 2
    assert out["ops_per_s"]["pairs"] == 4


def test_median_gap_against_parent_quartiles():
    parent = [{"ops_per_s": v, "latency_p50_ms": 1.0} for v in (1.0, 2.0, 3.0, 4.0, 5.0)]
    near = [{"ops_per_s": v, "latency_p50_ms": 1.0} for v in (2.5, 3.5, 4.5, 5.5, 6.5)]
    far = [{"ops_per_s": v, "latency_p50_ms": 1.0} for v in (9.0, 10.0, 11.0, 12.0, 13.0)]
    for change, exceeds in ((near, False), (far, True)):
        m = bench_pairs.compare({"parent": runs_of(parent), "change": runs_of(change)},
                                METRICS)["ops_per_s"]
        # inclusive quartiles of 1..5 are 2 and 4
        assert (m["parent"]["q1"], m["parent"]["median"], m["parent"]["q3"]) == (2.0, 3.0, 4.0)
        assert m["median_gap_exceeds_parent_iqr"] is exceeds
    assert m["median_ratio_change_to_parent"] == pytest.approx(11.0 / 3.0)


def test_src_digest_names_the_source_tree(tmp_path):
    # equal trees give equal digests wherever they sit; a one-byte edit and
    # a renamed file each change it; files outside src/ and other suffixes
    # do not count
    trees = [tmp_path / name for name in ("a", "b")]
    for tree in trees:
        (tree / "src" / "pkg").mkdir(parents=True)
        (tree / "src" / "pkg" / "__init__.py").write_text("x = 1\n")
        (tree / "src" / "pkg" / "mod.py").write_text("y = 2\n")
    (trees[1] / "README.md").write_text("notes\n")
    (trees[1] / "src" / "pkg" / "data.txt").write_text("3\n")
    digest = bench_pairs.src_digest(trees[0])
    assert bench_pairs.src_digest(trees[1]) == digest
    (trees[1] / "src" / "pkg" / "mod.py").write_text("y = 3\n")
    assert bench_pairs.src_digest(trees[1]) != digest
    (trees[1] / "src" / "pkg" / "mod.py").write_text("y = 2\n")
    assert bench_pairs.src_digest(trees[1]) == digest
    (trees[1] / "src" / "pkg" / "mod.py").rename(trees[1] / "src" / "pkg" / "other.py")
    assert bench_pairs.src_digest(trees[1]) != digest


def test_git_rev_marks_a_dirty_source_tree(tmp_path):
    # an edit under src/ marks the HEAD dirty; an edit outside src/ and
    # perfbench/, such as the BENCH_*.json the tool writes, does not
    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=bench",
                        "-c", "user.email=bench@example.invalid", *args],
                       check=True, capture_output=True)

    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text("x = 1\n")
    (tmp_path / "BENCH_x.json").write_text("{}\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "initial")
    head = subprocess.run(["git", "-C", str(tmp_path), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=True).stdout.strip()
    assert bench_pairs.git_rev(tmp_path) == head
    (tmp_path / "BENCH_x.json").write_text('{"pairs": 10}\n')
    assert bench_pairs.git_rev(tmp_path) == head
    (tmp_path / "src" / "mod.py").write_text("x = 2\n")
    assert bench_pairs.git_rev(tmp_path) == head + "+dirty"
