"""scripts/bench_pairs.py: the pair summary on canned numbers, and a
run against two stub checkouts."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [100.0, 104.0, 98.0, 101.0, 103.0, 99.0, 102.0, 100.0, 97.0, 105.0]


class TestSummarize:
    def test_quartiles_inclusive(self):
        assert bench_pairs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (2.0, 3.0, 4.0)

    def test_clear_gain_is_claimed(self):
        change = [90.0] * 9 + [106.0]  # loses one pair of ten
        s = bench_pairs.summarize(PARENT, change, "lower")
        assert s["wins"] == 9 and s["pairs"] == 10
        assert s["parent"] == (99.25, 100.5, 102.75)
        assert s["gap"] == pytest.approx(10.5) and s["parent_iqr"] == pytest.approx(3.5)
        assert s["claim"]

    def test_eight_wins_of_ten_is_not_enough(self):
        change = [90.0] * 8 + [106.0, 106.0]
        s = bench_pairs.summarize(PARENT, change, "lower")
        assert s["wins"] == 8 and not s["claim"]

    def test_gap_inside_the_parent_spread_is_not_enough(self):
        change = [p - 1.0 for p in PARENT]  # wins every pair by less than the IQR
        s = bench_pairs.summarize(PARENT, change, "lower")
        assert s["wins"] == 10
        assert s["gap"] == pytest.approx(1.0) and not s["claim"]

    def test_ties_count_for_neither_side(self):
        change = [90.0] * 8 + PARENT[8:]
        s = bench_pairs.summarize(PARENT, change, "lower")
        assert s["wins"] == 8 and not s["claim"]

    def test_higher_is_better(self):
        change = [p + 20.0 for p in PARENT]
        assert bench_pairs.summarize(PARENT, change, "higher")["claim"]
        s = bench_pairs.summarize(PARENT, change, "lower")
        assert s["wins"] == 0 and s["gap"] == pytest.approx(-20.0) and not s["claim"]

    def test_bad_input(self):
        with pytest.raises(ValueError, match="two pairs"):
            bench_pairs.summarize([1.0], [1.0], "lower")
        with pytest.raises(ValueError, match="two pairs"):
            bench_pairs.summarize([1.0, 2.0], [1.0], "lower")
        with pytest.raises(ValueError, match="better"):
            bench_pairs.summarize([1.0, 2.0], [1.0, 2.0], "faster")


STUB = """import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
with open({log!r}, "a") as f:
    f.write({side!r} + " " + args["--seed"] + "\\n")
value = {base} + int(args["--seed"])
print("noise")
print(json.dumps({{"correct": True, "attempted": 1, "failed": 0, "metrics": {{
    "op_norm_ms": {{"value": value, "unit": "ms"}},
    "peak_rss_mb": {{"value": 50.0, "unit": "MB"}}}}}}))
"""


def stub_checkout(root: Path, side: str, base: float, log: Path) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(STUB.format(log=str(log), side=side, base=base))
    (root / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "perfbench/run.py"],
        "end_to_end": [{"name": "op_norm_ms", "better": "lower"},
                       {"name": "peak_rss_mb", "better": "lower"}]}))
    return root


def test_runs_alternate_and_report_every_gated_metric(tmp_path, capsys):
    log = tmp_path / "order.txt"
    parent = stub_checkout(tmp_path / "parent", "parent", 100.0, log)
    change = stub_checkout(tmp_path / "change", "change", 80.0, log)
    assert bench_pairs.main([str(parent), str(change), "--workload", "loo-pada",
                             "--pairs", "3", "--seconds", "1", "--seed0", "40"]) == 0
    assert log.read_text().split("\n")[:-1] == [
        "parent 40", "change 40", "change 41", "parent 41", "parent 42", "change 42"]
    out = capsys.readouterr().out
    assert "op_norm_ms: 141 [140.5, 141.5] -> 121 [120.5, 121.5]; change better in 3/3" in out
    assert "gap 20 vs parent IQR 1: gain claimed" in out
    assert "peak_rss_mb: 50 [50, 50] -> 50 [50, 50]; change better in 0/3" in out
