"""The summary arithmetic of tools/ab.py, over fixed records, with no timed run."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
P50 = next(metric for metric in END_TO_END if metric["name"] == "op_p50_ms")
OPS = next(metric for metric in END_TO_END if metric["name"] == "ops_per_s")


def _records(parent, change, name="op_p50_ms"):
    return [{"workload": "w", "pair": pair, "side": side, "metrics": {name: value}}
            for pair, values in enumerate(zip(parent, change), start=1)
            for side, value in zip(("parent", "change"), values)]


def test_spread_takes_inclusive_quartiles():
    assert ab.spread([4, 1, 3, 2, 5]) == {"median": 3, "q1": 2, "q3": 4, "runs": 5}
    assert ab.spread([1, 2, 3, 4]) == {"median": 2.5, "q1": 1.75, "q3": 3.25, "runs": 4}


def test_compare_counts_pairs_and_judges_the_spread():
    parent = [3.40, 3.35, 3.43, 3.38, 3.41, 3.36, 3.42, 3.39, 3.37, 3.40]
    change = [3.06, 3.01, 3.09, 3.05, 3.07, 3.02, 3.08, 3.04, 3.03, 3.45]
    body = ab.compare(_records(parent, change), P50)
    assert body["pairs_won_by_change"] == "9/10"
    assert body["parent"]["runs"] == body["change"]["runs"] == 10
    assert body["ratio_of_medians"] == body["change"]["median"] / body["parent"]["median"]
    spread = (body["parent"]["q3"] - body["parent"]["q1"]) / body["parent"]["median"]
    assert body["parent_iqr_over_median"] == spread
    assert (body["bound"], body["verdict"]) == (0.25, "gain beyond spread")
    # eight wins in ten are not enough, however large the gain
    assert ab.compare(_records(parent, change[:8] + [3.5, 3.5]), P50)["verdict"] == "within bound"
    # a tie is no win, and a median 30 % worse passes the 25 % bound
    body = ab.compare(_records(parent, [3.40] + [4.4] * 9), P50)
    assert (body["pairs_won_by_change"], body["verdict"]) == ("0/10", "worse than bound")
    # a parent whose quartiles lie 40 % of its median apart cannot tell a 10 % gain
    wide = [2.5, 2.6, 2.7, 2.8, 3.4, 3.4, 4.0, 4.1, 4.2, 4.3]
    body = ab.compare(_records(wide, [0.9 * v for v in wide]), P50)
    assert (body["pairs_won_by_change"], body["verdict"]) == ("10/10", "unresolved")


def test_compare_reads_the_direction_of_higher_is_better():
    parent = [100, 102, 98, 101]
    body = ab.compare(_records(parent, [110, 111, 109, 112], "ops_per_s"), OPS)
    assert (body["pairs_won_by_change"], body["verdict"]) == ("4/4", "gain beyond spread")
    body = ab.compare(_records(parent, [70, 71, 72, 73], "ops_per_s"), OPS)
    assert (body["pairs_won_by_change"], body["verdict"]) == ("0/4", "worse than bound")


def test_summarize_reproduces_a_recorded_summary():
    # BENCH_22.json's summary was computed from its runs by the same rules
    record = json.loads((ROOT / "BENCH_22.json").read_text())
    summary = ab.summarize(record["runs"], END_TO_END)
    assert list(summary) == ["exact_eval", "integral_mc", "graph_sweep"]
    for workload, metrics in summary.items():
        assert metrics == record["summary"][f"{workload} seed 1"]


def test_differences_name_every_changed_or_missing_op():
    parent = [["w", 1, 0, ["eval"], "aa"], ["w", 1, 1, ["encode"], "bb"],
              ["w", 2, 0, ["eval"], "cc"]]
    change = [["w", 1, 0, ["eval"], "aa"], ["w", 1, 1, ["encode"], "bd"],
              ["w", 3, 0, ["eval"], "cc"]]
    assert ab.differences(parent, parent) == []
    assert ab.differences(parent, change) == [
        "('w', 1, 1): encode: outputs differ",
        "('w', 2, 0): only the parent ran it",
        "('w', 3, 0): only the change ran it",
    ]
