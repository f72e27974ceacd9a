import json
import os
import platform
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_pairs  # noqa: E402

METRICS = [{"name": "report_s", "better": "lower", "bound": 0.25},
           {"name": "min_ess_per_s", "better": "higher", "bound": 0.25},
           {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]


def run(report_s, peak_rss_mb, min_ess_per_s=None, failed=1, correct=True, report_rss=61.0):
    metrics = {"report_s": {"value": report_s, "unit": "s"},
               "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    if min_ess_per_s is not None:
        metrics["min_ess_per_s"] = {"value": min_ess_per_s, "unit": "1/s"}
    rss = [{"fit": 57.0, "diagnose": 60.0, "report": report_rss, "compare": 58.0},
           {"fit": 56.0, "diagnose": 59.0, "report": report_rss - 1.0, "compare": 59.0}]
    return {"json": {"correct": correct, "attempted": 12, "failed": failed,
                     "metrics": metrics}, "rss": rss}


def four_pairs():
    runs = {"parent": [run(1.0, 100.0, 1.0), run(2.0, 100.0, 1.0, report_rss=300.0),
                       run(3.0, 100.0, 1.0, report_rss=320.0), run(4.0, 100.0, 1.0, failed=2)],
            "change": [run(0.5, 130.0, 2.0), run(2.0, 130.0, 2.0), run(1.0, 130.0, 2.0),
                       run(5.0, 130.0, 2.0, correct=False)]}
    order = ["change first", "parent first", "change first", "parent first"]
    return bench_pairs.summarize([601, 602, 603, 604], order, runs, METRICS)


def test_summary_statistics_match_hand_computation():
    s = four_pairs()
    assert s["pairs"] == 4 and s["seeds"] == [601, 602, 603, 604]
    assert s["failed_operations"] == {"parent": 5, "change": 4}
    assert s["attempted_operations"] == {"parent": 48, "change": 48}
    assert s["all_correct"] == {"parent": True, "change": False}
    # parent report_s 1, 2, 3, 4; change 0.5, 1, 2, 5 once sorted
    assert s["parent_median"]["report_s"] == 2.5
    assert (s["parent_q1"]["report_s"], s["parent_q3"]["report_s"]) == (1.75, 3.25)
    assert s["change_median"]["report_s"] == 1.5
    assert (s["change_q1"]["report_s"], s["change_q3"]["report_s"]) == (0.875, 2.75)
    assert s["change_vs_parent_pct"]["report_s"] == -40.0
    assert s["parent_iqr_over_median"]["report_s"] == 0.6
    # pairs: 0.5 < 1 won, 2 = 2 a tie, 1 < 3 won, 5 > 4 lost
    assert s["change_better_pairs"]["report_s"] == "2/4"
    assert s["change_better_pairs"]["min_ess_per_s"] == "4/4"
    assert s["change_better_pairs"]["peak_rss_mb"] == "0/4"
    assert s["runs"]["change"]["report_s"] == [0.5, 2.0, 1.0, 5.0]
    assert s["run_order"] == {"601": "change first", "602": "parent first",
                              "603": "change first", "604": "parent first"}
    # per subcommand: the larger of each run's rounds, then the median over runs
    assert s["peak_rss_mb_by_subcommand_median"]["parent"] == {
        "fit": 57.0, "diagnose": 60.0, "report": 180.5, "compare": 59.0}
    assert s["raw"]["parent"][1]["rss"][0]["report"] == 300.0
    json.dumps(s)


def test_verdicts_follow_direction_spread_and_bound():
    verdict = four_pairs()["verdict"]
    assert verdict["report_s"].startswith("unresolved")      # parent IQR/median 0.6
    assert verdict["min_ess_per_s"] == "every change run better than every parent run"
    assert verdict["peak_rss_mb"] == "worse than the bound 0.1"   # +30%, no spread
    assert bench_pairs._verdict([100.0] * 3, [105.0] * 3, "lower", 0.1) == "within bound"


def test_metric_missing_from_a_run_is_left_out():
    runs = {"parent": [run(1.0, 100.0, 1.0), run(1.0, 100.0, 1.0)],
            "change": [run(1.0, 100.0, 1.0), run(1.0, 100.0)]}
    s = bench_pairs.summarize([1, 2], ["change first", "parent first"], runs, METRICS)
    assert "min_ess_per_s" not in s["parent_median"]
    assert set(s["verdict"]) == {"report_s", "peak_rss_mb"}


WON = [61.0, 60.0, 62.0, 61.0, 60.0, 61.0, 62.0, 61.0, 60.0, 61.0]


@pytest.mark.parametrize("change, last_run, met", [
    (WON, {}, True),
    ([400.0] + WON[1:], {}, True),                     # 9 of 10
    ([400.0, 330.0] + WON[2:], {}, False),             # a tie: 8
    (WON, {"failed": 2}, False),                       # one more operation fails
    (WON, {"correct": False}, False),                  # a run is not correct
])
def test_claim_needs_nine_tenths_of_pairs_a_median_gap_over_the_parent_iqr_and_no_new_failure(
        change, last_run, met):
    parent = [329.0, 330.0, 328.0, 329.0, 331.0, 329.0, 330.0, 329.0, 328.0, 330.0]
    runs = {"parent": [run(1.0, p) for p in parent],
            "change": [run(1.0, c) for c in change[:-1]] + [run(1.0, change[-1], **last_run)]}
    s = bench_pairs.summarize(list(range(10)), ["parent first"] * 10, runs, METRICS)
    assert bench_pairs.claim(s, "peak_rss_mb", "lower")["met"] is met


def test_claim_fails_when_the_median_gap_is_inside_the_parent_iqr():
    parent = [10.0, 1.0, 10.0, 1.0, 10.0, 1.0, 10.0, 1.0, 10.0, 1.0]
    change = [9.0, 0.9, 9.0, 0.9, 9.0, 0.9, 9.0, 0.9, 9.0, 0.9]
    runs = {"parent": [run(p, 1.0) for p in parent], "change": [run(c, 1.0) for c in change]}
    s = bench_pairs.summarize(list(range(10)), ["parent first"] * 10, runs, METRICS)
    assert s["change_better_pairs"]["report_s"] == "10/10"
    assert bench_pairs.claim(s, "report_s", "lower")["met"] is False


def test_parse_run_reads_rss_lines_and_the_last_json_line():
    stdout = ("round 0 peak RSS MB: fit 57, diagnose 60, report 329, compare 57\n"
              "round 1 peak RSS MB: fit 58, diagnose 61, report 330, compare 57\n"
              "setup_s                                0.1 s\n"
              + json.dumps({"correct": True, "attempted": 24, "failed": 2,
                            "metrics": {"setup_s": {"value": 0.1, "unit": "s"}}}) + "\n")
    parsed = bench_pairs.parse_run(stdout)
    assert parsed["rss"] == [{"fit": 57.0, "diagnose": 60.0, "report": 329.0, "compare": 57.0},
                             {"fit": 58.0, "diagnose": 61.0, "report": 330.0, "compare": 57.0}]
    assert parsed["json"]["failed"] == 2


def test_host_records_usable_cores_next_to_all_cores(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3})
    assert bench_pairs.host() == "8-core (2 usable) %s, Python %s" % (
        platform.system(), platform.python_version())
    # where affinity is unknown, every core counts as usable
    monkeypatch.delattr(os, "sched_getaffinity")
    assert bench_pairs.host().startswith("8-core (8 usable) ")
