"""tools/abbench.py's summariser, fed canned perfbench result lines: no
subprocess starts."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "abbench", os.path.join(ROOT, "tools", "abbench.py"))
abbench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(abbench)

METRICS = {"setup_s": "lower", "stage1_s": "lower", "stage2_s": "lower",
           "peak_rss_mb": "lower"}


def run(pair, side, setup, *, failed=0, digest="d0", workload="w"):
    """One run's record as the driver keeps it: perfbench/run.py's result
    line (its last) and the unadjusted medians of its report line."""
    line = json.dumps({
        "correct": failed == 0, "attempted": 10, "failed": failed,
        "metrics": {"setup_s": {"value": setup, "unit": "s"},
                    "stage1_s": {"value": 0.01, "unit": "s"},
                    "stage2_s": {"value": 0.08, "unit": "s"},
                    "peak_rss_mb": {"value": 40.0 + pair, "unit": "MB"}}})
    return {"workload": workload, "pair": pair, "seed": 100 + pair,
            "side": side, "digest": digest,
            "unadjusted": {"setup_s": 2 * setup, "stage1_s": 0.02,
                           "stage2_s": 0.16},
            "result": json.loads(line)}


PARENT = [0.20, 0.18, 0.19, 0.21]
CHANGE = [0.12, 0.11, 0.13, 0.10]
RUNS = ([run(i, "parent", v) for i, v in enumerate(PARENT, 1)]
        + [run(i, "change", v) for i, v in enumerate(CHANGE, 1)])


def test_quartiles():
    assert abbench.quartiles([0.21, 0.18, 0.20, 0.19]) == pytest.approx(
        [0.1875, 0.195, 0.2025])
    assert abbench.quartiles([3.0]) == [3.0, 3.0, 3.0]


def test_metric_summary():
    entry = abbench.summarize(RUNS, METRICS)["w"]["setup_s"]
    assert entry["parent"]["adjusted"] == pytest.approx([0.1875, 0.195, 0.2025])
    assert entry["parent"]["raw"] == pytest.approx([0.375, 0.39, 0.405])
    assert entry["change"]["adjusted"] == pytest.approx([0.1075, 0.115, 0.1225])
    assert entry["change_pct"] == pytest.approx(-41.03)
    assert entry["raw_change_pct"] == pytest.approx(-41.03)
    assert entry["change_better_pairs"] == "4/4"
    # (0.195 - 0.115) / (0.2025 - 0.1875)
    assert entry["median_gap_over_parent_iqr"] == pytest.approx(5.33)


def test_equal_sides_win_no_pair():
    entry = abbench.summarize(RUNS, METRICS)["w"]
    assert entry["stage1_s"]["change_better_pairs"] == "0/4"
    assert entry["stage1_s"]["change_pct"] == 0
    # RSS has no unadjusted reading: raw is the value itself
    assert entry["peak_rss_mb"]["parent"]["raw"] == pytest.approx(
        [41.75, 42.5, 43.25])
    # a parent with no spread has no gap ratio
    assert entry["stage2_s"]["median_gap_over_parent_iqr"] is None


def test_higher_is_better():
    entry = abbench.summarize_metric(RUNS, "setup_s", "higher")
    assert entry["change_better_pairs"] == "0/4"
    assert entry["median_gap_over_parent_iqr"] == pytest.approx(-5.33)


def test_failures_and_digests():
    runs = RUNS + [run(5, "parent", 0.2, failed=2),
                   run(5, "change", 0.1, digest="d1"),
                   run(1, "parent", 0.2, workload="v"),
                   run(1, "change", 0.2, workload="v")]
    summary = abbench.summarize(runs, METRICS)
    assert list(summary) == ["w", "v"]
    assert summary["w"]["failed"] == {"parent": 2, "change": 0}
    assert summary["w"]["attempted"] == {"parent": 50, "change": 50}
    assert summary["w"]["digests_equal_per_seed"] is False
    assert summary["v"]["digests_equal_per_seed"] is True


def test_traced_entry():
    report = {"digest": "d0"}
    result = {"correct": True, "failed": 0, "metrics": {
        "engine.RandomTape.values_drawn": {"value": 20191232, "unit": "count"},
        "engine.Channel.self_s": {"value": 0.5, "unit": "s"}}}
    slower = json.loads(json.dumps(result))
    slower["metrics"]["engine.Channel.self_s"]["value"] = 0.7
    entry = abbench.traced_entry({"parent": (report, result),
                                  "change": (report, slower)})
    assert entry["change"]["counts"] == {
        "engine.RandomTape.values_drawn": 20191232}
    assert entry["digests_equal"] and entry["counts_equal"]
    slower["metrics"]["engine.RandomTape.values_drawn"]["value"] = 1
    entry = abbench.traced_entry({"parent": (report, result),
                                  "change": ({"digest": "d1"}, slower)})
    assert not entry["digests_equal"] and not entry["counts_equal"]


def test_seed_list():
    assert abbench.seed_list("2701-2703,2710") == [2701, 2702, 2703, 2710]


def test_analyze_cell():
    def sample(wall, rss, digest="h0"):
        return {"wall_s": wall, "peak_rss_mb": rss, "digest": digest}
    samples = {"parent": [sample(w, 29.3) for w in PARENT],
               "change": [sample(w, 16.5) for w in CHANGE]}
    cell = abbench.analyze_cell(samples)
    assert cell["wall_s"]["parent"] == pytest.approx([0.1875, 0.195, 0.2025])
    assert cell["wall_s"]["change_better_pairs"] == "4/4"
    assert cell["wall_s"]["median_gap_over_parent_iqr"] == pytest.approx(5.33)
    assert cell["peak_rss_mb"]["change_pct"] == pytest.approx(-43.69)
    assert cell["peak_rss_mb"]["change_better_pairs"] == "4/4"
    assert cell["peak_rss_mb"]["median_gap_over_parent_iqr"] is None
    assert cell["outputs_equal"]
    samples["change"][2] = sample(0.25, 16.5, digest="h1")
    cell = abbench.analyze_cell(samples)
    assert cell["wall_s"]["change_better_pairs"] == "3/4"
    assert not cell["outputs_equal"]
