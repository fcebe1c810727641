"""The pair summary of tools/bench_pairs.py: medians, quartiles, pairs won."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _run(pair, side, rate, rss, correct=True, failed=0):
    return {"pair": pair, "side": side, "correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"realizations_per_s": rate, "peak_rss_mb": rss}}


def test_summary_counts_pairs_won_in_each_metric_direction():
    runs = [
        _run(0, "parent", 1.0, 170.0), _run(0, "change", 1.2, 150.0),
        _run(1, "change", 0.9, 149.0), _run(1, "parent", 1.1, 171.0),
        _run(2, "parent", 1.0, 169.0), _run(2, "change", 1.0, 172.0),
        _run(3, "parent", 1.0, 170.0),  # its change run failed: not a pair
        {"pair": 3, "side": "change", "correct": False, "error": ["exit 1"]},
    ]
    better = {"realizations_per_s": "higher", "peak_rss_mb": "lower"}
    summary = bench_pairs.summarize(runs, better)
    rate, rss = summary["metrics"]["realizations_per_s"], summary["metrics"]["peak_rss_mb"]
    assert rate["pairs"] == rss["pairs"] == 3
    assert rate["pairs_won"] == 1  # a tie counts for neither side
    assert rss["pairs_won"] == 2
    assert rss["parent"]["median"] == 170.0 and rss["change"]["median"] == 150.0
    assert rss["parent"]["q1"] == pytest.approx(169.5) and rss["parent"]["q3"] == pytest.approx(170.5)
    assert rss["parent"]["iqr"] == pytest.approx(1.0)


def test_a_run_with_wrong_output_is_no_side_of_a_pair():
    # bench/run.py exits 0 with correct: false; fast wrong output wins nothing
    runs = [
        _run(0, "parent", 1.0, 170.0), _run(0, "change", 5.0, 100.0, correct=False, failed=2),
        _run(1, "change", 1.2, 150.0), _run(1, "parent", 1.0, 170.0, failed=1),
    ]
    summary = bench_pairs.summarize(runs, {"peak_rss_mb": "lower"})
    assert summary["metrics"]["peak_rss_mb"]["pairs"] == 1
    assert summary["metrics"]["peak_rss_mb"]["change"]["median"] == 150.0
    ops = summary["operations"]
    assert ops["change"] == {"runs": 2, "not_correct": 1, "attempted": 20, "failed": 2}
    assert ops["parent"] == {"runs": 2, "not_correct": 0, "attempted": 20, "failed": 1}


def test_summary_without_a_complete_pair_has_no_metrics():
    summary = bench_pairs.summarize([_run(0, "parent", 1.0, 170.0)], {"peak_rss_mb": "lower"})
    assert summary["metrics"] == {}
    assert summary["operations"]["change"] == {"runs": 0, "not_correct": 0, "attempted": 0, "failed": 0}
