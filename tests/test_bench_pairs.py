import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "speed", "unit": "1/s", "better": "higher"},
              {"name": "latency", "unit": "s", "better": "lower"}]


def synthetic_runs(parent: list, change: list) -> list:
    """One run per side and pair; each entry is a (speed, latency) reading."""
    return [{"pair": pair, "side": side, "rounds": 8,
             "metrics": {"speed": speed, "latency": latency}}
            for pair, readings in enumerate(zip(parent, change), start=1)
            for side, (speed, latency) in zip(("parent", "change"), readings)]


def test_summary_medians_iqr_and_wins():
    runs = synthetic_runs(parent=[(10.0, 2.0), (12.0, 1.0), (11.0, 3.0), (13.0, 2.0)],
                          change=[(14.0, 2.0), (12.0, 2.5), (15.0, 1.0), (16.0, 1.5)])
    summary = bench_pairs.summarize(runs, END_TO_END)
    speed, latency = summary["speed"], summary["latency"]
    assert speed["parent"]["median"] == 11.5
    assert speed["change"]["median"] == 14.5
    # statistics.quantiles(n=4), exclusive method: q1 and q3 of 10..13
    assert speed["parent"]["iqr"] == pytest.approx(12.75 - 10.25)
    assert speed["wins"] == {"parent": 0, "change": 3}  # pair 2 ties
    assert latency["wins"] == {"parent": 1, "change": 2}  # pair 1 ties
    assert latency["better"] == "lower" and latency["unit"] == "s"


def fake_checkout(tmp_path: Path, body: str) -> str:
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(body)
    return str(tmp_path)


def test_run_once_reads_rounds_and_metrics(tmp_path):
    result = {"correct": True, "metrics": {"peak_rss_mb": {"value": 150.5, "unit": "MB"}}}
    checkout = fake_checkout(tmp_path, (
        "print('train.episodes_per_s                        180.2 1/s    n=700')\n"
        f"print({json.dumps(json.dumps(result))})\n"))
    run = bench_pairs.run_once(checkout, "distinct-backends", 1, 0)
    assert run == {"rounds": 7.0, "metrics": {"peak_rss_mb": 150.5}}


def test_failed_run_reports_its_check(tmp_path):
    checkout = fake_checkout(tmp_path, (
        "import sys\n"
        "print('FAILED CHECK: train: checksums differ between rounds')\n"
        "sys.exit(1)\n"))
    with pytest.raises(bench_pairs.RunFailed, match="FAILED CHECK: train: checksums differ"):
        bench_pairs.run_once(checkout, "distinct-backends", 1, 0)
