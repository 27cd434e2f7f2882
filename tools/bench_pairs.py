"""Run the benchmark in alternating pairs on two checkouts and write
BENCH_<label>.json.

    python3 tools/bench_pairs.py PARENT CHANGE --workload distinct-backends \\
        --seed 1 --pairs 5 --label my-change-distinct

PARENT and CHANGE are checkout directories. Each pair runs
`perfbench/run.py --seconds <BENCHMARK.json run_seconds>` once in each
checkout, one after the other; odd pairs start with PARENT, even pairs
with CHANGE. Every run's end-to-end metrics are recorded with its round
count: the `n=` of `train.episodes_per_s` over the 100 episodes of a
training round. Per end-to-end metric the file gives each side's median,
its interquartile range (`statistics.quantiles`, n=4) and the pairs each
side won, ties counting for neither. A run that exits non-zero stops the
tool: it prints the run's `FAILED CHECK:` lines, or its output when there
are none, and exits 1. The file goes to the current directory.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
EPISODES_PER_ROUND = 100  # RunConfig().episodes, the benchmark's training run
EPISODES_LINE = re.compile(r"^train\.episodes_per_s\s.*\sn=(\d+)\s*$", re.MULTILINE)


class RunFailed(RuntimeError):
    pass


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in `checkout`: its end-to-end metric values and
    its round count."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        failed = [line for line in proc.stdout.splitlines()
                  if line.startswith("FAILED CHECK:")]
        detail = "\n".join(failed) or (proc.stdout + proc.stderr).strip()
        raise RunFailed(f"{checkout}: run.py exited {proc.returncode}\n{detail}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    episodes = int(EPISODES_LINE.search(proc.stdout).group(1))
    return {"rounds": episodes / EPISODES_PER_ROUND,
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def summarize(runs: list, end_to_end: list) -> dict:
    """Per metric: each side's median and IQR, and each side's pair wins.
    `runs` holds dicts with "pair", "side" and "metrics"; `end_to_end` is
    BENCHMARK.json's list of metrics with "name", "unit" and "better"."""
    by_pair: dict = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
    summary = {}
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        entry = {"unit": metric["unit"], "better": metric["better"]}
        for side in SIDES:
            values = [pair[side][name] for pair in by_pair.values()]
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry[side] = {"median": statistics.median(values), "iqr": q3 - q1}
        wins = dict.fromkeys(SIDES, 0)
        for pair in by_pair.values():
            diff = sign * (pair["change"][name] - pair["parent"][name])
            if diff:
                wins["change" if diff > 0 else "parent"] += 1
        entry["wins"] = wins
        summary[name] = entry
    return summary


def _pairs(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=_pairs, required=True)
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    checkouts = {"parent": args.parent, "change": args.change}
    runs = []
    try:
        for pair in range(1, args.pairs + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            for side in order:
                run = run_once(checkouts[side], args.workload, args.seed, seconds)
                runs.append({"pair": pair, "side": side, **run})
                print(f"pair {pair} {side}: {run['rounds']:g} rounds, "
                      f"peak_rss_mb {run['metrics']['peak_rss_mb']:.1f}", flush=True)
    except RunFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "pairs": args.pairs,
        "seconds": seconds, "checkouts": checkouts, "runs": runs,
        "summary": summarize(runs, bench["end_to_end"]),
    }, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
