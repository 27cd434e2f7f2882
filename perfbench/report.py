"""Runs every workload over several seeds and writes perfbench/BASELINE.md.

    python3 perfbench/report.py --seeds 10

Each workload gets one untraced run per seed and one traced run (first
seed). The table gives, per end-to-end metric, the median, the
interquartile range as a share of the median (`statistics.quantiles`,
n=4) and the metric's regression bound from BENCHMARK.json. It also
records the machine the numbers come from.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout}")
    return result


def environment() -> list:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    threads = {k: os.environ.get(k, "unset")
               for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return [
        f"- Python {platform.python_version()}, numpy {np.__version__}",
        f"- BLAS: {blas.get('name')} {blas.get('version')}; "
        + ", ".join(f"{k}={v}" for k, v in threads.items()),
        f"- nproc {os.cpu_count()}, CPU {cpu}",
    ]


def spread(values: list) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = list(range(1, args.seeds + 1))
    lines = ["# Baseline", "",
             f"Written by `python3 perfbench/report.py --seeds {args.seeds}`: "
             f"seeds {seeds[0]}-{seeds[-1]}, `--seconds {bench['run_seconds']}`.", "",
             "## Environment", "", *environment(), ""]
    for w in bench["workloads"]:
        name = w["name"]
        runs = [run(name, s, bench["run_seconds"], 0)["metrics"] for s in seeds]
        traced = run(name, seeds[0], bench["run_seconds"], 1)["metrics"]
        lines += [f"## {name}", "", w["why"], "",
                  "| metric | unit | median | IQR / median | bound |",
                  "|---|---|---|---|---|"]
        for m in bench["end_to_end"]:
            values = [r[m["name"]]["value"] for r in runs]
            lines.append(f"| `{m['name']}` | {m['unit']} | {statistics.median(values):.6g} "
                         f"| {spread(values):.4f} | {m['bound']} |")
        lines += ["", f"Traced run, seed {seeds[0]}:", "",
                  "| metric | unit | value |", "|---|---|---|"]
        for m in bench["per_layer"]:
            lines.append(f"| `{m['name']}` | {m['unit']} | {traced[m['name']]['value']:.6g} |")
        lines.append("")
        print(f"{name}: done", file=sys.stderr)
    (HERE / "BASELINE.md").write_text("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
