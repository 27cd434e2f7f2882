"""econ-coord benchmark.

    python3 perfbench/run.py --workload distinct-backends --seed 0 --seconds 20 --trace 0

Run from the root of a checkout. Every run executes three phases in one
process, interleaved in rounds: training (`Orchestrator.train`), inference
over HTTP backends on an in-process endpoint, and the game lab (regret
learners and BNE search). The workload picks whether the agents share
one eval backend.
`--trace 0` measures the end-to-end metrics for about `--seconds`
seconds; `--trace 1` runs one round three times, untraced, traced and
untraced again, and reports the per-layer metrics and the tracing
overhead. A human-readable table goes to stdout, and its
last line is the JSON result. The exit code is non-zero when a
correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# Rounds run until --seconds is used up, and at least three: that gives
# three training runs to compare checksums and 120 eval episodes for p90.
# Set-up is measured three times before each round.
MIN_ROUNDS = 3
SETUP_PER_ROUND = 3


def import_program():
    """Import `econ` from this checkout's `src/` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import econ
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import econ from {SRC}: {exc}")
    if Path(econ.__file__).resolve().parent != SRC / "econ":
        raise SystemExit(f"perfbench: econ imported from {econ.__file__}, not {SRC}")


def measure_setup(workload: str, seed: int) -> float:
    """Import plus construction in a fresh interpreter, in seconds."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(harness, workload, args, problems) -> tuple[list, int]:
    """(metrics as (name, value, unit, samples), operations attempted)."""
    import speed

    run = harness.Session(workload, args.seed, problems)
    setup = []
    start = time.perf_counter()
    rounds = 0
    while True:
        setup += [measure_setup(args.workload, args.seed) for _ in range(SETUP_PER_ROUND)]
        run.round()
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > args.seconds:
            break
    run.finish()
    n_eval = len(run.episode_s)
    metrics = [
        ("setup_s", statistics.median(setup), "s", len(setup)),
        ("peak_rss_mb", peak_rss_mb(), "MB", 1),
        ("train.episodes_per_s", run.train_episodes / run.train_wall_s, "1/s",
         run.train_episodes),
        ("train.opt_step_s.p50", statistics.median(run.opt_step_s), "s", len(run.opt_step_s)),
        ("train.infer_episode_s.p50", statistics.median(run.train_infer_s), "s",
         len(run.train_infer_s)),
        ("infer.episode_s.p50", statistics.median(run.episode_s), "s", n_eval),
        ("infer.episode_s.p90", statistics.quantiles(run.episode_s, n=10)[-1], "s", n_eval),
        ("infer.episodes_per_s", n_eval / run.eval_wall_s, "1/s", n_eval),
        ("infer.failed_share", run.failed_share, "ratio", run.tally.requests),
        ("gamelab.econ_steps_per_s", run.econ_steps / run.econ_s, "1/s", run.econ_steps),
        ("gamelab.debate_steps_per_s", run.debate_steps / run.debate_s, "1/s",
         run.debate_steps),
        ("gamelab.bne_s", statistics.fmean(run.bne_s), "s", len(run.bne_s)),
    ]
    print(f"# CPU-bound times are in reference seconds: the reference takes "
          f"{speed.REFERENCE_S * 1e6:.0f} us there and took a median "
          f"{statistics.median(run.speed.readings) * 1e6:.0f} us in this run")
    return metrics, run.attempted


def one_round(harness, workload, seed, problems, rec=None):
    """One round, timed per phase. Returns (session, seconds per phase).
    CPU-bound phases are timed in reference seconds, with the readings
    their work takes anyway; eval, mostly transport wait, in seconds."""
    import speed

    run = harness.Session(workload, seed, problems, rec=rec)
    walls = {}
    for phase, fn in (("train", run.train_run), ("eval", run.eval_block),
                      ("gamelab", run.econ_learner), ("gamelab", run.bne_round),
                      ("eval", run.eval_block), ("gamelab", run.debate_learner),
                      ("gamelab", run.bne_round)):
        n, spent = len(run.speed.readings), run.speed.spent_s
        t0 = time.perf_counter()
        fn()
        wall = time.perf_counter() - t0 - (run.speed.spent_s - spent)
        if phase != "eval":
            wall = speed.scale(wall, run.speed.readings[n:])
        walls[phase] = walls.get(phase, 0.0) + wall
    run.finish()
    return run, walls


def per_layer(harness, workload, args, problems) -> tuple[list, int]:
    from tracing import Recorder

    # Untraced rounds before and after the traced one, so that warm-up
    # does not count as (negative) tracing overhead.
    base, before = one_round(harness, workload, args.seed, problems)
    with Recorder(harness.UNIT_SPANS) as rec:
        harness.instrument(rec)
        run, walls = one_round(harness, workload, args.seed, problems, rec)
        rec.phase = "train"
        OUT_DIR.mkdir(exist_ok=True)
        checkpoint_bytes = harness.save_checkpoints(run.last_train, str(OUT_DIR))
    _, after = one_round(harness, workload, args.seed, problems)
    counts = run.eval_counts()
    problems.check(all(counts[k] == v for k, v in base.eval_counts().items()
                       if k != "backoff_s"),
                   "trace: eval counts differ between the untraced and traced runs")
    rec.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    values = harness.layer_metrics(rec, dict(counts, checkpoint_bytes=checkpoint_bytes))
    for phase, wall in walls.items():
        values[f"trace.overhead.{phase}"] = 2 * wall / (before[phase] + after[phase]) - 1.0
    units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return [(m["name"], values[m["name"]], m["unit"], 1) for m in units], run.attempted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(harness.WORKLOADS)}")
    workload = harness.WORKLOADS[args.workload]
    problems = harness.Problems()
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
    if args.trace:
        metrics, attempted = per_layer(harness, workload, args, problems)
    else:
        metrics, attempted = end_to_end(harness, workload, args, problems)

    for name, value, unit, n in metrics:
        print(f"{name:42s} {value:14.6g} {unit:6s} n={n}")
    for p in problems:
        print(f"FAILED CHECK: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in metrics},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
