"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench
"""

import json
import sys
import threading

import pytest

import run

run.import_program()

import endpoint  # noqa: E402
import harness  # noqa: E402
from econ.config import RunConfig  # noqa: E402
from tracing import Recorder  # noqa: E402


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    """Tiny networks and an endpoint without latency. Set-up probes run in
    fresh interpreters that would build the full size, so they are stubbed."""
    monkeypatch.setattr(harness, "run_config", lambda seed: RunConfig(
        seed=seed, episodes=6, d=8, d_b=4, heads=2, mlp_width=8, window=2,
        buffer=4, batch=2, update_interval=1, grid_k=2))
    monkeypatch.setattr(endpoint, "LATENCY_S", 0.0)
    monkeypatch.setattr(run, "measure_setup", lambda workload, seed: 0.1)


@pytest.mark.parametrize("shared", [False, True])
def test_round_smoke(shared):
    problems = harness.Problems()
    session = harness.Session(shared, 3, problems)
    session.round()
    session.round()
    session.finish()
    assert problems == []
    assert session.train_episodes == 12 and len(session.train_checksums) == 2
    assert session.opt_step_s and session.train_infer_s
    assert len(session.episode_s) == 4 * harness.BLOCK_EPISODES
    counts = session.eval_counts()
    assert counts["sentinels"] == 8 and counts["retries"] > 0
    assert session.failed_share == pytest.approx(8 / session.tally.requests)
    assert session.econ_steps == 2 * harness.LEARNER_STEPS and len(session.bne_s) == 4


@pytest.mark.parametrize("shared", [False, True])
def test_total_transport_failure_is_handled(shared):
    problems = harness.Problems()
    session = harness.Session(shared, 3, problems, fate="exhausted")
    session.eval_block()
    session.finish()
    assert problems == []
    assert session.failed_share == 1.0


def _metric_names(kind):
    return {m["name"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())[kind]}


def test_failed_check_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(harness, "ECON_B_MAX", -1.0)
    assert run.main(["--workload", "distinct-backends", "--seed", "1", "--seconds", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert set(result["metrics"]) == _metric_names("end_to_end")


def test_traced_run_restores_every_wrapped_function(capsys):
    probe = Recorder()
    harness.instrument(probe)
    sites = list(probe._patched)
    probe.restore()
    assert run.main(["--workload", "distinct-backends", "--seed", "1", "--seconds", "0",
                     "--trace", "1"]) == 0
    for owner, attr, original in sites:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, f"{owner.__name__}.{attr} still wrapped"
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result["metrics"]) == _metric_names("per_layer")


def test_trace_counts_repeat_for_one_seed(capsys):
    counts = []
    for _ in range(2):
        assert run.main(["--workload", "shared-backend", "--seed", "2", "--seconds", "0",
                         "--trace", "1"]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] in ("count", "bytes")})
    assert counts[0] == counts[1]


def test_spans_on_worker_threads_belong_to_their_episode(monkeypatch, capsys):
    """With one shared backend, `run_jobs` calls the agents on threads of
    its own; their spans must still count towards the episode."""
    monkeypatch.setattr(endpoint, "LATENCY_S", 0.002)
    assert run.main(["--workload", "shared-backend", "--seed", "1", "--seconds", "0",
                     "--trace", "1"]) == 0
    m = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["metrics"]
    assert m["backends.generate_s.execution.eval"]["value"] > 3 * 0.002
    assert m["backends.exec_overlap"]["value"] > 1.5
    assert m["backends.self_s"]["value"] > 0


def test_recorder_loses_no_update_across_threads():
    """Worker threads that count and open spans inside one unit at once,
    more of them than cores, with frequent thread switches."""
    rec = Recorder(("unit",))

    def work():
        for _ in range(500):
            rec.count("calls")
            rec.span("leaf", lambda: None)

    def unit():
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        return threads

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = rec.span("unit", unit)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert rec.counts[("calls", 0)] == 2000
    leaves = [s for s in rec.spans if s[0] == "leaf"]
    assert len(leaves) == 2000 and all(s[4] == 0 and s[5] == 0 for s in leaves)
    assert all(s[3] is not None for s in rec.spans)  # each span was closed
