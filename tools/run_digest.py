"""Print one JSON line of sha256 digests of training runs over mock backends
and of game-lab outcomes.

For seeds 1-3 at `RunConfig(seed=s)`, and for one run whose episode store is
smaller than the trajectory window (`RunConfig(seed=4, buffer=4, batch=2,
episodes=40)`), it digests the metrics rows, `episodes.jsonl`, the loss
reports and `Orchestrator.checksums()`. For one hierarchical run of 5 rounds
(the tool's own short run, not `econ hier`'s default), with backends seeded
as `econ hier` seeds them (seed 1, 9 agents, 3 clusters), it digests
`rounds.jsonl`, the round reports, every cluster orchestrator's
`checksums()` and the global mixing store's checksum. Two trees that train
identically print identical lines, so a refactor that claims exactness is
checked with

    python3 tools/run_digest.py > after.json     # in the changed tree
    python3 tools/run_digest.py > before.json    # in the parent's tree
    cmp before.json after.json

Every run also has a `trajectory` digest of its discrete outcomes only: per
episode (per cluster and round in the hierarchical run), the strategy, each
utterance's text, the final text, the rewards and the degenerate flag. A
change that moves losses, parameters or prompt embeddings at rounding level
changes the other digests; if the `trajectory` digests still `cmp` equal,
no text, reward or degenerate episode moved.

The `gamelab` entry digests discrete game-lab outcomes only: per shipped
game, the joint-action sequence of each learner that accepts the game over
GAMELAB_STEPS steps at seed 1, and `brute_force_bne`'s profile and
certificate at rho=0.01.

The script imports `econ` from the `src/` directory next to it.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from econ.cli import QUESTIONS, mock_backends  # noqa: E402
from econ.config import RunConfig  # noqa: E402
from econ.gamelab import DebateLearner, EconGameLearner, brute_force_bne, load_shipped_game  # noqa: E402
from econ.gamelab.games import shipped_game_names  # noqa: E402
from econ.hierarchy import HierOrchestrator  # noqa: E402
from econ.orchestrator import Orchestrator  # noqa: E402

GAMELAB_STEPS = 3000
RUNS = {
    "seed1": dict(seed=1),
    "seed2": dict(seed=2),
    "seed3": dict(seed=3),
    "buffer_below_window": dict(seed=4, buffer=4, batch=2, episodes=40),
}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def outcome(record) -> tuple:
    """The discrete outcome of one `EpisodeRecord`."""
    return (record.strategy, [u.text for u in record.utterances], record.final_text,
            [float(r) for r in record.rewards], record.degenerate)


def run_digests(**overrides) -> dict:
    """Digests of one `Orchestrator.train` run, with backends seeded as
    `econ train` seeds them."""
    cfg = RunConfig(**overrides)
    coordinator, agents = mock_backends(cfg)
    orch = Orchestrator(cfg, coordinator, agents)
    outcomes = []
    run_inference = orch.run_inference

    def recorded(*args, **kwargs):
        record = run_inference(*args, **kwargs)
        outcomes.append(outcome(record))
        return record

    orch.run_inference = recorded
    with tempfile.TemporaryDirectory() as tmp:
        log = os.path.join(tmp, "episodes.jsonl")
        rows, reports = orch.train(QUESTIONS, episode_log_path=log)
        with open(log) as fh:
            episodes = fh.read()
    del orch.run_inference
    return {
        "metrics": sha(repr([row.as_list() for row in rows])),
        "episodes_jsonl": sha(episodes),
        "reports": sha(repr(reports)),
        "checksums": sha(json.dumps(orch.checksums(), sort_keys=True)),
        "trajectory": sha(repr(outcomes)),
    }


def hier_digests(seed: int = 1, agents: int = 9, clusters: int = 3,
                 rounds: int = 5) -> dict:
    """Digests of one `HierOrchestrator.train` run, with backends seeded as
    `econ hier` seeds them."""
    cfg = RunConfig(seed=seed, agents=agents)
    coordinator, backends = mock_backends(cfg, extra=clusters)
    hier = HierOrchestrator(cfg, coordinator, backends[agents:], backends[:agents],
                            clusters)
    with tempfile.TemporaryDirectory() as tmp:
        log = os.path.join(tmp, "rounds.jsonl")
        history = hier.train(QUESTIONS, rounds=rounds, round_log_path=log)
        with open(log) as fh:
            rounds_jsonl = fh.read()
    checksums = {f"cluster_{c}": orch.checksums()
                 for c, orch in enumerate(hier.cluster_orchs)}
    checksums["global_mixing"] = hier.global_mixing.params.checksum()
    outcomes = [(rnd.global_strategy, [outcome(r) for r in rnd.cluster_records],
                 rnd.final_text, rnd.cluster_rewards) for rnd, _, _ in history]
    return {
        "rounds_jsonl": sha(rounds_jsonl),
        "reports": sha(repr([report for _, report, _ in history])),
        "checksums": sha(json.dumps(checksums, sort_keys=True)),
        "trajectory": sha(repr(outcomes)),
    }


def gamelab_digests(seed: int = 1, rho: float = 0.01) -> dict:
    """Per shipped game, digests of each accepting learner's joint actions
    and of `brute_force_bne`'s profile and certificate."""
    out = {}
    for name in shipped_game_names():
        game = load_shipped_game(name)
        learners = {"econ": EconGameLearner}
        if game.payoff_sum_constant() is not None:
            learners["debate"] = DebateLearner
        for kind, cls in learners.items():
            learner = cls(game, seed=seed)
            actions = [learner.step(t)[0] for t in range(1, GAMELAB_STEPS + 1)]
            out[f"{name}.{kind}_actions"] = sha(repr(actions))
        profile, cert = brute_force_bne(game, rho=rho)
        out[f"{name}.bne"] = sha(repr(([s.tolist() for s in profile.strategies], cert)))
    return out


def main() -> int:
    digests = {name: run_digests(**over) for name, over in RUNS.items()}
    digests["hier_seed1"] = hier_digests()
    digests["gamelab"] = gamelab_digests()
    print(json.dumps(digests, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
