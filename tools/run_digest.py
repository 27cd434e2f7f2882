"""Print one JSON line of sha256 digests of training runs over mock backends.

For seeds 1-3 at `RunConfig(seed=s)`, and for one run whose episode store is
smaller than the trajectory window (`RunConfig(seed=4, buffer=4, batch=2,
episodes=40)`), it digests the metrics rows, `episodes.jsonl`, the loss
reports and `Orchestrator.checksums()`. Two trees that train identically
print identical lines, so a refactor that claims exactness is checked with

    python3 tools/run_digest.py > after.json     # in the changed tree
    python3 tools/run_digest.py > before.json    # in the parent's tree
    cmp before.json after.json

The script imports `econ` from the `src/` directory next to it.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from econ.backends import MockBackend  # noqa: E402
from econ.config import RunConfig, subsystem_seed  # noqa: E402
from econ.orchestrator import Orchestrator  # noqa: E402

RUNS = {
    "seed1": dict(seed=1),
    "seed2": dict(seed=2),
    "seed3": dict(seed=3),
    "buffer_below_window": dict(seed=4, buffer=4, batch=2, episodes=40),
}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_digests(**overrides) -> dict:
    """Digests of one `Orchestrator.train` run, with backends seeded as
    `econ train` seeds them."""
    cfg = RunConfig(**overrides)
    gen_seed = subsystem_seed(cfg.seed, "generation")
    agents = [MockBackend(seed=gen_seed + 1 + i) for i in range(cfg.agents)]
    orch = Orchestrator(cfg, MockBackend(seed=gen_seed), agents)
    with tempfile.TemporaryDirectory() as tmp:
        log = os.path.join(tmp, "episodes.jsonl")
        rows, reports = orch.train([f"question-{i}" for i in range(8)],
                                   episode_log_path=log)
        with open(log) as fh:
            episodes = fh.read()
    return {
        "metrics": sha(repr([row.as_list() for row in rows])),
        "episodes_jsonl": sha(episodes),
        "reports": sha(repr(reports)),
        "checksums": sha(json.dumps(orch.checksums(), sort_keys=True)),
    }


def main() -> int:
    print(json.dumps({name: run_digests(**over) for name, over in RUNS.items()},
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
