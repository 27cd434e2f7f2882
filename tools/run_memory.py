"""Print one JSON line with what a trained orchestrator keeps alive.

For seeds 1-3 at `RunConfig(seed=s)`, with backends seeded as `econ train`
seeds them, it builds an `Orchestrator`, runs `Orchestrator.train`, calls
`gc.collect()` and reports, with the orchestrator still referenced:

- `retained_bytes`: the bytes `tracemalloc` still holds, counted from just
  before the orchestrator was built;
- `tracked_objects`: the growth in `len(gc.get_objects())` over the same
  span.

One untraced run at seed 1 goes first, so that one-time imports and caches
count toward no seed. A change to the training hot path that keeps no
extra state per trained orchestrator leaves both numbers where they were:

    python3 tools/run_memory.py     # in the changed tree and in the parent's

The script uses only the standard library and numpy, and imports `econ`
from the `src/` directory next to it.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import tracemalloc

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from econ.cli import QUESTIONS, mock_backends  # noqa: E402
from econ.config import RunConfig  # noqa: E402
from econ.orchestrator import Orchestrator  # noqa: E402

SEEDS = (1, 2, 3)


def trained(seed: int) -> Orchestrator:
    cfg = RunConfig(seed=seed)
    coordinator, agents = mock_backends(cfg)
    orch = Orchestrator(cfg, coordinator, agents)
    orch.train(QUESTIONS)
    return orch


def footprint(seed: int) -> dict:
    """Bytes and GC-tracked objects a trained `RunConfig(seed=seed)`
    orchestrator holds after a full collection."""
    gc.collect()
    tracemalloc.start()
    objects = len(gc.get_objects())
    try:
        orch = trained(seed)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
        tracked = len(gc.get_objects()) - objects
    finally:
        tracemalloc.stop()
    del orch
    return {"retained_bytes": retained, "tracked_objects": tracked}


def main() -> int:
    trained(SEEDS[0])
    print(json.dumps({f"seed{s}": footprint(s) for s in SEEDS}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
