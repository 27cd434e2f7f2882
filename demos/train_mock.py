"""Train three mock agents end to end and watch the losses fall.

Walks the full pipeline: the coordinator issues a strategy, each agent's
belief network picks a (temperature, repetition-penalty) prompt embedding,
the agents generate, rewards are blended and the three optimizer families
run. Prints a short metrics table and writes every episode's metrics row
to train_mock_metrics.csv.
"""

import numpy as np

from econ.backends import MockBackend
from econ.config import RunConfig, emit_metrics, subsystem_seed
from econ.orchestrator import Orchestrator


def main():
    cfg = RunConfig(seed=0, episodes=60, agents=3, d=32, d_b=16, heads=2,
                    mlp_width=32, window=4, buffer=16, batch=4,
                    update_interval=2, grid_k=3, eta=0.02)
    gen_seed = subsystem_seed(cfg.seed, "generation")
    coordinator = MockBackend(seed=gen_seed, embed_dim=64)
    agents = [MockBackend(seed=gen_seed + 1 + i, embed_dim=64)
              for i in range(cfg.agents)]
    orch = Orchestrator(cfg, coordinator, agents)

    rows, _ = orch.train(["summarize the findings", "list the key risks"])

    print(f"{'ep':>4} {'l_td':>9} {'l_mix':>9} {'l_tot':>9} {'mean_r':>7}")
    for row in rows:
        if row.episode % 10 == 0 or row.episode == 1:
            print(f"{row.episode:>4} {row.l_td:>9.4f} {row.l_mix:>9.4f} "
                  f"{row.l_tot:>9.4f} {row.mean_r:>7.3f}")

    updated = [r for r in rows if r.l_tot > 0]
    first, last = updated[0].l_tot, updated[-1].l_tot
    print(f"\ntotal loss {first:.4f} -> {last:.4f} over "
          f"{len(updated)} optimizer steps")
    emit_metrics(rows, "train_mock_metrics.csv")
    print("metrics rows written to train_mock_metrics.csv")


if __name__ == "__main__":
    main()
