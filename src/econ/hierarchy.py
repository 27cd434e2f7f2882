"""Two-level coordination: clusters of execution agents under local
coordinators, a global coordinator aggregating cluster outputs, and
cluster-level rewards measured as alignment with the global output.

Cluster inference phases are independent (run concurrently); optimization
is strictly bottom-up: every cluster's update precedes the global mixing
step, and the ordered report proves it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .backends import (
    GenerationRequest,
    ROLE_COORD_STRATEGY,
    run_concurrently,
)
from .config import RunConfig, json_line, subsystem_seed
from .kernel import cosine_sim
from .mixing import MixingBatchItem, MixingNetwork
from .orchestrator import (
    EarlyStopConfig,
    Orchestrator,
    final_output,
    mixing_step,
    plan_strategy,
)

MAX_CLUSTER_SIZE = 4
# An orchestrator seeds its networks from `subsystem_seed(seed, "init")`
# plus offsets below 3000, so master seeds 3 apart give clusters disjoint
# init streams.
CLUSTER_SEED_STRIDE = 3


@dataclass
class Cluster:
    cid: int
    members: list

    def __post_init__(self):
        if not self.members:
            raise ValueError("cluster must have at least one member")
        if len(self.members) > MAX_CLUSTER_SIZE:
            raise ValueError(
                f"cluster {self.cid} has {len(self.members)} members "
                f"(limit {MAX_CLUSTER_SIZE})")


def assign_clusters(agent_ids: list, k: int) -> list[Cluster]:
    """Balanced round-robin partition."""
    n = len(agent_ids)
    if k < 1 or k > n:
        raise ValueError("need 1 <= K <= number of agents")
    groups = [[] for _ in range(k)]
    for idx, aid in enumerate(agent_ids):
        groups[idx % k].append(aid)
    return [Cluster(c, members) for c, members in enumerate(groups)]


@dataclass
class HierRound:
    question: str
    global_strategy: str
    cluster_rewards: list       # R_k in [0, r_max]
    cluster_records: list       # per-cluster EpisodeRecord
    final_text: str
    final_embedding: np.ndarray
    parallel_clusters: bool


class HierOrchestrator:
    """K cluster orchestrators plus a global coordinator and a global
    mixing network over cluster-level values."""

    def __init__(self, cfg: RunConfig, global_coordinator,
                 local_coordinators: list, agents: list, k: int,
                 evaluator=None):
        if len(local_coordinators) != k:
            raise ValueError("need one local coordinator per cluster")
        self.cfg = cfg
        self.k = k
        self.global_coordinator = global_coordinator
        self.clusters = assign_clusters(list(range(len(agents))), k)
        self.cluster_orchs = []
        for c, coord in zip(self.clusters, local_coordinators):
            member_backends = [agents[i] for i in c.members]
            # one cluster keeps the flat run's seed, so it trains as the flat run
            cluster_cfg = cfg if k == 1 else replace(
                cfg, seed=subsystem_seed(cfg.seed, "cluster") + CLUSTER_SEED_STRIDE * c.cid)
            self.cluster_orchs.append(
                Orchestrator(cluster_cfg, coord, member_backends, evaluator=evaluator))
        rng = np.random.default_rng(subsystem_seed(cfg.seed, "global-mixing"))
        self.global_mixing = MixingNetwork(
            k, group_dim=cfg.d, c_dim=global_coordinator.embed_dim, rng=rng)
        self.prev_c_embed = None
        self.prev_l_tot = None
        self.round_count = 0

    # -- inference -----------------------------------------------------------

    def _local_strategy(self, orch: Orchestrator, question: str,
                        global_strategy: str) -> str:
        """The cluster's raw strategy text; `run_inference` truncates it."""
        if self.k == 1:
            # degenerate hierarchy: the global strategy passes straight through
            return global_strategy
        return orch.coordinator.generate(GenerationRequest(
            ROLE_COORD_STRATEGY, question, global_strategy)).text

    def run_hier_round(self, question: str) -> HierRound:
        global_strategy, _ = plan_strategy(self.global_coordinator, question)

        def infer(orch: Orchestrator):
            s_k = self._local_strategy(orch, question, global_strategy)
            return orch.run_inference(question, strategy=s_k)

        records = run_concurrently([functools.partial(infer, orch)
                                    for orch in self.cluster_orchs])

        if self.k == 1:
            final_text, final_embed = records[0].final_text, records[0].final_embedding
        else:
            u = final_output(self.global_coordinator, question,
                             [r.final_text for r in records if not r.degenerate])
            final_text, final_embed = u.text, u.embedding

        rewards = []
        for r in records:
            if r.degenerate:
                rewards.append(0.0)
            else:
                rewards.append(float(min(self.cfg.r_max, max(
                    0.0, cosine_sim(r.final_embedding, final_embed)))))

        return HierRound(
            question=question, global_strategy=global_strategy,
            cluster_rewards=rewards, cluster_records=records,
            final_text=final_text, final_embedding=np.asarray(final_embed).copy(),
            parallel_clusters=True)

    # -- optimization --------------------------------------------------------

    def absorb_round(self, rnd: HierRound):
        for orch, rec in zip(self.cluster_orchs, rnd.cluster_records):
            orch.absorb_episode(rec)

    def hier_optimize(self, rnd: HierRound) -> dict:
        """Cluster updates first, then the global mixing step; the ordered
        report records the sequencing."""
        order = []
        cluster_reports = []
        for c, orch in enumerate(self.cluster_orchs):
            report = orch.run_optimization()
            cluster_reports.append(report)
            order.append(f"cluster_{c}")

        item = MixingBatchItem(
            local_qs=np.array([
                np.mean(r.rewards) for r in rnd.cluster_records]),
            embeddings=np.stack([
                np.mean([pe.as_array() for pe in r.prompt_embeddings], axis=0)
                for r in rnd.cluster_records]),
            group=np.mean([r.group for r in rnd.cluster_records], axis=0),
            r_tot=float(np.mean(rnd.cluster_rewards)),
            c_embed=rnd.final_embedding,
            terminal=True)
        loss = mixing_step(self.global_mixing, [item], self.cfg)
        order.append("global_mixing")

        active = [r for r in cluster_reports if not r.get("skipped")]
        l_tot = (sum(sum(r["l_td"]) + r["l_e"] + r["l_mix"] for r in active)
                 + float(loss.value))
        return {"order": order, "cluster_reports": cluster_reports,
                "l_global_mix": float(loss.value), "l_tot": l_tot,
                "skipped": False}

    # -- convergence ---------------------------------------------------------

    def hier_converged(self, rnd: HierRound, report: dict,
                       stop_cfg: EarlyStopConfig) -> tuple[bool, dict]:
        self.round_count += 1
        delta_c = (np.inf if self.prev_c_embed is None
                   else float(np.linalg.norm(rnd.final_embedding - self.prev_c_embed)))
        self.prev_c_embed = rnd.final_embedding.copy()
        mean_rk = float(np.mean(rnd.cluster_rewards))
        l_tot = report.get("l_tot")
        delta_l = (np.inf if (self.prev_l_tot is None or l_tot is None)
                   else abs(l_tot - self.prev_l_tot))
        if l_tot is not None:
            self.prev_l_tot = l_tot
        ok = (self.round_count >= 2 and delta_c <= stop_cfg.eps_c
              and mean_rk >= stop_cfg.r_threshold and delta_l <= stop_cfg.eps_l)
        return ok, {"delta_c": delta_c, "mean_rk": mean_rk, "delta_l": delta_l,
                    "stop": ok}

    # -- driver --------------------------------------------------------------

    def train(self, questions: list, rounds: int, round_log_path=None) -> list:
        stop_cfg = EarlyStopConfig.from_run_config(self.cfg)
        log_fh = open(round_log_path, "w") if round_log_path else None
        history = []
        try:
            for t in range(1, rounds + 1):
                rnd = self.run_hier_round(questions[(t - 1) % len(questions)])
                self.absorb_round(rnd)
                report = self.hier_optimize(rnd)
                stop, info = self.hier_converged(rnd, report, stop_cfg)
                history.append((rnd, report, info))
                if log_fh:
                    log_fh.write(json_line({
                        "round": t,
                        "parallel_clusters": rnd.parallel_clusters,
                        "cluster_rewards": rnd.cluster_rewards,
                        "order": report["order"],
                        "stop": info}))
                if stop:
                    break
        finally:
            if log_fh:
                log_fh.close()
        return history
