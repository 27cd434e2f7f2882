"""Training loop wiring: coordinator strategy -> parallel execution ->
final-output aggregation, reward assignment, the three optimizer families
and early stopping.

The inference phase is read-only with respect to every parameter store;
all mutation happens in the optimization phase, which runs every
`update_interval` episodes over the newest stored episodes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .backends import (
    GenerationRequest,
    ROLE_COORD_FINAL,
    ROLE_COORD_STRATEGY,
    ROLE_EXECUTION,
    Utterance,
    run_jobs,
    truncate_strategy,
)
from .beliefs import (
    BeliefNetConfig,
    BeliefNetwork,
    Observation,
    PromptBounds,
    PromptEmbedding,
    Trajectory,
    Transition,
    _FrozenView,
)
from .config import MetricsRow, RunConfig, json_line, subsystem_seed
from .encoder import BeliefEncoder, encoder_loss
from .kernel import Tensor, adam_step
from .mixing import MixingBatchItem, MixingNetwork
from .rewards import (
    Evaluator,
    ExactMatchEvaluator,
    RewardWeights,
    compute_breakdown,
    update_reward_weights,
)


@dataclass
class EpisodeRecord:
    question: str
    strategy: str
    strategy_notes: list
    utterances: list
    prompt_embeddings: list
    beliefs: list
    observations: list
    breakdowns: list
    rewards: list
    group: np.ndarray
    final_text: str
    final_embedding: np.ndarray
    degenerate: bool = False
    transitions: list = field(default_factory=list)  # per agent, set when absorbed

    def __post_init__(self):
        n = len(self.utterances)
        if not (len(self.rewards) == len(self.beliefs)
                == len(self.prompt_embeddings) == n):
            raise ValueError("per-agent fields must have one entry per agent")


def plan_strategy(coordinator, question: str) -> tuple[str, list]:
    """The coordinator's strategy for `question` held to the length band,
    with one regeneration if it runs past the hard cap; (text, notes)."""
    req = GenerationRequest(ROLE_COORD_STRATEGY, question)
    return truncate_strategy(coordinator.generate(req).text,
                             regenerate=lambda: coordinator.generate(req).text)


def final_output(coordinator, question: str, texts: list) -> Utterance:
    """The coordinator's final output over `texts`; the invalid sentinel,
    without a call, when there are none."""
    if not texts:
        return Utterance.invalid(coordinator.embed_dim)
    return coordinator.generate(
        GenerationRequest(ROLE_COORD_FINAL, question, "\n".join(texts)))


def mixing_step(net: MixingNetwork, items: list, cfg: RunConfig) -> Tensor:
    """One Adam step on the mixing loss over `items`, then the projection of
    the Q-path weights and the target soft update; returns the loss node."""
    loss = net.mixing_loss(items, cfg.gamma, cfg.lambda_m, cfg.lambda_b)
    net.params.zero_grads()
    loss.backward()
    adam_step(net.params, cfg.eta)
    net.project_nonnegative()
    net.soft_update_target(cfg.tau_soft)
    return loss


@dataclass
class EarlyStopConfig:
    eps_c: float = 0.01
    r_threshold: float = 0.7
    eps_l: float = 1e-4
    patience: int = 5

    def __post_init__(self):
        if min(self.eps_c, self.r_threshold, self.eps_l) <= 0 or self.patience < 1:
            raise ValueError("early-stop thresholds must be positive")

    @classmethod
    def from_run_config(cls, cfg: RunConfig) -> "EarlyStopConfig":
        return cls(cfg.eps_c, cfg.r_threshold, cfg.eps_l, cfg.patience)


@dataclass
class TrainState:
    """Everything mutable across episodes. `episodes`, the newest absorbed
    records with their transitions, is the only store of agent history."""

    episodes: deque
    reward_weights: RewardWeights
    expected_rewards: np.ndarray        # per-agent EMA of blended rewards
    prev_c_embed: np.ndarray | None = None
    prev_l_tot: float | None = None
    last_delta_l: float | None = None
    stop_streak: int = 0


class Orchestrator:
    """Owns the networks, the backends and the training state."""

    EXPECTED_REWARD_DECAY = 0.9

    def __init__(self, cfg: RunConfig, coordinator, agents: list,
                 evaluator: Evaluator | None = None):
        if not agents:
            raise ValueError("need at least one execution agent")
        self.cfg = cfg
        self.coordinator = coordinator
        self.agents = agents
        self.evaluator = evaluator if evaluator is not None else ExactMatchEvaluator({})
        embed_dim = coordinator.embed_dim

        bounds = PromptBounds(cfg.t_min, cfg.t_max, cfg.p_min, cfg.p_max)
        obs_dim = 2 * embed_dim + cfg.d_b
        net_cfg = BeliefNetConfig(
            obs_dim=obs_dim, belief_dim=cfg.d_b, hidden=cfg.mlp_width,
            q_hidden=max(cfg.mlp_width // 4, 8), window=cfg.window,
            bounds=bounds, target_grid=cfg.grid_k)
        self.belief_nets = []
        for i in range(len(agents)):
            rng = np.random.default_rng(subsystem_seed(cfg.seed, "init") + i)
            self.belief_nets.append(BeliefNetwork(net_cfg, rng))
        enc_rng = np.random.default_rng(subsystem_seed(cfg.seed, "init") + 1000)
        self.encoder = BeliefEncoder(cfg.d_b, model_dim=cfg.d, heads=cfg.heads,
                                     rng=enc_rng)
        mix_rng = np.random.default_rng(subsystem_seed(cfg.seed, "init") + 2000)
        self.mixing = MixingNetwork(len(agents), group_dim=cfg.d,
                                    c_dim=embed_dim, rng=mix_rng)

        self.state = TrainState(
            episodes=deque(maxlen=cfg.buffer),
            reward_weights=RewardWeights(np.asarray(cfg.alpha)),
            expected_rewards=np.zeros(len(agents)),
        )

    def param_stores(self) -> dict:
        stores = {"encoder": self.encoder.params, "mixing": self.mixing.params,
                  "mixing_target": self.mixing.target}
        for i, net in enumerate(self.belief_nets):
            stores[f"belief_{i}"] = net.params
            stores[f"belief_target_{i}"] = net.target
        return stores

    def checksums(self) -> dict:
        return {name: store.checksum() for name, store in self.param_stores().items()}

    def _history(self, i: int) -> tuple[Trajectory, np.ndarray]:
        """Agent i's trajectory and prior belief after the newest absorbed
        episode; an empty trajectory and zeros before the first."""
        if not self.state.episodes:
            return Trajectory(self.cfg.window), np.zeros(self.cfg.d_b)
        newest = self.state.episodes[-1]
        return newest.transitions[i].next_traj, newest.beliefs[i]

    # -- inference phase ----------------------------------------------------

    def run_inference(self, question: str, strategy: str | None = None) -> EpisodeRecord:
        """One full episode forward pass. Mutates nothing. A caller may
        inject a ready-made strategy (hierarchical mode does)."""
        if strategy is None:
            strategy, notes = plan_strategy(self.coordinator, question)
        else:
            strategy, notes = truncate_strategy(strategy)

        e_t = self.coordinator.embed(question)
        e_s = self.coordinator.embed(strategy)

        beliefs, embeddings, observations, requests = [], [], [], []
        for i, net in enumerate(self.belief_nets):
            traj, prior_belief = self._history(i)
            obs = Observation(e_t, e_s, prior_belief).as_array()
            belief = net.compute_belief(traj, obs)
            temp, pen = net.embed_prompt(belief)
            pe = PromptEmbedding(float(temp.value), float(pen.value))
            beliefs.append(belief.value.copy())
            embeddings.append(pe)
            observations.append(obs)
            requests.append(GenerationRequest(
                ROLE_EXECUTION, question, strategy, prompt_embedding=pe))

        utterances = run_jobs(requests, self.agents[0]) if len(
            set(map(id, self.agents))) == 1 else [
            self.agents[i].generate(requests[i]) for i in range(len(requests))]

        group = self.encoder.encode_group(beliefs).value.copy()

        # degenerate: no valid utterance, or no valid final output to
        # reward the utterances against
        final = final_output(self.coordinator, question,
                             [u.text for u in utterances if u.valid])
        degenerate = not final.valid

        breakdowns, rewards = [], []
        for i, u in enumerate(utterances):
            if not u.valid or degenerate:
                breakdowns.append(None)
                rewards.append(0.0)
                continue
            peers = [v.text for j, v in enumerate(utterances) if j != i and v.valid]
            bd = compute_breakdown(
                u.embedding, final.embedding, u.text, question, peers,
                self.evaluator, self.state.reward_weights, self.cfg.r_max)
            breakdowns.append(bd)
            rewards.append(bd.blended)

        return EpisodeRecord(
            question=question, strategy=strategy, strategy_notes=notes,
            utterances=utterances, prompt_embeddings=embeddings,
            beliefs=beliefs, observations=observations,
            breakdowns=breakdowns, rewards=rewards, group=group,
            final_text=final.text, final_embedding=final.embedding.copy(),
            degenerate=degenerate)

    # -- state transitions between episodes ----------------------------------

    def absorb_episode(self, record: EpisodeRecord):
        """Give the record its agents' transitions (appending to a snapshot,
        never to an earlier record's trajectory), store it, update the EMAs."""
        st = self.state
        record.transitions = []
        for i, pe in enumerate(record.prompt_embeddings):
            action = pe.as_array()
            before, _ = self._history(i)
            after = before.snapshot()
            after.append(action, record.observations[i])
            record.transitions.append(Transition(
                traj=before, obs=record.observations[i], action=action,
                reward=record.rewards[i], next_traj=after,
                next_obs=record.observations[i], terminal=True))
        d = self.EXPECTED_REWARD_DECAY
        st.expected_rewards = d * st.expected_rewards + (1.0 - d) * np.array(record.rewards)
        st.episodes.append(record)

    # -- optimization phase --------------------------------------------------

    def run_optimization(self) -> dict:
        """One optimizer step per parameter family over the newest batch.

        Returns a loss report; while the episode store holds fewer than
        `batch` episodes the step is skipped and the report says so.
        """
        st = self.state
        batch_size = self.cfg.batch
        if len(st.episodes) < batch_size:
            return {"skipped": True,
                    "reason": f"buffer below batch size {batch_size}"}
        episodes = list(st.episodes)[-batch_size:]
        batches = [[rec.transitions[i] for rec in episodes]
                   for i in range(len(self.agents))]
        order = []

        # local belief-net TD steps
        l_tds = []
        for i, net in enumerate(self.belief_nets):
            loss = net.td_loss(batches[i], self.cfg.gamma)
            net.params.zero_grads()
            loss.backward()
            adam_step(net.params, self.cfg.eta)
            net.soft_update(self.cfg.tau_soft)
            l_tds.append(float(loss.value))
            order.append(f"belief_{i}")

        # post-TD local Q-values (B, N), shared by the encoder and mixing steps
        local_qs = np.stack([
            net.local_q_batch([t.traj for t in batches[i]],
                              [t.action for t in batches[i]]).value
            for i, net in enumerate(self.belief_nets)], axis=1)
        embeddings = np.stack([[pe.as_array() for pe in rec.prompt_embeddings]
                               for rec in episodes])
        r_tot = np.array([float(np.mean(rec.rewards)) for rec in episodes])
        mix_items = [
            MixingBatchItem(local_qs=local_qs[k], embeddings=embeddings[k],
                            group=rec.group, r_tot=r_tot[k],
                            c_embed=rec.final_embedding, terminal=True)
            for k, rec in enumerate(episodes)]

        # encoder step: total TD recomputed with the group vector on the
        # encoder graph and mixing parameters frozen
        enc_loss = self._encoder_loss(episodes, local_qs, embeddings, r_tot, l_tds)
        self.encoder.params.zero_grads()
        enc_loss.backward()
        adam_step(self.encoder.params, self.cfg.eta)
        l_e = float(enc_loss.value)
        order.append("encoder")

        mix_loss = mixing_step(self.mixing, mix_items, self.cfg)
        order.append("mixing")

        # adaptive reward weights
        comps, expected = [], []
        for rec in episodes:
            for i, bd in enumerate(rec.breakdowns):
                if bd is not None:
                    comps.append((bd.r_al, bd.r_ts, bd.r_cc))
                    expected.append(float(st.expected_rewards[i]))
        if comps:
            st.reward_weights = update_reward_weights(
                st.reward_weights, comps, expected, self.cfg.eta_coord)
        order.append("reward_weights")

        l_mix = float(mix_loss.value)
        l_tot = sum(l_tds) + l_e + l_mix
        return {"skipped": False, "l_td": l_tds, "l_e": l_e, "l_mix": l_mix,
                "l_tot": l_tot, "order": order}

    def _encoder_loss(self, episodes: list, local_qs: np.ndarray,
                      embeddings: np.ndarray, r_tot: np.ndarray,
                      l_tds: list) -> Tensor:
        """Total TD with each episode's group vector on the encoder graph
        and the mixing parameters frozen, plus lambda_e times the local TDs.
        `local_qs` (B, N) and `embeddings` (B, N, 2) are per episode."""
        groups = self.encoder.encode_group(np.stack([rec.beliefs for rec in episodes]))
        q_tot, _ = self.mixing.forward_batch(local_qs, embeddings, groups,
                                             _FrozenView(self.mixing.params))
        td = (r_tot - q_tot).square().mean()
        return encoder_loss(td, [float(x) for x in l_tds], self.cfg.lambda_e)

    # -- early stopping ------------------------------------------------------

    def check_early_stop(self, record: EpisodeRecord, report: dict,
                         stop_cfg: EarlyStopConfig) -> tuple[bool, dict]:
        """Stop iff output shift, mean reward and loss shift all satisfy
        their thresholds for `patience` consecutive episodes."""
        st = self.state
        delta_c = (np.inf if st.prev_c_embed is None
                   else float(np.linalg.norm(record.final_embedding - st.prev_c_embed)))
        mean_r = float(np.mean(record.rewards))
        l_tot = report.get("l_tot") if not report.get("skipped", True) else None
        if l_tot is None:
            delta_l = np.inf if st.prev_l_tot is None else st.last_delta_l
            delta_l = np.inf if delta_l is None else delta_l
        else:
            delta_l = (np.inf if st.prev_l_tot is None
                       else abs(l_tot - st.prev_l_tot))
            st.prev_l_tot = l_tot
        st.prev_c_embed = record.final_embedding.copy()
        st.last_delta_l = delta_l

        ok_c = delta_c <= stop_cfg.eps_c
        ok_r = mean_r >= stop_cfg.r_threshold
        ok_l = delta_l <= stop_cfg.eps_l
        st.stop_streak = st.stop_streak + 1 if (ok_c and ok_r and ok_l) else 0
        stop = st.stop_streak >= stop_cfg.patience
        return stop, {
            "delta_c": delta_c, "mean_r": mean_r, "delta_l": delta_l,
            "output_stable": ok_c, "reward_met": ok_r, "loss_stable": ok_l,
            "streak": st.stop_streak, "stop": stop,
        }

    # -- training loop -------------------------------------------------------

    def train(self, questions: list, episode_log_path=None) -> tuple[list, list]:
        """Runs up to cfg.episodes episodes; returns (metrics rows, reports)."""
        if not questions:
            raise ValueError("need at least one question")
        stop_cfg = EarlyStopConfig.from_run_config(self.cfg)
        rows, reports = [], []
        log_fh = open(episode_log_path, "w") if episode_log_path else None
        try:
            for ep in range(1, self.cfg.episodes + 1):
                question = questions[(ep - 1) % len(questions)]
                record = self.run_inference(question)
                self.absorb_episode(record)
                if ep % self.cfg.update_interval == 0:
                    report = self.run_optimization()
                else:
                    report = {"skipped": True, "reason": "off-interval episode"}
                stop, stop_info = self.check_early_stop(record, report, stop_cfg)
                row = MetricsRow(
                    episode=ep,
                    l_td=float(np.mean(report["l_td"])) if not report["skipped"] else 0.0,
                    l_e=report.get("l_e", 0.0) if not report["skipped"] else 0.0,
                    l_mix=report.get("l_mix", 0.0) if not report["skipped"] else 0.0,
                    l_tot=report.get("l_tot", 0.0) if not report["skipped"] else 0.0,
                    mean_r=stop_info["mean_r"],
                    delta_c=stop_info["delta_c"] if np.isfinite(stop_info["delta_c"]) else -1.0,
                    stopped=int(stop),
                    wall_time=float(ep),
                    tokens=sum(u.token_count for u in record.utterances))
                rows.append(row)
                reports.append(report)
                if log_fh:
                    log_fh.write(json_line({
                        "episode": ep, "question": question,
                        "strategy": record.strategy,
                        "rewards": [float(r) for r in record.rewards],
                        "degenerate": record.degenerate,
                        "stop": stop_info}))
                if stop:
                    break
        finally:
            if log_fh:
                log_fh.close()
        return rows, reports
