"""Per-agent belief network: trajectory/observation -> belief state,
prompt embedding (the action) and a local Q-value, trained by a TD loss
against a soft-updated target Q head.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .kernel import ParamStore, Tensor, concat


@dataclass
class PromptBounds:
    t_min: float = 0.1
    t_max: float = 2.0
    p_min: float = 0.1
    p_max: float = 0.9

    def __post_init__(self):
        if not (self.t_min < self.t_max and self.p_min < self.p_max):
            raise ValueError("prompt bounds must satisfy min < max")


@dataclass
class PromptEmbedding:
    temperature: float
    repetition_penalty: float

    def as_array(self) -> np.ndarray:
        return np.array([self.temperature, self.repetition_penalty])


@dataclass
class Observation:
    """Concatenation order is fixed: [task, strategy, prior belief]."""

    task_encoding: np.ndarray
    strategy_encoding: np.ndarray
    prior_belief: np.ndarray

    def as_array(self) -> np.ndarray:
        return np.concatenate([
            np.asarray(self.task_encoding, dtype=np.float64),
            np.asarray(self.strategy_encoding, dtype=np.float64),
            np.asarray(self.prior_belief, dtype=np.float64),
        ])


class Trajectory:
    """Sliding window of (action, observation) pairs; older entries evicted.

    Each pair is copied once on append and never mutated, so snapshots
    share the pair arrays.
    """

    def __init__(self, window: int = 8, pairs=None):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self._pairs: deque = deque(pairs or [], maxlen=window)

    def append(self, action: np.ndarray, obs: np.ndarray):
        self._pairs.append((np.array(action, dtype=np.float64),
                            np.array(obs, dtype=np.float64)))

    def pairs(self) -> list:
        return list(self._pairs)

    def snapshot(self) -> "Trajectory":
        return Trajectory(self.window, self._pairs)

    def __len__(self):
        return len(self._pairs)


@dataclass
class Transition:
    traj: Trajectory
    obs: np.ndarray
    action: np.ndarray  # prompt embedding [T, p]
    reward: float
    next_traj: Trajectory
    next_obs: np.ndarray
    terminal: bool = False


class _FrozenView:
    """Read-only constant view of a ParamStore: forwards through this view
    contribute no gradients (used for target-network bootstraps)."""

    def __init__(self, store: ParamStore):
        self._store = store

    def __getitem__(self, name: str) -> Tensor:
        return Tensor(self._store[name].value)


@dataclass
class BeliefNetConfig:
    obs_dim: int  # 2 * entity dim + belief dim after concatenation
    belief_dim: int = 128
    hidden: int = 256
    q_hidden: int = 64
    window: int = 8
    bounds: PromptBounds = field(default_factory=PromptBounds)
    target_grid: int = 5


class BeliefNetwork:
    """One agent's belief network plus its target Q head.

    Parameter layout: `traj.*` trajectory encoder, `mlp.*` belief MLP,
    `head.*` temperature/penalty heads, `q.*` local Q head. The target copy
    is a separate store holding what the Q head reads: `traj.*` and `q.*`.
    """

    def __init__(self, cfg: BeliefNetConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.params = ParamStore()
        pair_dim = 2 + cfg.obs_dim
        p = self.params
        p.create("traj.w_pair", (pair_dim, cfg.belief_dim), rng, fan_in=pair_dim)
        p.add("traj.b_pair", np.zeros(cfg.belief_dim))
        p.add("traj.pos", np.ones(cfg.window))
        mlp_in = cfg.belief_dim + cfg.obs_dim
        p.create("mlp.w1", (mlp_in, cfg.hidden), rng, fan_in=mlp_in)
        p.add("mlp.b1", np.zeros(cfg.hidden))
        p.create("mlp.w2", (cfg.hidden, cfg.belief_dim), rng, fan_in=cfg.hidden)
        p.add("mlp.b2", np.zeros(cfg.belief_dim))
        p.create("head.w_t", (cfg.belief_dim,), rng, fan_in=cfg.belief_dim)
        p.add("head.b_t", 0.0)
        p.create("head.w_p", (cfg.belief_dim,), rng, fan_in=cfg.belief_dim)
        p.add("head.b_p", 0.0)
        q_in = cfg.belief_dim + 2
        p.create("q.w1", (q_in, cfg.q_hidden), rng, fan_in=q_in)
        p.add("q.b1", np.zeros(cfg.q_hidden))
        p.create("q.w2", (cfg.q_hidden,), rng, fan_in=cfg.q_hidden)
        p.add("q.b2", 0.0)

        # frozen copy of everything the local Q head reads
        self.target = ParamStore()
        for name in ("traj.w_pair", "traj.b_pair", "traj.pos",
                     "q.w1", "q.b1", "q.w2", "q.b2"):
            self.target.add(name, p[name].value.copy())

    # -- forward pieces -----------------------------------------------------

    def _pack(self, trajs: list) -> tuple[np.ndarray, np.ndarray]:
        """Pairs of B trajectories as a left-aligned (B, window, pair_dim)
        array, with a (B, window, 1) 0/1 mask of the positions present."""
        window = self.cfg.window
        x = np.zeros((len(trajs), window, 2 + self.cfg.obs_dim))
        mask = np.zeros((len(trajs), window, 1))
        for b, traj in enumerate(trajs):
            pairs = traj.pairs()
            if len(pairs) > window:
                raise ValueError(
                    f"trajectory of {len(pairs)} pairs exceeds the window of {window}")
            if pairs:
                actions, observations = zip(*pairs)
                x[b, :len(pairs), :2] = actions
                x[b, :len(pairs), 2:] = observations
                mask[b, :len(pairs)] = 1.0
        return x, mask

    def _encode(self, trajs: list, params) -> Tensor:
        """(B, belief_dim): each pair linearly projected, scaled by its
        position's learned scalar and averaged over the pairs present.
        An empty trajectory encodes to the zero vector."""
        x, mask = self._pack(trajs)
        proj = Tensor(x) @ params["traj.w_pair"] + params["traj.b_pair"]
        proj = proj * params["traj.pos"].reshape(self.cfg.window, 1)
        return proj.mean(axis=1, mask=mask)

    def _q_head(self, enc: Tensor, embeddings, params) -> Tensor:
        """Local Q-values of encodings (..., belief_dim) and prompt
        embeddings (..., 2) whose leading axes broadcast."""
        w1 = params["q.w1"]
        d = self.cfg.belief_dim
        emb = Tensor(np.asarray(embeddings, dtype=np.float64))
        h = (enc @ w1[:d] + emb @ w1[d:] + params["q.b1"]).relu()
        return h @ params["q.w2"] + params["q.b2"]

    def encode_trajectory(self, traj: Trajectory) -> Tensor:
        """Window of pairs, each linearly projected, pooled with learned
        per-position scalars. Empty trajectory -> zero vector."""
        return self._encode([traj], self.params).reshape(self.cfg.belief_dim)

    def compute_belief(self, traj: Trajectory, obs: np.ndarray) -> Tensor:
        params = self.params
        h = concat([self.encode_trajectory(traj), Tensor(np.asarray(obs, dtype=np.float64))])
        h = (h @ params["mlp.w1"] + params["mlp.b1"]).relu()
        return h @ params["mlp.w2"] + params["mlp.b2"]

    def embed_prompt(self, belief: Tensor) -> tuple[Tensor, Tensor]:
        """Returns (temperature, penalty) nodes, each squashed into its box."""
        params = self.params
        b = self.cfg.bounds
        t = belief.dot(params["head.w_t"]) + params["head.b_t"]
        p = belief.dot(params["head.w_p"]) + params["head.b_p"]
        temp = b.t_min + (b.t_max - b.t_min) * t.sigmoid()
        pen = b.p_min + (b.p_max - b.p_min) * p.sigmoid()
        return temp, pen

    def local_q(self, traj: Trajectory, embedding: np.ndarray) -> Tensor:
        return self.local_q_batch([traj], [embedding]).reshape(())

    def local_q_batch(self, trajs: list, embeddings) -> Tensor:
        """(B,) local Q-values of B (trajectory, prompt embedding) pairs."""
        return self._q_head(self._encode(trajs, self.params), embeddings, self.params)

    def action_grid(self) -> np.ndarray:
        k = self.cfg.target_grid
        if k < 2:
            raise ValueError("target grid needs k >= 2")
        b = self.cfg.bounds
        ts = np.linspace(b.t_min, b.t_max, k)
        ps = np.linspace(b.p_min, b.p_max, k)
        return np.array([(t, p) for t in ts for p in ps])

    def _max_target_qs(self, next_trajs: list) -> np.ndarray:
        """Per trajectory, the target Q head's maximum over the action grid,
        from one (B, grid) forward."""
        params = _FrozenView(self.target)
        enc = self._encode(next_trajs, params)
        q = self._q_head(enc.reshape(len(next_trajs), 1, self.cfg.belief_dim),
                         self.action_grid(), params)
        return q.value.max(axis=1)

    # -- losses -------------------------------------------------------------

    def td_loss(self, batch: list[Transition], gamma: float) -> Tensor:
        """Mean squared TD residual; terminal transitions drop the bootstrap.
        Gradients flow into live parameters only; the target head is frozen."""
        if not batch:
            raise ValueError("td_loss on an empty batch")
        if not (0.0 <= gamma < 1.0):
            raise ValueError("gamma must lie in [0, 1)")
        target = np.array([tr.reward for tr in batch], dtype=np.float64)
        live = [i for i, tr in enumerate(batch) if not tr.terminal]
        if live:
            target[live] += gamma * self._max_target_qs([batch[i].next_traj for i in live])
        q = self.local_q_batch([tr.traj for tr in batch], [tr.action for tr in batch])
        return (q - target).square().mean()

    def soft_update(self, tau: float):
        soft_update(self.params, self.target, tau)


def soft_update(live: ParamStore, target: ParamStore, tau: float):
    """target <- tau * live + (1 - tau) * target, elementwise by name and
    in place."""
    if not (0.0 < tau <= 1.0):
        raise ValueError("tau must lie in (0, 1]")
    for name, t in target.items():
        src = live[name].value
        if src.shape != t.value.shape:
            raise ValueError(f"shape mismatch for '{name}' in soft update")
        t.value *= 1.0 - tau
        t.value += tau * src

