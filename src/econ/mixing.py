"""Centralized mixing network: local Q-values in, global Q_tot out,
with Q_tot structurally non-decreasing in every local Q.

The Q-value path is a two-layer net whose stored weights are clamped
non-negative after every optimizer step; fused per-agent features enter
only through hypernetwork-generated biases and gains of the form
1 + relu(.), so they can never flip the sign of a Q-path derivative.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .kernel import (
    ParamStore,
    Tensor,
    attention_params,
    cosine_sim_node,
    multi_head_attention,
    stack,
)
from .beliefs import _FrozenView, soft_update

Q_PATH_NAMES = ("qpath.w1", "qpath.w2")
MONOTONICITY_DELTA = 1e-4  # the local-Q bump of check_monotonicity


@dataclass
class MixingBatchItem:
    local_qs: np.ndarray            # (N,) current local Q-values
    embeddings: np.ndarray          # (N, 2) prompt embeddings
    group: np.ndarray               # group representation E
    r_tot: float
    c_embed: np.ndarray             # coordinator final-output embedding
    next_local_q_maxes: np.ndarray | None = None
    next_embeddings: np.ndarray | None = None
    next_group: np.ndarray | None = None
    terminal: bool = False


class MixingNetwork:
    def __init__(self, n_agents: int, group_dim: int, attn_dim: int = 16,
                 feat_dim: int = 64, hidden: int = 32, heads: int = 2,
                 c_dim: int | None = None,
                 rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.n_agents = n_agents
        self.group_dim = group_dim
        self.attn_dim = attn_dim
        self.feat_dim = feat_dim
        self.hidden = hidden
        self.heads = heads
        self.c_dim = c_dim if c_dim is not None else feat_dim
        p = ParamStore()
        attention_params(p, "emb", rng, in_dim=2, heads=heads, model_dim=attn_dim)
        fuse_in = attn_dim + group_dim
        p.create("fuse.w", (fuse_in, feat_dim), rng, fan_in=fuse_in)
        p.add("fuse.b", np.zeros(feat_dim))
        # Q path: stored weights must stay non-negative (projected after steps)
        p.add("qpath.w1", np.abs(np.asarray(
            rng.uniform(-1, 1, size=(n_agents, hidden)))) / np.sqrt(n_agents))
        p.add("qpath.w2", np.abs(np.asarray(
            rng.uniform(-1, 1, size=(hidden,)))) / np.sqrt(hidden))
        p.create("hyp.w_b1", (feat_dim, hidden), rng, fan_in=feat_dim)
        p.add("hyp.b_b1", np.zeros(hidden))
        p.create("hyp.w_g", (feat_dim, hidden), rng, fan_in=feat_dim)
        p.add("hyp.b_g", np.zeros(hidden))
        p.create("hyp.w_b2", (feat_dim,), rng, fan_in=feat_dim)
        p.add("hyp.b_b2", 0.0)
        # projects fused features into the final-output embedding space
        p.create("sd.w", (feat_dim, self.c_dim), rng, fan_in=feat_dim)
        self.params = p
        self.target = p.clone()

    # -- forward pieces -----------------------------------------------------
    #
    # The networks run over arrays with any leading batch axes: local Q-values
    # (..., N), prompt embeddings (..., N, 2), group vectors (..., group_dim).
    # The list-of-agents methods are views of the same forward.

    def _local_qs(self, local_qs) -> Tensor:
        q = local_qs if isinstance(local_qs, Tensor) else Tensor(
            np.asarray(local_qs, dtype=np.float64))
        if q.value.ndim < 1 or q.value.shape[-1] != self.n_agents:
            raise ValueError(
                f"expected {self.n_agents} local Q-values, got shape {q.value.shape}")
        return q

    def _attend(self, embeddings, params) -> Tensor:
        """(..., N, 2) prompt embeddings -> (..., N, attn_dim)."""
        x = Tensor(np.asarray(embeddings, dtype=np.float64))
        return multi_head_attention(x, params, self.heads, prefix="emb")

    def _fuse(self, w: Tensor, group, params) -> Tensor:
        """F_i = relu(linear([w_i; E])) for (..., N, attn_dim) w; the group
        vector E (..., group_dim) is shared across agents, so its share of
        the linear map is computed once per leading index."""
        e = group if isinstance(group, Tensor) else Tensor(np.asarray(group, dtype=np.float64))
        fw = params["fuse.w"]
        a = self.attn_dim
        e_part = e @ fw[a:]
        e_part = e_part.reshape(e_part.value.shape[:-1] + (1, self.feat_dim))
        return (w @ fw[:a] + e_part + params["fuse.b"]).relu()

    def _q_tot(self, q: Tensor, features: Tensor, params) -> Tensor:
        """Layered non-negative combination of (..., N) local Q-values, with
        the agent-pooled (..., N, feat_dim) features driving biases and
        1+relu gains."""
        fbar = features.mean(axis=-2)
        b1 = fbar @ params["hyp.w_b1"] + params["hyp.b_b1"]
        gain = (fbar @ params["hyp.w_g"] + params["hyp.b_g"]).relu() + 1.0
        h1 = (q @ params["qpath.w1"] + b1).relu() * gain
        b2 = fbar @ params["hyp.w_b2"] + params["hyp.b_b2"]
        return h1 @ params["qpath.w2"] + b2

    def forward_batch(self, local_qs, embeddings, groups, params=None) -> tuple[Tensor, Tensor]:
        """Q_tot (...,) and features (..., N, feat_dim) over leading axes."""
        params = params if params is not None else self.params
        q = self._local_qs(local_qs)
        features = self._fuse(self._attend(embeddings, params), groups, params)
        return self._q_tot(q, features, params), features

    def self_attend_embeddings(self, embeddings: np.ndarray, params=None) -> list[Tensor]:
        """Prompt embeddings (N, 2) -> one intermediate vector per agent."""
        params = params if params is not None else self.params
        out = self._attend(embeddings, params)
        return [out[i] for i in range(out.value.shape[0])]

    def fuse_features(self, w_list: list[Tensor], group, params=None) -> list[Tensor]:
        """F_i = relu(linear([w_i; E])); E is shared across agents."""
        params = params if params is not None else self.params
        features = self._fuse(stack(w_list), group, params)
        return [features[i] for i in range(len(w_list))]

    def q_tot(self, local_qs, features: list[Tensor], params=None) -> Tensor:
        """Layered non-negative combination of the local Q-values, with the
        pooled features driving biases and 1+relu gains."""
        params = params if params is not None else self.params
        q = self._local_qs(local_qs)
        if len(features) != self.n_agents:
            raise ValueError(
                f"expected {self.n_agents} features, got {len(features)}")
        return self._q_tot(q, stack(features), params)

    # -- losses -------------------------------------------------------------

    def _sd_terms(self, features: Tensor, c_embed, params) -> Tensor:
        """Per leading index, sum over agents of (1 - cos(F_i sd.w, c))^2 for
        features (..., N, feat_dim) and final-output embeddings (..., c_dim)."""
        c = np.asarray(c_embed, dtype=np.float64)
        if c.shape[-1:] != (self.c_dim,):
            raise ValueError(
                f"final-output embedding of shape {c.shape}, expected (..., {self.c_dim})")
        if (np.linalg.norm(c, axis=-1) == 0.0).any():
            warnings.warn("feature alignment against a zero final-output embedding",
                          RuntimeWarning, stacklevel=3)
        cos = cosine_sim_node(features @ params["sd.w"], Tensor(c[..., None, :]))
        return (1.0 - cos).square().sum(axis=-1)

    def mixing_loss(self, batch: list[MixingBatchItem], gamma: float,
                    lam_m: float, lam_b: float) -> Tensor:
        """TD on Q_tot (target-params bootstrap) + feature alignment +
        local/global consistency, meaned over the batch."""
        if not batch:
            raise ValueError("mixing_loss on an empty batch")
        local_qs = np.stack([item.local_qs for item in batch])
        q_tot, features = self.forward_batch(
            local_qs, np.stack([item.embeddings for item in batch]),
            np.stack([item.group for item in batch]))
        target = np.array([item.r_tot for item in batch], dtype=np.float64)
        live = [k for k, item in enumerate(batch)
                if not item.terminal and item.next_local_q_maxes is not None]
        if live:
            tgt, _ = self.forward_batch(
                np.stack([batch[k].next_local_q_maxes for k in live]),
                np.stack([batch[k].next_embeddings for k in live]),
                np.stack([batch[k].next_group for k in live]),
                params=_FrozenView(self.target))
            target[live] += gamma * tgt.value
        td = (target - q_tot).square()
        sd = self._sd_terms(features, np.stack([item.c_embed for item in batch]),
                            self.params)
        cons = (local_qs - q_tot.reshape(len(batch), 1)).square().sum(axis=-1)
        return (td + sd * lam_b + cons * lam_m).mean()

    # -- monotonicity machinery --------------------------------------------

    def project_nonnegative(self):
        """Clamp every Q-path weight to max(0, w); call after each step."""
        for name in Q_PATH_NAMES:
            t = self.params[name]
            np.maximum(t.value, 0.0, out=t.value)

    def check_monotonicity(self, n_samples: int = 100,
                           rng: np.random.Generator | None = None) -> dict:
        """Numerically estimate dQ_tot/dQ_i over random states; report the
        minimum directional derivative and any offending weight."""
        if n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        rng = rng if rng is not None else np.random.default_rng(0)
        n, delta = self.n_agents, MONOTONICITY_DELTA
        draws = [(rng.normal(size=n), rng.uniform(0.1, 1.0, size=(n, 2)),
                  rng.normal(size=self.group_dim)) for _ in range(n_samples)]
        qs, emb, group = (np.stack(x) for x in zip(*draws))
        # row 0 of each sample is the base state, row 1 + i bumps agent i
        bumped = qs[:, None, :] + np.vstack([np.zeros(n), delta * np.eye(n)])
        out, _ = self.forward_batch(
            bumped, np.repeat(emb[:, None], n + 1, axis=1),
            np.repeat(group[:, None], n + 1, axis=1))
        min_deriv = ((out.value[:, 1:] - out.value[:, :1]) / delta).min()
        neg_weights = any(
            float(self.params[name].value.min()) < 0 for name in Q_PATH_NAMES)
        return {
            "min_directional_derivative": float(min_deriv),
            "negative_q_path_weights": neg_weights,
            "passes": (min_deriv >= -1e-8) and not neg_weights,
        }

    def soft_update_target(self, tau: float):
        soft_update(self.params, self.target, tau)
