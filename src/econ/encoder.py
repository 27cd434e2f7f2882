"""Shared encoder aggregating all agents' belief states into one
group-level vector via multi-head self-attention over the agent slots."""

from __future__ import annotations

import numpy as np

from .kernel import ParamStore, Tensor, attention_params, multi_head_attention


class BeliefEncoder:
    """Self-attention over N belief slots, heads concatenated, projected,
    then mean-pooled into a single group vector of the model dimension."""

    def __init__(self, belief_dim: int, model_dim: int = 256, heads: int = 4,
                 rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.belief_dim = belief_dim
        self.model_dim = model_dim
        self.heads = heads
        self.params = ParamStore()
        attention_params(self.params, "enc", rng, in_dim=belief_dim,
                         heads=heads, model_dim=model_dim)

    def encode_group(self, beliefs) -> Tensor:
        """Aggregate N same-dimension belief vectors into one group vector.

        `beliefs` is a list of N vectors, or an array of shape
        (..., N, belief_dim) that gives one group vector per leading index.
        """
        if len(beliefs) == 0:
            raise ValueError("encode_group needs at least one belief")
        x = Tensor(np.asarray(beliefs, dtype=np.float64))
        if x.value.ndim < 2 or x.value.shape[-1] != self.belief_dim:
            raise ValueError(
                f"beliefs of shape {x.value.shape}, expected (..., N, {self.belief_dim})")
        attended = multi_head_attention(x, self.params, self.heads, prefix="enc")
        return attended.mean(axis=-2)


def encoder_loss(total_td, local_tds: list, lam: float):
    """Regularized encoder objective: total TD plus lam * sum of local TDs."""
    vals = [total_td] + list(local_tds)
    for v in vals:
        x = float(v.value) if isinstance(v, Tensor) else float(v)
        if x < 0:
            raise ValueError("encoder_loss inputs must be non-negative")
    out = total_td
    for ltd in local_tds:
        out = out + lam * ltd
    return out
