"""Cosine similarity, multi-head self-attention and the gradient-check oracle."""

from __future__ import annotations

import math
import warnings

import numpy as np

from .params import ParamStore, uniform_init
from .tensor import Tensor


def cosine_sim(u, v) -> float:
    """Cosine similarity; a zero-norm input yields 0 with a warning."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"cosine_sim dimension mismatch: {u.shape} vs {v.shape}")
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        warnings.warn("cosine_sim on a zero-norm vector; returning 0", RuntimeWarning, stacklevel=2)
        return 0.0
    return float(np.clip(u @ v / (nu * nv), -1.0, 1.0))


def cosine_sim_node(u: Tensor, v: Tensor) -> Tensor:
    """Differentiable cosine similarity over the last axis; leading axes
    broadcast.

    A pair where either side has zero norm degrades to a constant 0 (no
    gradient path), matching the scalar helper's convention.
    """
    zero_u = np.linalg.norm(u.value, axis=-1) == 0.0
    zero_v = np.linalg.norm(v.value, axis=-1) == 0.0
    live = ~(zero_u | zero_v)
    if not live.all():
        warnings.warn("cosine_sim on a zero-norm vector; returning 0", RuntimeWarning, stacklevel=2)
    # a zero-norm side gets squared norm 1, so sqrt stays differentiable;
    # its pair is then masked to 0
    nu = ((u * u).sum(axis=-1) + zero_u).sqrt()
    nv = ((v * v).sum(axis=-1) + zero_v).sqrt()
    return (u * v).sum(axis=-1) / (nu * nv) * live


def attention_params(store: ParamStore, prefix: str, rng: np.random.Generator,
                     in_dim: int, heads: int, model_dim: int):
    """Create the fused Q/K/V projection `{prefix}.w_qkv`, of shape
    (in_dim, 3 * model_dim) with columns ordered (role, head, head_dim),
    plus the output projection `{prefix}.w_o`.

    The Q/K/V weights are drawn as one (heads, 3, in_dim, head_dim) block,
    i.e. head by head and within a head in q, k, v order.
    """
    if model_dim % heads != 0:
        raise ValueError(f"model dim {model_dim} not divisible by {heads} heads")
    block = uniform_init(rng, (heads, 3, in_dim, model_dim // heads), fan_in=in_dim)
    store.add(f"{prefix}.w_qkv", block.transpose(2, 1, 0, 3).reshape(in_dim, 3 * model_dim))
    store.create(f"{prefix}.w_o", (model_dim, model_dim), rng, fan_in=model_dim)


def multi_head_attention(x: Tensor, params: ParamStore, heads: int,
                         prefix: str = "attn") -> Tensor:
    """Scaled dot-product self-attention with `heads` heads.

    x: (..., N, d_in). One matmul by `{prefix}.w_qkv` gives every head's
    queries, keys and values, split off by a reshape and basic indexing;
    the heads' outputs, concatenated in head order, pass through the
    output projection, giving (..., N, model_dim).
    """
    w_qkv = params[f"{prefix}.w_qkv"]
    in_dim, width = w_qkv.value.shape
    if x.value.ndim < 2 or x.value.shape[-1] != in_dim:
        raise ValueError(
            f"attention input of shape {x.value.shape} incompatible with "
            f"{prefix}.w_qkv {w_qkv.value.shape}; expected (..., N, {in_dim})")
    *lead, n, _ = x.value.shape
    head_dim = width // (3 * heads)
    # (..., N, 3, heads, head_dim) -> (..., heads, 3, N, head_dim)
    qkv = (x @ w_qkv).reshape(*lead, n, 3, heads, head_dim).swapaxes(-4, -2)
    q, k, v = qkv[..., 0, :, :], qkv[..., 1, :, :], qkv[..., 2, :, :]
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(head_dim))
    out = scores.softmax(axis=-1) @ v  # (..., heads, N, head_dim)
    merged = out.swapaxes(-3, -2).reshape(*lead, n, heads * head_dim)
    return merged @ params[f"{prefix}.w_o"]


FINITE_DIFF_STEP = 1e-5


def finite_diff_check(loss_fn, store: ParamStore) -> float:
    """Max relative error between analytic gradients and central differences
    with step `FINITE_DIFF_STEP`.

    `loss_fn` must be a deterministic closure over `store` returning a scalar
    Tensor. Returns max over parameter entries of
    |analytic - numeric| / max(|analytic|, |numeric|, 1).
    """
    h = FINITE_DIFF_STEP
    store.zero_grads()
    loss = loss_fn()
    loss.backward()
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.value))
        for name, p in store.items()
    }
    store.zero_grads()
    max_err = 0.0
    for name, p in store.items():
        flat = p.value.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            f_plus = float(loss_fn().value)
            flat[idx] = orig - h
            f_minus = float(loss_fn().value)
            flat[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = analytic[name].ravel()[idx]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1.0)
            max_err = max(max_err, err)
    return max_err
