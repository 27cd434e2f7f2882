"""Adam on a ParamStore."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ParamStore


@dataclass
class OptimizerConfig:
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("betas must lie in [0, 1)")


def adam_step(store: ParamStore, cfg: OptimizerConfig):
    """One bias-corrected Adam update; zeroes gradients and bumps the step count.

    Missing gradient slots count as zero gradient. NaN gradients abort with
    the offending parameter's name.
    """
    store.step_count += 1
    t = store.step_count
    bc1 = 1.0 - cfg.beta1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    for name, p in store.items():
        if p.grad is None and store.moments_are_zero(name):
            continue  # zero gradient on zero moments: the update is exactly 0
        g = p.grad if p.grad is not None else np.zeros_like(p.value)
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient for parameter '{name}'")
        m, v = store.moments(name)
        # m <- b1 m + (1 - b1) g;  v <- b2 v + (1 - b2) g g;
        # value -= lr (m / bc1) / (sqrt(v / bc2) + eps), in two scratch buffers
        tmp, den = np.empty_like(m), np.empty_like(v)
        np.multiply(g, 1.0 - cfg.beta1, out=tmp)
        m *= cfg.beta1
        m += tmp
        np.multiply(g, 1.0 - cfg.beta2, out=tmp)
        tmp *= g
        v *= cfg.beta2
        v += tmp
        np.divide(v, bc2, out=den)
        np.sqrt(den, out=den)
        den += cfg.epsilon
        np.divide(m, bc1, out=tmp)
        tmp /= den
        tmp *= cfg.learning_rate
        p.value -= tmp
    store.zero_grads()
