"""Named parameter store with gradient slots, Adam and checkpoints."""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .tensor import Tensor

CHECKPOINT_VERSION = "econ-ckpt-v1"

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


def uniform_init(rng: np.random.Generator, shape: tuple, fan_in: int | None = None) -> np.ndarray:
    """Seeded uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) initialization."""
    if fan_in is None:
        fan_in = shape[-1] if shape else 1
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


class ParamStore:
    """Maps names to parameter tensors plus Adam moment buffers.

    Single writer: optimizer steps mutate values in place; forward passes
    only read them.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self.step_count = 0

    def add(self, name: str, value) -> Tensor:
        if name in self._params:
            raise KeyError(f"parameter '{name}' already exists")
        t = Tensor(np.asarray(value, dtype=np.float64), requires_grad=True, name=name)
        self._params[name] = t
        return t

    def create(self, name: str, shape: tuple, rng: np.random.Generator, fan_in: int | None = None) -> Tensor:
        return self.add(name, uniform_init(rng, shape, fan_in))

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def tensors(self) -> list[Tensor]:
        return list(self._params.values())

    def items(self):
        return self._params.items()

    def moments(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Adam's first and second moment buffers, allocated as zeros on
        first use: a store that is never stepped, or a parameter that
        never gets a gradient, holds none."""
        if name not in self._m:
            value = self._params[name].value
            self._m[name], self._v[name] = np.zeros_like(value), np.zeros_like(value)
        return self._m[name], self._v[name]

    def moments_are_zero(self, name: str) -> bool:
        return name not in self._m or not (self._m[name].any() or self._v[name].any())

    def zero_grads(self):
        for t in self._params.values():
            t.zero_grad()

    def clone(self) -> "ParamStore":
        out = ParamStore()
        for name, t in self.items():
            out.add(name, t.value.copy())
        return out

    def checksum(self) -> str:
        """Stable digest of all parameter values; used to prove inference
        phases never mutate parameters."""
        h = hashlib.sha256()
        for name in sorted(self._params):
            h.update(name.encode())
            h.update(self._params[name].value.tobytes())
        return h.hexdigest()

    # -- checkpoint container -------------------------------------------

    def save(self, path):
        payload = {
            "version": CHECKPOINT_VERSION,
            "step_count": self.step_count,
            "params": {
                name: {"shape": list(t.value.shape), "data": t.value.ravel().tolist()}
                for name, t in self._params.items()
            },
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)

    @classmethod
    def load(cls, path) -> "ParamStore":
        with open(path) as fh:
            payload = json.load(fh)
        if payload.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version: {payload.get('version')!r}")
        store = cls()
        for name, entry in payload["params"].items():
            arr = np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
            store.add(name, arr)
        store.step_count = int(payload["step_count"])
        return store


def adam_step(store: ParamStore, learning_rate: float):
    """One bias-corrected Adam update; zeroes gradients and bumps the step count.

    Missing gradient slots count as zero gradient. NaN gradients abort with
    the offending parameter's name.
    """
    if learning_rate <= 0:
        raise ValueError("learning_rate must be > 0")
    store.step_count += 1
    t = store.step_count
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
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
        np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
        m *= ADAM_BETA1
        m += tmp
        np.multiply(g, 1.0 - ADAM_BETA2, out=tmp)
        tmp *= g
        v *= ADAM_BETA2
        v += tmp
        np.divide(v, bc2, out=den)
        np.sqrt(den, out=den)
        den += ADAM_EPSILON
        np.divide(m, bc1, out=tmp)
        tmp /= den
        tmp *= learning_rate
        p.value -= tmp
    store.zero_grads()
