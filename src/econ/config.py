"""Run configuration, metrics emission, run manifests and per-subsystem
seed derivation.

Configs are sectioned key=value text. Every key is validated against a
documented range and unknown keys are rejected, so a config file is
always a complete, checkable statement of a run.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
from dataclasses import dataclass, field, fields

__version__ = "0.1.0"


def _simplex(v):
    return (len(v) == 3 and all(x >= 0 for x in v)
            and abs(sum(v) - 1.0) <= 1e-9)


class ConfigError(ValueError):
    pass


def _key(default, section: str, check, allowed: str):
    """A config key: its default (whose type is the type the parser reads),
    its [section], its range check and the documented text of that range."""
    return field(default=default,
                 metadata={"section": section, "check": check, "allowed": allowed})


@dataclass
class RunConfig:
    seed: int = _key(0, "run", lambda v: v >= 0, ">= 0")
    episodes: int = _key(100, "run", lambda v: v >= 1, ">= 1")
    agents: int = _key(3, "run", lambda v: v >= 1, ">= 1")
    backend: str = _key("mock", "run", lambda v: v == "mock",
                        "mock; other backends are built in Python, not from a config")
    max_rounds: int = _key(1, "run", lambda v: v == 1,
                           "1; multi-round episodes are not wired yet")
    d: int = _key(256, "model", lambda v: v >= 1, ">= 1")
    d_b: int = _key(128, "model", lambda v: v >= 1, ">= 1")
    heads: int = _key(4, "model", lambda v: v >= 1, ">= 1")
    mlp_width: int = _key(256, "model", lambda v: v >= 1, ">= 1")
    t_min: float = _key(0.1, "model", lambda v: v > 0.0, "> 0")
    t_max: float = _key(2.0, "model", lambda v: v > 0.0, "> 0")
    p_min: float = _key(0.1, "model", lambda v: v > 0.0, "> 0")
    p_max: float = _key(0.9, "model", lambda v: v > 0.0, "> 0")
    grid_k: int = _key(5, "model", lambda v: v >= 2, ">= 2")
    window: int = _key(8, "model", lambda v: v >= 1, ">= 1")
    eta: float = _key(0.001, "training", lambda v: v > 0.0, "> 0")
    eta_coord: float = _key(0.001, "training", lambda v: v > 0.0, "> 0")
    gamma: float = _key(0.99, "training", lambda v: 0.0 <= v < 1.0, "[0, 1)")
    buffer: int = _key(32, "training", lambda v: v >= 1, ">= 1")
    batch: int = _key(16, "training", lambda v: v >= 1, ">= 1")
    update_interval: int = _key(8, "training", lambda v: v >= 1, ">= 1")
    tau_soft: float = _key(0.01, "training", lambda v: 0.0 < v <= 1.0, "(0, 1]")
    r_max: float = _key(1.0, "rewards", lambda v: v > 0.0, "> 0")
    alpha: tuple = _key((0.4, 0.4, 0.2), "rewards", _simplex,
                        "three non-negative values summing to 1")
    lambda_e: float = _key(0.1, "rewards", lambda v: v >= 0.0, ">= 0")
    lambda_b: float = _key(0.1, "rewards", lambda v: v >= 0.0, ">= 0")
    lambda_m: float = _key(0.1, "rewards", lambda v: v >= 0.0, ">= 0")
    eps_c: float = _key(0.01, "stopping", lambda v: v > 0.0, "> 0")
    eps_l: float = _key(1e-4, "stopping", lambda v: v > 0.0, "> 0")
    r_threshold: float = _key(0.7, "stopping", lambda v: v > 0.0, "> 0")
    patience: int = _key(5, "stopping", lambda v: v >= 1, ">= 1")

    def __post_init__(self):
        self.alpha = tuple(float(x) for x in self.alpha)
        self.validate()

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not f.metadata["check"](value):
                raise ConfigError(f"value {value!r} for '{f.name}' out of range "
                                  f"(allowed: {f.metadata['allowed']})")
        if self.batch > self.buffer:
            raise ConfigError("batch must not exceed buffer capacity")
        if self.d % self.heads != 0:
            raise ConfigError("heads must divide the model dimension d")
        if not self.t_min < self.t_max:
            raise ConfigError("t_min must be < t_max")
        if not self.p_min < self.p_max:
            raise ConfigError("p_min must be < p_max")


_KEYS = {f.name: f for f in fields(RunConfig)}
_SECTIONS = tuple(dict.fromkeys(f.metadata["section"] for f in _KEYS.values()))


def parse_config(text: str) -> RunConfig:
    """Sectioned key=value text; absent keys fall back to defaults. A key
    under a [section] header must belong to that section, one before any
    header may belong to any, and no key may appear twice."""
    values: dict = {}
    section = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{section}]")
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep:
            raise ConfigError(f"expected key=value, got {line!r}")
        if key not in _KEYS:
            raise ConfigError(f"unknown key '{key}'")
        home = _KEYS[key].metadata["section"]
        if section is not None and section != home:
            raise ConfigError(f"key '{key}' belongs in [{home}], not [{section}]")
        if key in values:
            raise ConfigError(f"duplicate key '{key}'")
        kind = type(_KEYS[key].default)
        try:
            if kind is tuple:
                values[key] = tuple(float(x) for x in value.replace(",", " ").split())
            else:
                values[key] = kind(value)
        except ValueError:
            raise ConfigError(f"cannot parse value {value!r} for '{key}'") from None
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def config_text(cfg: RunConfig) -> str:
    """Canonical sectioned rendering (stable ordering, round-trips)."""
    out = io.StringIO()
    for section in _SECTIONS:
        out.write(f"[{section}]\n")
        for f in fields(cfg):
            if f.metadata["section"] != section:
                continue
            v = getattr(cfg, f.name)
            if isinstance(f.default, tuple):
                v = " ".join(repr(float(x)) for x in v)
            elif isinstance(f.default, float):
                v = repr(v)
            out.write(f"{f.name} = {v}\n")
        out.write("\n")
    return out.getvalue()


def save_config(cfg: RunConfig, path):
    with open(path, "w") as fh:
        fh.write(config_text(cfg))


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(config_text(cfg).encode()).hexdigest()


# -- seeds ------------------------------------------------------------------

_SEED_OFFSETS = {"init": 101, "generation": 211, "cluster": 503, "global-mixing": 601}


def subsystem_seed(master: int, name: str) -> int:
    """Fixed-offset seed split so one subsystem can be rerun stably."""
    if name not in _SEED_OFFSETS:
        raise ValueError(f"unknown subsystem '{name}'")
    return master * 1000 + _SEED_OFFSETS[name]


# -- metrics ----------------------------------------------------------------

@dataclass
class MetricsRow:
    episode: int
    l_td: float = 0.0
    l_e: float = 0.0
    l_mix: float = 0.0
    l_tot: float = 0.0
    mean_r: float = 0.0
    delta_c: float = 0.0
    stopped: int = 0
    tokens: int = 0

    def as_list(self) -> list:
        return [getattr(self, c) for c in METRICS_COLUMNS]


METRICS_COLUMNS = tuple(f.name for f in fields(MetricsRow))


def emit_metrics(rows: list, path):
    """Header-first CSV with a fixed column order."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(METRICS_COLUMNS)
        for r in rows:
            w.writerow([f"{v:.10g}" if isinstance(v, float) else v
                        for v in r.as_list()])


def json_line(record: dict) -> str:
    """One JSON-lines row. JSON has no Infinity or NaN, so a non-finite
    float is written as null."""
    def finite(x):
        if isinstance(x, dict):
            return {k: finite(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [finite(v) for v in x]
        if isinstance(x, float) and not math.isfinite(x):
            return None
        return x

    return json.dumps(finite(record), allow_nan=False) + "\n"


def write_manifest(path, cfg: RunConfig, command: str):
    """Everything needed to reproduce the run byte-for-byte in mock mode."""
    manifest = {
        "command": command,
        "config_hash": config_hash(cfg),
        "config": dataclasses.asdict(cfg),
        "seed": cfg.seed,
        "code_version": __version__,
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
