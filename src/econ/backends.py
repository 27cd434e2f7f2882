"""Generation backends: deterministic mock LLM, scripted game agent, and an
OpenAI-compatible HTTP client with rate limiting, bounded backoff retries
and invalid-output handling. All time goes through a clock abstraction so
rate-limit behaviour is testable without waiting.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import threading
import time
import urllib.error
import urllib.request
import warnings
from dataclasses import dataclass, field

import numpy as np

from .beliefs import PromptEmbedding

INVALID_SENTINEL = "<INVALID>"

ROLE_COORD_STRATEGY = "coordinator-strategy"
ROLE_COORD_FINAL = "coordinator-final"
ROLE_EXECUTION = "execution"


@dataclass
class GenerationRequest:
    role: str
    query: str
    strategy: str = ""
    prompt_embedding: PromptEmbedding | None = None

    def __post_init__(self):
        if self.role == ROLE_EXECUTION and self.prompt_embedding is None:
            raise ValueError("execution requests must carry a prompt embedding")
        if self.role in (ROLE_COORD_STRATEGY, ROLE_COORD_FINAL) and self.prompt_embedding is not None:
            raise ValueError("coordinator requests must not carry a prompt embedding")


@dataclass
class Utterance:
    text: str
    embedding: np.ndarray
    token_count: int
    valid: bool = True

    @classmethod
    def invalid(cls, dim: int) -> "Utterance":
        return cls(INVALID_SENTINEL, np.zeros(dim), 0, valid=False)


# -- clocks and rate budgets ------------------------------------------------


class SystemClock:
    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float):
        time.sleep(seconds)


class VirtualClock:
    """Deterministic clock for tests: sleep advances shared time instantly."""

    def __init__(self):
        self._t = 0.0
        self._lock = threading.Lock()

    def now(self) -> float:
        with self._lock:
            return self._t

    def sleep(self, seconds: float):
        with self._lock:
            self._t += seconds


class BudgetTimeout(TimeoutError):
    """The rate budget can never admit this request."""


class RateBudget:
    """Shared gate over rolling per-minute request and token windows."""

    WINDOW = 60.0
    MAX_WAIT = 600.0  # longest total wait of one acquire

    def __init__(self, rpm: int, tpm: int, clock=None):
        if rpm < 1 or tpm < 1:
            raise ValueError(f"rpm and tpm must be at least 1, got rpm={rpm}, tpm={tpm}")
        self.rpm = rpm
        self.tpm = tpm
        self.clock = clock if clock is not None else SystemClock()
        self._lock = threading.Lock()
        self._events: list[tuple[float, int]] = []  # (timestamp, tokens)

    def _prune(self, now: float):
        cutoff = now - self.WINDOW
        self._events = [(t, n) for t, n in self._events if t > cutoff]

    def acquire(self, tokens: int):
        """Block (via the clock) until both windows admit the request."""
        if tokens > self.tpm:
            raise BudgetTimeout(f"request of {tokens} tokens exceeds TPM cap {self.tpm}")
        waited = 0.0
        while True:
            with self._lock:
                now = self.clock.now()
                self._prune(now)
                used = sum(n for _, n in self._events)
                if len(self._events) < self.rpm and used + tokens <= self.tpm:
                    self._events.append((now, tokens))
                    return now
                oldest = self._events[0][0]
                wait = max(oldest + self.WINDOW - now, 1e-3)
            if waited + wait > self.MAX_WAIT:
                raise BudgetTimeout("rate budget wait exceeded the allowed timeout")
            self.clock.sleep(wait)
            waited += wait


# -- text utilities ---------------------------------------------------------


def tokenize(text: str) -> list[str]:
    return text.split()


@functools.lru_cache(maxsize=8192)
def _token_hash(tok: str) -> int:
    return int.from_bytes(hashlib.md5(tok.encode()).digest()[:8], "little")


def embed_text(text: str, dim: int = 256) -> np.ndarray:
    """L2-normalized hashed bag-of-tokens embedding."""
    vec = np.zeros(dim)
    tokens = tokenize(text)
    if not tokens:
        warnings.warn("embedding empty text; returning the zero vector",
                      RuntimeWarning, stacklevel=2)
        return vec
    for tok in tokens:
        vec[_token_hash(tok) % dim] += 1.0
    return vec / np.linalg.norm(vec)


STRATEGY_SOFT_CAP = 50
STRATEGY_HARD_CAP = 70


def truncate_strategy(text: str, regenerate=None) -> tuple[str, list[str]]:
    """Enforce the coordinator strategy length band.

    <= STRATEGY_SOFT_CAP tokens passes clean; up to STRATEGY_HARD_CAP passes
    with a warning note; beyond that we regenerate once (if a regenerator
    is supplied) and then cut at the hard cap. Returns (text, notes).
    """
    soft, hard = STRATEGY_SOFT_CAP, STRATEGY_HARD_CAP
    notes: list[str] = []
    tokens = tokenize(text)
    if len(tokens) <= soft:
        return text, notes
    if len(tokens) <= hard:
        notes.append(f"strategy length {len(tokens)} exceeds soft cap {soft}")
        return text, notes
    if regenerate is not None:
        notes.append("strategy over hard cap; regenerated")
        text = regenerate()
        tokens = tokenize(text)
        if len(tokens) <= hard:
            return text, notes
    notes.append(f"strategy hard-cut at {hard} tokens")
    return " ".join(tokens[:hard]), notes


def _derived_seed(*parts) -> int:
    h = hashlib.sha256()
    for p in parts:
        h.update(str(p).encode())
        h.update(b"\x00")
    return int.from_bytes(h.digest()[:8], "little")


# -- backends ---------------------------------------------------------------


class Backend:
    """generate(request) -> Utterance; embed(text) -> vector."""

    embed_dim = 256

    def generate(self, request: GenerationRequest) -> Utterance:
        raise NotImplementedError

    def embed(self, text: str) -> np.ndarray:
        return embed_text(text, self.embed_dim)


class MockBackend(Backend):
    """Seeded vocabulary sampler standing in for an LLM.

    Output entropy rises with the requested temperature; the repetition
    penalty damps already-used tokens. Identical requests always produce
    identical text.
    """

    VOCAB_SIZE = 48

    def __init__(self, seed: int = 0, length: int = 24,
                 embed_dim: int = 256):
        self.seed = seed
        self.embed_dim = embed_dim
        self.length = length
        base_rng = np.random.default_rng(seed)
        self.vocab = [f"tok{i}" for i in range(self.VOCAB_SIZE)]
        self.base_logits = base_rng.normal(scale=1.5, size=self.VOCAB_SIZE)

    def generate(self, request: GenerationRequest) -> Utterance:
        if request.prompt_embedding is not None:
            temp = request.prompt_embedding.temperature
            pen = request.prompt_embedding.repetition_penalty
        else:
            temp, pen = 0.3, 0.5
        rng = np.random.default_rng(_derived_seed(
            self.seed, request.role, request.query, request.strategy,
            round(temp, 6), round(pen, 6)))
        # Inverse-CDF sampling exactly as `Generator.choice(n, p=probs)`
        # does it (cumsum, divide by the last entry, searchsorted right),
        # with all uniforms drawn in one call from the same stream. The
        # ufunc forms of max, sum and cumsum are the same reductions
        # without the ndarray methods' Python wrappers.
        uniforms = rng.random(self.length)
        temp = max(temp, 1e-6)
        recent = np.zeros(len(self.vocab))  # decayed usage, bounded
        probs = np.empty_like(recent)
        cdf = np.empty_like(recent)
        words = []
        for u in uniforms:
            np.multiply(2.0 * pen, recent, out=probs)
            np.subtract(self.base_logits, probs, out=probs)
            np.divide(probs, temp, out=probs)
            np.subtract(probs, np.maximum.reduce(probs), out=probs)
            np.exp(probs, out=probs)
            np.divide(probs, np.add.reduce(probs), out=probs)
            np.add.accumulate(probs, out=cdf)
            total = cdf[-1]
            if total != total:  # a NaN anywhere; entries are at most 1
                raise ValueError("Probabilities contain NaN")
            np.divide(cdf, total, out=cdf)
            idx = int(cdf.searchsorted(u, side="right"))
            recent *= 0.8
            recent[idx] += 1.0
            words.append(self.vocab[idx])
        text = " ".join(words)
        return Utterance(text, self.embed(text), len(words))


class ScriptedGameBackend(Backend):
    """Maps an action-logit policy to a discrete game action; the utterance
    text is the chosen action id and the embedding its one-hot."""

    def __init__(self, n_actions: int, seed: int = 0):
        if n_actions < 1:
            raise ValueError("need at least one action")
        self.n_actions = n_actions
        self.embed_dim = n_actions
        self._rng = np.random.default_rng(seed)
        self.logits = np.zeros(n_actions)

    def set_logits(self, logits):
        logits = np.asarray(logits, dtype=np.float64)
        if logits.shape != (self.n_actions,):
            raise ValueError("logit vector has wrong length")
        self.logits = logits

    def sample_action(self) -> int:
        z = self.logits - self.logits.max()
        probs = np.exp(z)
        probs /= probs.sum()
        return int(self._rng.choice(self.n_actions, p=probs))

    def generate(self, request: GenerationRequest) -> Utterance:
        action = self.sample_action()
        onehot = np.zeros(self.n_actions)
        onehot[action] = 1.0
        return Utterance(str(action), onehot, 1)

    def embed(self, text: str) -> np.ndarray:
        onehot = np.zeros(self.n_actions)
        try:
            onehot[int(text)] = 1.0
        except (ValueError, IndexError):
            pass
        return onehot


class TransportError(RuntimeError):
    """Rate-limit or network failure reported by the transport."""


@dataclass
class HttpConfig:
    base_url: str = field(default_factory=lambda: os.environ.get("ECON_BASE_URL", ""))
    api_key: str = field(default_factory=lambda: os.environ.get("ECON_API_KEY", ""))
    model: str = "default"
    context_cap: int = 2048


class HttpBackend(Backend):
    """OpenAI-compatible chat-completions client.

    Retries a failed call up to `MAX_RETRIES` times with the non-decreasing
    `BACKOFF_WAITS` in [10, 30] seconds (scaled by the injected clock);
    exhausted retries or malformed responses yield the invalid sentinel.
    """

    MAX_RETRIES = 3
    BACKOFF_WAITS = (10.0, 20.0, 30.0)
    TOKEN_BUDGET = 256  # completion tokens asked for per request

    def __init__(self, cfg: HttpConfig, budget: RateBudget, clock=None,
                 transport=None, call_log_path=None, embed_dim: int = 256):
        self.cfg = cfg
        self.budget = budget
        self.clock = clock if clock is not None else SystemClock()
        self.transport = transport if transport is not None else self._http_transport
        self.call_log_path = call_log_path
        self.embed_dim = embed_dim
        self._log_lock = threading.Lock()

    def _http_transport(self, payload: dict) -> dict:
        req = urllib.request.Request(
            self.cfg.base_url.rstrip("/") + "/chat/completions",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json",
                     "Authorization": f"Bearer {self.cfg.api_key}"})
        with urllib.request.urlopen(req, timeout=60.0) as resp:
            return json.loads(resp.read().decode())

    def _log(self, entry: dict):
        if self.call_log_path is None:
            return
        with self._log_lock:
            with open(self.call_log_path, "a") as fh:
                fh.write(json.dumps(entry) + "\n")

    def _payload(self, request: GenerationRequest) -> dict:
        messages = []
        if request.strategy:
            messages.append({"role": "system", "content": request.strategy})
        messages.append({"role": "user", "content": request.query})
        payload = {
            "model": self.cfg.model,
            "messages": messages,
            "max_tokens": min(self.TOKEN_BUDGET, self.cfg.context_cap),
        }
        if request.prompt_embedding is not None:
            payload["temperature"] = request.prompt_embedding.temperature
            payload["repetition_penalty"] = request.prompt_embedding.repetition_penalty
        return payload

    def generate(self, request: GenerationRequest) -> Utterance:
        payload = self._payload(request)
        tokens_in = sum(len(tokenize(m["content"])) for m in payload["messages"])
        attempts = 1 + self.MAX_RETRIES
        for attempt in range(1, attempts + 1):
            ts = self.budget.acquire(tokens_in + payload["max_tokens"])
            try:
                resp = self.transport(payload)
            except (TransportError, urllib.error.URLError, TimeoutError, OSError) as exc:
                self._log({"ts": ts, "role": request.role, "attempt": attempt,
                           "tokens_in": tokens_in, "tokens_out": 0,
                           "status": f"error: {exc}"})
                if attempt < attempts:
                    self.clock.sleep(self.BACKOFF_WAITS[attempt - 1])
                continue
            text = self._extract(resp)
            if text is None:
                self._log({"ts": ts, "role": request.role, "attempt": attempt,
                           "tokens_in": tokens_in, "tokens_out": 0,
                           "status": "malformed"})
                return Utterance.invalid(self.embed_dim)
            n_out = len(tokenize(text))
            self._log({"ts": ts, "role": request.role, "attempt": attempt,
                       "tokens_in": tokens_in, "tokens_out": n_out, "status": "ok"})
            return Utterance(text, self.embed(text), n_out)
        return Utterance.invalid(self.embed_dim)

    @staticmethod
    def _extract(resp: dict):
        try:
            text = resp["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            return None
        return text if isinstance(text, str) and text.strip() else None


def run_concurrently(calls: list) -> list:
    """Run each zero-argument callable on its own thread; return their
    results in call order. Once every thread has joined, the first
    exception in call order is re-raised in the caller."""
    results: list = [None] * len(calls)
    errors: list = [None] * len(calls)

    def work(idx: int):
        try:
            results[idx] = calls[idx]()
        except Exception as exc:
            errors[idx] = exc

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(calls))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


# at most this many threads per mini-batch: a run's agent count is unbounded
JOB_BATCH_SIZE = 4


def run_jobs(requests: list[GenerationRequest], backend: Backend) -> list[Utterance]:
    """Dispatch generation requests in mini-batches of concurrent calls.
    A failed call's exception reaches the caller after its batch joins."""
    results: list = []
    for start in range(0, len(requests), JOB_BATCH_SIZE):
        results += run_concurrently([functools.partial(backend.generate, r)
                                     for r in requests[start:start + JOB_BATCH_SIZE]])
    return results
