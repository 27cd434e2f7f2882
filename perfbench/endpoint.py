"""In-process stand-in for an OpenAI-compatible chat endpoint.

`FakeEndpoint` hands each `HttpBackend` a `transport=` function. Every call
sleeps a fixed latency, then answers from a seeded RNG or fails according
to a seeded fault schedule. The schedule is fixed per block of episodes, so
every whole block holds the same faults and a run's failure share does not
depend on how many blocks fit in its time.

`BenchClock` is the backends' `clock=`: one clock second is one wall
millisecond, so the 10-30 s retry backoffs cost 10-30 ms of real time.
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
import time

from econ.backends import TransportError

# Faults placed in every block of episodes, each in its own episode.
# "throttle1" fails the first call of a request and then answers;
# "exhausted" fails every call, so the backend runs out of retries;
# "malformed" answers without a message. Three episodes in twenty wait
# out one backoff and one waits out all of them, so the p90 episode is a
# once-throttled one whatever the seed.
BLOCK_FAULTS = ("exhausted", "malformed", "throttle1", "throttle1", "throttle1")
BLOCK_EPISODES = 20
LATENCY_S = 0.005  # seconds per call
VOCAB = tuple(f"w{i}" for i in range(64))


class BenchClock:
    """Clock whose seconds last one wall millisecond; records time slept."""

    SCALE = 1000.0

    def __init__(self):
        self.slept_s = 0.0
        self._lock = threading.Lock()

    def now(self) -> float:
        return time.monotonic() * self.SCALE

    def sleep(self, seconds: float):
        t0 = time.perf_counter()
        time.sleep(seconds / self.SCALE)
        with self._lock:
            self.slept_s += time.perf_counter() - t0


class FakeEndpoint:
    """Seeded replies and faults for one coordinator and `n_agents` agents.

    A request is identified by (episode, slot): slot "strategy" or "final"
    for the coordinator, "exec<i>" for agent i. The caller announces each
    episode with `start_episode`. `fate` replaces the per-block schedule
    with one fate for every request, e.g. "exhausted" for total failure.
    """

    def __init__(self, seed: int, n_agents: int, fate: str | None = None):
        self.seed = seed
        self.n_agents = n_agents
        self.fate = fate
        self.episode = 0
        self.calls = 0
        self.malformed = 0
        self.exhausted_requests = set()
        self._attempts: dict = {}
        self._blocks: dict = {}
        self._arrived: list = []  # payload digests of this episode's shared calls
        self._ranks: dict = {}    # payload digest -> "exec<i>"
        self._lock = threading.Condition()

    def start_episode(self, episode: int):
        with self._lock:
            self.episode = episode
            self._arrived, self._ranks = [], {}

    def transport(self, slot: str):
        """The `transport=` callable for one backend; `slot` is "coord",
        "exec<i>", or "exec" for one backend that serves every agent."""
        return lambda payload: self._call(slot, payload)

    def _shared_slot(self, payload: dict) -> str:
        """The agent slot of a call to the backend every agent shares.

        `run_jobs` starts the agents' requests together, in threads, so
        their order of arrival is not fixed. The slot is therefore the rank
        of the request's payload digest among the episode's requests, known
        once all of them have arrived. The payloads differ, since each agent
        sends its own prompt embedding; a retry sends the same payload again.
        """
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
        with self._lock:
            if digest not in self._ranks:
                self._arrived.append(digest)
                if len(self._arrived) == self.n_agents:
                    if len(set(self._arrived)) != self.n_agents:
                        raise RuntimeError("two agents sent the same payload")
                    self._ranks = {d: f"exec{i}" for i, d in enumerate(sorted(self._arrived))}
                    self._lock.notify_all()
                elif not self._lock.wait_for(lambda: digest in self._ranks, timeout=10.0):
                    raise RuntimeError("the agents' requests did not arrive together")
            return self._ranks[digest]

    def _fate(self, episode: int, slot: str) -> str:
        if self.fate is not None:
            return self.fate
        block = episode // BLOCK_EPISODES
        if block not in self._blocks:
            rng = random.Random(f"faults|{self.seed}|{block}")
            slots = ["strategy", "final"] + [f"exec{i}" for i in range(self.n_agents)]
            episodes = rng.sample(range(BLOCK_EPISODES), len(BLOCK_FAULTS))
            self._blocks[block] = {
                (block * BLOCK_EPISODES + e, rng.choice(slots)): fault
                for e, fault in zip(episodes, BLOCK_FAULTS)}
        return self._blocks[block].get((episode, slot), "ok")

    def _call(self, slot: str, payload: dict) -> dict:
        if slot == "coord":
            slot = "final" if payload["messages"][0]["role"] == "system" else "strategy"
        elif slot == "exec":
            slot = self._shared_slot(payload)
        key = (self.episode, slot)
        with self._lock:
            attempt = self._attempts.get(key, 0)
            self._attempts[key] = attempt + 1
            self.calls += 1
        time.sleep(LATENCY_S)
        fate = self._fate(*key)
        if fate == "exhausted" or (fate == "throttle1" and attempt == 0):
            if fate == "exhausted":
                with self._lock:
                    self.exhausted_requests.add(key)
            raise TransportError("429 too many requests")
        if fate == "malformed":
            with self._lock:
                self.malformed += 1
            return {"choices": []}
        rng = random.Random(f"reply|{self.seed}|{key[0]}|{slot}")
        text = " ".join(rng.choice(VOCAB) for _ in range(rng.randint(12, 30)))
        return {"choices": [{"message": {"role": "assistant", "content": text}}]}
