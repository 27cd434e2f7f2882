"""The three phases every benchmark run executes, their correctness checks
and the per-layer analysis of a traced run.

- train: `Orchestrator.train` with mock backends seeded as `econ train`
  seeds them, cycling the CLI's eight questions.
- eval: inference-only episodes (`run_inference` then `absorb_episode`, as
  `econ eval` does) against `HttpBackend`s on a `FakeEndpoint`.
- gamelab: `run_econ` and `run_debate` on matching_pennies_typed, and
  `brute_force_bne` at rho=0.01 on the four shipped games.

Every phase runs in every workload, at `RunConfig()` defaults. A workload
picks how the eval phase dispatches the agents' requests: each agent with
its own backend, called one after another, or one backend shared by all
agents, which `run_inference` calls concurrently through `run_jobs`.
"""

from __future__ import annotations

import math
import os
import statistics
import threading
import time

import econ.backends as backends_mod
import econ.encoder as encoder_mod
import econ.gamelab.games as games_mod
import econ.gamelab.learners as learners_mod
import econ.mixing as mixing_mod
import econ.orchestrator as orchestrator_mod
from econ.backends import (
    INVALID_SENTINEL,
    ROLE_EXECUTION,
    HttpBackend,
    HttpConfig,
    MockBackend,
    RateBudget,
)
from econ.beliefs import BeliefNetwork
from econ.config import RunConfig, subsystem_seed
from econ.encoder import BeliefEncoder
from econ.gamelab import (
    DebateLearner,
    EconGameLearner,
    brute_force_bne,
    fit_regret_exponent,
    load_shipped_game,
    run_learner,
)
from econ.kernel import ParamStore, Tensor
from econ.mixing import MixingNetwork
from econ.orchestrator import Orchestrator

from endpoint import BLOCK_EPISODES, BenchClock, FakeEndpoint
from speed import Speedometer, scale
from tracing import Recorder

QUESTIONS = [f"question-{i}" for i in range(8)]  # the CLI's eight questions
REGRET_GAME = "matching_pennies_typed"
SHIPPED_GAMES = ("matching_pennies", "matching_pennies_typed",
                 "coordination_typed", "dominant_three")
BNE_RHO = 0.01
ECON_B_MAX = 0.8
DEBATE_B_MIN = 0.95
# Enough steps that the fitted exponent is past early exploration: at
# 1,000 steps seed 1 gives an econ b of 0.809.
LEARNER_STEPS = 3000

# Workload name -> whether the agents share one eval backend.
WORKLOADS = {"distinct-backends": False, "shared-backend": True}

# Spans that delimit one unit of work; per-unit sums are taken over these.
UNIT_SPANS = ("orchestrator.run_inference", "orchestrator.run_optimization",
              "gamelab.econ_step", "gamelab.debate_step",
              "gamelab.brute_force_bne")
LAYERS = ("orchestrator", "kernel", "beliefs", "encoder", "mixing",
          "rewards", "backends", "gamelab")


def run_config(seed: int) -> RunConfig:
    return RunConfig(seed=seed)


class Problems(list):
    """Failed correctness checks, each a one-line description."""

    def check(self, ok: bool, what: str):
        if not ok:
            self.append(what)


def _timed(samples: list, fn, speed: Speedometer, keep=lambda out: True):
    """Wrap `fn` to append its time, in reference seconds, to `samples`.
    The time is scaled by the readings just before and just after it."""
    def wrapper(*args, **kwargs):
        before = speed.readings[-1:]
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        r = speed.probe()
        if keep(out):
            samples.append(scale(dt, before + [r]))
        return out
    return wrapper


def build_train(seed: int) -> Orchestrator:
    cfg = run_config(seed)
    gen = subsystem_seed(cfg.seed, "generation")
    coordinator = MockBackend(seed=gen)
    agents = [MockBackend(seed=gen + 1 + i) for i in range(cfg.agents)]
    return Orchestrator(cfg, coordinator, agents)


class _Tally:
    """Counts generation requests and sentinel replies of the wrapped backends."""

    def __init__(self):
        self.requests = 0
        self.sentinels = 0
        self._lock = threading.Lock()

    def attach(self, backend):
        def generate(request):
            u = type(backend).generate(backend, request)
            with self._lock:
                self.requests += 1
                self.sentinels += not u.valid
            return u
        backend.generate = generate


def build_games() -> dict:
    return {name: load_shipped_game(name) for name in SHIPPED_GAMES}


class Session:
    """State and samples of one benchmark run.

    The run is a sequence of rounds: one training run, two eval blocks,
    both regret learners and two BNE rounds, interleaved. CPU-bound times
    are kept in reference seconds (see `speed`); eval times are not, as
    they are mostly transport wait.
    """

    LEARNER_PROBE_EVERY = 100  # learner steps between speed readings

    def __init__(self, shared_backend: bool, seed: int, problems: Problems,
                 fate: str | None = None, rec: Recorder | None = None):
        self.seed = seed
        self.problems = problems
        self.rec = rec
        self.speed = Speedometer()
        self.games = build_games()
        # eval: one orchestrator over HTTP backends for the whole run
        cfg = run_config(seed)
        self.endpoint = FakeEndpoint(seed, cfg.agents, fate)
        self.backoff_clock = BenchClock()
        budget = RateBudget(rpm=10**9, tpm=10**12, clock=BenchClock())
        self.tally = _Tally()

        def backend(slot):
            b = HttpBackend(HttpConfig(base_url="", api_key=""), budget,
                            clock=self.backoff_clock,
                            transport=self.endpoint.transport(slot))
            self.tally.attach(b)
            return b

        agents = ([backend("exec")] * cfg.agents if shared_backend
                  else [backend(f"exec{i}") for i in range(cfg.agents)])
        self.eval_orch = Orchestrator(cfg, backend("coord"), agents)
        self.eval_checksums = self.eval_orch.checksums()
        # samples
        self.train_episodes = 0
        self.train_wall_s = 0.0
        self.opt_step_s: list = []
        self.train_infer_s: list = []
        self.train_checksums: list = []
        self.last_train: Orchestrator | None = None
        self.episode_s: list = []
        self.eval_wall_s = 0.0
        self.invalid_final_episodes = 0
        self.econ_steps = 0
        self.debate_steps = 0
        self.econ_s = 0.0
        self.debate_s = 0.0
        self.bne_s: list = []

    def _phase(self, name: str):
        if self.rec is not None:
            self.rec.phase = name

    def _span(self, name, fn):
        return fn() if self.rec is None else self.rec.span(name, fn)

    def round(self):
        self.train_run()
        self.eval_block()
        self.econ_learner()
        self.bne_round()
        self.eval_block()
        self.debate_learner()
        self.bne_round()

    def train_run(self):
        """`Orchestrator.train` on a fresh orchestrator."""
        self._phase("train")
        orch = build_train(self.seed)
        orch.run_optimization = _timed(self.opt_step_s, orch.run_optimization, self.speed,
                                       keep=lambda r: not r["skipped"])
        orch.run_inference = _timed(self.train_infer_s, orch.run_inference, self.speed)
        self.speed.take()
        spent = self.speed.spent_s
        t0 = time.perf_counter()
        rows, reports = orch.train(QUESTIONS)
        wall = time.perf_counter() - t0 - (self.speed.spent_s - spent)
        self.train_wall_s += scale(wall, self.speed.take())
        self.train_episodes += len(rows)
        n = orch.cfg.episodes
        self.problems.check(len(rows) == n and not any(r.stopped for r in rows),
                            f"train: early stop after {len(rows)} of {n} episodes")
        losses = [x for r in reports if not r["skipped"]
                  for x in (*r["l_td"], r["l_e"], r["l_mix"], r["l_tot"])]
        self.problems.check(bool(losses) and all(math.isfinite(x) for x in losses),
                            "train: missing or non-finite loss")
        self.train_checksums.append(orch.checksums())
        self.last_train = orch

    def eval_block(self):
        """One fault-schedule block of inference-only episodes."""
        self._phase("eval")
        orch = self.eval_orch
        t_block = time.perf_counter()
        for _ in range(BLOCK_EPISODES):
            ep = len(self.episode_s)
            self.endpoint.start_episode(ep)
            t0 = time.perf_counter()
            record = orch.run_inference(QUESTIONS[ep % len(QUESTIONS)])
            orch.absorb_episode(record)
            self.episode_s.append(time.perf_counter() - t0)
            self.problems.check(
                all(r == 0.0 for u, r in zip(record.utterances, record.rewards) if not u.valid),
                f"eval: sentinel utterance rewarded in episode {ep}")
            self.invalid_final_episodes += (record.final_text == INVALID_SENTINEL
                                            and not record.degenerate)
        self.eval_wall_s += time.perf_counter() - t_block

    def _learner(self, learner, kind: str) -> float:
        """Runs `learner` as `run_econ`/`run_debate` do; returns the fitted
        regret exponent and adds its time, in reference seconds."""
        self._phase("gamelab")
        steps = LEARNER_STEPS
        step = learner.step

        def probed_step(t):
            out = step(t)
            if t % self.LEARNER_PROBE_EVERY == 0:
                self.speed.probe()
            return out

        learner.step = probed_step
        self.speed.take()
        self.speed.probe()
        spent = self.speed.spent_s
        t0 = time.perf_counter()
        trace = run_learner(learner, steps, kind, seed=self.seed)
        wall = scale(time.perf_counter() - t0 - (self.speed.spent_s - spent), self.speed.take())
        if kind == "econ":
            self.econ_s += wall
            self.econ_steps += steps
        else:
            self.debate_s += wall
            self.debate_steps += steps
        return fit_regret_exponent(trace.total).b

    def econ_learner(self):
        """`run_econ` on the regret game; its regret must be sublinear."""
        b = self._learner(EconGameLearner(self.games[REGRET_GAME], seed=self.seed), "econ")
        self.problems.check(b <= ECON_B_MAX, f"gamelab: econ regret exponent {b:.3f} > {ECON_B_MAX}")

    def debate_learner(self):
        """`run_debate` on the regret game; its regret must be linear."""
        b = self._learner(DebateLearner(self.games[REGRET_GAME], seed=self.seed), "debate")
        self.problems.check(b >= DEBATE_B_MIN,
                            f"gamelab: debate regret exponent {b:.3f} < {DEBATE_B_MIN}")

    def bne_round(self):
        """`brute_force_bne` on each shipped game."""
        self._phase("gamelab")
        total = 0.0
        for name, g in self.games.items():
            t0 = time.perf_counter()
            _, cert = self._span("gamelab.brute_force_bne",
                                 lambda: brute_force_bne(g, rho=BNE_RHO))
            total += scale(time.perf_counter() - t0, [self.speed.probe()])
            self.problems.check(cert["reached"],
                                f"gamelab: BNE certificate not reached on {name}")
        self.bne_s.append(total)

    def finish(self):
        """Checks that need the whole run."""
        self.problems.check(all(c == self.train_checksums[0] for c in self.train_checksums),
                            "train: parameter checksums differ between runs of one seed")
        self.problems.check(self.eval_orch.checksums() == self.eval_checksums,
                            "eval: parameters changed during inference")
        traced = len(self.endpoint.exhausted_requests) + self.endpoint.malformed
        self.problems.check(self.tally.sentinels == traced,
                            f"eval: {self.tally.sentinels} sentinels but {traced} "
                            "exhausted or malformed requests")

    @property
    def failed_share(self) -> float:
        return self.tally.sentinels / self.tally.requests

    @property
    def attempted(self) -> int:
        return (self.train_episodes + len(self.episode_s) + self.econ_steps
                + self.debate_steps + len(self.bne_s) * len(self.games))

    def eval_counts(self) -> dict:
        return {
            "invalid_final_episodes": self.invalid_final_episodes,
            "transport_calls": self.endpoint.calls,
            "retries": self.endpoint.calls - self.tally.requests,
            "malformed": self.endpoint.malformed,
            "sentinels": self.tally.sentinels,
            "backoff_s": self.backoff_clock.slept_s,
        }


def build_all(workload: str, seed: int):
    """Everything a run constructs before its first timed call."""
    return build_train(seed), Session(WORKLOADS[workload], seed, Problems())


# -- tracing ------------------------------------------------------------------


def _generate_span(self, request, *args, **kwargs):
    kind = "execution" if request.role == ROLE_EXECUTION else "coordinator"
    return f"backends.generate.{kind}"


def instrument(rec: Recorder):
    """Wrap the public calls each layer receives, at the names its callers use."""
    spans = [
        (Orchestrator, "run_inference", "orchestrator.run_inference"),
        (Orchestrator, "run_optimization", "orchestrator.run_optimization"),
        (Orchestrator, "absorb_episode", "orchestrator.absorb_episode"),
        (Tensor, "backward", "kernel.backward"),
        (orchestrator_mod, "adam_step", "kernel.adam_step"),
        (encoder_mod, "multi_head_attention", "kernel.attention"),
        (mixing_mod, "multi_head_attention", "kernel.attention"),
        (ParamStore, "save", "kernel.checkpoint_save"),
        (BeliefNetwork, "compute_belief", "beliefs.compute_belief"),
        (BeliefNetwork, "td_loss", "beliefs.td_loss"),
        (BeliefNetwork, "local_q", "beliefs.local_q"),
        (BeliefEncoder, "encode_group", "encoder.encode_group"),
        (MixingNetwork, "mixing_loss", "mixing.mixing_loss"),
        (orchestrator_mod, "compute_breakdown", "rewards.compute_breakdown"),
        (orchestrator_mod, "update_reward_weights", "rewards.update_reward_weights"),
        (MockBackend, "generate", _generate_span),
        (HttpBackend, "generate", _generate_span),
        (orchestrator_mod, "run_jobs", "backends.run_jobs"),
        (backends_mod, "embed_text", "backends.embed_text"),
        (RateBudget, "acquire", "backends.budget_acquire"),
        (EconGameLearner, "step", "gamelab.econ_step"),
        (DebateLearner, "step", "gamelab.debate_step"),
        (learners_mod, "best_response", "gamelab.best_response"),
        (learners_mod, "expected_payoff", "gamelab.expected_payoff"),
    ]
    for owner, attr, name in spans:
        rec.wrap(owner, attr, name)
    rec.wrap(Tensor, "__init__", "kernel.tape_nodes", count_only=True)
    rec.wrap(games_mod, "exploitability", "gamelab.exploitability", count_only=True)


def save_checkpoints(orch: Orchestrator, out_dir: str) -> int:
    """`ParamStore.save` of every store; returns the bytes written."""
    total = 0
    for name, store in orch.param_stores().items():
        path = os.path.join(out_dir, f"{name}.json")
        store.save(path)
        total += os.path.getsize(path)
        os.remove(path)
    return total


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def layer_metrics(rec: Recorder, extra: dict) -> dict:
    """Per-layer metrics of a traced run, keyed by metric name."""
    spans = rec.spans
    selfs = rec.self_times()
    units: dict = {}  # (phase, unit span name) -> [unit index]
    sums: dict = {}   # (unit index, span name) -> summed duration
    calls: dict = {}  # (unit index, span name) -> number of spans
    for idx, (name, phase, t0, t1, _, unit) in enumerate(spans):
        if unit == idx:
            units.setdefault((phase, name), []).append(idx)
        sums[unit, name] = sums.get((unit, name), 0.0) + (t1 - t0)
        calls[unit, name] = calls.get((unit, name), 0) + 1
    opt = [u for u in units.get(("train", "orchestrator.run_optimization"), [])
           if calls.get((u, "kernel.adam_step"))]  # skipped steps do no work
    train_eps = units.get(("train", "orchestrator.run_inference"), [])
    eval_eps = units.get(("eval", "orchestrator.run_inference"), [])
    steps = (units.get(("gamelab", "gamelab.econ_step"), [])
             + units.get(("gamelab", "gamelab.debate_step"), []))
    bne = units.get(("gamelab", "gamelab.brute_force_bne"), [])

    def per_unit(us, name):
        return _median([sums.get((u, name), 0.0) for u in us])

    def count_per_unit(us, name):
        return _median([calls.get((u, name), 0) for u in us])

    def counter(us, name):
        return [rec.counts.get((name, u), 0) for u in us]

    def durations(phase, name):
        return [s[3] - s[2] for s in spans if s[0] == name and s[1] == phase]

    executions: dict = {}  # eval episode -> its execution generate spans
    for s in spans:
        if s[0] == "backends.generate.execution" and s[1] == "eval":
            executions.setdefault(s[5], []).append(s)
    overlap = [sum(s[3] - s[2] for s in ex) / (max(s[3] for s in ex) - min(s[2] for s in ex))
               for ex in executions.values()]
    n_steps = max(len(steps), 1)

    m = {
        "orchestrator.run_inference_s.train": _median(durations("train", "orchestrator.run_inference")),
        "orchestrator.run_inference_s.eval": _median(durations("eval", "orchestrator.run_inference")),
        "orchestrator.run_optimization_s": _median([spans[u][3] - spans[u][2] for u in opt]),
        "orchestrator.absorb_episode_s": _median(durations("train", "orchestrator.absorb_episode")),
        "orchestrator.invalid_final_episodes": extra["invalid_final_episodes"],
        "kernel.tape_nodes_per_opt_step": _median(counter(opt, "kernel.tape_nodes")),
        "kernel.tape_nodes_per_episode": _median(counter(eval_eps, "kernel.tape_nodes")),
        "kernel.backward_s": per_unit(opt, "kernel.backward"),
        "kernel.adam_step_s": per_unit(opt, "kernel.adam_step"),
        "kernel.attention_s.opt_step": per_unit(opt, "kernel.attention"),
        "kernel.attention_s.episode": per_unit(eval_eps, "kernel.attention"),
        "kernel.checkpoint_save_s": sum(durations("train", "kernel.checkpoint_save")),
        "kernel.checkpoint_bytes": extra["checkpoint_bytes"],
        "beliefs.compute_belief_s": per_unit(eval_eps, "beliefs.compute_belief"),
        "beliefs.td_loss_s": per_unit(opt, "beliefs.td_loss"),
        "beliefs.local_q_calls_per_opt_step": count_per_unit(opt, "beliefs.local_q"),
        "encoder.encode_group_s.opt_step": per_unit(opt, "encoder.encode_group"),
        "encoder.encode_group_s.episode": per_unit(eval_eps, "encoder.encode_group"),
        "mixing.mixing_loss_s": per_unit(opt, "mixing.mixing_loss"),
        "rewards.compute_breakdown_s": per_unit(eval_eps, "rewards.compute_breakdown"),
        "rewards.update_reward_weights_s": per_unit(opt, "rewards.update_reward_weights"),
        "backends.generate_s.execution.eval": per_unit(eval_eps, "backends.generate.execution"),
        "backends.generate_s.coordinator.eval": per_unit(eval_eps, "backends.generate.coordinator"),
        "backends.generate_s.execution.train": per_unit(train_eps, "backends.generate.execution"),
        "backends.generate_s.coordinator.train": per_unit(train_eps, "backends.generate.coordinator"),
        "backends.transport_calls": extra["transport_calls"],
        "backends.retries": extra["retries"],
        "backends.malformed": extra["malformed"],
        "backends.sentinels": extra["sentinels"],
        "backends.backoff_s": extra["backoff_s"],
        "backends.budget_wait_s": sum(durations("eval", "backends.budget_acquire")),
        "backends.exec_overlap": _median(overlap),
        "backends.embed_text_s": per_unit(eval_eps, "backends.embed_text"),
        "gamelab.best_response_calls_per_step":
            sum(calls.get((u, "gamelab.best_response"), 0) for u in steps) / n_steps,
        "gamelab.expected_payoff_calls_per_step":
            sum(calls.get((u, "gamelab.expected_payoff"), 0) for u in steps) / n_steps,
        "gamelab.best_response_s":
            sum(sums.get((u, "gamelab.best_response"), 0.0) for u in steps) / n_steps,
        "gamelab.expected_payoff_s":
            sum(sums.get((u, "gamelab.expected_payoff"), 0.0) for u in steps) / n_steps,
        "gamelab.bne_exploitability_calls":  # per BNE round over the four games
            sum(counter(bne, "gamelab.exploitability")) * len(SHIPPED_GAMES) // max(len(bne), 1),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for s, t in zip(spans, selfs)
                                   if s[0].split(".", 1)[0] == layer)
    return m
