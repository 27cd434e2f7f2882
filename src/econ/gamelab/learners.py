"""Learning dynamics on finite Bayesian games and regret analysis.

Two dynamics are provided: a per-type epsilon-greedy tabular Q-learner
with a 1/sqrt(t) learning-rate schedule, and a type-blind "debate"
baseline that best-responds to a short window of opponent play. Regret
is measured per step as each agent's best-response gap at the current
strategy profile, so cumulative regret is non-decreasing by construction.
"""

from __future__ import annotations

import csv
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .games import (
    FiniteBayesianGame,
    MixedStrategyProfile,
    best_response,
    expected_payoff,
)


ETA0 = 0.5  # the econ learner's initial learning rate


def learning_rate(t: int) -> float:
    """eta_t = ETA0 / sqrt(t), t >= 1."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return ETA0 / np.sqrt(t)


@dataclass
class RegretTrace:
    learner: str
    seed: int
    per_agent: np.ndarray  # (T, N) cumulative per-agent regret

    def __post_init__(self):
        self.per_agent = np.asarray(self.per_agent, dtype=np.float64)
        if self.per_agent.ndim != 2:
            raise ValueError("per_agent trace must be (T, N)")

    @property
    def total(self) -> np.ndarray:
        return self.per_agent.sum(axis=1)

    def __len__(self):
        return self.per_agent.shape[0]

    def to_csv(self, path):
        n = self.per_agent.shape[1]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t"] + [f"regret_{i}" for i in range(n)] + ["total"])
            for t in range(len(self)):
                row = [t + 1] + [f"{x:.10g}" for x in self.per_agent[t]]
                row.append(f"{self.total[t]:.10g}")
                w.writerow(row)


def _profile_gaps(game: FiniteBayesianGame, profile: MixedStrategyProfile) -> np.ndarray:
    gaps = np.zeros(game.n_players)
    for i in range(game.n_players):
        _, br_value = best_response(game, i, profile)
        gaps[i] = max(br_value - expected_payoff(game, profile, i), 0.0)
    return gaps


class EconGameLearner:
    """Per-type epsilon-greedy Q-learning with eta_t = ETA0 / sqrt(t) and
    exploration max(EPS_MIN, EPS0 / sqrt(t)).

    Each agent keeps a Q-table over (own type, own action) and updates it
    from the exact payoff of the sampled joint outcome.
    """

    EPS0 = 0.5
    EPS_MIN = 0.01

    def __init__(self, game: FiniteBayesianGame, seed: int = 0):
        self.game = game
        self.rng = np.random.default_rng(seed)
        self.q = [np.zeros((len(game.types[i]), len(game.actions[i])))
                  for i in range(game.n_players)]
        flat = game.prior.ravel()
        self._prior_flat = flat / flat.sum()

    def epsilon(self, t: int) -> float:
        return max(self.EPS_MIN, self.EPS0 / np.sqrt(t))

    def strategy_profile(self, t: int) -> MixedStrategyProfile:
        eps = self.epsilon(t)
        strats = []
        for i in range(self.game.n_players):
            n_a = len(self.game.actions[i])
            s = np.full(self.q[i].shape, eps / n_a)
            greedy = np.argmax(self.q[i], axis=1)
            s[np.arange(s.shape[0]), greedy] += 1.0 - eps
            strats.append(s)
        return MixedStrategyProfile(strats)

    def step(self, t: int) -> tuple[tuple, np.ndarray]:
        """One interaction: returns (joint action, per-agent regret increment)."""
        if t < 1:
            raise ValueError("t must be >= 1")
        profile = self.strategy_profile(t)
        gaps = _profile_gaps(self.game, profile)
        theta = np.unravel_index(
            self.rng.choice(self._prior_flat.size, p=self._prior_flat),
            self.game.type_shape)
        actions = tuple(
            int(self.rng.choice(len(self.game.actions[i]), p=profile[i][theta[i]]))
            for i in range(self.game.n_players))
        payoff = self.game.payoffs[tuple(theta) + actions]
        eta = learning_rate(t)
        for i in range(self.game.n_players):
            q = self.q[i]
            q[theta[i], actions[i]] += eta * (payoff[i] - q[theta[i], actions[i]])
        return actions, gaps

    def greedy_profile(self) -> MixedStrategyProfile:
        choices = [list(np.argmax(self.q[i], axis=1))
                   for i in range(self.game.n_players)]
        return MixedStrategyProfile.pure(self.game, choices)


class DebateLearner:
    """Type-blind competitive best-response dynamic.

    Each agent greedily best-responds to the empirical action frequencies
    of the others over the last `WINDOW` steps, ignoring private types.
    Requires a constant-sum payoff structure.
    """

    WINDOW = 10

    def __init__(self, game: FiniteBayesianGame, seed: int = 0):
        if game.payoff_sum_constant() is None:
            raise ValueError("debate baseline requires a constant-sum game")
        self.game = game
        self.rng = np.random.default_rng(seed)
        self.history = [deque(maxlen=self.WINDOW) for _ in range(game.n_players)]

    def _empirical(self, i: int) -> np.ndarray:
        n_a = len(self.game.actions[i])
        if not self.history[i]:
            return np.full(n_a, 1.0 / n_a)
        freq = np.zeros(n_a)
        for a in self.history[i]:
            freq[a] += 1.0
        return freq / freq.sum()

    def _blind_best_action(self, i: int) -> int:
        others = MixedStrategyProfile([
            np.tile(self._empirical(j), (len(self.game.types[j]), 1))
            for j in range(self.game.n_players)
        ])
        n_a = len(self.game.actions[i])
        scores = np.empty(n_a)
        for a in range(n_a):
            row = np.zeros(n_a)
            row[a] = 1.0
            fixed = others.replace(i, np.tile(row, (len(self.game.types[i]), 1)))
            scores[a] = expected_payoff(self.game, fixed, i)
        return int(np.argmax(scores))

    def step(self, t: int) -> tuple[tuple, np.ndarray]:
        if t < 1:
            raise ValueError("t must be >= 1")
        actions = tuple(self._blind_best_action(i)
                        for i in range(self.game.n_players))
        profile = MixedStrategyProfile.pure(self.game, [
            [actions[i]] * len(self.game.types[i])
            for i in range(self.game.n_players)
        ])
        gaps = _profile_gaps(self.game, profile)
        for i, a in enumerate(actions):
            self.history[i].append(a)
        return actions, gaps


def run_learner(learner, steps: int, kind: str, seed: int = 0) -> RegretTrace:
    """Drive a learner for `steps` interactions, accumulating regret."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    n = learner.game.n_players
    cum = np.zeros((steps, n))
    running = np.zeros(n)
    for t in range(1, steps + 1):
        _, gaps = learner.step(t)
        running += gaps
        cum[t - 1] = running
    return RegretTrace(kind, seed, cum)


def run_econ(game: FiniteBayesianGame, steps: int,
             seed: int = 0) -> tuple[EconGameLearner, RegretTrace]:
    learner = EconGameLearner(game, seed=seed)
    return learner, run_learner(learner, steps, "econ", seed=seed)


def run_debate(game: FiniteBayesianGame, steps: int,
               seed: int = 0) -> tuple[DebateLearner, RegretTrace]:
    learner = DebateLearner(game, seed=seed)
    return learner, run_learner(learner, steps, "debate", seed=seed)


@dataclass
class RegretFit:
    a: float
    b: float
    shifted: bool  # non-positive values had to be shifted before the log fit


MIN_FIT_STEPS = 100
FIT_TAIL_FRAC = 0.8


def fit_regret_exponent(total: np.ndarray) -> RegretFit:
    """Least-squares fit of R(T) ~ a * T^b on log-log axes over the last
    FIT_TAIL_FRAC of the trace. Non-positive cumulative values are shifted
    into positivity and flagged."""
    total = np.asarray(total, dtype=np.float64)
    if total.ndim != 1 or total.size < MIN_FIT_STEPS:
        raise ValueError(f"need a 1-D trace of at least {MIN_FIT_STEPS} steps")
    start = int(round(total.size * (1.0 - FIT_TAIL_FRAC)))
    ts = np.arange(1, total.size + 1, dtype=np.float64)[start:]
    rs = total[start:]
    shifted = False
    if rs.min() <= 0.0:
        rs = rs - rs.min() + 1e-9
        shifted = True
    b, log_a = np.polyfit(np.log(ts), np.log(rs), 1)
    return RegretFit(float(np.exp(log_a)), float(b), shifted)
