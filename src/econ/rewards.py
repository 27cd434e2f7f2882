"""Bounded three-part rewards with adaptive simplex-constrained weights.

Components: output-consistency (cosine to the coordinator's final answer),
task score from an injected evaluator, and a collaboration score against
peer outputs. Each is clipped at R_max; the blend is a convex combination
whose weights adapt by gradient descent on the reward-discrepancy loss
followed by Euclidean projection back onto the probability simplex.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernel import cosine_sim

SIMPLEX_TOL = 1e-9


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = 1} (sort-and-threshold)."""
    v = np.asarray(v, dtype=np.float64)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, v.size + 1) > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


@dataclass
class RewardWeights:
    alphas: np.ndarray = field(default_factory=lambda: np.array([0.4, 0.4, 0.2]))

    def __post_init__(self):
        self.alphas = np.asarray(self.alphas, dtype=np.float64)
        self.validate()

    def validate(self):
        if self.alphas.shape != (3,):
            raise ValueError("reward weights must be a triple")
        if np.any(self.alphas < -SIMPLEX_TOL) or abs(self.alphas.sum() - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"weights {self.alphas} are not on the probability simplex")


@dataclass
class RewardBreakdown:
    r_al: float
    r_ts: float
    r_cc: float
    blended: float
    clipped: tuple[bool, bool, bool]


class Evaluator:
    """Scoring contract: task score and peer-context collaboration score,
    both in [0, 1] and deterministic under a fixed seed."""

    def score_task(self, utterance: str, task: str) -> float:
        raise NotImplementedError

    def score_collab(self, utterance: str, peers: list[str]) -> float:
        raise NotImplementedError


class ExactMatchEvaluator(Evaluator):
    """1.0 iff the expected answer string occurs in the utterance."""

    def __init__(self, answers: dict[str, str]):
        self.answers = answers

    def score_task(self, utterance: str, task: str) -> float:
        expected = self.answers.get(task)
        if expected is None:
            return 0.0
        return 1.0 if expected in utterance else 0.0

    def score_collab(self, utterance: str, peers: list[str]) -> float:
        return jaccard_distinctness(utterance, peers)


def jaccard_distinctness(utterance: str, peers: list[str]) -> float:
    """Mean Jaccard distance of the utterance's token set to each peer's.

    No peers: solo score 1.0 (a lone contribution is fully distinct).
    """
    mine = set(utterance.split())
    if not peers:
        return 1.0
    dists = []
    for p in peers:
        theirs = set(p.split())
        union = mine | theirs
        if not union:
            dists.append(0.0)
        else:
            dists.append(1.0 - len(mine & theirs) / len(union))
    return float(np.mean(dists))


def _check_score(score: float, source: str) -> float:
    if not (0.0 <= score <= 1.0):
        raise ValueError(f"{source} returned {score}, outside [0, 1]")
    return score


def blend(r_al: float, r_ts: float, r_cc: float, weights: RewardWeights) -> float:
    weights.validate()
    return float(weights.alphas @ np.array([r_al, r_ts, r_cc]))


def compute_breakdown(u_embed, c_embed, utterance: str, task: str,
                      peers: list[str], evaluator: Evaluator,
                      weights: RewardWeights, r_max: float) -> RewardBreakdown:
    raw_al = cosine_sim(u_embed, c_embed)
    raw_ts = _check_score(evaluator.score_task(utterance, task), "task evaluator")
    raw_cc = _check_score(evaluator.score_collab(utterance, peers), "collab evaluator")
    r_al, r_ts, r_cc = (min(r_max, raw_al), min(r_max, raw_ts), min(r_max, raw_cc))
    return RewardBreakdown(
        r_al=r_al, r_ts=r_ts, r_cc=r_cc,
        blended=blend(r_al, r_ts, r_cc, weights),
        clipped=(raw_al > r_max, raw_ts > r_max, raw_cc > r_max),
    )


def update_reward_weights(weights: RewardWeights,
                          components: list[tuple[float, float, float]],
                          expected: list[float],
                          lr: float) -> RewardWeights:
    """Gradient step on sum_i (blend_i - expected_i)^2 over the alphas,
    then projection back onto the simplex.

    `components` holds each agent's (r_al, r_ts, r_cc); `expected` the
    matching baseline rewards.
    """
    if lr <= 0:
        raise ValueError("reward-weight learning rate must be > 0")
    if len(components) != len(expected):
        raise ValueError("components and expected rewards must align")
    weights.validate()
    grad = np.zeros(3)
    for comps, exp in zip(components, expected):
        comps = np.asarray(comps, dtype=np.float64)
        residual = float(weights.alphas @ comps) - exp
        grad += 2.0 * residual * comps
    return RewardWeights(project_simplex(weights.alphas - lr * grad))
