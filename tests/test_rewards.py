import numpy as np
import pytest
from hypothesis import given, strategies as st

from econ.rewards import (
    Evaluator,
    ExactMatchEvaluator,
    RewardWeights,
    blend,
    compute_breakdown,
    jaccard_distinctness,
    project_simplex,
    update_reward_weights,
)


class TestSimplexProjection:
    def test_already_on_simplex_unchanged(self):
        v = np.array([0.2, 0.5, 0.3])
        np.testing.assert_allclose(project_simplex(v), v, atol=1e-12)

    def test_uniform_from_equal_input(self):
        np.testing.assert_allclose(project_simplex(np.array([5.0, 5.0, 5.0])),
                                   [1 / 3, 1 / 3, 1 / 3])

    def test_dominant_coordinate(self):
        out = project_simplex(np.array([10.0, 0.0, 0.0]))
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0])

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=6))
    def test_projection_lands_on_simplex(self, v):
        out = project_simplex(np.array(v))
        assert out.sum() == pytest.approx(1.0, abs=1e-9)
        assert (out >= -1e-12).all()

    @given(st.lists(st.floats(-5, 5), min_size=3, max_size=3),
           st.lists(st.floats(0, 1), min_size=3, max_size=3))
    def test_projection_is_closest_point(self, v, other):
        # any other simplex point is no closer than the projection
        v = np.array(v)
        p = project_simplex(v)
        q = np.array(other)
        if q.sum() == 0:
            q = np.ones(3)
        q = q / q.sum()
        assert np.linalg.norm(v - p) <= np.linalg.norm(v - q) + 1e-9


class TestWeights:
    def test_default_triple(self):
        w = RewardWeights()
        np.testing.assert_allclose(w.alphas, [0.4, 0.4, 0.2])

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            RewardWeights(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            RewardWeights(np.array([0.7, 0.4, -0.1]))
        with pytest.raises(ValueError):
            RewardWeights(np.array([0.5, 0.4, 0.2]))

    def test_update_stays_on_simplex(self):
        w = RewardWeights()
        comps = [(0.9, 0.1, 0.5), (0.2, 0.8, 0.3)]
        out = update_reward_weights(w, comps, [0.5, 0.4], lr=0.2)
        assert out.alphas.sum() == pytest.approx(1.0, abs=1e-9)
        assert (out.alphas >= 0).all()

    def test_update_moves_toward_matching_component(self):
        # expected reward equals the first component, so weight on it grows
        w = RewardWeights(np.array([1 / 3, 1 / 3, 1 / 3]))
        for _ in range(50):
            w = update_reward_weights(w, [(1.0, 0.0, 0.0)], [1.0], lr=0.05)
        assert w.alphas[0] > 0.9

    def test_update_validation(self):
        w = RewardWeights()
        with pytest.raises(ValueError):
            update_reward_weights(w, [(1, 1, 1)], [1.0, 2.0], lr=0.1)
        with pytest.raises(ValueError):
            update_reward_weights(w, [(1, 1, 1)], [1.0], lr=0.0)


class TestComponents:
    def test_jaccard_solo_and_disjoint(self):
        assert jaccard_distinctness("a b", []) == 1.0
        assert jaccard_distinctness("a b", ["c d"]) == 1.0
        assert jaccard_distinctness("a b", ["a b"]) == 0.0

    def test_exact_match_evaluator(self):
        ev = ExactMatchEvaluator({"q": "42"})
        assert ev.score_task("the answer is 42", "q") == 1.0
        assert ev.score_task("no idea", "q") == 0.0
        assert ev.score_task("anything", "unknown") == 0.0

    def test_out_of_range_evaluator_rejected(self):
        class Bad(Evaluator):
            def score_task(self, utterance, task):
                return 1.5

            def score_collab(self, utterance, peers):
                return 0.0

        with pytest.raises(ValueError, match="task evaluator"):
            compute_breakdown(np.ones(2), np.ones(2), "x", "t", [], Bad(),
                              RewardWeights(), r_max=1.0)

    def test_blend_is_convex_combination(self):
        w = RewardWeights(np.array([0.3, 0.5, 0.2]))
        assert blend(1.0, 0.0, 0.5, w) == pytest.approx(0.4)

    def test_breakdown_bounds_and_flags(self):
        ev = ExactMatchEvaluator({"q": "yes"})
        bd = compute_breakdown(np.array([1.0, 0.0]), np.array([1.0, 0.0]),
                               "yes", "q", ["other words"], ev,
                               RewardWeights(), r_max=0.8)
        assert bd.r_al == pytest.approx(0.8)
        assert bd.clipped[0] and bd.clipped[1]
        assert abs(bd.blended) <= 0.8 + 1e-12


@given(st.integers(0, 2 ** 31 - 1))
def test_randomized_blend_cycle_respects_bounds(seed):
    rng = np.random.default_rng(seed)
    w = RewardWeights()
    r_max = 1.0
    for _ in range(5):
        comps = tuple(rng.uniform(-1.0, 1.0, size=3))
        comps = tuple(min(r_max, c) for c in comps)
        r = blend(*comps, w)
        assert abs(r) <= r_max + 1e-9
        w = update_reward_weights(w, [comps], [rng.uniform(0, 1)],
                                  lr=rng.uniform(1e-4, 0.5))
        assert w.alphas.sum() == pytest.approx(1.0, abs=1e-9)
        assert (w.alphas >= 0).all()
