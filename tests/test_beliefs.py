import numpy as np
import pytest

from econ.beliefs import (
    BeliefNetConfig,
    BeliefNetwork,
    Observation,
    PromptBounds,
    Trajectory,
    Transition,
    soft_update,
)
from econ.kernel import ParamStore, Tensor, finite_diff_check

import loop_reference as ref


OBS_DIM = 10


def make_net(seed=0, **kw):
    cfg = BeliefNetConfig(obs_dim=OBS_DIM, belief_dim=6, hidden=8, q_hidden=5,
                          window=4, **kw)
    return BeliefNetwork(cfg, np.random.default_rng(seed))


def make_traj(n, seed=0, window=4):
    rng = np.random.default_rng(seed)
    t = Trajectory(window)
    for _ in range(n):
        t.append(rng.normal(size=2), rng.normal(size=OBS_DIM))
    return t


def make_transition(seed=0, reward=0.5, terminal=False):
    rng = np.random.default_rng(seed)
    return Transition(
        traj=make_traj(2, seed), obs=rng.normal(size=OBS_DIM),
        action=np.array([0.7, 0.4]), reward=reward,
        next_traj=make_traj(3, seed + 1), next_obs=rng.normal(size=OBS_DIM),
        terminal=terminal)


class TestPromptTypes:
    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            PromptBounds(t_min=1.0, t_max=0.5)
        with pytest.raises(ValueError):
            PromptBounds(p_min=0.9, p_max=0.9)

    def test_observation_concat_order(self):
        obs = Observation(np.array([1.0]), np.array([2.0]), np.array([3.0, 4.0]))
        np.testing.assert_allclose(obs.as_array(), [1, 2, 3, 4])


class TestTrajectory:
    def test_window_eviction(self):
        t = Trajectory(window=3)
        for i in range(5):
            t.append(np.array([float(i), 0.0]), np.zeros(OBS_DIM))
        assert len(t) == 3
        assert t.pairs()[0][0][0] == 2.0

    def test_snapshot_isolated(self):
        t = make_traj(2)
        snap = t.snapshot()
        t.append(np.zeros(2), np.zeros(OBS_DIM))
        assert len(snap) == 2
        assert len(t) == 3

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            Trajectory(window=0)


class TestForward:
    def test_empty_trajectory_encodes_to_zero(self):
        net = make_net()
        enc = net.encode_trajectory(Trajectory(4))
        np.testing.assert_allclose(enc.value, np.zeros(6))

    def test_prompt_embedding_in_bounds(self):
        net = make_net()
        b = net.cfg.bounds
        for seed in range(5):
            traj = make_traj(3, seed)
            obs = np.random.default_rng(seed).normal(size=OBS_DIM)
            temp, pen = net.embed_prompt(net.compute_belief(traj, obs))
            assert b.t_min <= float(temp.value) <= b.t_max
            assert b.p_min <= float(pen.value) <= b.p_max

    def test_belief_deterministic(self):
        net = make_net()
        traj, obs = make_traj(2), np.ones(OBS_DIM)
        b1 = net.compute_belief(traj, obs).value
        b2 = net.compute_belief(traj, obs).value
        np.testing.assert_array_equal(b1, b2)

    def test_action_grid_covers_box(self):
        net = make_net(target_grid=3)
        grid = net.action_grid()
        assert grid.shape == (9, 2)
        b = net.cfg.bounds
        assert grid[:, 0].min() == b.t_min and grid[:, 0].max() == b.t_max
        assert grid[:, 1].min() == b.p_min and grid[:, 1].max() == b.p_max
        with pytest.raises(ValueError):
            make_net(target_grid=1).action_grid()


class TestTDLoss:
    def test_gradient_matches_finite_difference(self):
        net = make_net(seed=3)
        batch = [make_transition(seed=i) for i in range(3)]

        def loss():
            return net.td_loss(batch, gamma=0.9)

        assert finite_diff_check(loss, net.params) < 1e-4

    def test_terminal_drops_bootstrap(self):
        net = make_net(seed=4)
        tr = make_transition(seed=9, reward=0.3, terminal=True)
        loss = net.td_loss([tr], gamma=0.99)
        q = float(net.local_q(tr.traj, tr.action).value)
        assert float(loss.value) == pytest.approx((q - 0.3) ** 2)

    def test_nonterminal_uses_target_max(self):
        net = make_net(seed=5)
        tr = make_transition(seed=10, reward=0.3, terminal=False)
        loss = net.td_loss([tr], gamma=0.9)
        q = float(net.local_q(tr.traj, tr.action).value)
        target = 0.3 + 0.9 * net._max_target_qs([tr.next_traj])[0]
        assert float(loss.value) == pytest.approx((q - target) ** 2)

    def test_no_gradient_into_target(self):
        net = make_net(seed=6)
        loss = net.td_loss([make_transition(seed=11)], gamma=0.9)
        net.params.zero_grads()
        loss.backward()
        assert all(t.grad is None for _, t in net.target.items())

    def test_validation(self):
        net = make_net()
        with pytest.raises(ValueError):
            net.td_loss([], gamma=0.9)
        with pytest.raises(ValueError):
            net.td_loss([make_transition()], gamma=1.0)


def mixed_batch():
    """Trajectory lengths 0..4 (window 4), terminal and non-terminal items."""
    rng = np.random.default_rng(42)
    batch = []
    for k in range(7):
        batch.append(Transition(
            traj=make_traj(k % 5, seed=k), obs=rng.normal(size=OBS_DIM),
            action=rng.uniform(0.1, 1.0, size=2), reward=float(rng.uniform(0, 1)),
            next_traj=make_traj((k + 2) % 5, seed=50 + k),
            next_obs=rng.normal(size=OBS_DIM), terminal=(k % 3 == 0)))
    return batch


class TestBatchedPath:
    def test_encode_trajectory_matches_position_loop(self):
        net = make_net(seed=21)
        probe = np.random.default_rng(0).normal(size=6)
        for n in range(5):
            traj = make_traj(n, seed=n)
            ref.assert_same_loss_and_gradients(
                lambda: (net.encode_trajectory(traj) * probe).sum(),
                lambda: (ref.encode_trajectory(net, traj, net.params) * probe).sum(),
                net.params)

    def test_td_loss_matches_item_loop(self):
        net = make_net(seed=22)
        net.target["q.w2"].value += 0.3  # a target head that differs from the live one
        batch = mixed_batch()
        ref.assert_same_loss_and_gradients(
            lambda: net.td_loss(batch, gamma=0.9),
            lambda: ref.td_loss(net, batch, gamma=0.9), net.params)

    def test_max_target_q_matches_grid_loop(self):
        net = make_net(seed=23)
        for n in range(5):
            traj = make_traj(n, seed=n)
            assert net._max_target_qs([traj])[0] == pytest.approx(
                ref.max_target_q(net, traj), abs=1e-12)

    @pytest.mark.parametrize("terminal", [True, False])
    def test_td_loss_node_count_independent_of_batch(self, monkeypatch, terminal):
        net = make_net(seed=24)
        init = Tensor.__init__
        count = [0]

        def counting(self, *args, **kwargs):
            count[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting)
        nodes = []
        for size in (1, 16):
            batch = [make_transition(seed=i, terminal=terminal) for i in range(size)]
            count[0] = 0
            net.td_loss(batch, gamma=0.9)
            nodes.append(count[0])
        assert nodes[0] == nodes[1]


class TestSoftUpdate:
    def test_blend_arithmetic(self):
        live, target = ParamStore(), ParamStore()
        live.add("w", np.array([1.0]))
        target.add("w", np.array([0.0]))
        soft_update(live, target, tau=0.25)
        assert target["w"].value[0] == pytest.approx(0.25)

    def test_tau_one_copies(self):
        net = make_net(seed=7)
        net.params["q.w1"].value += 0.5
        net.soft_update(tau=1.0)
        np.testing.assert_allclose(net.target["q.w1"].value, net.params["q.w1"].value)

    def test_tau_validated(self):
        live, target = ParamStore(), ParamStore()
        live.add("w", np.ones(1))
        target.add("w", np.ones(1))
        with pytest.raises(ValueError):
            soft_update(live, target, tau=0.0)

    def test_repeated_updates_converge_to_live(self):
        net = make_net(seed=8)
        net.params["q.w2"].value += 1.0
        for _ in range(2000):
            net.soft_update(tau=0.01)
        np.testing.assert_allclose(net.target["q.w2"].value,
                                   net.params["q.w2"].value, atol=1e-6)

