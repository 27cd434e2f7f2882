import numpy as np
import pytest

from econ.encoder import BeliefEncoder, encoder_loss
from econ.kernel import Tensor, finite_diff_check
from econ.mixing import MixingBatchItem, MixingNetwork, Q_PATH_NAMES

import loop_reference as ref


def rng(seed=0):
    return np.random.default_rng(seed)


class TestBeliefEncoder:
    def test_group_vector_shape(self):
        enc = BeliefEncoder(belief_dim=6, model_dim=8, heads=2, rng=rng(1))
        beliefs = [rng(i).normal(size=6) for i in range(3)]
        out = enc.encode_group(beliefs)
        assert out.value.shape == (8,)

    def test_single_belief_allowed(self):
        enc = BeliefEncoder(belief_dim=4, model_dim=4, heads=1, rng=rng(2))
        assert enc.encode_group([np.ones(4)]).value.shape == (4,)

    def test_validation(self):
        enc = BeliefEncoder(belief_dim=4, model_dim=4, heads=1, rng=rng(3))
        with pytest.raises(ValueError):
            enc.encode_group([])
        with pytest.raises(ValueError):
            enc.encode_group([np.ones(5)])
        with pytest.raises(ValueError):
            BeliefEncoder(belief_dim=4, model_dim=6, heads=4)

    def test_permutation_changes_little_mean_pool(self):
        # mean pooling over self-attended slots is permutation invariant
        enc = BeliefEncoder(belief_dim=5, model_dim=6, heads=2, rng=rng(4))
        beliefs = [rng(10 + i).normal(size=5) for i in range(4)]
        a = enc.encode_group(beliefs).value
        b = enc.encode_group(beliefs[::-1]).value
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_gradient(self):
        enc = BeliefEncoder(belief_dim=4, model_dim=4, heads=2, rng=rng(5))
        beliefs = [rng(20 + i).normal(size=4) for i in range(3)]

        def loss():
            return enc.encode_group(beliefs).square().sum()

        assert finite_diff_check(loss, enc.params) < 1e-5


class TestEncoderLoss:
    def test_weighted_sum(self):
        out = encoder_loss(2.0, [0.5, 1.5], lam=0.1)
        assert out == pytest.approx(2.2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encoder_loss(-0.1, [0.0], lam=0.1)
        with pytest.raises(ValueError):
            encoder_loss(1.0, [-0.5], lam=0.1)

    def test_tensor_inputs(self):
        out = encoder_loss(Tensor(1.0), [Tensor(2.0)], lam=0.5)
        assert float(out.value) == pytest.approx(2.0)


def make_mixing(seed=0, n=3, group_dim=5, c_dim=None):
    return MixingNetwork(n, group_dim=group_dim, attn_dim=4, feat_dim=6,
                         hidden=4, heads=2, c_dim=c_dim, rng=rng(seed))


def make_item(seed=0, n=3, group_dim=5, c_dim=6, terminal=True):
    r = rng(seed)
    return MixingBatchItem(
        local_qs=r.normal(size=n),
        embeddings=r.uniform(0.1, 1.0, size=(n, 2)),
        group=r.normal(size=group_dim),
        r_tot=float(r.uniform(0, 1)),
        c_embed=r.normal(size=c_dim),
        next_local_q_maxes=None if terminal else r.normal(size=n),
        next_embeddings=None if terminal else r.uniform(0.1, 1.0, size=(n, 2)),
        next_group=None if terminal else r.normal(size=group_dim),
        terminal=terminal)


class TestMonotonicity:
    def test_fresh_network_passes(self):
        net = make_mixing(1)
        res = net.check_monotonicity(n_samples=30, rng=rng(2))
        assert res["passes"]
        assert res["min_directional_derivative"] >= -1e-8

    def test_projection_restores_monotonicity(self):
        net = make_mixing(3)
        net.params["qpath.w1"].value[0, 0] = -0.9
        res = net.check_monotonicity(n_samples=30, rng=rng(4))
        assert res["negative_q_path_weights"]
        net.project_nonnegative()
        res = net.check_monotonicity(n_samples=30, rng=rng(5))
        assert res["passes"]

    def test_monotone_after_training_steps(self):
        from econ.kernel import adam_step

        net = make_mixing(6)
        batch = [make_item(seed=i, terminal=(i % 2 == 0)) for i in range(4)]
        for _ in range(10):
            loss = net.mixing_loss(batch, gamma=0.9, lam_m=0.1, lam_b=0.1)
            net.params.zero_grads()
            loss.backward()
            adam_step(net.params, 0.05)
            net.project_nonnegative()
        assert all((net.params[n].value >= 0).all() for n in Q_PATH_NAMES)
        assert net.check_monotonicity(n_samples=30, rng=rng(7))["passes"]

    def test_increasing_q_never_decreases_qtot(self):
        net = make_mixing(8)
        r = rng(9)
        for _ in range(20):
            qs = r.normal(size=3)
            emb = r.uniform(0.1, 1.0, size=(3, 2))
            group = r.normal(size=5)
            base = float(net.forward_batch(qs, emb, group)[0].value)
            for i in range(3):
                up = qs.copy()
                up[i] += 0.37
                assert float(net.forward_batch(up, emb, group)[0].value) >= base - 1e-10


class TestMixingLosses:
    def test_mixing_loss_gradient(self):
        net = make_mixing(10)
        batch = [make_item(seed=i, terminal=(i % 2 == 0)) for i in range(3)]

        def loss():
            return net.mixing_loss(batch, gamma=0.9, lam_m=0.05, lam_b=0.05)

        assert finite_diff_check(loss, net.params) < 1e-4

    def test_sd_loss_gradient(self):
        net = make_mixing(11)
        item = make_item(seed=12)

        def loss():
            _, features = net.forward_batch(item.local_qs, item.embeddings, item.group)
            return net._sd_terms(features, item.c_embed, net.params)

        assert finite_diff_check(loss, net.params) < 1e-4

    def test_sd_loss_zero_embed_warns(self):
        net = make_mixing(13)
        item = make_item(seed=13)
        item.c_embed = np.zeros(6)
        with pytest.warns(RuntimeWarning) as caught:
            net.mixing_loss([item], gamma=0.9, lam_m=0.1, lam_b=0.1)
        assert any("zero final-output embedding" in str(w.message) for w in caught)

    def test_sd_loss_dim_checked(self):
        net = make_mixing(14)
        item = make_item(seed=14, c_dim=9)
        with pytest.raises(ValueError, match="final-output embedding"):
            net.mixing_loss([item], gamma=0.9, lam_m=0.1, lam_b=0.1)

    def test_terminal_drops_bootstrap(self):
        net = make_mixing(15)
        item = make_item(seed=16, terminal=True)
        q_tot, features = net.forward_batch(item.local_qs, item.embeddings, item.group)
        td = (item.r_tot - float(q_tot.value)) ** 2
        proj = features.value @ net.params["sd.w"].value
        cos = proj @ item.c_embed / (np.linalg.norm(proj, axis=1)
                                     * np.linalg.norm(item.c_embed))
        sd = float(((1.0 - cos) ** 2).sum())
        cons = sum((float(item.local_qs[i]) - float(q_tot.value)) ** 2
                   for i in range(3))
        expected = td + 0.1 * sd + 0.1 * cons
        loss = net.mixing_loss([item], gamma=0.9, lam_m=0.1, lam_b=0.1)
        assert float(loss.value) == pytest.approx(expected)

    def test_no_gradient_into_target(self):
        net = make_mixing(17)
        batch = [make_item(seed=18, terminal=False)]
        loss = net.mixing_loss(batch, gamma=0.9, lam_m=0.1, lam_b=0.1)
        net.params.zero_grads()
        loss.backward()
        assert all(t.grad is None for t in net.target.tensors())

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            make_mixing(19).mixing_loss([], gamma=0.9, lam_m=0.1, lam_b=0.1)

    def test_shape_validation(self):
        net = make_mixing(20)
        with pytest.raises(ValueError, match="local Q"):
            net.q_tot(np.zeros(2), [])

    def test_soft_update_target(self):
        net = make_mixing(21)
        net.params["qpath.w2"].value += 1.0
        before = net.target["qpath.w2"].value.copy()
        net.soft_update_target(tau=0.5)
        np.testing.assert_allclose(
            net.target["qpath.w2"].value,
            0.5 * net.params["qpath.w2"].value + 0.5 * before)


class TestBatchedPath:
    def test_encode_group_over_leading_axes(self):
        enc = BeliefEncoder(belief_dim=5, model_dim=8, heads=2, rng=rng(30))
        beliefs = rng(31).normal(size=(2, 3, 4, 5))
        batched = enc.encode_group(beliefs).value
        assert batched.shape == (2, 3, 8)
        for idx in np.ndindex(2, 3):
            np.testing.assert_allclose(
                batched[idx], ref.encode_group(enc, list(beliefs[idx]), enc.params).value,
                rtol=0, atol=1e-12)

    def test_mixing_loss_matches_item_loop(self):
        net = make_mixing(32)
        net.target["fuse.b"].value += 0.2  # a target that differs from the live net
        batch = [make_item(seed=40 + i, terminal=(i % 2 == 0)) for i in range(5)]
        batch[3].c_embed = np.zeros(6)
        with pytest.warns(RuntimeWarning):
            ref.assert_same_loss_and_gradients(
                lambda: net.mixing_loss(batch, gamma=0.9, lam_m=0.1, lam_b=0.2),
                lambda: ref.mixing_loss(net, batch, gamma=0.9, lam_m=0.1, lam_b=0.2),
                net.params)

    def test_encoder_loss_matches_episode_loop(self):
        from econ.backends import MockBackend
        from econ.config import RunConfig
        from econ.orchestrator import Orchestrator

        cfg = RunConfig(seed=0, episodes=8, agents=3, d=16, d_b=8, heads=2,
                        mlp_width=16, window=4, buffer=8, batch=4, grid_k=2)
        orch = Orchestrator(cfg, MockBackend(seed=50, embed_dim=32),
                            [MockBackend(seed=100 + i, embed_dim=32) for i in range(3)])
        episodes = [orch.run_inference(f"q{i}") for i in range(4)]
        r = rng(33)
        local_qs = r.normal(size=(4, 3))
        embeddings = r.uniform(0.1, 1.0, size=(4, 3, 2))
        r_tot = r.uniform(0, 1, size=4)
        l_tds = [0.3, 0.2, 0.1]
        ref.assert_same_loss_and_gradients(
            lambda: orch._encoder_loss(episodes, local_qs, embeddings, r_tot, l_tds),
            lambda: encoder_loss(ref.encoder_td(orch, episodes, local_qs, embeddings, r_tot),
                                 l_tds, cfg.lambda_e),
            orch.encoder.params)
