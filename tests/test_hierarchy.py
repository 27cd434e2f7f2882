import json

import numpy as np
import pytest

from econ.backends import (
    INVALID_SENTINEL,
    ROLE_COORD_FINAL,
    ROLE_EXECUTION,
    Backend,
    MockBackend,
    Utterance,
)
from econ.config import RunConfig
from econ.hierarchy import (
    Cluster,
    HierOrchestrator,
    MAX_CLUSTER_SIZE,
    assign_clusters,
)
from econ.orchestrator import EarlyStopConfig, Orchestrator


EMBED = 32


def small_cfg(**over):
    base = dict(seed=0, episodes=8, agents=9, d=16, d_b=8, heads=2,
                mlp_width=16, window=4, buffer=8, batch=2, update_interval=1,
                grid_k=2, eta=0.01)
    base.update(over)
    return RunConfig(**base)


def strict_loads(line):
    """json.loads that rejects the non-JSON constants Infinity and NaN."""
    def reject(name):
        raise ValueError(f"non-JSON constant {name}")
    return json.loads(line, parse_constant=reject)


def make_hier(n_agents=9, k=3, cfg=None):
    cfg = cfg or small_cfg(agents=n_agents)
    gc = MockBackend(seed=50, embed_dim=EMBED)
    locals_ = [MockBackend(seed=60 + c, embed_dim=EMBED) for c in range(k)]
    agents = [MockBackend(seed=100 + i, embed_dim=EMBED) for i in range(n_agents)]
    return HierOrchestrator(cfg, gc, locals_, agents, k)


class TestClustering:
    def test_nine_agents_three_clusters(self):
        sizes = sorted(len(c.members) for c in assign_clusters(list(range(9)), 3))
        assert sizes == [3, 3, 3]

    def test_seven_agents_three_clusters(self):
        sizes = sorted(len(c.members) for c in assign_clusters(list(range(7)), 3))
        assert sizes == [2, 2, 3]

    def test_each_agent_exactly_once(self):
        clusters = assign_clusters(list(range(8)), 3)
        members = sorted(a for c in clusters for a in c.members)
        assert members == list(range(8))

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            assign_clusters(list(range(4)), 0)
        with pytest.raises(ValueError):
            assign_clusters(list(range(4)), 5)

    def test_cluster_size_cap(self):
        with pytest.raises(ValueError, match="limit"):
            Cluster(0, list(range(MAX_CLUSTER_SIZE + 1)))
        with pytest.raises(ValueError):
            Cluster(0, [])


class TestHierRound:
    def test_round_shape_and_reward_range(self):
        hier = make_hier()
        rnd = hier.run_hier_round("q")
        assert len(rnd.cluster_records) == 3
        assert len(rnd.cluster_rewards) == 3
        assert all(0.0 <= r <= hier.cfg.r_max for r in rnd.cluster_rewards)
        assert rnd.parallel_clusters
        assert rnd.final_embedding.shape == (EMBED,)

    def test_optimize_order_bottom_up(self, tmp_path):
        hier = make_hier()
        log = tmp_path / "rounds.jsonl"
        history = hier.train(["q"], rounds=3, round_log_path=log)
        assert len(history) == 3
        entries = [strict_loads(l) for l in open(log)]
        assert entries[0]["stop"]["delta_c"] is None  # infinite: no previous output
        for e in entries:
            order = e["order"]
            assert order[-1] == "global_mixing"
            assert order[:-1] == [f"cluster_{c}" for c in range(3)]
            assert e["parallel_clusters"]
            assert len(e["cluster_rewards"]) == 3

    def test_cluster_failure_reaches_caller(self):
        class Broken(MockBackend):
            def generate(self, request):
                if request.role == ROLE_EXECUTION:
                    raise RuntimeError("backend down")
                return super().generate(request)

        agents = [MockBackend(seed=100 + i, embed_dim=EMBED) for i in range(3)]
        agents.append(Broken(seed=103, embed_dim=EMBED))
        hier = HierOrchestrator(
            small_cfg(agents=4), MockBackend(seed=50, embed_dim=EMBED),
            [MockBackend(seed=60 + c, embed_dim=EMBED) for c in range(2)],
            agents, 2)
        with pytest.raises(RuntimeError, match="backend down"):
            hier.run_hier_round("q")

    def test_all_degenerate_clusters_give_invalid_final(self):
        class AlwaysInvalid(Backend):
            embed_dim = EMBED

            def generate(self, request):
                return Utterance.invalid(self.embed_dim)

        class Recording(MockBackend):
            def generate(self, request):
                self.roles.append(request.role)
                return super().generate(request)

        gc = Recording(seed=50, embed_dim=EMBED)
        gc.roles = []
        hier = HierOrchestrator(
            small_cfg(agents=4), gc,
            [MockBackend(seed=60 + c, embed_dim=EMBED) for c in range(2)],
            [AlwaysInvalid() for _ in range(4)], 2)
        rnd = hier.run_hier_round("q")
        assert all(r.degenerate for r in rnd.cluster_records)
        assert rnd.final_text == INVALID_SENTINEL
        assert not rnd.final_embedding.any()
        assert rnd.cluster_rewards == [0.0, 0.0]
        assert ROLE_COORD_FINAL not in gc.roles  # no call without cluster outputs

    def test_global_mixing_monotone_after_steps(self):
        hier = make_hier()
        for t in range(3):
            rnd = hier.run_hier_round("q")
            hier.absorb_round(rnd)
            hier.hier_optimize(rnd)
        res = hier.global_mixing.check_monotonicity(
            n_samples=20, rng=np.random.default_rng(1))
        assert res["passes"]

    def test_skipped_cluster_updates_leave_params_unchanged(self):
        hier = make_hier()  # batch=2, first round leaves episode stores short
        rnd = hier.run_hier_round("q")
        hier.absorb_round(rnd)
        before = {i: o.checksums() for i, o in enumerate(hier.cluster_orchs)}
        report = hier.hier_optimize(rnd)
        assert all(r["skipped"] for r in report["cluster_reports"])
        for i, o in enumerate(hier.cluster_orchs):
            assert o.checksums() == before[i]


class TestFlatEquivalence:
    def test_single_cluster_matches_flat_orchestrator(self):
        cfg = small_cfg(agents=3)
        coord = MockBackend(seed=50, embed_dim=EMBED)
        agents = [MockBackend(seed=100 + i, embed_dim=EMBED) for i in range(3)]
        hier = HierOrchestrator(cfg, coord, [coord], agents, k=1)
        flat = Orchestrator(cfg, coord, agents)

        assert hier.cluster_orchs[0].checksums() == flat.checksums()
        rnd = hier.run_hier_round("same question")
        rec = flat.run_inference("same question")

        inner = rnd.cluster_records[0]
        assert inner.strategy == rec.strategy
        assert [u.text for u in inner.utterances] == [u.text for u in rec.utterances]
        assert inner.rewards == rec.rewards
        assert rnd.final_text == inner.final_text
        np.testing.assert_array_equal(rnd.final_embedding, inner.final_embedding)


class TestClusterSeeds:
    def test_clusters_start_from_distinct_weights(self):
        hier = make_hier(cfg=small_cfg(seed=1, agents=9))
        sums = [orch.checksums() for orch in hier.cluster_orchs]
        for name in sums[0]:
            assert len({s[name] for s in sums}) == len(sums), name
        mixers = {s["mixing"] for s in sums} | {hier.global_mixing.params.checksum()}
        assert len(mixers) == len(sums) + 1


class TestConvergence:
    def _rnd_like(self, hier, embed, rewards):
        rnd = hier.run_hier_round("q")
        rnd.final_embedding = np.asarray(embed, float)
        rnd.cluster_rewards = rewards
        return rnd

    def test_requires_two_rounds(self):
        hier = make_hier()
        stop_cfg = EarlyStopConfig(eps_c=10.0, r_threshold=1e-9, eps_l=10.0)
        rnd = self._rnd_like(hier, np.zeros(EMBED), [0.9, 0.9, 0.9])
        hier.prev_l_tot = 1.0
        stop, info = hier.hier_converged(rnd, {"l_tot": 1.0}, stop_cfg)
        assert not stop  # first round can never satisfy the shift criteria
        stop, info = hier.hier_converged(rnd, {"l_tot": 1.0}, stop_cfg)
        assert stop

    def test_low_reward_blocks_stop(self):
        hier = make_hier()
        stop_cfg = EarlyStopConfig(eps_c=10.0, r_threshold=0.99, eps_l=10.0)
        rnd = self._rnd_like(hier, np.zeros(EMBED), [0.1, 0.1, 0.1])
        hier.hier_converged(rnd, {"l_tot": 1.0}, stop_cfg)
        stop, info = hier.hier_converged(rnd, {"l_tot": 1.0}, stop_cfg)
        assert not stop

    def test_output_shift_blocks_stop(self):
        hier = make_hier()
        stop_cfg = EarlyStopConfig(eps_c=0.01, r_threshold=1e-9, eps_l=10.0)
        a = self._rnd_like(hier, np.zeros(EMBED), [0.9, 0.9, 0.9])
        b = self._rnd_like(hier, np.full(EMBED, 1.0), [0.9, 0.9, 0.9])
        hier.hier_converged(a, {"l_tot": 1.0}, stop_cfg)
        stop, info = hier.hier_converged(b, {"l_tot": 1.0}, stop_cfg)
        assert not stop and info["delta_c"] > stop_cfg.eps_c
