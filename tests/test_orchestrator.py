import json
import warnings
from itertools import product

import numpy as np
import pytest

from econ.backends import (
    Backend,
    INVALID_SENTINEL,
    MockBackend,
    ROLE_COORD_FINAL,
    ROLE_EXECUTION,
    Utterance,
)
from econ.config import RunConfig
from econ.orchestrator import EarlyStopConfig, EpisodeRecord, Orchestrator


EMBED = 32


def small_cfg(**over):
    base = dict(seed=0, episodes=8, agents=3, d=16, d_b=8, heads=2,
                mlp_width=16, window=4, buffer=8, batch=4, update_interval=2,
                grid_k=2, eta=0.01)
    base.update(over)
    return RunConfig(**base)


def make_orch(cfg=None, agents=None, seed_base=100):
    cfg = cfg or small_cfg()
    coord = MockBackend(seed=50, embed_dim=EMBED)
    if agents is None:
        agents = [MockBackend(seed=seed_base + i, embed_dim=EMBED)
                  for i in range(cfg.agents)]
    return Orchestrator(cfg, coord, agents)


class AlwaysInvalid(Backend):
    embed_dim = EMBED

    def generate(self, request):
        return Utterance.invalid(self.embed_dim)


class Broken(MockBackend):
    """An execution agent whose backend raises."""

    def generate(self, request):
        if request.role == ROLE_EXECUTION:
            raise RuntimeError("backend down")
        return super().generate(request)


class InvalidFinal(MockBackend):
    """A coordinator whose final-output reply is the invalid sentinel."""

    def generate(self, request):
        if request.role == ROLE_COORD_FINAL:
            return Utterance.invalid(self.embed_dim)
        return super().generate(request)


def strict_loads(line):
    """json.loads that rejects the non-JSON constants Infinity and NaN."""
    def reject(name):
        raise ValueError(f"non-JSON constant {name}")
    return json.loads(line, parse_constant=reject)


class TestInference:
    def test_record_shape(self):
        orch = make_orch()
        rec = orch.run_inference("what is the answer")
        assert len(rec.utterances) == 3
        assert len(rec.rewards) == 3
        assert len(rec.beliefs) == 3
        assert rec.final_embedding.shape == (EMBED,)
        assert not rec.degenerate

    def test_deterministic_across_fresh_builds(self):
        r1 = make_orch().run_inference("q")
        r2 = make_orch().run_inference("q")
        assert r1.final_text == r2.final_text
        assert r1.strategy == r2.strategy
        np.testing.assert_array_equal(r1.final_embedding, r2.final_embedding)
        assert r1.rewards == r2.rewards
        for a, b in zip(r1.utterances, r2.utterances):
            assert a.text == b.text

    def test_inference_mutates_nothing(self):
        orch = make_orch()
        before = orch.checksums()
        orch.run_inference("q")
        assert orch.checksums() == before

    def test_one_invalid_agent_earns_zero(self):
        cfg = small_cfg()
        agents = [MockBackend(seed=101, embed_dim=EMBED), AlwaysInvalid(),
                  MockBackend(seed=103, embed_dim=EMBED)]
        rec = make_orch(cfg, agents).run_inference("q")
        assert rec.rewards[1] == 0.0
        assert rec.breakdowns[1] is None
        assert rec.rewards[0] > 0.0 and rec.rewards[2] > 0.0
        assert not rec.degenerate

    def test_shared_backend_failure_reaches_caller(self):
        broken = Broken(seed=101, embed_dim=EMBED)
        with pytest.raises(RuntimeError, match="backend down"):
            make_orch(agents=[broken] * 3).run_inference("q")

    def test_distinct_backend_failure_reaches_caller(self):
        agents = [MockBackend(seed=101, embed_dim=EMBED),
                  Broken(seed=102, embed_dim=EMBED),
                  MockBackend(seed=103, embed_dim=EMBED)]
        with pytest.raises(RuntimeError, match="backend down"):
            make_orch(agents=agents).run_inference("q")

    def test_all_invalid_is_degenerate(self):
        cfg = small_cfg()
        rec = make_orch(cfg, [AlwaysInvalid() for _ in range(3)]).run_inference("q")
        assert rec.degenerate
        assert rec.final_text == INVALID_SENTINEL
        assert rec.rewards == [0.0, 0.0, 0.0]

    def test_invalid_final_is_degenerate(self):
        agents = [MockBackend(seed=100 + i, embed_dim=EMBED) for i in range(3)]
        orch = Orchestrator(small_cfg(), InvalidFinal(seed=50, embed_dim=EMBED), agents)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = orch.run_inference("q")
        assert all(u.valid for u in rec.utterances)
        assert rec.degenerate
        assert rec.final_text == INVALID_SENTINEL
        assert rec.rewards == [0.0, 0.0, 0.0]
        assert rec.breakdowns == [None, None, None]

    def test_per_agent_field_validation(self):
        with pytest.raises(ValueError):
            EpisodeRecord("q", "s", [], [object()], [], [], [], [], [],
                          np.zeros(2), "f", np.zeros(2))


class TestOptimization:
    def test_short_buffer_skips_and_preserves_state(self):
        orch = make_orch()
        rec = orch.run_inference("q")
        orch.absorb_episode(rec)
        before = orch.checksums()
        report = orch.run_optimization()
        assert report["skipped"]
        assert orch.checksums() == before

    def _filled(self, cfg=None):
        orch = make_orch(cfg)
        for i in range(orch.cfg.batch):
            orch.absorb_episode(orch.run_inference(f"q{i}"))
        return orch

    def test_loss_report_totals(self):
        orch = self._filled()
        report = orch.run_optimization()
        assert not report["skipped"]
        assert report["l_tot"] == pytest.approx(
            sum(report["l_td"]) + report["l_e"] + report["l_mix"])
        assert len(report["l_td"]) == 3

    def test_update_order_is_bottom_up(self):
        report = self._filled().run_optimization()
        order = report["order"]
        assert order.index("encoder") > max(order.index(f"belief_{i}")
                                            for i in range(3))
        assert order.index("mixing") > order.index("encoder")

    def test_optimization_changes_parameters(self):
        orch = self._filled()
        before = orch.checksums()
        orch.run_optimization()
        after = orch.checksums()
        assert after["encoder"] != before["encoder"]
        assert after["mixing"] != before["mixing"]
        for i in range(3):
            assert after[f"belief_{i}"] != before[f"belief_{i}"]

    def test_mixing_stays_monotone_after_step(self):
        orch = self._filled()
        orch.run_optimization()
        res = orch.mixing.check_monotonicity(
            n_samples=20, rng=np.random.default_rng(0))
        assert res["passes"]

    def test_buffer_is_fifo_bounded(self):
        cfg = small_cfg(buffer=4, batch=2, episodes=8)
        orch = make_orch(cfg)
        records = [orch.run_inference(f"q{i}") for i in range(6)]
        for r in records:
            orch.absorb_episode(r)
        assert list(orch.state.episodes) == records[2:]
        newest = orch.state.episodes[-1].transitions[0]
        np.testing.assert_array_equal(
            newest.action, records[-1].prompt_embeddings[0].as_array())

    def test_history_outlives_eviction(self):
        cfg = small_cfg(buffer=2, batch=1, window=4, episodes=8)
        orch = make_orch(cfg)
        records = [orch.run_inference(f"q{i}") for i in range(6)]
        for r in records:
            orch.absorb_episode(r)
        assert len(orch.state.episodes) == 2
        for i in range(3):
            pairs = orch.state.episodes[-1].transitions[i].next_traj.pairs()
            assert len(pairs) == 4
            for (action, obs), rec in zip(pairs, records[-4:]):
                np.testing.assert_array_equal(
                    action, rec.prompt_embeddings[i].as_array())
                np.testing.assert_array_equal(obs, rec.observations[i])


def fake_record(final_embedding, rewards):
    n = len(rewards)
    return EpisodeRecord("q", "s", [], [object()] * n, [None] * n,
                         [None] * n, [None] * n, [None] * n, list(rewards),
                         np.zeros(2), "f", np.asarray(final_embedding, float))


class TestEarlyStop:
    def _primed(self, patience=1):
        orch = make_orch(small_cfg(agents=1),
                         agents=[MockBackend(seed=9, embed_dim=EMBED)])
        orch.state.prev_c_embed = np.zeros(EMBED)
        orch.state.prev_l_tot = 1.0
        return orch, EarlyStopConfig(eps_c=0.01, r_threshold=0.7,
                                     eps_l=1e-4, patience=patience)

    def test_all_eight_combinations(self):
        for ok_c, ok_r, ok_l in product([True, False], repeat=3):
            orch, stop_cfg = self._primed()
            emb = np.zeros(EMBED) if ok_c else np.full(EMBED, 0.5)
            reward = 0.9 if ok_r else 0.1
            l_tot = 1.0 if ok_l else 2.0
            stop, info = orch.check_early_stop(
                fake_record(emb, [reward]),
                {"skipped": False, "l_tot": l_tot}, stop_cfg)
            assert stop == (ok_c and ok_r and ok_l)
            assert info["output_stable"] == ok_c
            assert info["reward_met"] == ok_r
            assert info["loss_stable"] == ok_l

    def test_patience_requires_consecutive_hits(self):
        orch, stop_cfg = self._primed(patience=3)
        good = lambda: (fake_record(np.zeros(EMBED), [0.9]),
                        {"skipped": False, "l_tot": 1.0})
        for expect_stop in (False, False, True):
            stop, info = orch.check_early_stop(*good(), stop_cfg)
            assert stop == expect_stop

    def test_broken_streak_resets(self):
        orch, stop_cfg = self._primed(patience=3)
        good = (fake_record(np.zeros(EMBED), [0.9]),
                {"skipped": False, "l_tot": 1.0})
        bad = (fake_record(np.zeros(EMBED), [0.1]),
               {"skipped": False, "l_tot": 1.0})
        orch.check_early_stop(*good, stop_cfg)
        orch.check_early_stop(*good, stop_cfg)
        stop, info = orch.check_early_stop(*bad, stop_cfg)
        assert not stop and info["streak"] == 0
        orch.check_early_stop(*good, stop_cfg)
        stop, info = orch.check_early_stop(*good, stop_cfg)
        assert not stop and info["streak"] == 2

    def test_first_episode_never_stops(self):
        orch = make_orch(small_cfg(agents=1),
                         agents=[MockBackend(seed=9, embed_dim=EMBED)])
        stop, info = orch.check_early_stop(
            fake_record(np.zeros(EMBED), [0.9]),
            {"skipped": False, "l_tot": 1.0},
            EarlyStopConfig(patience=1))
        assert not stop
        assert info["delta_c"] == np.inf

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            EarlyStopConfig(eps_c=0.0)
        with pytest.raises(ValueError):
            EarlyStopConfig(patience=0)


class TestTrainLoop:
    def test_runs_to_episode_cap(self, tmp_path):
        cfg = small_cfg(episodes=6)
        orch = make_orch(cfg)
        log = tmp_path / "episodes.jsonl"
        rows, reports = orch.train(["qa", "qb"], episode_log_path=log)
        assert len(rows) == 6
        assert [r.episode for r in rows] == list(range(1, 7))
        entries = [strict_loads(l) for l in open(log)]
        assert [e["question"] for e in entries[:4]] == ["qa", "qb", "qa", "qb"]
        assert entries[0]["stop"]["delta_c"] is None  # infinite: no previous output

    def test_updates_on_interval_only(self):
        cfg = small_cfg(episodes=6, update_interval=2, batch=2)
        rows, reports = make_orch(cfg).train(["q"])
        for ep, report in enumerate(reports, start=1):
            if ep % 2 == 1:
                assert report["skipped"]
        assert not reports[3]["skipped"]

    def test_stop_flag_recorded_once(self):
        cfg = small_cfg(episodes=10, r_threshold=1e-6, eps_c=100.0,
                        eps_l=100.0, patience=2, update_interval=1,
                        batch=1, buffer=4)
        rows, _ = make_orch(cfg).train(["q"])
        assert rows[-1].stopped == 1
        assert all(r.stopped == 0 for r in rows[:-1])
        assert len(rows) < 10

    def test_wall_time_advances_per_episode(self):
        cfg = small_cfg(episodes=3)
        rows, _ = make_orch(cfg).train(["q"])
        assert [r.episode for r in rows] == [1, 2, 3]
        assert all(r.wall_time == float(r.episode) for r in rows)
