import json
import threading
import time

import numpy as np
import pytest

import loop_reference as ref
from econ.backends import (
    BudgetTimeout,
    GenerationRequest,
    HttpBackend,
    HttpConfig,
    INVALID_SENTINEL,
    MockBackend,
    RateBudget,
    ROLE_COORD_FINAL,
    ROLE_COORD_STRATEGY,
    ROLE_EXECUTION,
    ScriptedGameBackend,
    TransportError,
    Utterance,
    VirtualClock,
    embed_text,
    run_concurrently,
    run_jobs,
    tokenize,
    truncate_strategy,
)
from econ.beliefs import PromptEmbedding


def exec_request(temp=0.5, pen=0.5, query="q"):
    return GenerationRequest(ROLE_EXECUTION, query,
                             prompt_embedding=PromptEmbedding(temp, pen))


class TestRequestContract:
    def test_execution_needs_embedding(self):
        with pytest.raises(ValueError):
            GenerationRequest(ROLE_EXECUTION, "q")

    def test_coordinator_must_not_carry_embedding(self):
        with pytest.raises(ValueError):
            GenerationRequest(ROLE_COORD_STRATEGY, "q",
                              prompt_embedding=PromptEmbedding(0.5, 0.5))


class TestEmbedText:
    def test_deterministic_and_normalized(self):
        a = embed_text("the quick brown fox")
        b = embed_text("the quick brown fox")
        np.testing.assert_array_equal(a, b)
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-9)

    def test_empty_warns_and_zero(self):
        with pytest.warns(RuntimeWarning):
            v = embed_text("")
        assert np.linalg.norm(v) == 0.0

    def test_disjoint_tokens_orthogonal(self):
        # chosen pair hits no shared hash bucket at this dimension
        a = embed_text("alpha beta", dim=256)
        b = embed_text("gamma delta", dim=256)
        assert abs(float(a @ b)) < 1e-12


class TestTruncation:
    def _words(self, n):
        return " ".join(f"w{i}" for i in range(n))

    def test_short_passes_clean(self):
        text, notes = truncate_strategy(self._words(40))
        assert len(tokenize(text)) == 40 and notes == []

    def test_band_passes_with_warning(self):
        text, notes = truncate_strategy(self._words(65))
        assert len(tokenize(text)) == 65
        assert any("soft cap" in n for n in notes)

    def test_long_regenerated_then_hard_cut(self):
        calls = []

        def regen():
            calls.append(1)
            return self._words(90)

        text, notes = truncate_strategy(self._words(90), regenerate=regen)
        assert len(calls) == 1
        assert len(tokenize(text)) == 70

    def test_regeneration_can_rescue(self):
        text, _ = truncate_strategy(self._words(90),
                                    regenerate=lambda: self._words(30))
        assert len(tokenize(text)) == 30

    def test_never_exceeds_hard_cap(self):
        for n in (1, 50, 51, 70, 71, 200):
            text, _ = truncate_strategy(self._words(n))
            assert len(tokenize(text)) <= 70


class TestMockBackend:
    def test_identical_requests_identical_output(self):
        be = MockBackend(seed=5)
        u1 = be.generate(exec_request(0.1, 0.5))
        u2 = be.generate(exec_request(0.1, 0.5))
        assert u1.text == u2.text
        np.testing.assert_array_equal(u1.embedding, u2.embedding)

    def test_entropy_monotone_in_temperature(self):
        from scipy.stats import spearmanr

        be = MockBackend(seed=3, length=400)
        temps = np.linspace(0.1, 2.0, 10)
        entropies = []
        for t in temps:
            tokens = be.generate(exec_request(t, 0.1)).text.split()
            _, counts = np.unique(tokens, return_counts=True)
            p = counts / counts.sum()
            entropies.append(float(-(p * np.log(p)).sum()))
        rho = spearmanr(temps, entropies).statistic
        assert rho > 0.9

    def test_repetition_penalty_reduces_repeats(self):
        be = MockBackend(seed=4, length=200)
        def repeat_rate(pen):
            tokens = be.generate(exec_request(0.8, pen)).text.split()
            return 1.0 - len(set(tokens)) / len(tokens)
        assert repeat_rate(0.9) < repeat_rate(0.1)

    def test_token_count_is_whitespace_tokens(self):
        be = MockBackend(seed=2, length=24)
        u = be.generate(exec_request())
        assert u.token_count == len(u.text.split())


def _oracle_requests(n: int) -> list:
    """All three roles; execution temperatures from below the 1e-6 floor up
    to 2 and penalties from 0 to 2."""
    rng = np.random.default_rng(2024)
    floor_temps = (1e-7, 5e-7, 1e-6, 2e-6, 1e-5, 2.0)
    roles = (ROLE_COORD_STRATEGY, ROLE_COORD_FINAL, ROLE_EXECUTION)
    requests = []
    for k in range(n):
        role = roles[k % 3]
        query = f"question-{k % 17}"
        strategy = "" if role == ROLE_COORD_STRATEGY else f"strategy {k % 5}"
        embedding = None
        if role == ROLE_EXECUTION:
            j = k // 3
            temp = floor_temps[j // 2 % 6] if j % 2 else float(rng.uniform(1e-7, 2.0))
            pen = float(j % 3) if j % 5 == 0 else float(rng.uniform(0.0, 2.0))
            embedding = PromptEmbedding(temp, pen)
        requests.append(GenerationRequest(role, query, strategy=strategy,
                                          prompt_embedding=embedding))
    return requests


class TestMockSamplerOracle:
    """`MockBackend.generate` against the per-token `rng.choice` loop."""

    def test_matches_choice_loop(self):
        backends = [MockBackend(seed=s) for s in (0, 7, 211, 9001)]
        requests = _oracle_requests(2100)
        assert {r.role for r in requests} == {ROLE_COORD_STRATEGY, ROLE_COORD_FINAL,
                                              ROLE_EXECUTION}
        for k, req in enumerate(requests):
            be = backends[(k // 3) % len(backends)]
            got, want = be.generate(req), ref.mock_generate(be, req)
            assert got.text == want.text, k
            assert got.token_count == want.token_count, k
            assert got.embedding.tobytes() == want.embedding.tobytes(), k

    @pytest.mark.parametrize("temp, pen", [(float("nan"), 0.5), (0.5, float("nan")),
                                           (0.5, float("inf")), (0.5, -float("inf"))])
    def test_nan_probabilities_raise(self, temp, pen):
        be = MockBackend(seed=1)
        req = exec_request(temp, pen)
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="Probabilities contain NaN"):
                ref.mock_generate(be, req)
            with pytest.raises(ValueError, match="Probabilities contain NaN"):
                be.generate(req)

    def test_infinite_temperature_samples(self):
        be = MockBackend(seed=1)
        req = exec_request(float("inf"), 0.5)
        got = be.generate(req)
        assert got.token_count == be.length
        assert got.text == ref.mock_generate(be, req).text


class TestScriptedBackend:
    def test_one_hot_action(self):
        be = ScriptedGameBackend(3, seed=0)
        be.set_logits([100.0, 0.0, 0.0])
        u = be.generate(exec_request())
        assert u.text == "0"
        np.testing.assert_array_equal(u.embedding, [1, 0, 0])

    def test_logit_validation(self):
        be = ScriptedGameBackend(2)
        with pytest.raises(ValueError):
            be.set_logits([1.0, 2.0, 3.0])


class TestRateBudget:
    def test_rpm_window_rollover(self):
        clock = VirtualClock()
        budget = RateBudget(rpm=2, tpm=10_000, clock=clock)
        budget.acquire(5)
        budget.acquire(5)
        t0 = clock.now()
        budget.acquire(5)  # must wait for the first slot to roll out
        assert clock.now() - t0 >= 59.0

    def test_tpm_gate(self):
        clock = VirtualClock()
        budget = RateBudget(rpm=100, tpm=100, clock=clock)
        budget.acquire(80)
        t0 = clock.now()
        budget.acquire(50)
        assert clock.now() - t0 >= 59.0

    def test_impossible_request_times_out(self):
        budget = RateBudget(rpm=10, tpm=100, clock=VirtualClock())
        with pytest.raises(BudgetTimeout):
            budget.acquire(500)

    @pytest.mark.parametrize("rpm, tpm", [(0, 100), (10, 0), (-1, -1)])
    def test_budget_that_admits_nothing_rejected(self, rpm, tpm):
        with pytest.raises(ValueError, match="at least 1"):
            RateBudget(rpm=rpm, tpm=tpm, clock=VirtualClock())

    def test_concurrent_audit_never_exceeds_windows(self):
        clock = VirtualClock()
        rpm, tpm = 5, 400
        budget = RateBudget(rpm=rpm, tpm=tpm, clock=clock)
        stamps = []
        lock = threading.Lock()

        def worker():
            ts = budget.acquire(60)
            with lock:
                stamps.append((ts, 60))

        threads = [threading.Thread(target=worker) for _ in range(50)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(stamps) == 50
        stamps.sort()
        times = np.array([s[0] for s in stamps])
        for i, t0 in enumerate(times):
            in_window = (times >= t0) & (times < t0 + 60.0)
            assert in_window.sum() <= rpm
            assert sum(tok for ts, tok in stamps
                       if t0 <= ts < t0 + 60.0) <= tpm


def make_http(transport, tmp_path=None, clock=None):
    clock = clock or VirtualClock()
    budget = RateBudget(rpm=1000, tpm=10 ** 6, clock=clock)
    log = None if tmp_path is None else tmp_path / "calls.jsonl"
    be = HttpBackend(HttpConfig(base_url="http://x", api_key="k"), budget,
                     clock=clock, transport=transport, call_log_path=log)
    return be, clock, log


def ok_response(text="fine answer"):
    return {"choices": [{"message": {"content": text}}]}


class TestHttpBackend:
    def test_fail_twice_then_succeed(self, tmp_path):
        calls = []

        def transport(payload):
            calls.append(1)
            if len(calls) < 3:
                raise TransportError("rate limited")
            return ok_response()

        be, clock, log = make_http(transport, tmp_path)
        u = be.generate(exec_request())
        assert u.valid and len(calls) == 3
        entries = [json.loads(l) for l in open(log)]
        waits = [b["ts"] - a["ts"] for a, b in zip(entries, entries[1:])]
        assert all(10.0 <= w <= 30.0 for w in waits)
        assert waits == sorted(waits)

    def test_exhausted_retries_yield_sentinel(self):
        def transport(payload):
            raise TransportError("down")

        be, _, _ = make_http(transport)
        u = be.generate(exec_request())
        assert not u.valid and u.text == INVALID_SENTINEL
        assert u.token_count == 0

    def test_retry_cap_is_three(self):
        calls = []

        def transport(payload):
            calls.append(1)
            raise TransportError("down")

        be, _, _ = make_http(transport)
        be.generate(exec_request())
        assert len(calls) == 4  # one call plus at most three retries

    def test_malformed_response_is_sentinel_without_retry(self):
        calls = []

        def transport(payload):
            calls.append(1)
            return {"unexpected": True}

        be, _, _ = make_http(transport)
        u = be.generate(exec_request())
        assert not u.valid and len(calls) == 1

    def test_payload_carries_prompt_embedding(self):
        seen = {}

        def transport(payload):
            seen.update(payload)
            return ok_response()

        be, _, _ = make_http(transport)
        be.generate(exec_request(temp=1.3, pen=0.6))
        assert seen["temperature"] == pytest.approx(1.3)
        assert seen["repetition_penalty"] == pytest.approx(0.6)
        assert seen["max_tokens"] <= 2048

    def test_http_transport_posts_json_with_bearer_and_timeout(self, monkeypatch):
        import urllib.request

        sent = {}

        class Response:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def read(self):
                return json.dumps(ok_response("from the wire")).encode()

        def urlopen(req, timeout):
            sent.update(req=req, timeout=timeout)
            return Response()

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        be = HttpBackend(HttpConfig(base_url="http://host/v1/", api_key="secret"),
                         RateBudget(rpm=10, tpm=10 ** 6, clock=VirtualClock()),
                         clock=VirtualClock())
        u = be.generate(exec_request(temp=1.3, pen=0.6, query="what?"))
        assert u.valid and u.text == "from the wire"
        req = sent["req"]
        assert req.full_url == "http://host/v1/chat/completions"
        assert req.get_method() == "POST"
        assert req.get_header("Authorization") == "Bearer secret"
        assert req.get_header("Content-type") == "application/json"
        assert sent["timeout"] == 60.0
        body = json.loads(req.data.decode())
        assert body["messages"][-1] == {"role": "user", "content": "what?"}
        assert body["temperature"] == pytest.approx(1.3)
        assert body["max_tokens"] == HttpBackend.TOKEN_BUDGET

    def test_invalid_utterance_reward_is_zero(self):
        from econ.rewards import ExactMatchEvaluator, RewardWeights, compute_breakdown

        u = Utterance.invalid(8)
        # downstream contract: the sentinel never earns reward
        assert not u.valid
        bd = compute_breakdown(np.ones(8), np.ones(8), u.text, "q", [],
                               ExactMatchEvaluator({}), RewardWeights(), 1.0)
        assert bd.r_ts == 0.0


class TestJobQueue:
    def test_results_ordered_and_complete(self):
        be = MockBackend(seed=6)
        reqs = [exec_request(query=f"q{i}") for i in range(7)]
        outs = run_jobs(reqs, be)
        assert len(outs) == 7
        solo = [be.generate(r).text for r in reqs]
        assert [u.text for u in outs] == solo

    def test_first_failure_in_job_order_reaches_caller(self):
        second_failed = threading.Event()

        class Failing(MockBackend):
            def generate(self, request):
                if request.query == "q1":
                    second_failed.wait(timeout=5.0)
                    raise RuntimeError("down at q1")
                if request.query == "q2":
                    second_failed.set()
                    raise RuntimeError("down at q2")
                return super().generate(request)

        reqs = [exec_request(query=f"q{i}") for i in range(7)]
        with pytest.raises(RuntimeError, match="down at q1"):
            run_jobs(reqs, Failing(seed=6))

    def test_run_concurrently_joins_every_call_before_raising(self):
        finished = []

        def fail():
            raise KeyError("first")

        def slow():
            time.sleep(0.05)
            finished.append("slow")
            return 1

        with pytest.raises(KeyError, match="first"):
            run_concurrently([fail, slow])
        assert finished == ["slow"]
        assert run_concurrently([lambda: 1, lambda: 2]) == [1, 2]
