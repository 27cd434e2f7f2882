import numpy as np
import pytest

from econ.gamelab import (
    DebateLearner,
    EconGameLearner,
    FiniteBayesianGame,
    GameFormatError,
    MixedStrategyProfile,
    best_response,
    brute_force_bne,
    expected_payoff,
    exploitability,
    fit_regret_exponent,
    learning_rate,
    load_shipped_game,
    parse_game,
    run_debate,
    run_econ,
    simplex_grid,
)


@pytest.fixture(scope="module")
def pennies():
    return load_shipped_game("matching_pennies")


@pytest.fixture(scope="module")
def typed_pennies():
    return load_shipped_game("matching_pennies_typed")


@pytest.fixture(scope="module")
def coordination():
    return load_shipped_game("coordination_typed")


@pytest.fixture(scope="module")
def dominant():
    return load_shipped_game("dominant_three")


def two_type_game():
    """2 types per player, type-independent payoffs: must reduce to the
    single-type game."""
    base = np.array([[[1.0, -1.0], [-1.0, 1.0]],
                     [[-1.0, 1.0], [1.0, -1.0]]])
    payoffs = np.zeros((2, 2, 2, 2, 2))
    for t0 in range(2):
        for t1 in range(2):
            payoffs[t0, t1] = base
    return FiniteBayesianGame(
        "reduced", [["a", "b"], ["a", "b"]], [["h", "t"], ["h", "t"]],
        np.full((2, 2), 0.25), payoffs)


class TestGameParsing:
    def test_shipped_games_load(self, pennies, typed_pennies, coordination, dominant):
        assert pennies.n_players == 2
        assert typed_pennies.type_shape == (2, 2)
        assert dominant.n_players == 3

    def test_unknown_section(self):
        with pytest.raises(GameFormatError, match="unknown section"):
            parse_game("players = 2\n[bogus]\n")

    def test_missing_payoff_entries(self):
        text = """players = 2
[types]
0: t
1: t
[actions]
0: a b
1: a b
[prior]
t t = 1.0
[payoffs]
t t | a a = 0 0
"""
        with pytest.raises(GameFormatError, match="incomplete"):
            parse_game(text)

    def test_prior_must_sum_to_one(self, pennies):
        with pytest.raises(GameFormatError, match="prior"):
            FiniteBayesianGame("bad", pennies.types, pennies.actions,
                               np.array([[0.5]]), pennies.payoffs)

    def test_payoff_bound_enforced(self, pennies):
        with pytest.raises(GameFormatError, match="magnitude"):
            FiniteBayesianGame("bad", pennies.types, pennies.actions,
                               pennies.prior, pennies.payoffs * 3.0)

    def test_profile_rows_validated(self, pennies):
        with pytest.raises(ValueError):
            MixedStrategyProfile([np.array([[0.7, 0.7]]), np.array([[0.5, 0.5]])])


class TestExpectedPayoff:
    def test_uniform_pennies_is_zero(self, pennies):
        u = MixedStrategyProfile.uniform(pennies)
        assert expected_payoff(pennies, u, 0) == pytest.approx(0.0, abs=1e-12)
        assert expected_payoff(pennies, u, 1) == pytest.approx(0.0, abs=1e-12)

    def test_pure_profile_reads_tensor_entry(self, pennies):
        p = MixedStrategyProfile.pure(pennies, [[0], [1]])
        assert expected_payoff(pennies, p, 0) == pytest.approx(-1.0)
        assert expected_payoff(pennies, p, 1) == pytest.approx(1.0)

    def test_type_independent_reduces_to_single_type(self, pennies):
        g2 = two_type_game()
        for strat0, strat1 in [((0.3, 0.7), (0.6, 0.4)), ((1.0, 0.0), (0.0, 1.0))]:
            p2 = MixedStrategyProfile([np.tile(strat0, (2, 1)), np.tile(strat1, (2, 1))])
            p1 = MixedStrategyProfile([np.array([strat0]), np.array([strat1])])
            assert expected_payoff(g2, p2, 0) == pytest.approx(
                expected_payoff(pennies, p1, 0))

    def test_multilinearity_interpolation(self, pennies):
        rng = np.random.default_rng(0)
        a = rng.dirichlet(np.ones(2))
        b = rng.dirichlet(np.ones(2))
        other = MixedStrategyProfile([np.array([a]), np.array([rng.dirichlet(np.ones(2))])])
        vals = []
        for lam in (0.0, 0.5, 1.0):
            mix = lam * a + (1 - lam) * b
            prof = other.replace(0, np.array([mix]))
            vals.append(expected_payoff(pennies, prof, 0))
        assert vals[1] == pytest.approx(0.5 * (vals[0] + vals[2]), abs=1e-12)

    def test_zero_sum_invariant(self, pennies, typed_pennies):
        rng = np.random.default_rng(1)
        for game in (pennies, typed_pennies):
            for _ in range(20):
                prof = MixedStrategyProfile([
                    rng.dirichlet(np.ones(2), size=len(game.types[i]))
                    for i in range(2)])
                total = sum(expected_payoff(game, prof, i) for i in range(2))
                assert abs(total) < 1e-9


class TestBestResponse:
    def test_dominant_reply(self, pennies):
        opp_heads = MixedStrategyProfile.pure(pennies, [[0], [0]])
        br, value = best_response(pennies, 0, opp_heads)
        assert br[0, 0] == 1.0
        assert value == pytest.approx(1.0)

    def test_tie_picks_lowest_index(self):
        payoffs = np.zeros((1, 1, 2, 2, 2))
        g = FiniteBayesianGame("flat", [["t"], ["t"]], [["a", "b"], ["a", "b"]],
                               np.array([[1.0]]), payoffs)
        br, _ = best_response(g, 0, MixedStrategyProfile.uniform(g))
        assert br[0, 0] == 1.0

    def test_br_dominates_random_strategies(self, typed_pennies):
        rng = np.random.default_rng(2)
        others = MixedStrategyProfile([
            rng.dirichlet(np.ones(2), size=2), rng.dirichlet(np.ones(2), size=2)])
        _, br_value = best_response(typed_pennies, 0, others)
        for _ in range(100):
            s = rng.dirichlet(np.ones(2), size=2)
            v = expected_payoff(typed_pennies, others.replace(0, s), 0)
            assert br_value >= v - 1e-9


class TestExploitability:
    def test_equilibrium_is_unexploitable(self, pennies):
        rep = exploitability(pennies, MixedStrategyProfile.uniform(pennies))
        assert rep.max_gain == pytest.approx(0.0, abs=1e-9)

    def test_pure_pennies_gain_two(self, pennies):
        rep = exploitability(pennies, MixedStrategyProfile.pure(pennies, [[0], [0]]))
        assert rep.max_gain == pytest.approx(2.0)

    def test_gains_nonnegative(self, typed_pennies):
        rng = np.random.default_rng(3)
        for _ in range(20):
            prof = MixedStrategyProfile([
                rng.dirichlet(np.ones(2), size=2) for _ in range(2)])
            rep = exploitability(typed_pennies, prof)
            assert (rep.gains >= -1e-9).all()


class TestBneOracle:
    def test_simplex_grid_counts(self):
        assert len(simplex_grid(2, 0.25)) == 5
        assert len(simplex_grid(3, 0.5)) == 6
        for p in simplex_grid(3, 0.25):
            assert p.sum() == pytest.approx(1.0)

    def test_pennies_mixed_equilibrium(self, pennies):
        prof, cert = brute_force_bne(pennies, rho=0.01)
        for i in range(2):
            np.testing.assert_allclose(prof[i][0], [0.5, 0.5], atol=0.01)
        assert cert["reached"]

    def test_dominant_game_pure_profile(self, dominant):
        prof, cert = brute_force_bne(dominant, rho=0.05)
        assert cert["exploitability"] == pytest.approx(0.0, abs=1e-9)
        for i in range(3):
            assert prof[i][0, 0] == pytest.approx(1.0)

    def test_two_type_battle_of_sexes_variant(self):
        # coordination with opposed venue preferences, sharpened per type
        payoffs = np.zeros((2, 2, 2, 2, 2))
        for t0 in range(2):
            for t1 in range(2):
                base = np.array([[[0.6, 0.3], [0.0, 0.0]],
                                 [[0.0, 0.0], [0.3, 0.6]]])
                bonus0 = 0.2 if t0 == 0 else 0.0
                bonus1 = 0.2 if t1 == 1 else 0.0
                base[0, :, 0] += bonus0
                base[:, 1, 1] += bonus1
                payoffs[t0, t1] = base
        g = FiniteBayesianGame(
            "bos", [["x", "y"], ["x", "y"]], [["A", "B"], ["A", "B"]],
            np.full((2, 2), 0.25), payoffs)
        _, cert = brute_force_bne(g, rho=0.01)
        assert cert["exploitability"] <= 0.05

    def test_rho_validated(self, pennies):
        with pytest.raises(ValueError):
            brute_force_bne(pennies, rho=0.0)


class TestSchedules:
    def test_learning_rate_examples(self):
        assert learning_rate(1) == pytest.approx(0.5)
        assert learning_rate(4) == pytest.approx(0.25)
        with pytest.raises(ValueError):
            learning_rate(0)

    def test_robbins_monro_partial_sums(self):
        eta0 = 0.5
        ts = np.arange(1, 10_001)
        etas = eta0 / np.sqrt(ts)
        assert np.all(np.diff(etas) < 0)
        assert etas.sum() > 50.0  # diverging partial sums
        assert (etas ** 2).sum() <= 1 + eta0 ** 2 * (1 + np.log(len(ts)))


class TestLearners:
    def test_econ_converges_on_dominant_game(self, dominant):
        learner, _ = run_econ(dominant, 400, seed=0)
        greedy = learner.greedy_profile()
        for i in range(3):
            assert greedy[i][0, 0] == 1.0
        assert exploitability(dominant, greedy).max_gain == pytest.approx(0.0, abs=1e-9)

    def test_regret_trace_nondecreasing(self, typed_pennies):
        _, trace = run_econ(typed_pennies, 300, seed=1)
        assert (np.diff(trace.total) >= -1e-12).all()
        assert (np.diff(trace.per_agent, axis=0) >= -1e-12).all()

    def test_debate_requires_constant_sum(self, coordination):
        with pytest.raises(ValueError, match="constant-sum"):
            DebateLearner(coordination)

    def test_debate_cycles_on_pennies(self, pennies):
        learner = DebateLearner(pennies, seed=0)
        actions = [learner.step(t)[0] for t in range(1, 201)]
        a0 = np.array([a[0] for a in actions])
        # sign flips in the matcher's play confirm cycling, not convergence
        flips = (np.diff(a0) != 0).sum()
        assert flips >= 10

    def test_debate_steady_state_regret_positive(self, pennies):
        _, trace = run_debate(pennies, 500, seed=0)
        per_step = np.diff(trace.total)
        tail = per_step[int(0.8 * len(per_step)):]
        assert tail.mean() > 0.1

    def test_constant_sum_every_step(self, typed_pennies):
        learner = EconGameLearner(typed_pennies, seed=2)
        for t in range(1, 50):
            actions, _ = learner.step(t)
            # realized payoffs on any sampled outcome sum to the game constant
        const = typed_pennies.payoff_sum_constant()
        assert const == pytest.approx(0.0)

    def test_trace_csv_round_trip(self, typed_pennies, tmp_path):
        import csv

        _, trace = run_econ(typed_pennies, 120, seed=3)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 120
        assert float(rows[-1]["total"]) == pytest.approx(trace.total[-1], rel=1e-9)


class TestRegretFit:
    def test_sqrt_curve(self):
        ts = np.arange(1, 2001)
        fit = fit_regret_exponent(3.0 * np.sqrt(ts))
        assert fit.b == pytest.approx(0.5, abs=0.02)
        assert not fit.shifted

    def test_linear_curve(self):
        ts = np.arange(1, 2001)
        fit = fit_regret_exponent(2.0 * ts)
        assert fit.b == pytest.approx(1.0, abs=0.02)
        assert fit.a == pytest.approx(2.0, rel=0.05)

    def test_nonpositive_values_shifted_and_flagged(self):
        trace = np.linspace(-5.0, 1.0, 300)
        fit = fit_regret_exponent(trace)
        assert fit.shifted

    def test_short_trace_rejected(self):
        with pytest.raises(ValueError):
            fit_regret_exponent(np.arange(50, dtype=float))
