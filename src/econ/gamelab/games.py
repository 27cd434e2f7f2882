"""Finite Bayesian games with exact-enumeration payoff evaluation, a
best-response / exploitability oracle and a grid-refinement equilibrium
search for small games (<= 3 players, <= 3 actions, <= 2 types)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np


class GameFormatError(ValueError):
    """Malformed game definition file."""


@dataclass
class FiniteBayesianGame:
    """N-player incomplete-information game in tabular form.

    `prior` is the joint distribution over type profiles, shape
    (|T_1|, ..., |T_N|). `payoffs` holds every player's utility for every
    (type profile, action profile), shape
    (|T_1|, ..., |T_N|, |A_1|, ..., |A_N|, N).
    """

    name: str
    types: list
    actions: list
    prior: np.ndarray
    payoffs: np.ndarray
    r_max: float = 1.0

    def __post_init__(self):
        self.prior = np.asarray(self.prior, dtype=np.float64)
        self.payoffs = np.asarray(self.payoffs, dtype=np.float64)
        n = self.n_players
        if len(self.actions) != n:
            raise GameFormatError("types/actions player count mismatch")
        tshape = tuple(len(t) for t in self.types)
        ashape = tuple(len(a) for a in self.actions)
        if self.prior.shape != tshape:
            raise GameFormatError(f"prior shape {self.prior.shape} != {tshape}")
        if self.payoffs.shape != tshape + ashape + (n,):
            raise GameFormatError("payoff tensor shape mismatch")
        if abs(self.prior.sum() - 1.0) > 1e-9 or (self.prior < 0).any():
            raise GameFormatError("prior must be a distribution summing to 1")
        if np.abs(self.payoffs).max() > self.r_max + 1e-9:
            raise GameFormatError(f"payoff magnitude exceeds bound {self.r_max}")

    @property
    def n_players(self) -> int:
        return len(self.types)

    @property
    def type_shape(self) -> tuple:
        return tuple(len(t) for t in self.types)

    def payoff_sum_constant(self, tol: float = 1e-9):
        """The game's constant sum, or None if payoff totals vary."""
        totals = self.payoffs.sum(axis=-1)
        if totals.max() - totals.min() <= tol:
            return float(totals.flat[0])
        return None


class MixedStrategyProfile:
    """Per player, per type, a distribution over that player's actions."""

    def __init__(self, strategies: list):
        self.strategies = [np.asarray(s, dtype=np.float64) for s in strategies]
        for s in self.strategies:
            if s.ndim != 2:
                raise ValueError("each strategy must be (n_types, n_actions)")
            if (s < -1e-12).any() or np.abs(s.sum(axis=1) - 1.0).max() > 1e-9:
                raise ValueError("strategy rows must be distributions summing to 1")

    @classmethod
    def uniform(cls, game: FiniteBayesianGame) -> "MixedStrategyProfile":
        return cls([
            np.full((len(game.types[i]), len(game.actions[i])),
                    1.0 / len(game.actions[i]))
            for i in range(game.n_players)
        ])

    @classmethod
    def pure(cls, game: FiniteBayesianGame, choices: list) -> "MixedStrategyProfile":
        """choices[i][k] is player i's action index when of type k."""
        strats = []
        for i in range(game.n_players):
            s = np.zeros((len(game.types[i]), len(game.actions[i])))
            for k, a in enumerate(choices[i]):
                s[k, a] = 1.0
            strats.append(s)
        return cls(strats)

    def replace(self, i: int, strategy: np.ndarray) -> "MixedStrategyProfile":
        strats = [s.copy() for s in self.strategies]
        strats[i] = np.asarray(strategy, dtype=np.float64)
        return MixedStrategyProfile(strats)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.strategies[i]

    def __len__(self):
        return len(self.strategies)


@dataclass
class ExploitabilityReport:
    gains: np.ndarray      # per-player best-response gain
    max_gain: float

    def __post_init__(self):
        self.gains = np.asarray(self.gains, dtype=np.float64)
        if (self.gains < -1e-9).any():
            raise ValueError("best-response gains cannot be negative")


# -- evaluation -------------------------------------------------------------


def expected_payoff(game: FiniteBayesianGame, profile: MixedStrategyProfile,
                    i: int) -> float:
    """Exact enumeration over type and action profiles."""
    total = 0.0
    for theta in np.ndindex(game.type_shape):
        p_theta = game.prior[theta]
        if p_theta == 0.0:
            continue
        # joint action distribution = outer product of per-player rows
        rows = [profile[j][theta[j]] for j in range(game.n_players)]
        joint = rows[0]
        for r in rows[1:]:
            joint = np.multiply.outer(joint, r)
        total += p_theta * float((joint * game.payoffs[theta + (...,)][..., i]).sum())
    return total


def best_response(game: FiniteBayesianGame, i: int,
                  profile: MixedStrategyProfile) -> tuple[np.ndarray, float]:
    """Per type of player i, the argmax pure action against the others'
    strategies in `profile` (ties resolve to the lowest action index).
    Returns (pure strategy, its ex-ante expected value)."""
    n_types = len(game.types[i])
    n_actions = len(game.actions[i])
    br = np.zeros((n_types, n_actions))
    value = 0.0
    marginal = game.prior.sum(axis=tuple(j for j in range(game.n_players) if j != i))
    for ti in range(n_types):
        if marginal[ti] == 0.0:
            br[ti, 0] = 1.0
            continue
        scores = np.zeros(n_actions)
        for theta in np.ndindex(game.type_shape):
            if theta[i] != ti or game.prior[theta] == 0.0:
                continue
            w = game.prior[theta]
            rows = [profile[j][theta[j]] for j in range(game.n_players) if j != i]
            pay = game.payoffs[theta + (...,)][..., i]
            for ai in range(n_actions):
                slab = np.take(pay, ai, axis=i)
                joint = np.array(1.0)
                for r in rows:
                    joint = np.multiply.outer(joint, r)
                scores[ai] += w * float((joint * slab).sum())
        a_star = int(np.argmax(scores))
        br[ti, a_star] = 1.0
        value += scores[a_star]
    return br, value


def exploitability(game: FiniteBayesianGame,
                   profile: MixedStrategyProfile) -> ExploitabilityReport:
    gains = np.zeros(game.n_players)
    for i in range(game.n_players):
        _, br_value = best_response(game, i, profile)
        gains[i] = max(br_value - expected_payoff(game, profile, i), 0.0)
    return ExploitabilityReport(gains, float(gains.max()))


# -- equilibrium search -----------------------------------------------------


def simplex_grid(n: int, step: float) -> list[np.ndarray]:
    """All points of the (n-1)-simplex with coordinates in multiples of step."""
    k = int(round(1.0 / step))

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for tail in compositions(total - head, parts - 1):
                yield (head,) + tail

    return [np.array(c, dtype=np.float64) / k for c in compositions(k, n)]


def _simplex_neighbors(point: np.ndarray, step: float) -> list[np.ndarray]:
    """The point plus probability-mass transfers of one step between any
    coordinate pair (staying inside the simplex)."""
    out = [point]
    n = point.size
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            if point[b] >= step - 1e-12:
                q = point.copy()
                q[a] += step
                q[b] -= step
                out.append(q)
    return out


def _slots(game: FiniteBayesianGame) -> list[tuple[int, int]]:
    return [(i, t) for i in range(game.n_players)
            for t in range(len(game.types[i]))]


def _profile_from_slots(game, slot_points) -> MixedStrategyProfile:
    strats = []
    idx = 0
    for i in range(game.n_players):
        rows = []
        for _ in range(len(game.types[i])):
            rows.append(slot_points[idx])
            idx += 1
        strats.append(np.stack(rows))
    return MixedStrategyProfile(strats)


BNE_COARSE_STEP = 0.25
BNE_KEEP = 8


def brute_force_bne(game: FiniteBayesianGame,
                    rho: float = 0.01) -> tuple[MixedStrategyProfile, dict]:
    """Grid search over strategy simplices minimizing exploitability.

    A grid of step BNE_COARSE_STEP seeds the best BNE_KEEP candidates,
    then each is hill-descended with shrinking probability-mass steps down
    to rho. The certificate records the achieved exploitability against the
    tolerance derived from the resolution; if the tolerance is out of
    reach at this rho the best profile found is returned with a flag.
    """
    if rho <= 0 or rho > BNE_COARSE_STEP:
        raise ValueError(f"rho must lie in (0, {BNE_COARSE_STEP}]")
    slots = _slots(game)
    per_slot = [simplex_grid(len(game.actions[i]), BNE_COARSE_STEP) for i, _ in slots]

    scored = []
    for combo in itertools.product(*per_slot):
        prof = _profile_from_slots(game, combo)
        scored.append((exploitability(game, prof).max_gain, combo))
    scored.sort(key=lambda x: x[0])
    candidates = scored[:BNE_KEEP]

    best_val, best_combo = candidates[0]
    for start_val, combo in candidates:
        combo = list(combo)
        val = start_val
        step = BNE_COARSE_STEP
        while step > rho / 2:
            improved = True
            while improved:
                improved = False
                for s in range(len(slots)):
                    for nb in _simplex_neighbors(combo[s], step):
                        trial = list(combo)
                        trial[s] = nb
                        v = exploitability(game, _profile_from_slots(game, trial)).max_gain
                        if v < val - 1e-12:
                            val, combo = v, trial
                            improved = True
            step /= 2.0
        if val < best_val:
            best_val, best_combo = val, combo

    profile = _profile_from_slots(game, list(best_combo))
    tolerance = 4.0 * game.r_max * rho
    return profile, {
        "exploitability": float(best_val),
        "tolerance": float(tolerance),
        "resolution": float(rho),
        "reached": bool(best_val <= tolerance),
    }


# -- definition files -------------------------------------------------------


def _number(kind, text: str, what: str):
    """`kind(text)`; text that is not a number is a format error."""
    try:
        return kind(text)
    except ValueError:
        raise GameFormatError(f"cannot parse {what} from {text.strip()!r}") from None


def parse_game(text: str) -> FiniteBayesianGame:
    """Parse the sectioned plain-text game format.

    Header lines `name = ...` and `players = N`, then [types], [actions],
    [prior] and [payoffs] sections; see the shipped .game files.
    """
    name = "game"
    n_players = None
    section = None
    types: dict = {}
    actions: dict = {}
    prior_lines: list = []
    payoff_lines: list = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("types", "actions", "prior", "payoffs"):
                raise GameFormatError(f"unknown section [{section}]")
            continue
        if section is None:
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key == "name":
                name = value
            elif key == "players":
                n_players = _number(int, value, "players")
            else:
                raise GameFormatError(f"unknown header key '{key}'")
        elif section in ("types", "actions"):
            who, _, names = line.partition(":")
            target = types if section == "types" else actions
            target[_number(int, who, "player index")] = names.split()
        elif section == "prior":
            lhs, _, rhs = line.partition("=")
            prior_lines.append((lhs.split(), _number(float, rhs, "prior probability")))
        else:
            lhs, _, rhs = line.partition("=")
            tpart, _, apart = lhs.partition("|")
            payoff_lines.append((tpart.split(), apart.split(),
                                 [_number(float, x, "payoff") for x in rhs.split()]))

    if n_players is None:
        raise GameFormatError("missing 'players' header")
    try:
        type_lists = [types[i] for i in range(n_players)]
        action_lists = [actions[i] for i in range(n_players)]
    except KeyError as exc:
        raise GameFormatError(f"missing types/actions for player {exc}") from None

    def indices(names, lists, what):
        if len(names) != n_players:
            raise GameFormatError(f"{what} entry needs {n_players} names")
        out = []
        for i, nm in enumerate(names):
            if nm not in lists[i]:
                raise GameFormatError(f"unknown {what} name '{nm}' for player {i}")
            out.append(lists[i].index(nm))
        return tuple(out)

    tshape = tuple(len(t) for t in type_lists)
    ashape = tuple(len(a) for a in action_lists)
    prior = np.zeros(tshape)
    for names, p in prior_lines:
        prior[indices(names, type_lists, "type")] = p
    payoffs = np.full(tshape + ashape + (n_players,), np.nan)
    for tnames, anames, us in payoff_lines:
        if len(us) != n_players:
            raise GameFormatError("payoff entry needs one utility per player")
        payoffs[indices(tnames, type_lists, "type")
                + indices(anames, action_lists, "action")] = us
    if np.isnan(payoffs).any():
        raise GameFormatError("payoff table is incomplete")
    return FiniteBayesianGame(name, type_lists, action_lists, prior, payoffs)


def load_game(path) -> FiniteBayesianGame:
    with open(path, encoding="utf-8") as fh:
        return parse_game(fh.read())


def _shipped_games_dir():
    from importlib import resources

    return resources.files("econ.gamelab") / "games"


def shipped_game_path(stem: str):
    return _shipped_games_dir() / f"{stem}.game"


def shipped_game_names() -> list[str]:
    return sorted(p.name.removesuffix(".game") for p in _shipped_games_dir().iterdir()
                  if p.name.endswith(".game"))


def load_shipped_game(stem: str) -> FiniteBayesianGame:
    return parse_game(shipped_game_path(stem).read_text())
