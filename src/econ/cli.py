"""Command-line surface: train, eval, hier and game-lab."""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .gamelab.learners import MIN_FIT_STEPS

QUESTIONS = tuple(f"question-{i}" for i in range(8))


def mock_backends(cfg, extra: int = 0):
    """A coordinator and `cfg.agents + extra` mock agents, all seeded from
    the config's generation seed."""
    from .backends import MockBackend
    from .config import subsystem_seed

    gen_seed = subsystem_seed(cfg.seed, "generation")
    coordinator = MockBackend(seed=gen_seed)
    agents = [MockBackend(seed=gen_seed + 1 + i)
              for i in range(cfg.agents + extra)]
    return coordinator, agents


def _not_utf8(exc: UnicodeDecodeError) -> str:
    return f"not UTF-8 text (byte {exc.object[exc.start]:#04x} at offset {exc.start})"


def _load_cfg(args):
    """The run config from --config and --seed; an unreadable or invalid
    one ends the command with exit code 2 before anything is written."""
    from .config import ConfigError, RunConfig, load_config

    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg = RunConfig(**{**cfg.__dict__, "seed": args.seed})
    except OSError as exc:
        args.error(f"invalid config: cannot read {args.config}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        args.error(f"invalid config: cannot read {args.config}: {_not_utf8(exc)}")
    except ConfigError as exc:
        args.error(f"invalid config: {exc}")
    return cfg


def _at_least(minimum: int):
    """argparse type for an integer count no smaller than `minimum`."""
    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return count


def cmd_train(args) -> int:
    from .config import emit_metrics, write_manifest
    from .orchestrator import Orchestrator

    cfg = _load_cfg(args)
    os.makedirs(args.out, exist_ok=True)
    coordinator, agents = mock_backends(cfg)
    orch = Orchestrator(cfg, coordinator, agents)
    rows, _ = orch.train(QUESTIONS,
                         episode_log_path=os.path.join(args.out, "episodes.jsonl"))
    emit_metrics(rows, os.path.join(args.out, "metrics.csv"))
    write_manifest(os.path.join(args.out, "manifest.json"), cfg, "train")
    print(f"trained {len(rows)} episodes; metrics in {args.out}/metrics.csv")
    return 0


def cmd_eval(args) -> int:
    from .config import write_manifest
    from .orchestrator import Orchestrator

    cfg = _load_cfg(args)
    os.makedirs(args.out, exist_ok=True)
    coordinator, agents = mock_backends(cfg)
    orch = Orchestrator(cfg, coordinator, agents)
    rewards = []
    for ep in range(args.episodes):
        record = orch.run_inference(QUESTIONS[ep % len(QUESTIONS)])
        orch.absorb_episode(record)
        rewards.append(float(np.mean(record.rewards)))
    write_manifest(os.path.join(args.out, "manifest.json"), cfg, "eval")
    print(f"mean reward over {len(rewards)} episodes: {np.mean(rewards):.4f}")
    return 0


def cmd_hier(args) -> int:
    from .config import RunConfig, write_manifest
    from .hierarchy import MAX_CLUSTER_SIZE, HierOrchestrator

    cfg = _load_cfg(args)
    if not args.clusters <= args.agents <= MAX_CLUSTER_SIZE * args.clusters:
        args.error(f"--agents must be at least --clusters ({args.clusters}) and at most "
                   f"{MAX_CLUSTER_SIZE} per cluster ({MAX_CLUSTER_SIZE * args.clusters}), "
                   f"got {args.agents}")
    cfg = RunConfig(**{**cfg.__dict__, "agents": args.agents})
    os.makedirs(args.out, exist_ok=True)
    coordinator, backends = mock_backends(cfg, extra=args.clusters)
    agents = backends[:cfg.agents]
    locals_ = backends[cfg.agents:cfg.agents + args.clusters]
    hier = HierOrchestrator(cfg, coordinator, locals_, agents, args.clusters)
    rounds = args.rounds if args.rounds is not None else cfg.episodes
    history = hier.train(QUESTIONS, rounds=rounds,
                         round_log_path=os.path.join(args.out, "rounds.jsonl"))
    write_manifest(os.path.join(args.out, "manifest.json"), cfg, "hier")
    last = history[-1][0]
    print(f"{len(history)} rounds; last cluster rewards: "
          + " ".join(f"{r:.3f}" for r in last.cluster_rewards))
    return 0


def cmd_game_lab(args) -> int:
    from .gamelab import fit_regret_exponent, load_game, load_shipped_game, run_debate, run_econ
    from .gamelab.games import GameFormatError, shipped_game_names

    shipped = shipped_game_names()
    if os.path.exists(args.game):
        try:
            game = load_game(args.game)
        except OSError as exc:
            args.error(f"invalid game: cannot read {args.game}: {exc.strerror or exc}")
        except UnicodeDecodeError as exc:
            args.error(f"invalid game: cannot read {args.game}: {_not_utf8(exc)}")
        except GameFormatError as exc:
            args.error(f"invalid game: {exc}")
    elif args.game in shipped:
        game = load_shipped_game(args.game)
    else:
        args.error(f"--game {args.game!r} is neither a file nor a shipped game "
                   f"({', '.join(shipped)})")
    runner = run_econ if args.learner == "econ" else run_debate
    _, trace = runner(game, args.steps, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    trace_path = os.path.join(args.out, f"regret_{args.learner}.csv")
    trace.to_csv(trace_path)
    fit = fit_regret_exponent(trace.total)
    print(f"{game.name}: {args.learner} learner, {args.steps} steps, "
          f"R(T) ~ {fit.a:.3g} * T^{fit.b:.3f}; trace in {trace_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="econ",
                                description="Belief-network multi-agent coordination toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="run the training loop")
    t.add_argument("--config", default=None)
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--out", default="runs/train")
    t.set_defaults(fn=cmd_train, error=t.error)

    e = sub.add_parser("eval", help="inference-only evaluation")
    e.add_argument("--config", default=None)
    e.add_argument("--seed", type=int, default=None)
    e.add_argument("--episodes", type=_at_least(1), default=8,
                   help="inference episodes to run, in place of the config's episodes")
    e.add_argument("--out", default="runs/eval")
    e.set_defaults(fn=cmd_eval, error=e.error)

    h = sub.add_parser("hier", help="hierarchical training")
    h.add_argument("--config", default=None)
    h.add_argument("--clusters", type=_at_least(1), default=3)
    h.add_argument("--agents", type=_at_least(1), default=9,
                   help="execution agents over all clusters; replaces the config's agents")
    h.add_argument("--rounds", type=_at_least(1), default=None,
                   help="hierarchical rounds (default: the config's episodes)")
    h.add_argument("--seed", type=int, default=None)
    h.add_argument("--out", default="runs/hier")
    h.set_defaults(fn=cmd_hier, error=h.error)

    g = sub.add_parser("game-lab", help="finite-game learning and regret traces")
    g.add_argument("--game", required=True,
                   help="path to a .game file or a shipped game name")
    g.add_argument("--learner", choices=["econ", "debate"], default="econ")
    g.add_argument("--steps", type=_at_least(MIN_FIT_STEPS), default=1000,
                   help=f"learner steps (at least {MIN_FIT_STEPS}, to fit the regret exponent)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default="runs/gamelab")
    g.set_defaults(fn=cmd_game_lab, error=g.error)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
