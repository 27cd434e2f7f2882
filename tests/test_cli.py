import json

import pytest

from econ.cli import build_parser, main


@pytest.mark.parametrize("command", ["train", "eval", "hier"])
def test_non_mock_backend_refused(command, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "out"
    for backend in ("http", "scripted"):
        cfg.write_text(f"[run]\nbackend = {backend}\n")
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg), "--out", str(out)])
        assert exc.value.code == 2
        assert f"value {backend!r} for 'backend' out of range" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval", "hier"])
def test_invalid_config_exits_before_writing(command, tmp_path, capsys):
    invalid = tmp_path / "run.cfg"
    invalid.write_text("[model]\nheads = 3\n")
    missing = tmp_path / "nosuch.cfg"
    out = tmp_path / "out"
    for cfg, message in ((invalid, "heads must divide the model dimension"),
                         (missing, f"invalid config: cannot read {missing}")):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg), "--out", str(out)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


NOT_UTF8 = b"\xff[run]\nseed = 1\n"
NOT_UTF8_MESSAGE = "not UTF-8 text (byte 0xff at offset 0)"


def test_config_not_utf8_exits_before_writing(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(NOT_UTF8)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(cfg), "--out", str(out)])
    assert exc.value.code == 2
    assert f"invalid config: cannot read {cfg}: {NOT_UTF8_MESSAGE}" in capsys.readouterr().err
    assert not out.exists()


def test_game_not_utf8_exits_before_writing(tmp_path, capsys):
    game = tmp_path / "bad.game"
    game.write_bytes(NOT_UTF8)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["game-lab", "--game", str(game), "--out", str(out)])
    assert exc.value.code == 2
    assert f"invalid game: cannot read {game}: {NOT_UTF8_MESSAGE}" in capsys.readouterr().err
    assert not out.exists()


SMALL_CFG = """[run]
episodes = 3

[model]
d = 8
d_b = 4
mlp_width = 8
window = 2
grid_k = 2

[training]
buffer = 4
batch = 2
update_interval = 1
"""


@pytest.mark.parametrize("flags, rounds", [([], 3), (["--rounds", "2"], 2)],
                         ids=["default", "flag"])
def test_hier_rounds_default_to_config_episodes(flags, rounds, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG)
    out = tmp_path / "out"
    assert main(["hier", "--config", str(cfg), "--agents", "4", "--clusters", "2",
                 "--out", str(out)] + flags) == 0
    assert len((out / "rounds.jsonl").read_text().splitlines()) == rounds
    assert json.loads((out / "manifest.json").read_text())["config"]["episodes"] == rounds


def test_game_lab_unknown_game_names_shipped_games(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["game-lab", "--game", "nosuch", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "'nosuch'" in err
    for name in ("coordination_typed", "dominant_three", "matching_pennies",
                 "matching_pennies_typed"):
        assert name in err
    assert not out.exists()


INCOMPLETE_GAME = """players = 2
[types]
0: t0
1: t0
[actions]
0: a
1: a b
[prior]
t0 t0 = 1.0
[payoffs]
t0 t0 | a a = 1 -1
"""


@pytest.mark.parametrize("content, message", [
    (INCOMPLETE_GAME, "invalid game: payoff table is incomplete"),
    ("players = two\n", "invalid game: cannot parse players from 'two'"),
    (INCOMPLETE_GAME.replace("= 1 -1", "= 1 minus-one"),
     "invalid game: cannot parse payoff from 'minus-one'"),
    (None, "invalid game: cannot read"),
    ((INCOMPLETE_GAME + "t0 t0 | a b = -1 1\n").replace("t0 t0 = 1.0", "t0 t0 = nan"),
     "invalid game: prior and payoffs must be finite"),
], ids=["incomplete-payoffs", "non-integer-players", "non-numeric-payoff", "directory",
        "nan-prior"])
def test_game_lab_invalid_game_exits_before_writing(content, message, tmp_path, capsys):
    game = tmp_path / "bad.game"
    if content is None:
        game.mkdir()
    else:
        game.write_text(content)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["game-lab", "--game", str(game), "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_train_has_no_backend_flag():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["train", "--backend", "mock"])


def test_check_is_not_a_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["check"])


@pytest.mark.parametrize("argv", [
    ["eval", "--episodes", "0"],
    ["eval", "--episodes", "-3"],
    ["hier", "--rounds", "0"],
    ["hier", "--clusters", "0"],
    ["hier", "--agents", "0"],
    ["hier", "--agents", "2", "--clusters", "3"],
    ["hier", "--agents", "13", "--clusters", "3"],
    ["game-lab", "--game", "matching_pennies", "--steps", "50"],
    ["game-lab", "--game", "matching_pennies", "--steps", "99"],
])
def test_count_below_minimum_rejected(argv, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err
    assert not out.exists()


def test_eval_cycles_through_questions(tmp_path, capsys):
    assert main(["eval", "--episodes", "20", "--out", str(tmp_path / "out")]) == 0
    assert "mean reward over 20 episodes" in capsys.readouterr().out


def test_game_lab_at_minimum_steps(tmp_path):
    out = tmp_path / "out"
    assert main(["game-lab", "--game", "matching_pennies", "--steps", "100",
                 "--out", str(out)]) == 0
    assert (out / "regret_econ.csv").exists()


@pytest.mark.parametrize("game", ["coordination_typed", "dominant_three"])
def test_game_lab_debate_refuses_non_constant_sum_game(game, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["game-lab", "--game", game, "--learner", "debate", "--out", str(out)])
    assert exc.value.code == 2
    assert "invalid game: debate baseline requires a constant-sum game" in capsys.readouterr().err
    assert not out.exists()


def test_eval_manifest_records_episodes_run(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG)
    out = tmp_path / "out"
    assert main(["eval", "--config", str(cfg), "--episodes", "2", "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["episodes"] == 2
