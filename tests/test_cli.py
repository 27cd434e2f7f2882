import pytest

from econ.cli import build_parser, main


@pytest.mark.parametrize("command", ["train", "eval", "hier"])
def test_non_mock_backend_refused(command, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nbackend = http\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert "backend = http" in capsys.readouterr().err
    assert not out.exists()


def test_train_has_no_backend_flag():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["train", "--backend", "mock"])
