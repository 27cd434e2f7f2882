import csv
import json

import pytest

from econ.config import (
    ConfigError,
    METRICS_COLUMNS,
    MetricsRow,
    RunConfig,
    config_hash,
    config_text,
    emit_metrics,
    load_config,
    parse_config,
    save_config,
    subsystem_seed,
    write_manifest,
)


class TestParsing:
    def test_empty_text_yields_defaults(self):
        cfg = parse_config("")
        assert cfg.gamma == 0.99
        assert cfg.buffer == 32
        assert cfg.batch == 16
        assert cfg.eta == 0.001
        assert cfg.alpha == (0.4, 0.4, 0.2)
        assert cfg.tau_soft == 0.01
        assert cfg.r_threshold == 0.7
        assert cfg.patience == 5

    def test_out_of_range_names_the_key(self):
        with pytest.raises(ConfigError, match="gamma"):
            parse_config("[training]\ngamma = 1.5\n")

    def test_alpha_override(self):
        cfg = parse_config("[rewards]\nalpha = 0.3 0.5 0.2\n")
        assert cfg.alpha == (0.3, 0.5, 0.2)

    def test_alpha_comma_separated(self):
        cfg = parse_config("alpha = 0.3, 0.5, 0.2")
        assert cfg.alpha == (0.3, 0.5, 0.2)

    def test_alpha_must_be_simplex(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config("alpha = 0.5 0.5 0.5")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("learning_rate = 0.1")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[optimizer]\n")

    def test_unparseable_value(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config("episodes = many")

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# a comment\n\nseed = 9  # trailing\n")
        assert cfg.seed == 9

    def test_batch_cannot_exceed_buffer(self):
        with pytest.raises(ConfigError, match="batch"):
            parse_config("[training]\nbuffer = 8\nbatch = 16\n")

    def test_heads_must_divide_d(self):
        with pytest.raises(ConfigError, match="heads"):
            parse_config("[model]\nheads = 3\n")

    def test_backend_enum(self):
        for backend in ("carrier_pigeon", "http", "scripted"):
            with pytest.raises(ConfigError, match="backend"):
                parse_config(f"backend = {backend}")
        assert parse_config("backend = mock").backend == "mock"

    def test_prompt_box_ordering(self):
        with pytest.raises(ConfigError, match="t_min"):
            parse_config("[model]\nt_min = 2.0\nt_max = 0.5\n")

    def test_key_in_wrong_section_rejected(self):
        with pytest.raises(ConfigError, match="'seed' belongs in \\[run\\]"):
            parse_config("[stopping]\nseed = 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key 'seed'"):
            parse_config("seed = 4\n[run]\nseed = 5\nseed = 6\n")

    def test_max_rounds_above_one_rejected(self):
        with pytest.raises(ConfigError, match="max_rounds"):
            parse_config("[run]\nmax_rounds = 2")


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        cfg = RunConfig(seed=11, episodes=250, agents=5, eta=0.0033,
                        alpha=(0.25, 0.25, 0.5), gamma=0.95, eps_l=3e-6)
        path = tmp_path / "run.cfg"
        save_config(cfg, path)
        back = load_config(path)
        assert back == cfg

    def test_hash_tracks_content(self):
        a = RunConfig()
        b = RunConfig(seed=1)
        assert config_hash(a) == config_hash(RunConfig())
        assert config_hash(a) != config_hash(b)

    def test_canonical_text_parses(self):
        cfg = RunConfig(episodes=7)
        assert parse_config(config_text(cfg)) == cfg


class TestSeeds:
    def test_known_offsets(self):
        assert subsystem_seed(0, "init") == 101
        assert subsystem_seed(3, "generation") == 3211
        assert subsystem_seed(1, "cluster") == 1503
        assert subsystem_seed(2, "global-mixing") == 2601

    def test_distinct_across_subsystems_and_masters(self):
        names = ("init", "generation", "cluster", "global-mixing")
        seeds = {subsystem_seed(m, s) for m in range(50) for s in names}
        assert len(seeds) == 50 * len(names)

    def test_unknown_subsystem(self):
        with pytest.raises(ValueError):
            subsystem_seed(0, "plotting")


def sample_rows(n=5):
    return [MetricsRow(episode=i, l_td=1.0 / (i + 1), l_e=0.2, l_mix=0.3,
                       l_tot=0.5 + i, mean_r=0.6, delta_c=0.01 * i,
                       stopped=int(i == n - 1), tokens=10 * i)
            for i in range(n)]


class TestMetrics:
    def test_round_trip(self, tmp_path):
        rows = sample_rows()
        path = tmp_path / "metrics.csv"
        emit_metrics(rows, path)
        with open(path, newline="") as fh:
            back = list(csv.DictReader(fh))
        assert len(back) == len(rows)
        for a, b in zip(rows, back):
            assert a.episode == int(b["episode"])
            assert a.l_td == pytest.approx(float(b["l_td"]), rel=1e-9)
            assert a.stopped == int(b["stopped"])
            assert a.tokens == int(b["tokens"])

    def test_header_only_for_zero_rows(self, tmp_path):
        path = tmp_path / "metrics.csv"
        emit_metrics([], path)
        assert path.read_text().strip() == ",".join(METRICS_COLUMNS)

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_metrics(sample_rows(), a)
        emit_metrics(sample_rows(), b)
        assert a.read_bytes() == b.read_bytes()


class TestManifest:
    def test_contents(self, tmp_path):
        cfg = RunConfig(seed=4)
        path = tmp_path / "manifest.json"
        write_manifest(path, cfg, "train")
        data = json.loads(path.read_text())
        assert data["command"] == "train"
        assert data["seed"] == 4
        assert data["config_hash"] == config_hash(cfg)
        assert data["config"]["gamma"] == 0.99
        assert "code_version" in data
