import numpy as np
import pytest

from ddlink.config import (ConfigError, ImpairSettings, canonical_text,
                           load_spec, parse_config_text, spec_from_config)
from ddlink.modem import Waveform

MINIMAL = "experiment = ber_vs_snr\n"


class TestParsing:
    def test_minimal_config_gets_defaults(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg["experiment"] == "ber_vs_snr"
        assert cfg["trials"] == 2000
        assert cfg["frame.M"] == 32 and cfg["frame.N"] == 16
        assert cfg["waveforms"] == (Waveform.OTFS, Waveform.SC_IFDMA)
        assert cfg["sync.search_rows"] is None

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# a comment\n\nexperiment = sync_vs_snr  # trailing\n")
        assert cfg["experiment"] == "sync_vs_snr"

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2: unknown key 'frame.Q'"):
            parse_config_text(MINIMAL + "frame.Q = 3\n")

    def test_duplicate_key_reports_both_lines(self):
        with pytest.raises(ConfigError, match="line 3: duplicate key"):
            parse_config_text("experiment = ber_vs_snr\nseed = 1\nseed = 2\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError, match="line 2: bad value for trials"):
            parse_config_text(MINIMAL + "trials = many\n")

    def test_missing_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config_text("seed = 4\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("just words\n")

    def test_draw_specs(self):
        cfg = parse_config_text(MINIMAL + "impair.epsilon = uniform:-0.4:0.4\n"
                                          "impair.theta_d = 3\n")
        assert cfg["impair.epsilon"] == ("uniform", -0.4, 0.4)
        assert cfg["impair.theta_d"] == ("fixed", 3.0)

    def test_custom_taps(self):
        cfg = parse_config_text(MINIMAL + "channel.taps = 0:0:0; 300:-1.4:120.5\n")
        assert cfg["channel.taps"] == ((0.0, 0.0, 0.0), (300.0, -1.4, 120.5))

    def test_guard_pair(self):
        cfg = parse_config_text(MINIMAL + "pilot.guards = 3,2\n")
        assert cfg["pilot.guards"] == (3, 2)

    def test_waveform_subset(self):
        cfg = parse_config_text(MINIMAL + "waveforms = otfs\n")
        assert cfg["waveforms"] == (Waveform.OTFS,)

    def test_canonical_text_is_sorted_and_stable(self):
        a = canonical_text(parse_config_text(MINIMAL + "seed = 5\n"))
        b = canonical_text(parse_config_text("seed = 5\n" + MINIMAL))
        assert a == b
        keys = [line.split(" = ")[0] for line in a.strip().splitlines()]
        assert keys == sorted(keys)


class TestSpecBuilding:
    def test_spec_from_minimal(self):
        spec = spec_from_config(parse_config_text(MINIMAL))
        assert spec.kind == "ber_vs_snr"
        assert spec.frame.M == 32
        assert spec.pilot.pilot_delay == 4
        assert spec.pilot.power == pytest.approx(1000.0)
        assert spec.config_echo

    def test_pilot_fit_validated(self):
        bad = parse_config_text(MINIMAL + "pilot.m_p = 0\npilot.guards = 2,2\n")
        with pytest.raises(ConfigError, match="guard"):
            spec_from_config(bad)

    def test_custom_profile_requires_taps(self):
        cfg = parse_config_text(MINIMAL + "channel.profile = custom\n")
        with pytest.raises(ConfigError, match="channel.taps"):
            spec_from_config(cfg)

    def test_trials_positive(self):
        cfg = parse_config_text(MINIMAL + "trials = 0\n")
        with pytest.raises(ConfigError, match="trials"):
            spec_from_config(cfg)

    def test_load_spec_roundtrip(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(MINIMAL + "snr_db = 0,10\ntrials = 3\nseed = 7\n")
        spec = load_spec(str(p))
        assert spec.snr_db == (0.0, 10.0)
        assert spec.trials == 3
        assert spec.seed == 7


class TestImpairDraws:
    def test_fixed_draw(self):
        s = ImpairSettings(theta_d=("fixed", 5.0), theta_t=1, epsilon=("fixed", 0.2))
        imp = s.draw(np.random.default_rng(0))
        assert imp.timing_delay == 5 and imp.timing_blocks == 1
        assert imp.cfo == pytest.approx(0.2)

    def test_uniform_draw_in_range(self):
        s = ImpairSettings(theta_d=("uniform", 0, 7), epsilon=("uniform", -0.4, 0.4))
        g = np.random.default_rng(1)
        for _ in range(50):
            imp = s.draw(g)
            assert 0 <= imp.timing_delay <= 7
            assert -0.4 <= imp.cfo <= 0.4
