import ast
import re
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ddlink.channel import CHANNEL_PROFILES
from ddlink.config import (EXPERIMENTS, SCHEMA, ConfigError,
                           ExperimentSpec, ImpairSettings, SyncSettings,
                           _Range, canonical_text, load_config, load_spec,
                           parse_config_text, reads, spec_from_config)
from ddlink.modem import Waveform
from strategies import PROPERTY
from test_cli import KEYS_THE_KIND_READS, committed_with
from test_golden import CASES

ROOT = Path(__file__).resolve().parents[1]
MINIMAL = "experiment = ber_vs_snr\n"

_WORDS = (*EXPERIMENTS, *CHANNEL_PROFILES, "custom", "qpsk", "16qam", "otfs",
          "sc_ifdma", "otfs,sc_ifdma", "genie", "estimated", "wrap_to_negative",
          "wrap_to_positive", "true", "false", "")


def _mostly(usual, rare):
    """``usual``, but for about one time in thirty-two ``rare``."""
    return st.integers(0, 31).flatmap(lambda i: rare if i == 31 else usual)


# numbers mostly in the ranges a spec takes, the floats always finite
_INT = _mostly(st.integers(1, 40), st.integers()).map(str)
_FLOAT = _mostly(st.floats(0.0, 1.0, exclude_min=True),
                 st.floats(-1e3, 1e3)).map(str)
_RANGE = st.lists(_FLOAT, min_size=2, max_size=2).map(
    lambda p: f"uniform:{min(p, key=float)}:{max(p, key=float)}")
# value text by parser name; the choice parsers get words (_typed)
_VALUES = {
    "int": _INT,
    "_finite": _FLOAT,
    "str": st.text(max_size=12),
    "_parse_float_list": st.lists(_FLOAT, min_size=1, max_size=4).map(",".join),
    "_parse_int_pair": _mostly(st.tuples(*[st.integers(0, 3).map(str)] * 2),
                               st.lists(_INT, max_size=3)).map(",".join),
    "_parse_draw": st.one_of(_FLOAT, _RANGE),
    "_parse_offset_draw": st.one_of(
        _INT, _INT.map(lambda i: f"uniform:0:{i}"), _FLOAT, _RANGE),
    "_parse_taps": st.lists(st.tuples(_FLOAT, _FLOAT, _FLOAT).map(":".join),
                            max_size=3).map(";".join),
    "_parse_user_bins": st.lists(
        st.tuples(*[st.lists(_INT, max_size=4).map(",".join)] * 2).map(":".join),
        max_size=3).map(";".join),
}


def _typed(key):
    """Well-formed value text for ``key``, in range or not: a key with a
    physical range mostly takes a float in it, and a choice key one of its
    own words; now and then either takes any float or word."""
    parse = SCHEMA[key].parse
    if isinstance(parse, _Range):
        return _mostly(st.floats(parse.lo, parse.hi).map(str), _FLOAT)
    if parse.__name__ in _VALUES:
        return _VALUES[parse.__name__]
    own = [w for w in _WORDS if _parses(f"{key} = {w}")]
    return _mostly(st.sampled_from(own), st.sampled_from(_WORDS))


@st.composite
def config_texts(draw):
    """An experiment line and lines over the schema's other keys, each
    value well-formed for its key, mostly in range, or, about one time in
    thirty-two, garbage."""
    keys = draw(st.lists(st.sampled_from(sorted(set(SCHEMA) - {"experiment"})),
                         unique=True, max_size=10))
    lines = [f"{key} = {draw(_mostly(_typed(key), st.text(max_size=12)))}"
             for key in ["experiment", *keys]]
    return "\n".join(lines) + "\n"


def _parses(line):
    """Whether ``line`` is ``key = value`` with a value its key's parser
    takes and no comment in it."""
    key, _, value = line.partition(" = ")
    try:
        SCHEMA[key].parse(value)
    except (KeyError, ValueError, TypeError):
        return False
    return "#" not in value


def _settings_of(kind):
    """Specs of ``kind``, one per setting of sync.enabled, detector.csi and
    a named or a custom profile: the settings the table's keys are read
    on."""
    return [spec_from_config(parse_config_text(
        f"experiment = {kind}\nsync.enabled = {enabled}\ndetector.csi = {csi}\n"
        f"channel.profile = {profile}\nchannel.taps = 0:0:0\n"))
        for enabled in ("false", "true") for csi in ("genie", "estimated")
        for profile in ("eva3", "custom")]


class TestParsing:
    def test_minimal_config_gets_defaults(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg["experiment"] == "ber_vs_snr"
        assert cfg["trials"] == 2000
        assert cfg["frame.M"] == 32 and cfg["frame.N"] == 16
        assert cfg["waveforms"] == (Waveform.OTFS, Waveform.SC_IFDMA)

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# a comment\n\nexperiment = sync_vs_snr  # trailing\n")
        assert cfg["experiment"] == "sync_vs_snr"

    # str.splitlines ends a line at each of these; a file read in text
    # mode does not
    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                      "\x85", "\u2028", "\u2029"])
    def test_a_comment_runs_to_the_end_of_its_line(self, char):
        cfg = parse_config_text(f"experiment = ber_vs_snr  # note{char}continued\n"
                                f"seed = 3\n")
        assert cfg["experiment"] == "ber_vs_snr" and cfg["seed"] == 3

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_lines_end_where_a_file_read_in_text_mode_ends_them(self, end):
        with pytest.raises(ConfigError, match="line 3: duplicate key 'seed'"):
            parse_config_text(end.join(["experiment = ber_vs_snr", "seed = 1",
                                        "seed = 2", ""]))

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
        with pytest.raises(ConfigError, match=r"^line 1: expected 'key = value', "
                                              r"got 'just words'$"):
            parse_config_text("just words\n")

    def test_draw_specs(self):
        cfg = parse_config_text(MINIMAL + "impair.epsilon = uniform:-0.4:0.4\n"
                                          "impair.theta_d = 3\n")
        assert cfg["impair.epsilon"] == ("uniform", -0.4, 0.4)
        assert cfg["impair.theta_d"] == ("fixed", 3)

    @pytest.mark.parametrize("text, draw", [
        ("3", ("fixed", 3)), ("0", ("fixed", 0)), ("uniform:0:7", ("uniform", 0, 7)),
        ("uniform:2:2", ("uniform", 2, 2))])
    def test_timing_delay_draws_are_integers(self, text, draw):
        parsed = parse_config_text(MINIMAL + f"impair.theta_d = {text}\n")
        assert parsed["impair.theta_d"] == draw
        assert all(type(v) is int for v in parsed["impair.theta_d"][1:])

    @pytest.mark.parametrize("text", [
        "2.7", "-1", "uniform:-1:3", "uniform:0:7.5", "nan", "uniform:0:inf"])
    def test_timing_delay_draws_reject_other_numbers(self, text):
        with pytest.raises(ConfigError, match="bad value for impair.theta_d"):
            parse_config_text(MINIMAL + f"impair.theta_d = {text}\n")

    @pytest.mark.parametrize("key", sorted(
        k for k, row in SCHEMA.items()
        if isinstance(row.parse, _Range)
        or row.parse.__name__ in ("_finite", "_parse_float_list", "_parse_draw",
                                  "_parse_offset_draw")))
    @pytest.mark.parametrize("text", ["nan", "-inf", "Infinity"])
    def test_every_float_key_rejects_non_finite_values(self, key, text):
        with pytest.raises(ConfigError, match=f"line 2: bad value for {key}: "
                                              f"not a finite number"):
            parse_config_text(MINIMAL + f"{key} = {text}\n")

    def test_custom_taps(self):
        cfg = parse_config_text(MINIMAL + "channel.taps = 0:0:0; 300:-1.4:120.5\n")
        assert cfg["channel.taps"] == ((0.0, 0.0, 0.0), (300.0, -1.4, 120.5))

    def test_uplink_bins(self):
        cfg = parse_config_text(MINIMAL + "mu.allocation = 3, 1:2; 0:4,5 ;\n")
        assert cfg["mu.allocation"] == (((3, 1), (2,)), ((0,), (4, 5)))

    def test_guard_pair(self):
        cfg = parse_config_text(MINIMAL + "pilot.guards = 3,2\n")
        assert cfg["pilot.guards"] == (3, 2)

    def test_waveform_subset(self):
        cfg = parse_config_text(MINIMAL + "waveforms = otfs\n")
        assert cfg["waveforms"] == (Waveform.OTFS,)

    def test_every_key_is_set_by_a_config_or_a_cli_or_golden_case(self):
        # a key that nothing runs with is dead weight: give it a case or
        # delete it. Keys are read from the configs' lines and from the
        # lines of every string literal in the two test modules.
        texts = [p.read_text() for p in (ROOT / "configs").glob("*.cfg")]
        for name in ("test_cli.py", "test_golden.py"):
            tree = ast.parse((ROOT / "tests" / name).read_text())
            texts += [node.value for node in ast.walk(tree)
                      if isinstance(node, ast.Constant)
                      and isinstance(node.value, str)]
        set_keys = {key for text in texts
                    for key in re.findall(r"^\s*([\w.]+)\s*=", text, re.M)}
        assert sorted(set(SCHEMA) - set_keys - {"experiment"}) == []
        # and each key on each kind its SCHEMA row says reads it (on some
        # setting of sync.enabled, detector.csi and the profile)
        # is set on that kind: a line of a committed config, or of one
        # that a CLI case runs, or a golden spec away from the default
        set_on = set()
        for text in ([p.read_text() for p in (ROOT / "configs").glob("*.cfg")]
                     + [committed_with(*case) for case in KEYS_THE_KIND_READS]):
            kind = re.search(r"^experiment = (\w+)$", text, re.M).group(1)
            set_on |= {(kind, key) for key in
                       re.findall(r"^\s*([\w.]+)\s*=", text, re.M)}
        for case in CASES.values():
            spec = case()
            default = spec_from_config(parse_config_text(f"experiment = {spec.kind}\n"))
            set_on |= {(spec.kind, key) for key, row in SCHEMA.items()
                       if row.value(spec) != row.value(default)}
        read_on = {(kind, key) for kind in EXPERIMENTS for key in SCHEMA
                   for spec in _settings_of(kind) if reads(spec, key)}
        assert sorted(read_on - set_on) == []

    def test_canonical_text_is_sorted_and_stable(self):
        a = canonical_text(parse_config_text(MINIMAL + "seed = 5\n"))
        b = canonical_text(parse_config_text("seed = 5\n" + MINIMAL))
        assert a == b
        keys = [line.split(" = ")[0] for line in a.strip().splitlines()]
        assert keys == sorted(keys)

    def test_canonical_text_writes_each_value_as_a_config_line(self):
        lines = canonical_text(parse_config_text(
            MINIMAL + "impair.theta_d = uniform:0:7\nimpair.epsilon = 0.25\n"
                      "channel.taps = 0:0:100; 300:-3:-50\n"
                      "mu.allocation = 0,1:2,3; 4:5\n")).splitlines()
        for line in ("impair.theta_d = uniform:0:7", "impair.epsilon = 0.25",
                     "channel.taps = 0.0:0.0:100.0; 300.0:-3.0:-50.0",
                     "mu.allocation = 0,1:2,3; 4:5", "pilot.guards = 4,4",
                     "waveforms = otfs,sc_ifdma"):
            assert line in lines
        echo = canonical_text(load_config(str(ROOT / "configs" / "sync_vs_snr.cfg")))
        assert {"impair.theta_d = 3", "impair.epsilon = uniform:-0.4:0.4",
                "impair.theta_t = 0", "mu.allocation = "} <= set(echo.splitlines())

    @PROPERTY
    @given(config_texts())
    def test_the_echo_parses_back_to_the_config(self, text):
        # the first drawn line of each key whose value the key's parser
        # takes, and an experiment line where none of them sets one
        lines = {}
        for line in text.splitlines():
            if _parses(line):
                lines.setdefault(line.partition(" = ")[0], line)
        lines.setdefault("experiment", MINIMAL.strip())
        cfg = parse_config_text("\n".join(lines.values()))
        assert parse_config_text(canonical_text(cfg)) == cfg

    @pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.cfg")),
                             ids=lambda path: path.stem)
    def test_the_echo_of_each_committed_config_parses_back(self, path):
        cfg = load_config(str(path))
        assert parse_config_text(canonical_text(cfg)) == cfg


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

    @pytest.mark.parametrize("impair, key", [
        (ImpairSettings(theta_t=-1), "impair.theta_t"),
        (ImpairSettings(theta_d=("fixed", -2)), "impair.theta_d"),
        (ImpairSettings(theta_d=("uniform", -2, 3)), "impair.theta_d")])
    def test_negative_offsets_rejected_on_a_spec_built_in_code(self, impair, key):
        # the parser rejects a negative theta_d only in a config's text
        spec = load_spec(str(ROOT / "configs" / "sync_vs_snr.cfg"))
        with pytest.raises(ConfigError, match=f"^{key} must be >= 0$"):
            replace(spec, impair=impair)

    def test_a_spec_of_its_required_fields_has_every_default_of_the_table(self):
        default = spec_from_config(parse_config_text(MINIMAL))
        spec = ExperimentSpec(**{f.name: getattr(default, f.name)
                                 for f in fields(ExperimentSpec)
                                 if f.default is f.default_factory is MISSING})
        for key, row in SCHEMA.items():
            assert row.value(spec) == row.value(default), key

    @pytest.mark.parametrize("sync, sweep", [
        (0.0, (0.5,)), (-0.5, (0.5,)), (1.5, (0.5,)), (float("nan"), (0.5,)),
        (0.5, (0.5, 2.0)), (0.5, (0.0, 1.0))])
    def test_thresholds_outside_the_unit_interval_rejected(self, sync, sweep):
        spec = spec_from_config(parse_config_text(MINIMAL))
        with pytest.raises(ConfigError, match=r"must be in \(0, 1\]"):
            replace(spec, sync=SyncSettings(threshold=sync),
                    sweep_thresholds=sweep)

    @PROPERTY
    @given(config_texts())
    @example("experiment = ber_vs_snr\nframe.M = 0\n")
    def test_any_config_text_gives_a_spec_or_a_config_error(self, text):
        try:
            spec = spec_from_config(parse_config_text(text))
        except ConfigError:
            return
        assert isinstance(spec, ExperimentSpec)

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
