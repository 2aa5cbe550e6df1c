import csv
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddlink import _blas
from ddlink.cli import main

ROOT = Path(__file__).resolve().parents[1]

GOOD = """
experiment = sync_vs_snr
trials = 2
snr_db = 10
seed = 1
channel.profile = single_tap
sync.enabled = true
impair.epsilon = uniform:-0.3:0.3
"""

# the setup of the block-search boundary: the pilot run starts in block
# (8 + 4 + theta_d) // 32 + theta_t
SYNC = """
experiment = sync_vs_snr
trials = 4
snr_db = 30
seed = 1
frame.M = 32
frame.N = 16
frame.L_cp = 8
pilot.m_p = 4
channel.profile = single_tap
"""


# a link with no sync line: BER at 30 dB on one tap is 0 without
# impairments
LINK = """
experiment = ber_vs_snr
trials = 2
snr_db = 30
seed = 1
channel.profile = single_tap
"""


# committed configs, each with keys its experiment reads set on top (for
# a custom profile, its taps, and the velocity back at its default, which
# only eva and eva3 read); every key that config.READS says a kind
# reads is set on that kind here, in a committed config or a golden case
KEYS_THE_KIND_READS = [
    ("ber_vs_snr", "sync.enabled = true\nsync.threshold = 0.3\n"
     "est.threshold_sigma = 4\nchannel.profile = custom\n"
     "channel.taps = 0:0:0;300:-3:100"),
    ("sync_vs_snr", "impair.theta_t = 1\nchannel.profile = custom\n"
     "channel.taps = 0:0:0;300:-3:100"),
    ("threshold_sweep", "sync.threshold = 0.3\nimpair.theta_t = 1\n"
     "impair.epsilon = uniform:-0.4:0.4\nchannel.profile = custom\n"
     "channel.taps = 0:0:0;300:-3:100"),
    ("mu_uplink", "detector.csi = estimated\nest.threshold_sigma = 4\n"
     "mu.relax_disjointness = true\nchannel.profile = custom\n"
     "channel.taps = 0:0:0;300:-3:100\nchannel.velocity_kmh = 500"),
    # eva and eva3 draw their Doppler from the velocity and carrier
    ("ber_vs_snr", "frame.carrier_hz = 2e9"),
    ("sync_vs_snr", "channel.profile = eva3\nchannel.velocity_kmh = 300\n"
     "frame.carrier_hz = 2e9"),
    ("threshold_sweep", "channel.profile = eva\nchannel.velocity_kmh = 300\n"
     "frame.carrier_hz = 2e9"),
    ("mu_uplink", "frame.carrier_hz = 2e9"),
]


def committed_with(config, lines):
    """The text of ``configs/<config>.cfg`` with each of ``lines``
    replacing the config's own setting of its key, or added to it."""
    text = (ROOT / "configs" / f"{config}.cfg").read_text()
    for line in lines.split("\n"):
        key = line.split("=", 1)[0].strip()
        text, n = re.subn(rf"^{re.escape(key)} = .*$", line, text, flags=re.M)
        text += "" if n else line + "\n"
    return text


def write(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def assert_exit_2(tmp_path, capsys, line, message):
    """``validate`` and ``run`` of GOOD with ``line`` in place of GOOD's
    lines of the same keys both exit 2 with ``message`` and write nothing."""
    keys = {entry.split("=")[0].strip() for entry in line.splitlines()}
    kept = [entry for entry in GOOD.splitlines()
            if entry.split("=")[0].strip() not in keys]
    path = write(tmp_path, "\n".join(kept + [line]) + "\n")
    out = tmp_path / "results"
    assert main(["validate", path]) == 2
    assert main(["run", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("config error: ") == 2 and err.count(message) == 2
    assert not out.exists()


class TestListProfiles:
    def test_lists_builtin_profiles(self, capsys):
        assert main(["list-profiles"]) == 0
        out = capsys.readouterr().out
        for name in ("eva", "eva3", "single_tap", "two_tap_biased"):
            assert name in out


class TestValidate:
    def test_good_config(self, tmp_path, capsys):
        assert main(["validate", write(tmp_path, GOOD)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_unknown_key_is_a_config_error(self, tmp_path, capsys):
        path = write(tmp_path, GOOD + "frams.M = 8\n")
        assert main(["validate", path]) == 2
        err = capsys.readouterr().err
        assert "unknown key" in err and "line" in err

    def test_delay_spread_warnings(self, tmp_path, capsys):
        # EVA taps reach 19 samples at 7.68 MHz; L_cp is 8 and the pilot
        # delay guard 4
        eva = GOOD.replace("single_tap", "eva")
        assert main(["validate", write(tmp_path, eva)]) == 0
        spread = capsys.readouterr().err.splitlines()
        assert len(spread) == 2 and all(line.startswith("warning:") for line in spread)
        assert "frame.L_cp = 8" in spread[0] and "guard 4" in spread[1]
        # a link with genie CSI (the default) and no sync reads no pilot
        no_pilot = LINK.replace("single_tap", "eva")
        assert main(["validate", write(tmp_path, no_pilot)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "frame.L_cp" in err[0]
        # sync_vs_snr syncs whatever sync.enabled says; two_tap_biased
        # reaches 3 samples
        guard = (SYNC.replace("single_tap", "two_tap_biased")
                 + "pilot.guards = 2,2\n")
        assert main(["validate", write(tmp_path, guard)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "exceeds the pilot delay guard 2" in err[0]
        assert main(["validate", write(tmp_path, GOOD)]) == 0
        assert capsys.readouterr().err == ""
        # run prints the same lines once, and no Python warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", write(tmp_path, eva),
                         "--out", str(tmp_path / "results")]) == 0
        assert capsys.readouterr().err.splitlines() == spread
        assert caught == []

    @pytest.mark.parametrize("key, line", [
        ("seed", "seed = -1"), ("mu.q", "mu.q = 0"),
        ("mu.q", "experiment = mu_uplink\nmu.q = 20"),
        ("sync.threshold", "sync.threshold = 0"),
        # every profile, including those that draw no Doppler from it
        ("channel.velocity_kmh", "channel.velocity_kmh = -5"),
        ("channel.velocity_kmh", "channel.profile = eva\nchannel.velocity_kmh = -5"),
        ("channel.velocity_kmh", "channel.profile = eva3\nchannel.velocity_kmh = -5"),
        ("sweep.thresholds",
         "experiment = threshold_sweep\nsweep.thresholds = 0.5,2")])
    def test_values_a_run_cannot_use_exit_2(self, tmp_path, capsys, key, line):
        assert_exit_2(tmp_path, capsys, line, f"config error: {key} must be")

    @pytest.mark.parametrize("line, message", [
        ("frame.M = 0", "config error: frame.M, frame.N: grid dimensions must be >= 1"),
        ("frame.L_cp = 600", "config error: frame.L_cp: cp_len must be < M*N = 512"),
        ("frame.L_cp = -1", "config error: frame.L_cp: cp_len must be >= 0"),
        ("frame.bandwidth_hz = -1",
         "config error: frame.bandwidth_hz: bandwidth_hz must be positive"),
        ("frame.carrier_hz = 0",
         "config error: frame.carrier_hz: carrier_hz must be positive"),
        ("est.threshold_sigma = 0",
         "config error: est.threshold_sigma: detection threshold must be positive"),
        ("pilot.power_db = -4000",
         "config error: pilot.power_db: pilot power must be positive"),
        ("pilot.guards = -1,4", "config error: pilot.guards: guard widths must be >= 0"),
        ("pilot.m_p = 1", "config error: pilot.m_p, pilot.guards: delay guard [-3, 5]"),
        ("pilot.n_p = 14",
         "config error: pilot.n_p, pilot.guards: Doppler guard [10, 18]"),
        ("pilot.power_db = 4000", "pilot.power_db = 4000 is too large"),
        ("experiment = mu_uplink\nmu.q = 8\ndetector.csi = estimated",
         "user 0 allocation cannot host the pilot guard rectangle"),
        ("experiment = mu_uplink\nmu.allocation = absent_allocation.txt",
         "cannot read mu.allocation"),
        ("experiment = mu_uplink\nmu.q = 5\nmu.allocation = configs/mu_allocation.txt",
         "mu.q = 5 but mu.allocation lists 2 users"),
        ("sync.cfo_convention = wrap_to_negative",
         "unknown key 'sync.cfo_convention'"),
        # sync needs adjacent-sample pairs in each metric row, so N >= 2
        ("frame.N = 1\npilot.n_p = 0\npilot.guards = 4,0",
         "config error: frame.N = 1 leaves the sync timing metric"),
        ("experiment = threshold_sweep\nframe.N = 1\npilot.n_p = 0\n"
         "pilot.guards = 4,0",
         "config error: frame.N = 1 leaves the sync timing metric"),
        ("experiment = ber_vs_snr\nframe.N = 1\npilot.n_p = 0\npilot.guards = 4,0",
         "config error: frame.N = 1 leaves the sync timing metric"),
        # the noise level of an estimate comes from the guard rows ahead
        # of the pilot; the uplink's per-user pilots reuse that guard
        ("experiment = ber_vs_snr\ndetector.csi = estimated\npilot.guards = 0,4",
         "config error: pilot.guards: detector.csi = estimated needs"),
        ("experiment = mu_uplink\ndetector.csi = estimated\npilot.guards = 0,2",
         "config error: pilot.guards: detector.csi = estimated needs"),
        ("eq.method = iterative", "unknown key 'eq.method'"),
        ("channel.profile = custom\nchannel.taps = -200:0:0; 0:-3:100",
         "config error: channel.taps: tap delay_ns must be >= 0, got -200"),
        # every float is read by one parser, which rejects NaN and +-inf
        ("channel.velocity_kmh = nan",
         "config error: line 9: bad value for channel.velocity_kmh: not a "
         "finite number: 'nan'"),
        ("channel.profile = custom\nchannel.taps = 0:0:0; nan:-3:100",
         "config error: line 9: bad value for channel.taps: not a finite "
         "number: 'nan'"),
        ("channel.profile = custom\nchannel.taps = 0:nan:0",
         "config error: line 9: bad value for channel.taps: not a finite "
         "number: 'nan'"),
        ("channel.profile = custom\nchannel.taps = 0:0:nan",
         "config error: line 9: bad value for channel.taps: not a finite "
         "number: 'nan'"),
        ("snr_db = nan",
         "config error: line 8: bad value for snr_db: not a finite number: 'nan'"),
        # the noise variance 10**(-snr_db/10) overflows, or is no normal
        # float
        ("snr_db = -1e308",
         "config error: snr_db = -1e+308: the noise variance 10**(-snr_db/10)"
         " is not a finite, normal float; use snr_db from -3082 to 3076 dB"),
        ("snr_db = 10,1e308", "config error: snr_db = 1e+308: the noise variance"),
        ("snr_db = 3077", "config error: snr_db = 3077: the noise variance"),
        ("snr_db = -3083", "config error: snr_db = -3083: the noise variance"),
        # a tap delay in samples must fit an int64
        ("channel.profile = eva3\nframe.bandwidth_hz = 1e300",
         "config error: frame.bandwidth_hz: a tap delay of 370 ns at 1e+300 Hz"
         " is 3.7e+293 samples, more than an int64 counts; the bandwidth must "
         "stay below 2.4928e+25 Hz"),
        ("channel.profile = custom\nchannel.taps = 0:0:0; 1e300:-3:0",
         "config error: frame.bandwidth_hz, channel.taps: a tap delay of "
         "1e+300 ns at 7.68e+06 Hz"),
        ("experiment = ber_vs_snr\ndetector.csi = estimated\n"
         "est.threshold_sigma = inf",
         "config error: line 10: bad value for est.threshold_sigma: not a "
         "finite number: 'inf'"),
        ("pilot.power_db = inf",
         "config error: line 9: bad value for pilot.power_db: not a finite "
         "number: 'inf'"),
        ("impair.epsilon = nan",
         "config error: line 8: bad value for impair.epsilon: not a finite "
         "number: 'nan'"),
        ("impair.theta_d = uniform:nan:1",
         "config error: line 9: bad value for impair.theta_d: not a finite "
         "number: 'nan'"),
        ("frame.bandwidth_hz = inf",
         "config error: line 9: bad value for frame.bandwidth_hz: not a "
         "finite number: 'inf'"),
        # timing offsets are whole non-negative sample counts
        ("impair.theta_d = 2.7",
         "config error: line 9: bad value for impair.theta_d: not a "
         "non-negative integer sample count: '2.7'"),
        ("impair.theta_d = -1",
         "config error: line 9: bad value for impair.theta_d: not a "
         "non-negative integer sample count: '-1'"),
        ("impair.theta_d = uniform:-2:3",
         "config error: line 9: bad value for impair.theta_d: not a "
         "non-negative integer sample count: 'uniform:-2:3'"),
        # the uplink trial has no sync and no impairments
        ("experiment = mu_uplink",
         "config error: sync.enabled, impair.epsilon: mu_uplink never reads "
         "these keys; leave them at their defaults\n"),
        ("experiment = mu_uplink\nmu.allocation = configs/mu_allocation.txt\n"
         "impair.theta_d = 3\nimpair.epsilon = uniform:-0.4:0.4",
         "config error: sync.enabled, impair.theta_d, impair.epsilon: mu_uplink "
         "never reads these keys; leave them at their defaults\n"),
        ("experiment = mu_uplink\nsync.enabled = false\nimpair.epsilon = 0\n"
         "impair.theta_t = 1",
         "config error: impair.theta_t: mu_uplink never reads these keys; "
         "leave them at their defaults\n"),
        # sync.cfo_estimate wraps the CFO into [-N/2, N/2)
        ("impair.epsilon = 1e6",
         "config error: impair.epsilon: a CFO of 1e+06 Doppler bins is outside "
         "(-frame.N/2, frame.N/2) = (-8, 8), the range sync estimates it in\n"),
        ("experiment = threshold_sweep\nimpair.epsilon = uniform:-1e300:1e300",
         "config error: impair.epsilon: a CFO of -1e+300 Doppler bins is "
         "outside (-frame.N/2, frame.N/2) = (-8, 8)"),
        ("impair.epsilon = uniform:-8:0",
         "config error: impair.epsilon: a CFO of -8 Doppler bins is outside"),
        ("experiment = ber_vs_snr\nsync.enabled = true\nframe.N = 4\n"
         "pilot.n_p = 2\npilot.guards = 4,1\nimpair.epsilon = 2",
         "config error: impair.epsilon: a CFO of 2 Doppler bins is outside "
         "(-frame.N/2, frame.N/2) = (-2, 2)"),
        # the block search sees a pilot run starting in block 0 or 1 only
        ("impair.theta_d = 20\nimpair.theta_t = 1",
         "config error: impair.theta_d, impair.theta_t: the pilot run starts "
         "in block (frame.L_cp + pilot.m_p + theta_d + largest tap delay) // "
         "frame.M + theta_t = (8 + 4 + 20 + 0) // 32 + 1 = 2; sync finds it "
         "only in blocks 0 to 1"),
        ("impair.theta_d = 52\nimpair.theta_t = 0",
         "= (8 + 4 + 52 + 0) // 32 + 0 = 2; sync finds it only in blocks"),
        ("impair.theta_d = 0\nimpair.theta_t = 2",
         "= (8 + 4 + 0 + 0) // 32 + 2 = 2; sync finds it only in blocks"),
        ("experiment = ber_vs_snr\nimpair.theta_d = uniform:0:20\n"
         "impair.theta_t = 1",
         "= (8 + 4 + 20 + 0) // 32 + 1 = 2; sync finds it only in blocks"),
        ("experiment = threshold_sweep\nchannel.profile = two_tap_biased\n"
         "impair.theta_d = 17\nimpair.theta_t = 1",
         "= (8 + 4 + 17 + 3) // 32 + 1 = 2; sync finds it only in blocks")])
    def test_config_errors_exit_2_before_any_trial(self, tmp_path, capsys,
                                                   monkeypatch, line, message):
        monkeypatch.chdir(ROOT)  # relative mu.allocation paths, as in configs/
        assert_exit_2(tmp_path, capsys, line, message)

    @pytest.mark.parametrize("theta_d, theta_t", [(19, 1), (51, 0)])
    def test_last_offsets_the_block_search_sees_are_exact(self, tmp_path,
                                                          theta_d, theta_t):
        # (8 + 4 + theta_d) // 32 + theta_t = 1, one sample short of block 2
        cfg = write(tmp_path, SYNC + f"impair.theta_d = {theta_d}\n"
                                     f"impair.theta_t = {theta_t}\n")
        out = tmp_path / "results"
        assert main(["run", cfg, "--out", str(out)]) == 0
        with open(out / "results.csv", newline="") as fh:
            fine = [row["value"] for row in csv.DictReader(fh)
                    if row["metric"] == "TO_fine_mean_error"]
        assert fine == ["0", "0"]

    @pytest.mark.parametrize("line, key", [
        ("impair.theta_d = 5", "impair.theta_d"),
        ("impair.epsilon = 0.3", "impair.epsilon")])
    def test_impairments_without_sync_exit_2(self, tmp_path, capsys, line, key):
        # nothing would undo them; an uncorrected offset gives a BER near 0.5
        path = write(tmp_path, LINK + line + "\n")
        out = tmp_path / "results"
        assert main(["validate", path]) == 2
        assert main(["run", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count(f"config error: {key}: ber_vs_snr without sync.enabled "
                         f"= true never reads these keys; leave them at their "
                         f"defaults\n") == 2
        assert not out.exists()

    @pytest.mark.parametrize("config, lines, message", [
        ("ber_vs_snr", "sweep.thresholds = 0.3,0.9\nsync.threshold = 0.2",
         "config error: sweep.thresholds, sync.threshold: ber_vs_snr without "
         "sync.enabled = true never reads these keys; leave them at their "
         "defaults"),
        ("sync_vs_snr", "detector.csi = estimated\nmu.q = 3",
         "config error: detector.csi, mu.q: sync_vs_snr never reads these "
         "keys; leave them at their defaults"),
        ("threshold_sweep", "est.threshold_sigma = 4",
         "config error: est.threshold_sigma: threshold_sweep never reads"),
        ("mu_uplink", "mu.relax_disjointness = true\nsync.threshold = 0.3",
         "config error: sync.threshold: mu_uplink never reads these keys"),
        # genie CSI estimates no channel, so no detection threshold applies
        ("ber_vs_snr", "detector.csi = genie\nest.threshold_sigma = 7",
         "config error: est.threshold_sigma: ber_vs_snr with detector.csi = "
         "genie never reads these keys; leave them at their defaults"),
        ("mu_uplink", "est.threshold_sigma = 9",
         "config error: est.threshold_sigma: mu_uplink with detector.csi = "
         "genie never reads these keys"),
        # a named profile ignores the taps
        ("ber_vs_snr", "channel.taps = 0:0:0;300:-3:100",
         "config error: channel.taps: ber_vs_snr with channel.profile = eva3 "
         "never reads these keys; leave them at their defaults\n"),
        # only the Doppler of eva and eva3 reads the velocity and carrier
        ("sync_vs_snr", "channel.velocity_kmh = 300\nframe.carrier_hz = 2e9",
         "config error: channel.velocity_kmh, frame.carrier_hz: sync_vs_snr "
         "with channel.profile = single_tap never reads these keys; leave "
         "them at their defaults\n")])
    def test_keys_the_kind_never_reads_exit_2(self, tmp_path, capsys, monkeypatch,
                                              config, lines, message):
        # a committed config with keys its experiment ignores
        monkeypatch.chdir(ROOT)
        path = write(tmp_path, committed_with(config, lines))
        out = tmp_path / "results"
        assert main(["validate", path]) == 2
        assert main(["run", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err.count(message) == 2
        assert not out.exists()

    @pytest.mark.parametrize("config, lines", KEYS_THE_KIND_READS)
    def test_keys_the_kind_reads_run(self, tmp_path, monkeypatch, config, lines):
        monkeypatch.chdir(ROOT)
        path = write(tmp_path, committed_with(config, lines))
        out = tmp_path / "results"
        assert main(["validate", path]) == 0
        assert main(["run", path, "--trials", "1", "--out", str(out)]) == 0
        with open(out / "results.csv", newline="") as fh:
            assert all(math.isfinite(float(row["value"]))
                       for row in csv.DictReader(fh))

    def test_cfos_near_the_ends_of_the_range_are_estimated(self, tmp_path):
        path = write(tmp_path, SYNC + "impair.epsilon = uniform:-7.99:7.99\n")
        out = tmp_path / "results"
        assert main(["run", path, "--out", str(out)]) == 0
        with open(out / "results.csv", newline="") as fh:
            mse = [float(row["value"]) for row in csv.DictReader(fh)
                   if row["metric"] == "CFO_MSE"]
        assert len(mse) == 2 and max(mse) < 1e-2

    def test_impairments_with_sync_run(self, tmp_path):
        path = write(tmp_path, LINK + "impair.theta_d = 5\nsync.enabled = true\n")
        out = tmp_path / "results"
        assert main(["run", path, "--out", str(out)]) == 0
        with open(out / "results.csv", newline="") as fh:
            assert [row["value"] for row in csv.DictReader(fh)] == ["0", "0"]

    def test_bandwidth_beyond_an_int64_delay_exits_2(self, tmp_path, capsys,
                                                      monkeypatch):
        # its EVA taps reach 2.5e294 samples
        text = (ROOT / "configs" / "ber_vs_snr.cfg").read_text()
        path = write(tmp_path, text + "frame.bandwidth_hz = 1e300\n")
        assert main(["validate", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: frame.bandwidth_hz: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("lines", [
        # nu_max overflows to inf Hz
        "channel.velocity_kmh = 1e300",
        "frame.carrier_hz = 1e300\nchannel.velocity_kmh = 1e10",
        # 2731 Hz is 1.4e306 Doppler bins of 2e-303 Hz, and its tap phase
        # over the 520 samples of a record overflows
        "frame.bandwidth_hz = 1e-300"])
    def test_a_doppler_beyond_the_float_range_exits_2(self, tmp_path, capsys,
                                                      monkeypatch, lines):
        # the tap ramps would turn it into NaN
        monkeypatch.chdir(ROOT)
        path = write(tmp_path, committed_with("ber_vs_snr", lines))
        out = tmp_path / "results"
        assert main(["validate", path]) == 2
        assert main(["run", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("config error: channel.velocity_kmh, frame.carrier_hz: "
                         "the largest Doppler shift, ") == 2
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("config, reference", [("ber_vs_snr", False),
                                                   ("mu_uplink", False),
                                                   ("ber_vs_snr", True)])
    def test_a_doppler_inside_the_float_range_runs(self, tmp_path, monkeypatch,
                                                   config, reference):
        # 5.5e299 Hz at 1e299 km/h keeps every tap phase finite, at 32x16
        # and at 128x32
        monkeypatch.chdir(ROOT)
        path = write(tmp_path, committed_with(config, "channel.velocity_kmh = 1e299"))
        out = tmp_path / "results"
        args = ["run", path, "--trials", "2", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(args + ["--reference-scale"] * reference) == 0
        with open(out / "results.csv", newline="") as fh:
            assert all(math.isfinite(float(row["value"]))
                       for row in csv.DictReader(fh))

    @pytest.mark.parametrize("config, lines", [
        ("sync_vs_snr", "snr_db = -3060,-3061,-3074,-3082"),
        ("threshold_sweep", "snr_db = -3061,-3074,-3082"),
        ("ber_vs_snr", "snr_db = -3082\nsync.enabled = true\n"
         "impair.theta_d = uniform:0:6\nimpair.epsilon = uniform:-0.4:0.4")])
    def test_sync_runs_at_the_low_end_of_the_snr_range(self, tmp_path,
                                                       monkeypatch, config, lines):
        # the sums of the sync metric of a pure-noise record would overflow
        monkeypatch.chdir(ROOT)
        path = write(tmp_path, committed_with(config, lines))
        out = tmp_path / "results"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", path, "--trials", "20", "--out", str(out)]) == 0
        with open(out / "results.csv", newline="") as fh:
            assert all(math.isfinite(float(row["value"]))
                       for row in csv.DictReader(fh))

    def test_the_ends_of_the_snr_range_run(self, tmp_path):
        path = write(tmp_path, LINK.replace("snr_db = 30", "snr_db = -3082,3076"))
        out = tmp_path / "results"
        assert main(["run", path, "--out", str(out)]) == 0
        with open(out / "results.csv", newline="") as fh:
            ber = {(row["snr_db"], row["waveform"]): float(row["value"])
                   for row in csv.DictReader(fh)}
        for w in ("otfs", "sc_ifdma"):
            assert 0.3 < ber["-3082", w] < 0.7 and ber["3076", w] == 0.0

    @pytest.mark.parametrize("config, lines", [
        ("ber_vs_snr", "snr_db = -3082,3076\ntrials = 2"),
        ("mu_uplink", "snr_db = -3082,3076\ntrials = 2\ndetector.csi = estimated")])
    def test_estimated_csi_runs_at_the_ends_of_the_snr_range(self, tmp_path,
                                                             monkeypatch, config,
                                                             lines):
        # the noise floor of an estimate sums squares of values near 1e154
        # at -3082 dB; no float operation may overflow on the way
        monkeypatch.chdir(ROOT)
        path = write(tmp_path, committed_with(config, lines))
        out = tmp_path / "results"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", path, "--out", str(out)]) == 0
        with open(out / "results.csv", newline="") as fh:
            ber = [float(row["value"]) for row in csv.DictReader(fh)]
        assert len(ber) == 4 and all(0.0 <= b <= 1.0 for b in ber)

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "absent.cfg")]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestRun:
    def test_writes_outputs(self, tmp_path, capsys):
        cfg = write(tmp_path, GOOD)
        out = tmp_path / "results"
        assert main(["run", cfg, "--out", str(out)]) == 0
        assert (out / "results.csv").exists()
        assert (out / "metadata.txt").exists()

    def test_seed_and_trials_overrides(self, tmp_path):
        cfg = write(tmp_path, GOOD)
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        main(["run", cfg, "--out", str(a)])
        main(["run", cfg, "--out", str(b), "--seed", "42"])
        main(["run", cfg, "--out", str(c), "--trials", "3"])
        ra = (a / "results.csv").read_text()
        assert ra != (b / "results.csv").read_text()
        assert ",2," in ra and ",3," in (c / "results.csv").read_text()

    def test_overrides_reach_the_metadata(self, tmp_path):
        # the overridden run and a file saying the same thing write the
        # same results and the same config echo and hash
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", write(tmp_path, GOOD.replace("trials = 2", "trials = 4")),
              "--out", str(a), "--trials", "2", "--seed", "5"])
        same = GOOD.replace("seed = 1", "seed = 5")
        main(["run", write(tmp_path, same, "same.cfg"), "--out", str(b)])
        meta = (a / "metadata.txt").read_text().splitlines()
        assert "seed = 5" in meta and "trials = 2" in meta
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
        assert ([line for line in meta if not line.startswith("wall_clock_s")]
                == [line for line in (b / "metadata.txt").read_text().splitlines()
                    if not line.startswith("wall_clock_s")])

    def test_parallelism_below_one_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path, GOOD)
        out = tmp_path / "results"
        for value in ("0", "-1"):
            assert main(["run", cfg, "--out", str(out),
                         "--parallelism", value]) == 2
            assert "--parallelism" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        assert main(["run", write(tmp_path, GOOD), "--out", str(taken)]) == 1
        assert "run failed: " in capsys.readouterr().err
        assert taken.read_text() == "not a directory"

    def test_parallel_run_matches_serial(self, tmp_path):
        cfg = write(tmp_path, GOOD)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", cfg, "--out", str(a)])
        main(["run", cfg, "--out", str(b), "--parallelism", "2"])
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()


MU = """
experiment = mu_uplink
trials = 1
snr_db = 20
seed = 1
constellation = qpsk
channel.profile = single_tap
"""


class TestRelaxedDisjointness:
    def test_users_sharing_delay_rows_run_only_when_relaxed(self, tmp_path,
                                                            capsys):
        # every delay row to both users, the Doppler bins split
        alloc = tmp_path / "alloc.txt"
        rows = ",".join(map(str, range(32)))
        alloc.write_text(f"user0.delay_bins = {rows}\n"
                         f"user0.doppler_bins = 0,1,2,3,4,5,6,7\n"
                         f"user1.delay_bins = {rows}\n"
                         f"user1.doppler_bins = 8,9,10,11,12,13,14,15\n")
        shared = MU + f"mu.allocation = {alloc}\n"
        assert main(["validate", write(tmp_path, shared)]) == 2
        assert "share delay bins" in capsys.readouterr().err
        out = tmp_path / "results"
        relaxed = write(tmp_path, shared + "mu.relax_disjointness = true\n")
        assert main(["run", relaxed, "--out", str(out)]) == 0
        with open(out / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["metric"] for row in rows] == ["BER", "BER"]
        assert all(math.isfinite(float(row["value"])) for row in rows)


class TestAllocationFile:
    def test_non_integer_bin_names_its_line(self, tmp_path, capsys):
        alloc = tmp_path / "alloc.txt"
        alloc.write_text("user0.delay_bins = 0,1\nuser0.doppler_bins = 0,1\n"
                         "user1.delay_bins = 2,3,x\nuser1.doppler_bins = 2,3\n")
        cfg = write(tmp_path, MU + f"mu.allocation = {alloc}\n")
        out = tmp_path / "results"
        assert main(["validate", cfg]) == 2
        assert main(["run", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count(f"config error: {alloc}:3: bins of 'user1.delay_bins' "
                         f"must be integers, got '2,3,x'") == 2
        assert not out.exists()


class TestReferenceScale:
    def test_stale_allocation_file_is_a_config_error(self, tmp_path, capsys):
        alloc = tmp_path / "alloc.txt"
        alloc.write_text("user0.delay_bins = 0,1\nuser0.doppler_bins = 0,1\n"
                         "user1.delay_bins = 2,3\nuser1.doppler_bins = 2,3\n")
        cfg = write(tmp_path, MU + f"mu.allocation = {alloc}\n")
        out = tmp_path / "results"
        assert main(["run", cfg, "--out", str(out), "--reference-scale"]) == 2
        err = capsys.readouterr().err
        assert "mu.allocation" in err and "128x32" in err
        assert not out.exists()

    def test_even_split_runs_on_the_reference_grid(self, tmp_path):
        out = tmp_path / "results"
        assert main(["run", write(tmp_path, MU), "--out", str(out),
                     "--reference-scale"]) == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 3 and all(",BER," in line for line in lines[1:])
        meta = (out / "metadata.txt").read_text().splitlines()
        assert "frame.M = 128" in meta and "frame.N = 32" in meta


def _options(command):
    """Option lists for ``command``: a run always gets a trial count of 1
    or 2 and an output path (a new directory, or an existing file that
    cannot become one), so no example runs a full config."""
    extras = st.lists(st.sampled_from([
        ["--seed", "-1"], ["--seed", "7"], ["--reference-scale"],
        ["--parallelism", "1"], ["--parallelism", "2"], ["--bogus"], ["-h"]]),
        max_size=3)
    if command != "run":
        return extras
    required = st.tuples(
        st.sampled_from([["--trials", "1"], ["--trials", "2"]]),
        st.sampled_from([["--out", "NEW_DIR"], ["--out", "TAKEN_FILE"]]))
    return st.tuples(required, extras).map(lambda p: list(p[0]) + p[1])


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["run", "validate", "list-profiles"]))
    argv = [command]
    if command != "list-profiles":
        argv.append(draw(st.sampled_from(
            sorted(str(p) for p in (ROOT / "configs").glob("*.cfg"))
            + [str(ROOT / "configs"), str(ROOT / "absent.cfg")])))
    options = draw(st.permutations(draw(_options(command))))
    return argv + [token for option in options for token in option]


# a serial run of every committed config, one trial per SNR cell, with
# outputs; then the modules it left loaded among the listed ones
SERIAL_RUNS = """
import sys, tempfile
from ddlink.config import load_config, spec_from_config
from ddlink.harness import run
for name in ("ber_vs_snr", "sync_vs_snr", "threshold_sweep", "mu_uplink"):
    cfg = load_config(f"configs/{name}.cfg")
    cfg["trials"] = 1
    with tempfile.TemporaryDirectory() as out:
        run(spec_from_config(cfg), out_dir=out)
print([m for m in ("scipy.linalg", "scipy.sparse") if m in sys.modules])
"""


def loaded_after(code):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    return out.stdout.strip()


class TestImport:
    def test_the_cli_does_not_load_scipy_sparse(self):
        # only the LSMR oracle uses scipy.sparse, and it imports it itself;
        # the band solve picks its LAPACK at its first call, and only a
        # parallel run imports the process pool
        assert loaded_after(
            "import sys, ddlink.cli; print([m for m in ('scipy.sparse', "
            "'scipy.linalg', 'concurrent.futures.process') if m in sys.modules])"
        ) == "[]"

    def test_serial_runs_do_not_load_scipy_linalg(self):
        if _blas._lapack().source.startswith("scipy.linalg"):
            pytest.skip("scipy bundles no OpenBLAS with zpbsv here, "
                        "so the band solve calls scipy.linalg")
        # ber_vs_snr.cfg estimates CSI; mu_uplink.cfg is the uplink
        assert loaded_after(SERIAL_RUNS) == "[]"


class TestExitCodes:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(cli_argv())
    def test_every_outcome_is_0_1_or_2(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            taken = Path(tmp) / "taken"
            taken.write_text("")
            paths = {"NEW_DIR": str(Path(tmp) / "out"), "TAKEN_FILE": str(taken)}
            try:
                code = main([paths.get(token, token) for token in argv])
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2)
