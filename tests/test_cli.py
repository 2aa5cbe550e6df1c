import csv
import math
import os
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
from ddlink.config import load_spec
from ddlink.harness import prepare
from variants import committed_with, with_lines

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


# an estimated-CSI uplink whose pilot is 200 dB below the noise, the
# bottom of the ranges of pilot.power_db and snr_db, with a delay spread
# past the pilot guard
WEAK_PILOT_UPLINK = """
experiment = mu_uplink
frame.M = 8
frame.N = 8
frame.L_cp = 5
pilot.m_p = 2
pilot.n_p = 4
pilot.guards = 1,1
pilot.power_db = -100
channel.profile = eva3
frame.carrier_hz = 560.16
detector.csi = estimated
constellation = qpsk
trials = 1
seed = 4343820536
snr_db = -100
"""


# committed configs, each with keys its experiment reads set on top (for
# a custom profile, its taps, and the velocity back at its default, which
# only eva and eva3 read); every key that its config.SCHEMA row says a
# kind reads is set on that kind here, in a committed config or a golden
# case
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
     "channel.profile = custom\n"
     "channel.taps = 0:0:0;300:-3:100\nchannel.velocity_kmh = 500"),
    # eva and eva3 draw their Doppler from the velocity and carrier; the
    # bandwidth sets the sample rate and the Doppler bin spacing
    ("ber_vs_snr", "frame.carrier_hz = 2e9\nframe.bandwidth_hz = 5e6"),
    ("sync_vs_snr", "channel.profile = eva3\nchannel.velocity_kmh = 300\n"
     "frame.carrier_hz = 2e9\nframe.bandwidth_hz = 5e6"),
    ("threshold_sweep", "channel.profile = eva\nchannel.velocity_kmh = 300\n"
     "frame.carrier_hz = 2e9\nframe.bandwidth_hz = 5e6"),
    ("mu_uplink", "frame.carrier_hz = 2e9\nframe.bandwidth_hz = 5e6"),
]


# every key with a physical range: lines that make LINK read it, the line
# of its value, the two ends of its range, and a value just past each
RANGES = [
    ("snr_db", "", "snr_db = {}", ("-100", "300"), ("-100.001", "300.001")),
    ("pilot.power_db", "", "pilot.power_db = {}", ("-100", "100"),
     ("-100.001", "100.001")),
    ("frame.bandwidth_hz", "", "frame.bandwidth_hz = {}", ("1e3", "1e10"),
     ("999.999", "1.00001e10")),
    ("frame.carrier_hz", "channel.profile = eva3\n", "frame.carrier_hz = {}",
     ("1", "1e12"), ("0.999", "1.00001e12")),
    ("channel.velocity_kmh", "channel.profile = eva3\n",
     "channel.velocity_kmh = {}", ("0", "30000"), ("-1e-9", "30000.001")),
    ("est.threshold_sigma", "detector.csi = estimated\n",
     "est.threshold_sigma = {}", ("0.1", "100"), ("0.0999", "100.001")),
    # the delay, power and Doppler of a custom tap
    ("channel.taps", "channel.profile = custom\n", "channel.taps = {}:0:0",
     ("0", "1e6"), ("-1e-9", "1000000.001")),
    ("channel.taps", "channel.profile = custom\n", "channel.taps = 0:{}:0",
     ("-100", "100"), ("-100.001", "100.001")),
    ("channel.taps", "channel.profile = custom\n", "channel.taps = 0:0:{}",
     ("-1e8", "1e8"), ("-100000000.001", "100000000.001")),
]


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
        # one frame goes out with zeros before it: no earlier frame interferes
        assert spread[0].endswith("the channel is no longer cyclic over the "
                                  "block, a case the detectors' channel model "
                                  "includes (a trial sends one frame, with zeros "
                                  "before it)")
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
        ("impair.theta_t", "impair.theta_t = -1"),
        ("mu.q", "experiment = mu_uplink\nmu.q = 20"),
        ("sync.threshold", "sync.threshold = 0"),
        ("sweep.thresholds",
         "experiment = threshold_sweep\nsweep.thresholds = 0.5,2")])
    def test_values_a_run_cannot_use_exit_2(self, tmp_path, capsys, key, line):
        assert_exit_2(tmp_path, capsys, line, f"config error: {key} must be")

    @pytest.mark.parametrize("line, message", [
        ("frame.M = 0", "config error: frame.M, frame.N: grid dimensions must be >= 1"),
        ("frame.L_cp = 600", "config error: frame.L_cp: cp_len must be < M*N = 512"),
        ("frame.L_cp = -1", "config error: frame.L_cp: cp_len must be >= 0"),
        ("frame.bandwidth_hz = -1",
         "bad value for frame.bandwidth_hz: -1 Hz is outside the range 1000 to "
         "1e+10 Hz\n"),
        ("frame.carrier_hz = 0",
         "bad value for frame.carrier_hz: 0 Hz is outside the range 1 to 1e+12 Hz\n"),
        ("est.threshold_sigma = 0",
         "bad value for est.threshold_sigma: 0 is outside the range 0.1 to 100\n"),
        ("pilot.power_db = -4000",
         "bad value for pilot.power_db: -4000 dB is outside the range -100 to "
         "100 dB\n"),
        # every profile, including those that draw no Doppler from it
        ("channel.velocity_kmh = -5",
         "bad value for channel.velocity_kmh: -5 km/h is outside the range 0 "
         "to 30000 km/h\n"),
        ("channel.profile = eva\nchannel.velocity_kmh = -5",
         "bad value for channel.velocity_kmh: -5 km/h is outside the range"),
        ("channel.profile = eva3\nchannel.velocity_kmh = -5",
         "bad value for channel.velocity_kmh: -5 km/h is outside the range"),
        ("pilot.guards = -1,4", "config error: pilot.guards: guard widths must be >= 0"),
        ("pilot.m_p = 1", "config error: pilot.m_p, pilot.guards: delay guard [-3, 5]"),
        ("pilot.n_p = 14",
         "config error: pilot.n_p, pilot.guards: Doppler guard [10, 18]"),
        ("pilot.power_db = 4000",
         "bad value for pilot.power_db: 4000 dB is outside the range"),
        ("experiment = mu_uplink\nmu.q = 8\ndetector.csi = estimated",
         "user 0 allocation cannot host the pilot guard rectangle"),
        ("experiment = mu_uplink\nmu.q = 5\nmu.allocation = 0,1:0,1; 2,3:2,3",
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
        # users may share rows or columns, never a bin, with no key to say so
        ("experiment = mu_uplink\nmu.relax_disjointness = true",
         "unknown key 'mu.relax_disjointness'"),
        ("channel.profile = custom\nchannel.taps = -200:0:0; 0:-3:100",
         "bad value for channel.taps: -200 ns is outside the range 0 to 1e+06 "
         "ns\n"),
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
        # every value of a list is in its range
        ("snr_db = 10,1e308",
         "bad value for snr_db: 1e+308 dB is outside the range -100 to 300 dB\n"),
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
        ("experiment = mu_uplink\nmu.allocation = 0,1:0,1; 2,3:2,3\n"
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
    def test_config_errors_exit_2_before_any_trial(self, tmp_path, capsys, line,
                                                   message):
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
        ("mu_uplink", "sync.threshold = 0.3",
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
    def test_keys_the_kind_never_reads_exit_2(self, tmp_path, capsys, config,
                                              lines, message):
        # a committed config with keys its experiment ignores
        path = write(tmp_path, committed_with(config, lines))
        out = tmp_path / "results"
        assert main(["validate", path]) == 2
        assert main(["run", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err.count(message) == 2
        assert not out.exists()

    @pytest.mark.parametrize("config, lines", KEYS_THE_KIND_READS)
    def test_keys_the_kind_reads_run(self, tmp_path, config, lines):
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

    @pytest.mark.parametrize("key, lines, line, ends, past", RANGES,
                             ids=[row[2].format("") for row in RANGES])
    def test_each_range_holds_its_ends_and_nothing_past_them(
            self, tmp_path, capsys, key, lines, line, ends, past):
        for value in ends:
            path = write(tmp_path, with_lines(LINK, lines + line.format(value)))
            assert main(["validate", path]) == 0
        capsys.readouterr()
        for value in past:
            path = write(tmp_path, with_lines(LINK, lines + line.format(value)))
            out = tmp_path / "results"
            assert main(["validate", path]) == 2
            assert main(["run", path, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.count(f"bad value for {key}: ") == 2
            assert err.count(" is outside the range ") == 2 and not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("key, lines", [
        # a largest Doppler shift whose tap phase over a record overflows,
        # or that overflows itself, in Hz or in Doppler bins
        ("channel.velocity_kmh",
         "channel.profile = eva3\nchannel.velocity_kmh = 1e300"),
        ("frame.carrier_hz", "channel.profile = eva3\nframe.carrier_hz = 1e300"),
        ("frame.bandwidth_hz", "channel.profile = eva3\nframe.bandwidth_hz = 1e-300"),
        ("channel.taps", "channel.profile = custom\nchannel.taps = 0:0:1e308"),
        # a Doppler bin spacing that underflows to 0 Hz
        ("frame.bandwidth_hz", "channel.profile = custom\nchannel.taps = 0:0:0\n"
                               "frame.bandwidth_hz = 4.9e-324"),
        # tap delays past an int64 in samples
        ("frame.bandwidth_hz", "channel.profile = eva3\nframe.bandwidth_hz = 1e300"),
        ("channel.taps", "channel.profile = custom\nchannel.taps = 1e300:0:0"),
        # tap powers that add up to inf or 0
        ("channel.taps", "channel.profile = custom\nchannel.taps = 0:1e300:0"),
        ("channel.taps", "channel.profile = custom\nchannel.taps = 0:-1e300:0"),
        # a noise variance past the float range, and a pilot so far below
        # the noise that an estimate's gains overflow
        ("snr_db", "snr_db = -1e308"),
        ("pilot.power_db", "detector.csi = estimated\npilot.power_db = -3200")])
    def test_values_whose_products_leave_the_float_range_exit_2(
            self, tmp_path, capsys, key, lines):
        path = write(tmp_path, with_lines(LINK, lines))
        out = tmp_path / "results"
        assert main(["validate", path]) == 2
        assert main(["run", path, "--reference-scale", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count(f"bad value for {key}: ") == 2
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_estimate_of_a_pilot_far_below_the_noise_runs(self, tmp_path):
        # the estimate's gains reach about 3e10, and the uplink detector
        # forms their products and solves unscaled
        path = write(tmp_path, WEAK_PILOT_UPLINK)
        out = tmp_path / "results"
        assert main(["run", path, "--out", str(out)]) == 0
        with open(out / "results.csv", newline="") as fh:
            ber = [float(row["value"]) for row in csv.DictReader(fh)]
        assert len(ber) == 2 and all(0.0 <= b <= 1.0 for b in ber)

    @pytest.mark.parametrize("config, lines, reference", [
        ("ber_vs_snr", "channel.velocity_kmh = 30000\nframe.carrier_hz = 1e12", False),
        ("mu_uplink", "channel.velocity_kmh = 30000\nframe.carrier_hz = 1e12", False),
        ("ber_vs_snr", "channel.velocity_kmh = 30000\nframe.carrier_hz = 1e12", True),
        ("ber_vs_snr", "channel.profile = custom\nchannel.taps = 0:0:1e8", True),
        ("ber_vs_snr", "channel.profile = custom\nchannel.taps = 0:0:-1e8\n"
                       "frame.bandwidth_hz = 1000", False)])
    def test_a_doppler_at_the_top_of_its_range_runs(self, tmp_path, config, lines,
                                                    reference):
        # 2.8e7 Hz from the top velocity and carrier, and a 1e8 Hz custom
        # tap, at 32x16 and at 128x32, and over the smallest bandwidth
        path = write(tmp_path, committed_with(config, lines))
        out = tmp_path / "results"
        args = ["run", path, "--trials", "2", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(args + ["--reference-scale"] * reference) == 0
        with open(out / "results.csv", newline="") as fh:
            assert all(math.isfinite(float(row["value"]))
                       for row in csv.DictReader(fh))

    @pytest.mark.parametrize("config, lines", [
        ("sync_vs_snr", "snr_db = -100,-99"),
        ("threshold_sweep", "snr_db = -100"),
        ("ber_vs_snr", "snr_db = -100\nsync.enabled = true\n"
         "impair.theta_d = uniform:0:6\nimpair.epsilon = uniform:-0.4:0.4")])
    def test_sync_runs_at_the_low_end_of_the_snr_range(self, tmp_path, config,
                                                       lines):
        # the sync metric sums products of noise samples near 1e5, unscaled
        path = write(tmp_path, committed_with(config, lines))
        out = tmp_path / "results"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", path, "--trials", "20", "--out", str(out)]) == 0
        with open(out / "results.csv", newline="") as fh:
            assert all(math.isfinite(float(row["value"]))
                       for row in csv.DictReader(fh))

    def test_the_ends_of_the_snr_range_run(self, tmp_path):
        path = write(tmp_path, LINK.replace("snr_db = 30", "snr_db = -100,300"))
        out = tmp_path / "results"
        assert main(["run", path, "--out", str(out)]) == 0
        with open(out / "results.csv", newline="") as fh:
            ber = {(row["snr_db"], row["waveform"]): float(row["value"])
                   for row in csv.DictReader(fh)}
        for w in ("otfs", "sc_ifdma"):
            assert 0.3 < ber["-100", w] < 0.7 and ber["300", w] == 0.0

    @pytest.mark.parametrize("config, lines", [
        ("ber_vs_snr", "snr_db = -100,300\ntrials = 2"),
        ("mu_uplink", "snr_db = -100,300\ntrials = 2\ndetector.csi = estimated")])
    def test_estimated_csi_runs_at_the_ends_of_the_snr_range(self, tmp_path,
                                                             config, lines):
        # the noise floor of an estimate sums squares of values near 1e5
        # at -100 dB, unscaled
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


def bin_range(lo, hi):
    return ",".join(map(str, range(lo, hi)))


class TestFullGridTilings:
    @pytest.mark.parametrize("value", [
        # each user on every Doppler bin
        f"{bin_range(0, 16)}:{bin_range(0, 16)}; {bin_range(16, 32)}:{bin_range(0, 16)}",
        # each user on every delay row
        f"{bin_range(0, 32)}:{bin_range(0, 8)}; {bin_range(0, 32)}:{bin_range(8, 16)}"],
        ids=["delay_split", "doppler_split"])
    def test_users_sharing_rows_or_columns_run(self, tmp_path, value):
        cfg = write(tmp_path, MU + f"mu.allocation = {value}\n")
        out = tmp_path / "results"
        assert main(["validate", cfg]) == 0
        assert main(["run", cfg, "--out", str(out)]) == 0
        with open(out / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["metric"] for row in rows] == ["BER", "BER"]
        assert all(math.isfinite(float(row["value"])) for row in rows)


class TestAllocation:
    """``mu.allocation`` lists each user's delay bins:Doppler bins,
    users separated by ``;``."""

    def test_bins_reach_the_run_allocation(self, tmp_path):
        cfg = write(tmp_path, MU + "mu.allocation = 4,5,6,7:4,5,6,7; 3,0,1,2:0,1,2,3\n")
        assert main(["validate", cfg]) == 0
        alloc = prepare(load_spec(cfg))
        assert [(u.delay_bins, u.doppler_bins) for u in alloc.users] == [
            ((4, 5, 6, 7), (4, 5, 6, 7)), ((0, 1, 2, 3), (0, 1, 2, 3))]

    @pytest.mark.parametrize("value, message", [
        ("0,1:0,1; 1,2:1,2",
         "config error: mu.allocation: users 0 and 1 share delay-Doppler bins"),
        # user 0's Doppler column 0 and user 1's delay row 3 cross in one bin
        ("0,1,2,3:0; 3:0,1,2",
         "config error: mu.allocation: users 0 and 1 share delay-Doppler bins"),
        ("0,1:0,1; 2,3",
         "config error: line 8: bad value for mu.allocation: user '2,3' is not "
         "delay_bins:doppler_bins"),
        ("0,1:0,1:2",
         "config error: line 8: bad value for mu.allocation: user '0,1:0,1:2' "
         "is not delay_bins:doppler_bins"),
        ("0,1:0,1; 2,3,x:2,3",
         "config error: line 8: bad value for mu.allocation: bins must be "
         "integers, got '2,3,x'"),
        ("0,1:0,1; 2,3:2.5", "bins must be integers, got '2.5'"),
        (";", "config error: line 8: bad value for mu.allocation: empty user list"),
        ("0,1:0,1; :2,3", "config error: mu.allocation: user 1 has an empty bin set"),
        ("0,1:0,1; 2,3:", "config error: mu.allocation: user 1 has an empty bin set"),
        ("0,1:0,1; 2,32:2,3",
         "config error: mu.allocation: user 1 bins outside the 32x16 grid"),
        ("0,1:0,1; 2,3:-1,2",
         "config error: mu.allocation: user 1 bins outside the 32x16 grid")])
    def test_bad_allocations_exit_2(self, tmp_path, capsys, value, message):
        cfg = write(tmp_path, MU + f"mu.allocation = {value}\n")
        out = tmp_path / "results"
        assert main(["validate", cfg]) == 2
        assert main(["run", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.count(message) == 2
        assert not out.exists()

    def test_the_committed_uplink_validates_from_any_directory(self, tmp_path,
                                                               monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["validate", str(ROOT / "configs" / "mu_uplink.cfg")]) == 0

    def test_one_bin_changes_the_config_hash(self, tmp_path):
        # the metadata names the bins a run used, and its hash covers them
        def metadata(bins, name):
            out = tmp_path / name
            assert main(["run", write(tmp_path, MU + f"mu.allocation = {bins}\n"),
                         "--out", str(out)]) == 0
            return (out / "metadata.txt").read_text().splitlines()
        a = metadata("0,1:0,1; 2,3:2,3", "a")
        b = metadata("0,1:0,1; 2,4:2,3", "b")
        assert "mu.allocation = 0,1:0,1; 2,3:2,3" in a
        assert "mu.allocation = 0,1:0,1; 2,4:2,3" in b
        hashes = [[line for line in meta if line.startswith("config_hash = ")]
                  for meta in (a, b)]
        assert len(hashes[0]) == 1 and hashes[0] != hashes[1]


class TestReferenceScale:
    def test_stale_allocation_is_a_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path, MU + "mu.allocation = 0,1:0,1; 2,3:2,3\n")
        out = tmp_path / "results"
        assert main(["run", cfg, "--out", str(out), "--reference-scale"]) == 2
        err = capsys.readouterr().err
        assert err == ("config error: mu.allocation lists bins of the 32x16 grid, "
                       "not of the 128x32 reference grid; drop mu.allocation for "
                       "an even split\n")
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
import glob, sys, tempfile
from ddlink.config import load_config, spec_from_config
from ddlink.harness import run
for path in sorted(glob.glob("configs/*.cfg")):
    cfg = load_config(path)
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

    def test_the_variants_table_loads_no_ddlink_numpy_or_scipy(self):
        # pure data, for tools that do not import ddlink
        assert loaded_after(
            "import sys; sys.path.insert(0, 'tests'); import variants; "
            "print([m for m in sys.modules if m.split('.')[0] in "
            "('ddlink', 'numpy', 'scipy')])") == "[]"

    def test_serial_runs_do_not_load_scipy_linalg(self):
        if _blas._lapack().source.startswith("scipy.linalg"):
            pytest.skip("scipy bundles no OpenBLAS with zpbsv here, "
                        "so the band solve calls scipy.linalg")
        # ber_vs_snr.cfg estimates CSI; the mu_uplink configs are uplinks
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
