import warnings
from pathlib import Path

import pytest

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
        no_pilot = eva.replace("sync.enabled = true", "sync.enabled = false")
        assert main(["validate", write(tmp_path, no_pilot)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "frame.L_cp" in err[0]
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
        ("eq.method = iterative", "unknown key 'eq.method'")])
    def test_config_errors_exit_2_before_any_trial(self, tmp_path, capsys,
                                                   monkeypatch, line, message):
        monkeypatch.chdir(ROOT)  # relative mu.allocation paths, as in configs/
        assert_exit_2(tmp_path, capsys, line, message)

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
