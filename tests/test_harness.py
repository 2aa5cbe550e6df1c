import os
import platform
import subprocess
import sys
from concurrent import futures
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from ddlink import _blas, chanest, channel, equalize, harness, multiuser
from ddlink.chanest import PilotConfig
from ddlink.channel import CHANNEL_PROFILES, build_dd_matrix
from ddlink.config import (ConfigError, ExperimentSpec, ImpairSettings,
                           SyncSettings)
from ddlink.equalize import equalize_mmse
from ddlink.frame import FrameConfig
from ddlink.harness import (link_trial, mu_trial, prepare, rows_to_csv, run,
                            seed_stream, sync_trial)
from ddlink.modem import TimeSignal, Waveform, demodulate_direct
from ddlink.multiuser import even_split_allocation
from ddlink.sync import BLOCK_STARTS
from oracles import dense_detect, to_ltv_channel
from strategies import PROPERTY

FRAME = FrameConfig(32, 16, cp_len=8)
PILOT = PilotConfig(4, 8, 1000.0, 4, 4)
BOTH = (Waveform.OTFS, Waveform.SC_IFDMA)


def make_spec(**kw):
    args = dict(kind="ber_vs_snr", frame=FRAME, waveforms=BOTH,
                constellation="16qam", snr_db=(15.0,), trials=2, seed=11,
                channel_profile="eva3", velocity_kmh=500.0, pilot=PILOT,
                csi="estimated")
    args.update(kw)
    return ExperimentSpec(**args)


def channel_sources(monkeypatch):
    """Record, in call order, the channels the receivers' delay diagonals
    stand for: each draw's channels, and the channel of each estimate's
    taps (None for an empty estimate). A solve over k channels reads the
    last k entries. The dense oracles are built from these, never from
    the diagonals under test."""
    sources = []
    real_draw, real_estimate = harness._draw, harness.estimate_channel

    def draw(*args):
        out = real_draw(*args)
        sources.extend(out[0])
        return out

    def estimate(received, pc, waveform, **kw):
        est = real_estimate(received, pc, waveform, **kw)
        sources.append(None if est.is_empty else
                       to_ltv_channel(est, received.frame))
        return est

    monkeypatch.setattr(harness, "_draw", draw)
    monkeypatch.setattr(harness, "estimate_channel", estimate)
    return sources


class TestSeedStream:
    def test_reproducible(self):
        a = seed_stream(3, 17, "noise").standard_normal(32)
        b = seed_stream(3, 17, "noise").standard_normal(32)
        np.testing.assert_array_equal(a, b)

    def test_components_are_decorrelated(self):
        n = 10_000
        draws = {c: seed_stream(0, 0, c).standard_normal(n)
                 for c in ("channel", "noise", "data", "impairment")}
        names = list(draws)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                rho = np.corrcoef(draws[names[i]], draws[names[j]])[0, 1]
                assert abs(rho) < 0.05

    def test_trials_are_distinct(self):
        a = seed_stream(0, 1, "data").standard_normal(16)
        b = seed_stream(0, 2, "data").standard_normal(16)
        assert not np.array_equal(a, b)

    def test_huge_trial_index(self):
        g = seed_stream(0, 2 ** 40 + 5, "channel")
        assert np.isfinite(g.standard_normal(4)).all()

    def test_unknown_component(self):
        with pytest.raises(ValueError):
            seed_stream(0, 0, "weather")


class TestLinkTrial:
    def test_noiseless_identity_channel_is_error_free(self):
        spec = make_spec(channel_profile="single_tap", snr_db=(200.0,), csi="genie")
        out = link_trial(spec, 0, 200.0)
        for w in ("otfs", "sc_ifdma"):
            assert out[w]["bit_errors"] == 0
            assert out[w]["bits"] > 0

    def test_paired_decisions_are_identical(self):
        spec = make_spec()
        for t in range(3):
            out = link_trial(spec, t, 15.0)
            np.testing.assert_array_equal(out["otfs"]["decisions"],
                                          out["sc_ifdma"]["decisions"])
            assert out["otfs"]["bit_errors"] == out["sc_ifdma"]["bit_errors"]

    def test_sync_pipeline_recovers_impairments(self):
        spec = make_spec(channel_profile="single_tap", csi="estimated",
                         snr_db=(30.0,),
                         sync=SyncSettings(enabled=True, threshold=0.5),
                         impair=ImpairSettings(theta_d=("fixed", 5), theta_t=1,
                                               epsilon=("fixed", 0.2)))
        out = link_trial(spec, 1, 30.0)
        assert out["otfs"]["bit_errors"] == 0

    def test_ber_decreases_with_snr(self):
        spec = make_spec(channel_profile="single_tap", csi="genie")
        def ber(snr, trials=6):
            e = b = 0
            for t in range(trials):
                out = link_trial(spec, t, snr)
                e += out["otfs"]["bit_errors"]
                b += out["otfs"]["bits"]
            return e / b
        assert ber(0.0) > ber(20.0)


class TestEqualizerOracle:
    """link_trial's time-domain equalizer against the dense delay-Doppler
    solve, on the exact signal and channel each receiver chain hands it."""

    @staticmethod
    def equalizer_calls(monkeypatch, spec, trials=2):
        calls = []
        real = harness.equalize_time_domain
        sources = channel_sources(monkeypatch)

        def spy(corrected, diagonals, waveform, noise_var):
            out = real(corrected, diagonals, waveform, noise_var)
            calls.append((corrected, sources[-1], waveform, noise_var, out.vec))
            return out

        monkeypatch.setattr(harness, "equalize_time_domain", spy)
        for t in range(trials):
            link_trial(spec, t, 15.0)
        assert {c[2] for c in calls} == set(BOTH)
        return calls

    @pytest.mark.parametrize("sync", [False, True])
    @pytest.mark.parametrize("csi", ["genie", "estimated"])
    def test_mmse_matches_dense_solve(self, monkeypatch, csi, sync):
        spec = make_spec(csi=csi)
        if sync:
            spec = replace(spec, sync=SyncSettings(enabled=True, threshold=0.5),
                           impair=ImpairSettings(theta_d=("fixed", 3),
                                                 epsilon=("uniform", -0.2, 0.2)))
        for corrected, ch, w, s2, out in self.equalizer_calls(monkeypatch, spec):
            received = demodulate_direct(corrected, w)
            oracle = equalize_mmse(received, build_dd_matrix(ch, w), s2).vec
            assert np.linalg.norm(out - oracle) <= 1e-10 * np.linalg.norm(oracle)


class TestChannelForm:
    """The receivers read delay diagonals; a trial computes those of a
    drawn channel once for both waveforms, and an estimate becomes
    diagonals without them."""

    @staticmethod
    def diagonal_builds(monkeypatch, trial):
        built = []
        real = channel.delay_diagonals

        def counted(ch):
            built.append(ch)
            return real(ch)

        for module in (harness, channel, chanest, equalize, multiuser):
            monkeypatch.setattr(module, "delay_diagonals", counted, raising=False)
        trial()
        return len(built)

    @pytest.mark.parametrize("csi,builds", [("genie", 1), ("estimated", 0)])
    def test_link_trial(self, monkeypatch, csi, builds):
        spec = make_spec(csi=csi)
        assert self.diagonal_builds(
            monkeypatch, lambda: link_trial(spec, 0, 15.0)) == builds

    @pytest.mark.parametrize("csi,builds", [("genie", 2), ("estimated", 0)])
    def test_mu_trial(self, monkeypatch, csi, builds):
        spec = make_spec(kind="mu_uplink", constellation="qpsk", csi=csi,
                         pilot=PilotConfig(4, 8, 1000.0, 3, 3))
        alloc = even_split_allocation(FRAME.M, FRAME.N, 2)
        assert self.diagonal_builds(
            monkeypatch, lambda: mu_trial(spec, 0, 15.0, alloc)) == builds


class TestTrialWork:
    """What a trial computes once: one demodulation of the record for
    both waveforms (none with genie CSI), and the impairment substream
    only when an impairment is drawn."""

    @PROPERTY
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 63),
           st.integers(0, 2**32 - 1))
    def test_shared_grids_equal_each_demodulation(self, M, N, cp, seed):
        frame = FrameConfig(M, N, cp_len=cp % (M * N))
        g = np.random.default_rng(seed)
        signal = TimeSignal(g.standard_normal(frame.frame_len)
                            + 1j * g.standard_normal(frame.frame_len), frame)
        grids = harness._received_grids(signal)
        for w in BOTH:
            assert np.array_equal(grids[w].data, demodulate_direct(signal, w).data)

    @staticmethod
    def demodulations(monkeypatch, trial):
        """Demodulations a trial runs, by the module that asked."""
        calls = []
        real = harness.demodulate_direct
        for module in (harness, chanest, equalize, multiuser):
            def counted(signal, waveform, name=module.__name__):
                calls.append(name)
                return real(signal, waveform)
            monkeypatch.setattr(module, "demodulate_direct", counted,
                                raising=False)
        trial()
        return sorted(calls)

    @pytest.mark.parametrize("csi", ["genie", "estimated"])
    def test_link_trial(self, monkeypatch, csi):
        # the equalizer demodulates its own solution, once per waveform
        spec = make_spec(csi=csi)
        calls = self.demodulations(monkeypatch, lambda: link_trial(spec, 0, 15.0))
        assert calls == (["ddlink.equalize"] * 2
                         + (["ddlink.harness"] if csi == "estimated" else []))

    @pytest.mark.parametrize("csi", ["genie", "estimated"])
    def test_mu_trial(self, monkeypatch, csi):
        spec = make_spec(kind="mu_uplink", constellation="qpsk", csi=csi,
                         pilot=PilotConfig(4, 8, 1000.0, 3, 3))
        alloc = even_split_allocation(FRAME.M, FRAME.N, 2)
        calls = self.demodulations(monkeypatch,
                                   lambda: mu_trial(spec, 0, 15.0, alloc))
        assert calls == (["ddlink.harness"] if csi == "estimated" else [])

    @pytest.mark.parametrize("impair,drawn", [
        (ImpairSettings(theta_d=("fixed", 2), epsilon=("fixed", 0.1)), False),
        (ImpairSettings(theta_d=("uniform", 0, 3)), True),
        (ImpairSettings(epsilon=("uniform", -0.2, 0.2)), True)])
    def test_impairment_stream_only_when_drawn(self, monkeypatch, impair, drawn):
        components = []
        real = harness.seed_stream

        def spy(seed, trial, component):
            components.append(component)
            return real(seed, trial, component)

        monkeypatch.setattr(harness, "seed_stream", spy)
        # impairments exist only where sync runs
        link_trial(make_spec(impair=impair, sync=SyncSettings(enabled=True)),
                   0, 15.0)
        assert ("impairment" in components) == drawn
        if not drawn:   # fixed settings never read the generator
            assert impair.draw(None) == impair.draw(np.random.default_rng(0))


@st.composite
def paired_specs(draw):
    """A small random detection spec: a link, or a two-user even-split
    uplink, on an M x N grid of up to 8 x 8 with any CP, a built-in
    profile or random custom taps (delays up to past the whole frame),
    genie or estimated CSI, and on the link sync on or off (with a timing
    offset and CFO when on). Estimated CSI gets a leading guard row,
    which its noise floor needs. A spec with sync is one that ``prepare``
    accepts: two or more columns, and a CP, pilot row, timing delay and
    largest tap delay that together stay under 2M samples, so the pilot
    run starts in a block the block search sees."""
    kind, sync = draw(st.sampled_from(
        [("ber_vs_snr", False), ("ber_vs_snr", True), ("mu_uplink", False)]))
    csi = draw(st.sampled_from(["genie", "estimated"]))
    users = 2 if kind == "mu_uplink" else 1
    M = draw(st.integers(3 * users if csi == "estimated" else users, 8))
    N = draw(st.integers(max(users, 1 + sync), 8))
    gd = draw(st.integers(int(csi == "estimated"), (M // users - 1) // 2))
    gk = draw(st.integers(0, (N // users - 1) // 2))
    pilot = PilotConfig(draw(st.integers(gd, M - 1 - gd)),
                        draw(st.integers(gk, N - 1 - gk)), 1000.0, gd, gk)
    room = M * BLOCK_STARTS - 1 - pilot.pilot_delay if sync else None
    frame = FrameConfig(M, N, cp_len=draw(st.integers(0, room if sync else M * N - 1)))
    longest = room - frame.cp_len if sync else frame.frame_len
    sample_ns, bin_hz = 1e9 / frame.bandwidth_hz, frame.doppler_spacing
    taps = st.tuples(st.integers(0, longest).map(lambda d: d * sample_ns),
                     st.floats(-10.0, 0.0),
                     st.floats(-N / 2, N / 2).map(lambda k: k * bin_hz))
    profiles = [p for p in sorted(CHANNEL_PROFILES) if not sync or channel.make_channel(
        p, frame, 0.0, np.random.default_rng(0)).n_spread <= longest + 1]
    profile = draw(st.sampled_from(profiles + ["custom"]))
    custom = (tuple(draw(st.lists(taps, min_size=1, max_size=4)))
              if profile == "custom" else None)
    spec = ExperimentSpec(
        kind=kind, frame=frame, waveforms=BOTH,
        constellation=draw(st.sampled_from(["qpsk", "16qam"])),
        snr_db=(draw(st.sampled_from([0.0, 15.0, 40.0])),), trials=2,
        seed=draw(st.integers(0, 2 ** 16)), channel_profile=profile,
        custom_taps=custom, pilot=pilot, csi=csi, mu_users=users)
    if not sync:
        return spec
    top = min(3, longest - harness._largest_tap_delay(spec))
    return replace(spec, sync=SyncSettings(enabled=True), impair=ImpairSettings(
        theta_d=("uniform", 0, top), epsilon=("uniform", -0.3, 0.3)))


class TestPairedDecisions:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(paired_specs())
    def test_waveforms_decide_alike(self, spec):
        # the paper's central claim, trial by trial, on random small specs
        alloc = prepare(spec)
        for t in range(spec.trials):
            out = (link_trial(spec, t, spec.snr_db[0]) if alloc is None
                   else mu_trial(spec, t, spec.snr_db[0], alloc))
            np.testing.assert_array_equal(out["otfs"]["decisions"],
                                          out["sc_ifdma"]["decisions"])
            assert out["otfs"]["bit_errors"] == out["sc_ifdma"]["bit_errors"]


class TestSyncTrial:
    def test_waveforms_see_same_quality(self):
        spec = make_spec(kind="sync_vs_snr", channel_profile="single_tap",
                         sync=SyncSettings(enabled=True),
                         impair=ImpairSettings(theta_d=("fixed", 4),
                                               epsilon=("uniform", -0.4, 0.4)))
        out = sync_trial(spec, 0, 20.0)
        for w in ("otfs", "sc_ifdma"):
            assert out[w]["fine_err"] == 0
            assert out[w]["cfo_sq_err"] < 1e-3

    def test_threshold_sweep_reports_every_threshold(self):
        spec = make_spec(kind="threshold_sweep", channel_profile="two_tap_biased",
                         waveforms=(Waveform.OTFS,),
                         sweep_thresholds=(0.4, 1.0),
                         sync=SyncSettings(enabled=True),
                         impair=ImpairSettings(theta_d=("fixed", 2)))
        out = sync_trial(spec, 0, 15.0)["otfs"]
        assert "fine_err@0.4" in out and "fine_err@1" in out
        assert out["fine_err@0.4"] <= out["fine_err@1"]


class TestMuTrial:
    def test_paired_decisions_across_waveforms(self):
        spec = make_spec(kind="mu_uplink", channel_profile="single_tap",
                         constellation="qpsk", snr_db=(25.0,), csi="genie")
        alloc = even_split_allocation(FRAME.M, FRAME.N, 2)
        out = mu_trial(spec, 0, 25.0, alloc)
        np.testing.assert_array_equal(out["otfs"]["decisions"],
                                      out["sc_ifdma"]["decisions"])
        assert out["otfs"]["bit_errors"] == 0

    def test_estimated_csi_with_per_user_pilots(self):
        spec = make_spec(kind="mu_uplink", channel_profile="eva3",
                         velocity_kmh=120.0, constellation="qpsk",
                         snr_db=(20.0,), csi="estimated",
                         pilot=PilotConfig(4, 8, 1000.0, 3, 3))
        alloc = even_split_allocation(FRAME.M, FRAME.N, 2)
        errors = bits = 0
        for t in range(3):
            out = mu_trial(spec, t, 20.0, alloc)
            np.testing.assert_array_equal(out["otfs"]["decisions"],
                                          out["sc_ifdma"]["decisions"])
            errors += out["otfs"]["bit_errors"]
            bits += out["otfs"]["bits"]
        assert errors / bits < 0.05

    @staticmethod
    def detector_calls(monkeypatch, spec, alloc, trials=2):
        """Run mu_trial with the joint detector spied on and every dense
        delay-Doppler build made to fail."""
        calls = []
        real = harness.detect_users_time_domain
        sources = channel_sources(monkeypatch)

        def spy(received, channels, alloc, waveform, noise_var):
            out = real(received, channels, alloc, waveform, noise_var)
            assert [ch is None for ch in channels] == \
                [ch is None for ch in sources[-alloc.n_users:]]
            calls.append((received, sources[-alloc.n_users:], waveform,
                          noise_var, out.vec))
            return out

        def no_dd_matrix(*args, **kwargs):
            raise AssertionError("mu_trial built a dense delay-Doppler matrix")

        with monkeypatch.context() as m:
            m.setattr(harness, "detect_users_time_domain", spy)
            for module in (harness, channel, chanest, multiuser):
                m.setattr(module, "build_dd_matrix", no_dd_matrix, raising=False)
            for t in range(trials):
                mu_trial(spec, t, 15.0, alloc)
        assert {c[2] for c in calls} == set(BOTH)
        return calls

    @staticmethod
    def estimated_spec():
        return make_spec(kind="mu_uplink", channel_profile="eva3",
                         velocity_kmh=120.0, constellation="qpsk",
                         csi="estimated", pilot=PilotConfig(4, 8, 1000.0, 3, 3))

    @pytest.mark.parametrize("csi", ["genie", "estimated"])
    def test_detector_matches_dense_compound(self, monkeypatch, csi):
        spec = (self.estimated_spec() if csi == "estimated" else
                make_spec(kind="mu_uplink", constellation="qpsk", csi="genie"))
        alloc = even_split_allocation(FRAME.M, FRAME.N, 2)
        for received, channels, w, s2, out in self.detector_calls(monkeypatch,
                                                                  spec, alloc):
            assert all(ch is not None for ch in channels)
            oracle = dense_detect(received, channels, alloc, w, s2).vec
            assert np.linalg.norm(out - oracle) <= 1e-10 * np.linalg.norm(oracle)

    def test_empty_user_estimate_contributes_zero_columns(self, monkeypatch):
        spec = self.estimated_spec()
        alloc = even_split_allocation(FRAME.M, FRAME.N, 2)
        silenced = harness._mu_user_pilot(spec, alloc, 1)
        real = harness.estimate_channel

        def estimate(received, pc, waveform, **kw):
            est = real(received, pc, waveform, **kw)
            return replace(est, taps=()) if pc == silenced else est

        monkeypatch.setattr(harness, "estimate_channel", estimate)
        for received, channels, w, s2, out in self.detector_calls(monkeypatch,
                                                                  spec, alloc):
            assert channels[0] is not None and channels[1] is None
            assert not np.any(out[alloc.vec_indices(1)])
            oracle = dense_detect(received, channels, alloc, w, s2).vec
            assert np.linalg.norm(out - oracle) <= 1e-10 * np.linalg.norm(oracle)

    def test_guards_must_fit_inside_the_allocation(self):
        spec = make_spec(kind="mu_uplink", csi="estimated",
                         pilot=PilotConfig(4, 8, 1000.0, 4, 4))
        alloc = even_split_allocation(FRAME.M, FRAME.N, 4)  # 4 Doppler bins each
        with pytest.raises(ConfigError, match="guard rectangle"):
            mu_trial(spec, 0, 20.0, alloc)

    @pytest.mark.parametrize("settings, keys", [
        (dict(sync=SyncSettings(enabled=True)), "sync.enabled"),
        (dict(impair=ImpairSettings(theta_d=("fixed", 3.0))), "impair.theta_d"),
        (dict(impair=ImpairSettings(theta_t=1)), "impair.theta_t"),
        (dict(impair=ImpairSettings(epsilon=("uniform", -0.4, 0.4))),
         "impair.epsilon"),
        (dict(sync=SyncSettings(enabled=True),
              impair=ImpairSettings(theta_d=("fixed", 3.0),
                                    epsilon=("uniform", -0.4, 0.4))),
         "sync.enabled, impair.theta_d, impair.epsilon")])
    def test_sync_and_impairments_are_rejected(self, settings, keys):
        # mu_trial reads neither, so a run would ignore them
        spec = make_spec(kind="mu_uplink", csi="genie", **settings)
        with pytest.raises(ConfigError, match=f"^{keys}: mu_uplink runs without"):
            prepare(spec)

    def test_settings_equal_to_the_defaults_pass(self):
        spec = make_spec(kind="mu_uplink", csi="genie",
                         sync=SyncSettings(enabled=False, threshold=0.3),
                         impair=ImpairSettings(theta_d=("fixed", 0.0),
                                               epsilon=("fixed", 0.0)))
        assert prepare(spec).n_users == 2


class TestRun:
    def test_csv_and_metadata_written(self, tmp_path):
        spec = make_spec(kind="sync_vs_snr", channel_profile="single_tap",
                         trials=2, snr_db=(10.0, 20.0),
                         sync=SyncSettings(enabled=True),
                         impair=ImpairSettings(epsilon=("uniform", -0.3, 0.3)))
        rows = run(spec, out_dir=tmp_path)
        text = (tmp_path / "results.csv").read_text()
        assert text.splitlines()[0] == "experiment,waveform,snr_db,metric,value,trials,seed"
        assert len(text.splitlines()) == 1 + len(rows)
        metrics = {r.metric for r in rows}
        assert metrics == {"TO_mean_error", "TO_fine_mean_error", "CFO_MSE"}
        meta = (tmp_path / "metadata.txt").read_text()
        assert "config_hash" in meta and "snr_definition" in meta

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_metadata_reports_versions_and_parallelism(self, tmp_path,
                                                       parallelism):
        spec = make_spec(trials=2, snr_db=(10.0,), channel_profile="single_tap")
        run(spec, out_dir=tmp_path, parallelism=parallelism)
        meta = (tmp_path / "metadata.txt").read_text().splitlines()
        for line in (f"python = {platform.python_version()}",
                     f"numpy = {np.__version__}",
                     f"scipy = {scipy.__version__}",
                     f"parallelism = {parallelism}"):
            assert line in meta

    def test_reproducible_csv(self, tmp_path):
        spec = make_spec(trials=2, snr_db=(10.0,))
        a = rows_to_csv(run(spec, out_dir=tmp_path / "a"))
        b = rows_to_csv(run(spec, out_dir=tmp_path / "b"))
        assert a == b
        assert (tmp_path / "a/results.csv").read_bytes() == \
            (tmp_path / "b/results.csv").read_bytes()

    @pytest.mark.parametrize("parallelism", [0, -1])
    def test_parallelism_below_one_rejected(self, parallelism):
        with pytest.raises(ValueError, match="parallelism"):
            run(make_spec(trials=1, snr_db=(10.0,)), parallelism=parallelism)

    @pytest.mark.parametrize("kind", ["ber_vs_snr", "sync_vs_snr",
                                      "threshold_sweep", "mu_uplink"])
    def test_parallel_matches_serial(self, kind):
        # 5 trials over 2 workers: chunks of 3 and 2; the uplink has no sync
        spec = make_spec(kind=kind, channel_profile="single_tap",
                         constellation="qpsk", csi="genie", trials=5,
                         snr_db=(10.0, 20.0),
                         sync=SyncSettings(enabled=kind != "mu_uplink"))
        serial = rows_to_csv(run(spec, parallelism=1))
        parallel = rows_to_csv(run(spec, parallelism=2))
        assert serial == parallel

    @pytest.mark.parametrize("kind,name", [("ber_vs_snr", "link_trial"),
                                           ("mu_uplink", "mu_trial")])
    def test_run_leaves_the_trial_decisions_in_place(self, monkeypatch, kind,
                                                     name):
        # ddbench checks the decisions of the dicts the trials returned
        # after run returns
        kept = []
        real = getattr(harness, name)

        def keep(*args):
            kept.append(real(*args))
            return kept[-1]

        monkeypatch.setattr(harness, name, keep)
        run(make_spec(kind=kind, trials=2, snr_db=(10.0, 20.0),
                      channel_profile="single_tap", csi="genie"))
        assert len(kept) == 4
        for out in kept:
            for w in BOTH:
                assert out[w.value]["decisions"].size > 0

    def test_one_worker_pool_per_run(self, monkeypatch):
        pools = []

        class CountedPool(futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        # run imports the pool class from concurrent.futures when it needs it
        monkeypatch.setattr(futures, "ProcessPoolExecutor", CountedPool)
        spec = make_spec(kind="sync_vs_snr", channel_profile="single_tap",
                         trials=2, snr_db=(10.0, 20.0),
                         sync=SyncSettings(enabled=True))
        run(spec, parallelism=2)
        assert len(pools) == 1

    @pytest.mark.parametrize("kind,name", [("ber_vs_snr", "link_trial"),
                                           ("sync_vs_snr", "sync_trial"),
                                           ("threshold_sweep", "sync_trial"),
                                           ("mu_uplink", "mu_trial")])
    def test_trials_run_through_the_module_attributes(self, monkeypatch, kind,
                                                      name):
        # ddbench times trials by rebinding these attributes; a dispatch
        # that held the functions themselves would bypass the rebinding
        calls = []
        real = getattr(harness, name)

        def spy(spec, trial_id, *args):
            calls.append(trial_id)
            return real(spec, trial_id, *args)

        monkeypatch.setattr(harness, name, spy)
        spec = make_spec(kind=kind, trials=2, snr_db=(10.0, 20.0),
                         channel_profile="single_tap", constellation="qpsk",
                         csi="genie", sync=SyncSettings(enabled=kind != "mu_uplink"))
        run(spec)
        assert calls == [0, 1, 2, 3]

    def test_seed_changes_results(self):
        spec_a = make_spec(trials=2)
        spec_b = make_spec(trials=2, seed=99)
        assert rows_to_csv(run(spec_a)) != rows_to_csv(run(spec_b))

    def test_ber_experiment_rows(self):
        spec = make_spec(trials=2, snr_db=(15.0,))
        rows = run(spec)
        assert [r.metric for r in rows] == ["BER", "BER"]
        assert {r.waveform for r in rows} == {"otfs", "sc_ifdma"}
        assert rows[0].value == rows[1].value  # paired construction


def blas_threads():
    """Thread count of every OpenBLAS the harness finds, by package."""
    return {package: lib.get() for package, lib in harness._openblas().items()
            if lib is not None}


@pytest.fixture
def caller_blas_threads():
    """Every OpenBLAS found at 2 threads for the test (as the caller's
    setting); the counts before the test come back after it."""
    saved = blas_threads()
    harness._set_blas_threads(2)
    yield blas_threads()
    for package, count in saved.items():
        harness._openblas()[package].set(count)


class TestBlasThreads:
    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_trials_run_on_one_blas_thread(self, monkeypatch, caller_blas_threads,
                                           parallelism):
        real = harness.mu_trial

        def pinned(*args):
            if any(count != 1 for count in blas_threads().values()):
                raise RuntimeError(f"BLAS threads in a trial: {blas_threads()}")
            return real(*args)

        monkeypatch.setattr(harness, "mu_trial", pinned)
        spec = make_spec(kind="mu_uplink", channel_profile="single_tap",
                         constellation="qpsk", csi="genie", trials=3,
                         snr_db=(10.0, 20.0))
        assert len(run(spec, parallelism=parallelism)) == 4

    def test_run_restores_the_caller_counts(self, monkeypatch,
                                            caller_blas_threads):
        spec = make_spec(trials=1, snr_db=(10.0,), channel_profile="single_tap")
        run(spec)
        assert blas_threads() == caller_blas_threads

        def fails(*args):
            raise RuntimeError("trial failed")

        monkeypatch.setattr(harness, "link_trial", fails)
        with pytest.raises(RuntimeError, match="trial failed"):
            run(spec)
        assert blas_threads() == caller_blas_threads

    def test_finds_the_openblas_each_package_bundles(self):
        # a library file in a package's .libs directory is found, with
        # its thread and config symbols
        for package, pattern, _ in _blas._OPENBLAS:
            mod = __import__(package)
            libs = Path(mod.__file__).parent.parent / f"{package}.libs"
            lib = harness._openblas()[package]
            assert (lib is not None) == any(libs.glob(pattern))
            if lib is not None:
                assert lib.name in {p.name for p in libs.glob(pattern)}
                assert "OpenBLAS" in lib.config and lib.get() >= 1

    def test_metadata_reports_each_library(self, tmp_path, caller_blas_threads):
        spec = make_spec(trials=1, snr_db=(10.0,), channel_profile="single_tap")
        run(spec, out_dir=tmp_path)
        meta = (tmp_path / "metadata.txt").read_text().splitlines()
        for package, lib in harness._openblas().items():
            line = next(m for m in meta if m.startswith(f"openblas_{package} = "))
            if lib is None:
                assert line == f"openblas_{package} = not found"
            else:
                assert line == (
                    f"openblas_{package} = {lib.name} ({lib.config}); threads "
                    f"{caller_blas_threads[package]} before the run, 1 during it")
        lapack = _blas._lapack()
        assert f"band_solve_lapack = {lapack.source}" in meta
        scipy_blas = harness._openblas()["scipy"]
        assert lapack.source.startswith(
            "scipy.linalg" if scipy_blas is None else f"{scipy_blas.name} through ctypes")

    def test_runs_and_reports_when_no_library_is_found(self, monkeypatch,
                                                       tmp_path):
        spec = make_spec(kind="mu_uplink", channel_profile="single_tap",
                         constellation="qpsk", csi="genie", trials=2,
                         snr_db=(10.0,))
        run(spec, out_dir=tmp_path / "found")
        monkeypatch.setattr(harness, "_openblas",
                            lambda: {"numpy": None, "scipy": None})
        run(spec, out_dir=tmp_path / "none")
        meta = (tmp_path / "none/metadata.txt").read_text().splitlines()
        assert "openblas_numpy = not found" in meta
        assert "openblas_scipy = not found" in meta
        assert ((tmp_path / "none/results.csv").read_bytes()
                == (tmp_path / "found/results.csv").read_bytes())


# serial uplink runs of one trial per cell after two warm-up runs; prints
# the minor page faults per trial
FAULTS_PER_TRIAL = """
import resource
from dataclasses import replace
from ddlink.config import load_config, spec_from_config
from ddlink.harness import run
spec = replace(spec_from_config(load_config("configs/mu_uplink.cfg")), trials=1)
faults = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for seed in range(2):
    run(replace(spec, seed=seed))
before = faults()
for seed in range(20):
    run(replace(spec, seed=seed))
print((faults() - before) / (20 * len(spec.snr_db)))
"""


class TestFreedHeap:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the malloc thresholds are glibc's")
    def test_serial_trials_fault_in_no_fresh_memory(self):
        # each uplink trial frees a few hundred KB of arrays; returned to
        # the kernel, they cost about 200 page faults in the next trial
        root = Path(__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "-c", FAULTS_PER_TRIAL], cwd=root,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True, text=True, check=True, timeout=120)
        assert float(out.stdout) < 10
        assert _blas._keep_freed_heap()
