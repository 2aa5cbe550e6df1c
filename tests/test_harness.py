import math
import os
import platform
import re
import subprocess
import sys
import warnings
from concurrent import futures
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddlink import (_blas, _seeds, chanest, channel, config, equalize,
                    harness, mapping, multiuser)
from ddlink.chanest import PilotConfig
from ddlink.channel import CHANNEL_PROFILES, LtvChannel, build_dd_matrix
from ddlink.config import (EXPERIMENTS, SCHEMA, ConfigError, ExperimentSpec,
                           ImpairSettings, SyncSettings, canonical_text,
                           load_config, load_spec, parse_config_text, reads,
                           spec_from_config)
from ddlink.equalize import equalize_mmse
from ddlink.frame import FrameConfig
from ddlink.harness import (link_trial, mu_trial, prepare, rows_to_csv, run,
                            seed_stream, sync_trial)
from ddlink.modem import TimeSignal, Waveform, demodulate_direct
from ddlink.multiuser import even_split_allocation
from ddlink.sync import BLOCK_STARTS, Impairments, SyncEstimate
from oracles import (bits, dense_detect, in_otfs_convention,
                     seed_stream_by_sequence, send_by_parts,
                     sync_trial_per_waveform, to_ltv_channel,
                     transmit_one_waveform, unread_keys_by_path)
from strategies import PROPERTY

ROOT = Path(__file__).resolve().parents[1]
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

    # one-word masters and trial ids read the block tables; the others,
    # from 2**32 on, go through a SeedSequence
    MASTERS = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 1)
    TRIALS = (0, 255, 256, 257, 2 ** 31, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 5)

    @staticmethod
    def assert_states_equal_the_oracle(master, trial):
        for c in _seeds.COMPONENTS:
            assert (seed_stream(master, trial, c).bit_generator.state
                    == seed_stream_by_sequence(master, trial, c).bit_generator.state)

    def test_states_at_word_and_block_edges(self):
        for master in self.MASTERS:
            for trial in self.TRIALS:
                self.assert_states_equal_the_oracle(master, trial)

    @PROPERTY
    @given(master=st.one_of(st.sampled_from(MASTERS), st.integers(0, 2 ** 33),
                            st.integers(0, 2 ** 65)),
           first=st.one_of(
               st.sampled_from(TRIALS), st.integers(0, 2 ** 41),
               # the last two ids of a block and the first two of the next
               st.builds(lambda block, step: block * 256 + step,
                         st.integers(1, 2 ** 24 + 2), st.integers(-2, 0))))
    def test_states_equal_the_seed_sequence_oracle(self, master, first):
        for trial in (first, first + 1):
            self.assert_states_equal_the_oracle(master, trial)

    @pytest.mark.parametrize("master, trial", [(-1, 0), (0, -1), (-1, -1),
                                               (-3, 2 ** 40), (2 ** 40, -3)])
    def test_negative_master_or_trial_raises_as_the_oracle(self, master, trial):
        with pytest.raises(ValueError) as want:
            seed_stream_by_sequence(master, trial, "noise")
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            seed_stream(master, trial, "noise")

    def test_the_table_cache_stays_bounded(self):
        most = _seeds._block.cache_info().maxsize
        for master in range(3 * most):
            seed_stream(master, 0, "data")
            assert _seeds._block.cache_info().currsize <= most


class TestSeedTablesInARun:
    """A run with the block tables writes what one with a SeedSequence
    per substream writes."""

    @pytest.mark.parametrize("config, trials, seed", [
        # cells of 300 trials start mid-block
        ("sync_vs_snr", 300, None),
        # its impairment substream is drawn
        ("threshold_sweep", None, None),
        # a two-word master: every substream comes from a SeedSequence
        ("mu_uplink", 20, 2 ** 32 + 3)])
    def test_results_equal_the_seed_sequence_oracle(self, monkeypatch, config,
                                                    trials, seed):
        spec = load_spec(str(ROOT / "configs" / f"{config}.cfg"))
        spec = replace(spec, trials=trials or spec.trials,
                       seed=spec.seed if seed is None else seed)
        tables = rows_to_csv(run(spec))
        monkeypatch.setattr(harness, "seed_stream", seed_stream_by_sequence)
        assert rows_to_csv(run(spec)) == tables


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

    def test_genie_csi_under_exact_sync_is_error_free(self, monkeypatch):
        # the frame is sent 6 samples into the record; with sync forced
        # exact and no CFO, genie CSI must read each tap as it was at the
        # frame's samples, where the fast eva3 taps have turned by their
        # Doppler phase
        offset = 6
        spec = make_spec(csi="genie", snr_db=(100.0,),
                         sync=SyncSettings(enabled=True, threshold=0.5),
                         impair=ImpairSettings(theta_d=("fixed", offset)))
        exact = SyncEstimate(offset, offset, 0, 0.0, np.zeros(FRAME.M))
        monkeypatch.setattr(harness, "_estimate_sync", lambda spec, record: exact)
        for t in range(10):
            out = link_trial(spec, t, 100.0)
            assert out["otfs"]["bit_errors"] == out["sc_ifdma"]["bit_errors"] == 0

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
    solve of each waveform, on the exact signal and channel each receiver
    chain hands it: its one grid, in the OTFS convention, serves both."""

    @staticmethod
    def equalizer_calls(monkeypatch, spec, trials=2):
        calls = []
        real = harness.equalize_time_domain
        sources = channel_sources(monkeypatch)

        def spy(corrected, diagonals, noise_var):
            out = real(corrected, diagonals, noise_var)
            assert diagonals is not None and sources[-1] is not None
            calls.append((corrected, sources[-1], noise_var, out.vec))
            return out

        monkeypatch.setattr(harness, "equalize_time_domain", spy)
        for t in range(trials):
            link_trial(spec, t, 15.0)
        assert calls
        return calls

    @pytest.mark.parametrize("sync", [False, True])
    @pytest.mark.parametrize("csi", ["genie", "estimated"])
    def test_mmse_matches_dense_solve(self, monkeypatch, csi, sync):
        spec = make_spec(csi=csi)
        if sync:
            spec = replace(spec, sync=SyncSettings(enabled=True, threshold=0.5),
                           impair=ImpairSettings(theta_d=("fixed", 3),
                                                 epsilon=("uniform", -0.2, 0.2)))
        for corrected, ch, s2, out in self.equalizer_calls(monkeypatch, spec):
            if csi == "genie" and sync:
                # the frame is sent 3 samples into the record, where each
                # drawn tap has turned by its Doppler phase
                ch = LtvChannel(tuple(
                    replace(tap, gain=tap.gain * np.exp(
                        2j * np.pi * tap.doppler * 3 / FRAME.grid_size))
                    for tap in ch.taps), ch.frame)
            for w in BOTH:
                oracle = in_otfs_convention(equalize_mmse(
                    demodulate_direct(corrected, w), build_dd_matrix(ch, w), s2), w)
                assert np.linalg.norm(out - oracle) <= 1e-10 * np.linalg.norm(oracle)

    @pytest.mark.parametrize("csi,solves", [("genie", 1), ("estimated", 2)])
    def test_equalizer_and_band_solve_calls(self, monkeypatch, csi, solves):
        # genie CSI serves both waveforms, so one equalizer call solves the
        # band once and its grid serves both; estimated CSI makes one call,
        # and one solve, per waveform
        spec = make_spec(csi=csi)
        calls = []
        for module, name in ((harness, "equalize_time_domain"),
                             (equalize, "_solve_band")):
            def counted(*args, real=getattr(module, name), name=name):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(module, name, counted)
        for t in range(3):
            calls.clear()
            link_trial(spec, t, 15.0)
            assert calls.count("equalize_time_domain") == solves
            assert calls.count("_solve_band") == solves


class TestChannelForm:
    """The receivers read delay diagonals from one route: a trial computes
    those of a drawn channel once for both waveforms, and those of each
    estimate, one per pilot and waveform."""

    @staticmethod
    def diagonal_builds(monkeypatch, trial):
        built = []
        real = channel.delay_diagonals

        def counted(ch, *args):
            built.append(ch)
            return real(ch, *args)

        for module in (harness, channel, chanest, equalize, multiuser):
            monkeypatch.setattr(module, "delay_diagonals", counted, raising=False)
        trial()
        return len(built)

    @pytest.mark.parametrize("csi,builds", [("genie", 1), ("estimated", 2)])
    def test_link_trial(self, monkeypatch, csi, builds):
        spec = make_spec(csi=csi)
        assert self.diagonal_builds(
            monkeypatch, lambda: link_trial(spec, 0, 15.0)) == builds

    @pytest.mark.parametrize("csi,builds", [("genie", 2), ("estimated", 4)])
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
        # the equalizer demodulates its own solution, once per call: one
        # call with genie CSI, one per waveform with estimated CSI
        spec = make_spec(csi=csi)
        calls = self.demodulations(monkeypatch, lambda: link_trial(spec, 0, 15.0))
        assert calls == (["ddlink.equalize"] * (1 if csi == "genie" else 2)
                         + (["ddlink.harness"] if csi == "estimated" else []))

    @pytest.mark.parametrize("csi", ["genie", "estimated"])
    def test_mu_trial(self, monkeypatch, csi):
        spec = make_spec(kind="mu_uplink", constellation="qpsk", csi=csi,
                         pilot=PilotConfig(4, 8, 1000.0, 3, 3))
        alloc = even_split_allocation(FRAME.M, FRAME.N, 2)
        calls = self.demodulations(monkeypatch,
                                   lambda: mu_trial(spec, 0, 15.0, alloc))
        assert calls == (["ddlink.harness"] if csi == "estimated" else [])

    @pytest.mark.parametrize("impair", [
        ImpairSettings(theta_d=("fixed", 2), epsilon=("fixed", 0.1)),
        ImpairSettings(theta_d=("uniform", 0, 3), epsilon=("uniform", -0.2, 0.2))])
    @pytest.mark.parametrize("kind, sync", [("ber_vs_snr", True),
                                            ("ber_vs_snr", False),
                                            ("sync_vs_snr", True),
                                            ("threshold_sweep", True),
                                            ("mu_uplink", False)])
    def test_impairment_stream_wherever_sync_runs(self, monkeypatch, impair,
                                                  kind, sync):
        components = []
        real = harness.seed_stream

        def spy(seed, trial, component):
            components.append(component)
            return real(seed, trial, component)

        monkeypatch.setattr(harness, "seed_stream", spy)
        spec = make_spec(kind=kind, constellation="qpsk", csi="genie",
                         impair=impair, sync=SyncSettings(enabled=sync))
        harness._summary(spec, 15.0, even_split_allocation(FRAME.M, FRAME.N, 2),
                         0)
        # impairments exist only where sync runs, and an uplink never syncs
        assert ("impairment" in components) == (kind != "mu_uplink" and sync)

    @pytest.mark.parametrize("impair", [
        ImpairSettings(),
        ImpairSettings(theta_d=("fixed", 2), theta_t=1, epsilon=("fixed", 0.1))])
    def test_fixed_settings_draw_the_same_from_any_generator(self, impair):
        draws = {impair.draw(np.random.default_rng(seed)) for seed in range(5)}
        assert draws == {Impairments(impair.theta_d[1], impair.theta_t,
                                     impair.epsilon[1])}


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
        custom_taps=custom, pilot=pilot, csi=csi)
    if not sync:
        return spec
    top = min(3, longest - config._largest_tap_delay(spec))
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


def draw_impairments(draw, spec):
    """``spec`` with impairments that ``prepare`` accepts where it syncs:
    a fixed or uniform timing delay, a block offset where the pilot run
    leaves room for one, and a CFO that is zero, fixed or uniform."""
    frame, M = spec.frame, spec.frame.M
    # the pilot run starts in block (cp + m_p + theta_d + delay) // M + theta_t
    lead = frame.cp_len + spec.pilot.pilot_delay + config._largest_tap_delay(spec)
    theta_t = draw(st.integers(0, int(lead < M)))
    top = (M if theta_t else 2 * M) - 1 - lead
    lo = draw(st.integers(0, top))
    theta_d = draw(st.sampled_from([("fixed", lo), ("uniform", lo, top)]))
    cfo = draw(st.floats(-0.45, 0.45))
    epsilon = draw(st.sampled_from([("fixed", 0.0), ("fixed", cfo),
                                    ("uniform", -abs(cfo), abs(cfo))]))
    return replace(spec, impair=ImpairSettings(theta_d=theta_d, theta_t=theta_t,
                                               epsilon=epsilon))


def draw_profile(draw, profiles):
    """(profile, velocity): the velocity drawn where the profile reads it,
    else its default."""
    profile = draw(st.sampled_from(profiles))
    return profile, (draw(st.sampled_from([0.0, 500.0])) if profile in ("eva", "eva3")
                     else 500.0)


@st.composite
def sync_specs(draw):
    """A sync_vs_snr or threshold_sweep spec that ``prepare`` accepts, at
    32x16 or 128x32 with CP 8, on single_tap, two_tap_biased or eva, with
    impairments (:func:`draw_impairments`)."""
    kind = draw(st.sampled_from(["sync_vs_snr", "threshold_sweep"]))
    M, N = draw(st.sampled_from([(32, 16), (128, 32)]))
    frame = FrameConfig(M, N, cp_len=8)
    pilot = PilotConfig(draw(st.integers(4, 8)), N // 2, 1000.0, 4, 4)
    profile, velocity = draw_profile(draw, ["single_tap", "two_tap_biased", "eva"])
    spec = ExperimentSpec(
        kind=kind, frame=frame,
        waveforms=draw(st.sampled_from([BOTH, BOTH[::-1], BOTH[:1], BOTH[1:]])),
        constellation=draw(st.sampled_from(["qpsk", "16qam"])),
        snr_db=(draw(st.sampled_from([0.0, 10.0, 30.0])),), trials=2,
        seed=draw(st.integers(0, 2 ** 16)),
        channel_profile=profile, velocity_kmh=velocity, pilot=pilot,
        sync=SyncSettings(enabled=True,
                          threshold=draw(st.sampled_from([0.3, 0.5, 1.0]))),
        **({"sweep_thresholds": (0.05, 0.4, 1.0)} if kind == "threshold_sweep"
           else {}))
    return draw_impairments(draw, spec)


@st.composite
def send_specs(draw):
    """A spec of any kind that ``prepare`` accepts, at 32x16 or 128x32
    with CP 8: a link with genie or estimated CSI, with or without sync
    and its impairments, or a two-user uplink on an even split with
    either CSI, on eva3, eva or single_tap; or a sync spec
    (:func:`sync_specs`)."""
    kind = draw(st.sampled_from(EXPERIMENTS))
    if kind in ("sync_vs_snr", "threshold_sweep"):
        return draw(sync_specs())
    M, N = draw(st.sampled_from([(32, 16), (128, 32)]))
    uplink = kind == "mu_uplink"
    profile, velocity = draw_profile(draw, ["eva3", "eva", "single_tap"])
    spec = ExperimentSpec(
        kind=kind, frame=FrameConfig(M, N, cp_len=8), waveforms=BOTH,
        constellation=draw(st.sampled_from(["qpsk", "16qam"])),
        snr_db=(draw(st.sampled_from([0.0, 10.0, 30.0])),), trials=2,
        seed=draw(st.integers(0, 2 ** 16)),
        channel_profile=profile, velocity_kmh=velocity,
        pilot=PilotConfig(4, N // 2, 1000.0, *((2, 2) if uplink else (4, 4))),
        csi=draw(st.sampled_from(["genie", "estimated"])),
        sync=SyncSettings(enabled=not uplink and draw(st.booleans())))
    return draw_impairments(draw, spec) if spec.sync.enabled else spec


def same_channel(a, b) -> bool:
    """The same taps, each delay equal and each gain and Doppler the
    same bits, on the same frame."""
    def fields(ch):
        return ([t.delay for t in ch.taps], bits(np.array([t.gain for t in ch.taps])),
                bits(np.array([t.doppler for t in ch.taps])))

    (da, ga, ka), (db, gb, kb) = fields(a), fields(b)
    return (a.frame == b.frame and da == db and np.array_equal(ga, gb)
            and np.array_equal(ka, kb))


class TestSend:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(send_specs(), st.sampled_from([BOTH, BOTH[::-1], BOTH[:1], BOTH[1:]]))
    def test_equals_the_draw_impairments_ramps_noise_and_transmit(self, spec,
                                                                   waveforms):
        # the one send stage gives what the four steps it replaced gave,
        # bit for bit, for every kind, CSI, sync setting, grid and order
        alloc = prepare(spec)
        layout = harness._layout(spec.frame, spec.pilot, spec.csi, alloc)
        snr = spec.snr_db[0]
        for t in range(spec.trials):
            channels, drawn, ramps, impair, records = harness._send(
                spec, t, snr, layout, waveforms)
            (w_channels, w_bits, w_ramps, w_impair, w_records), *_ = send_by_parts(
                spec, t, snr, layout.pilots, layout.bins, waveforms)
            assert len(channels) == len(w_channels) == len(layout.bins)
            assert all(map(same_channel, channels, w_channels))
            assert all(np.array_equal(a, b) and a.dtype == b.dtype
                       for a, b in zip(drawn, w_bits, strict=True))
            assert all(a.shape == b.shape and np.array_equal(bits(a), bits(b))
                       for a, b in zip(ramps, w_ramps, strict=True))
            assert impair == w_impair
            if impair is not None:
                assert bits(impair.cfo) == bits(w_impair.cfo)
            assert records.shape == w_records.shape == (len(waveforms),
                                                       records.shape[1])
            assert np.array_equal(bits(records), bits(w_records))


class TestSyncTrial:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(sync_specs())
    def test_batch_equals_a_transmission_and_estimate_per_waveform(self, spec):
        # one modulation, one pass per channel and one CFO ramp for every
        # waveform give each waveform's own record and trial, bit for bit
        prepare(spec)
        frame, snr = spec.frame, spec.snr_db[0]
        layout = harness._layout(frame, spec.pilot, spec.csi, None)
        for t in range(spec.trials):
            *_, records = harness._send(spec, t, snr, layout, spec.waveforms)
            (channels, _, ramps, impair, _), grids, noise = send_by_parts(
                spec, t, snr, layout.pilots, layout.bins, spec.waveforms)
            record_len = noise.size
            assert records.shape == (len(spec.waveforms), record_len)
            for w, record in zip(spec.waveforms, records):
                want = transmit_one_waveform(frame, grids, channels, ramps, w,
                                             impair, record_len) + noise
                assert np.array_equal(bits(record), bits(want))
            got = sync_trial(spec, t, snr)
            want = sync_trial_per_waveform(spec, t, snr)
            assert list(got) == list(want) == [w.value for w in spec.waveforms]
            for w in got:
                assert list(got[w]) == list(want[w])
                for key in got[w]:
                    assert type(got[w][key]) is type(want[w][key])
                    assert bits(got[w][key]) == bits(want[w][key]), (w, key)

    def test_one_modulation_one_cfo_ramp_and_an_estimate_per_waveform(
            self, monkeypatch):
        calls = {"_mod_core": [], "apply_channel": [], "estimate_sync": []}
        for name in calls:
            real = getattr(harness, name)

            def spy(*args, real=real, name=name, **kw):
                calls[name].append((args, kw))
                return real(*args, **kw)

            monkeypatch.setattr(harness, name, spy)
        spec = make_spec(kind="sync_vs_snr", channel_profile="eva",
                         sync=SyncSettings(enabled=True),
                         impair=ImpairSettings(theta_d=("uniform", 0, 3),
                                               epsilon=("fixed", 0.2)))
        sync_trial(spec, 0, 10.0)
        assert len(calls["_mod_core"]) == 1
        assert calls["_mod_core"][0][0][0].shape == (2, 1, FRAME.M, FRAME.N)
        # each apply_channel call with a CFO evaluates one CFO ramp
        assert len(calls["apply_channel"]) == 1
        assert calls["apply_channel"][0][1]["impair"].cfo == 0.2
        assert len(calls["estimate_sync"]) == 2

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
        delay-Doppler build made to fail; one entry per call."""
        calls = []
        real = harness.detect_users_time_domain
        sources = channel_sources(monkeypatch)

        def spy(received, channels, alloc, noise_var):
            out = real(received, channels, alloc, noise_var)
            assert [ch is None for ch in channels] == \
                [ch is None for ch in sources[-alloc.n_users:]]
            calls.append((received, sources[-alloc.n_users:], noise_var, out.vec))
            return out

        def no_dd_matrix(*args, **kwargs):
            raise AssertionError("mu_trial built a dense delay-Doppler matrix")

        with monkeypatch.context() as m:
            m.setattr(harness, "detect_users_time_domain", spy)
            for module in (harness, channel, chanest, multiuser):
                m.setattr(module, "build_dd_matrix", no_dd_matrix, raising=False)
            for t in range(trials):
                mu_trial(spec, t, 15.0, alloc)
        assert calls
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
        for received, channels, s2, out in self.detector_calls(monkeypatch,
                                                               spec, alloc):
            assert all(ch is not None for ch in channels)
            for w in BOTH:
                oracle = in_otfs_convention(
                    dense_detect(received, channels, alloc, w, s2), w)
                assert np.linalg.norm(out - oracle) <= 1e-10 * np.linalg.norm(oracle)

    def test_empty_user_estimate_contributes_zero_columns(self, monkeypatch):
        spec = self.estimated_spec()
        alloc = even_split_allocation(FRAME.M, FRAME.N, 2)
        silenced = harness._mu_user_pilot(spec.pilot, alloc, 1)
        real = harness.estimate_channel

        def estimate(received, pc, waveform, **kw):
            est = real(received, pc, waveform, **kw)
            return replace(est, taps=()) if pc == silenced else est

        monkeypatch.setattr(harness, "estimate_channel", estimate)
        for received, channels, s2, out in self.detector_calls(monkeypatch,
                                                               spec, alloc):
            assert channels[0] is not None and channels[1] is None
            assert not np.any(out[alloc.vec_indices(1)])
            for w in BOTH:
                oracle = in_otfs_convention(
                    dense_detect(received, channels, alloc, w, s2), w)
                assert np.linalg.norm(out - oracle) <= 1e-10 * np.linalg.norm(oracle)

    @pytest.mark.parametrize("csi,detector,solves", [("genie", 1, 1),
                                                      ("estimated", 2, 2)])
    def test_detector_and_band_solve_calls(self, monkeypatch, csi, detector,
                                           solves):
        # genie CSI serves both waveforms, so one detector call solves the
        # band once for both; estimated CSI is per waveform, and so are
        # the call and its solve
        spec = (self.estimated_spec() if csi == "estimated" else
                make_spec(kind="mu_uplink", constellation="qpsk", csi="genie"))
        alloc = even_split_allocation(FRAME.M, FRAME.N, 2)
        calls = []
        for module, name in ((harness, "detect_users_time_domain"),
                             (multiuser, "_solve_band")):
            def counted(*args, real=getattr(module, name), name=name):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(module, name, counted)
        for t in range(3):
            calls.clear()
            mu_trial(spec, t, 15.0, alloc)
            assert calls.count("detect_users_time_domain") == detector
            assert calls.count("_solve_band") == solves

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
        with pytest.raises(ConfigError, match=f"^{keys}: mu_uplink never reads "
                                              f"these keys; leave them at their "
                                              f"defaults$"):
            prepare(spec)

    def test_settings_equal_to_the_defaults_pass(self):
        spec = make_spec(kind="mu_uplink", csi="genie",
                         sync=SyncSettings(enabled=False, threshold=0.5),
                         impair=ImpairSettings(theta_d=("fixed", 0.0),
                                               epsilon=("fixed", 0.0)))
        assert prepare(spec).n_users == 2


class TestLayout:
    """``prepare`` builds the run's layout (each grid's pilot and data
    bins) once; the trials read it and build no mask and no bin list."""

    @pytest.mark.parametrize("spec", [
        make_spec(kind="mu_uplink", constellation="qpsk", csi="genie"),
        make_spec(kind="mu_uplink", constellation="qpsk", csi="estimated",
                  pilot=PilotConfig(4, 8, 1000.0, 3, 3)),
        make_spec(),
        make_spec(kind="sync_vs_snr", csi="genie", channel_profile="single_tap",
                  sync=SyncSettings(enabled=True))],
        ids=["mu_genie", "mu_estimated", "link", "sync"])
    def test_trials_build_no_mask_and_no_bins(self, monkeypatch, spec):
        alloc = prepare(spec)
        trial, _ = harness._KINDS[spec.kind]
        calls = []
        for module, name in ((harness, "_mu_user_mask"), (harness, "_mu_user_pilot"),
                             (harness, "data_bins"), (mapping, "data_bins"),
                             (harness, "overlay_mask")):
            def counted(*args, real=getattr(module, name), name=name):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(module, name, counted)
        for t in range(3):
            trial(spec, t, 15.0, alloc)
        assert calls == []
        layout = harness._layout(spec.frame, spec.pilot, spec.csi, alloc)
        assert len(layout.bins) == len(layout.pilots) == (
            1 if alloc is None else alloc.n_users)
        for bins in layout.bins:
            assert not bins.flags.writeable

    def test_uplink_layout_matches_the_user_masks(self):
        spec = make_spec(kind="mu_uplink", constellation="qpsk", csi="estimated",
                         pilot=PilotConfig(4, 8, 1000.0, 3, 3))
        alloc = prepare(spec)
        layout = harness._layout(spec.frame, spec.pilot, spec.csi, alloc)
        for q, (pc, bins) in enumerate(zip(layout.pilots, layout.bins)):
            assert pc == harness._mu_user_pilot(spec.pilot, alloc, q)
            mask = harness._mu_user_mask(spec.frame, alloc, q, pc)
            np.testing.assert_array_equal(bins, mapping.data_bins(mask))
            assert set(bins.tolist()) <= set(alloc.vec_indices(q).tolist())


# the keys the profile decides, which no path of the oracle read
PROFILE_KEYS = {"channel.taps", "channel.velocity_kmh", "frame.carrier_hz"}

# a value away from its default for each key some spec leaves unread, and
# for the pilot.* keys a genie uplink keeps: one a spec of any kind runs
# with where it reads the key
AWAY = {
    "sweep.thresholds": "0.3,0.9",
    "sync.enabled": "true",
    "sync.threshold": "0.3",
    "impair.theta_d": "uniform:0:3",
    "impair.theta_t": "1",
    "impair.epsilon": "uniform:-0.3:0.3",
    "detector.csi": "estimated",
    "est.threshold_sigma": "4",
    "mu.q": "3",
    # the committed uplink's two users
    "mu.allocation": re.search(r"^mu\.allocation = (.*)$",
                               (ROOT / "configs" / "mu_uplink.cfg").read_text(),
                               re.M).group(1),
    "channel.taps": "0:0:0;300:-3:100",
    "channel.velocity_kmh": "300",
    "frame.carrier_hz": "2e9",
    "pilot.m_p": "5",
    "pilot.n_p": "7",
    "pilot.power_db": "20",
    "pilot.guards": "2,2",
}


class TestUnreadKeys:
    """``prepare`` rejects a key the experiment kind never reads when it is
    set away from its default, and names it."""

    @pytest.mark.parametrize("kind,settings,keys", [
        ("ber_vs_snr", dict(sweep_thresholds=(0.3, 0.9),
                            sync=SyncSettings(threshold=0.2)),
         "sweep.thresholds, sync.threshold: ber_vs_snr without sync.enabled"),
        ("ber_vs_snr", dict(sweep_thresholds=(0.3,),
                            sync=SyncSettings(enabled=True, threshold=0.2)),
         "sweep.thresholds: ber_vs_snr never reads these keys"),
        ("sync_vs_snr", dict(csi="estimated", mu_users=3),
         "detector.csi, mu.q: sync_vs_snr never reads these keys"),
        ("threshold_sweep", dict(pilot=replace(PILOT, detection_threshold=4.0)),
         "est.threshold_sigma: threshold_sweep"),
        ("sync_vs_snr", dict(sweep_thresholds=(0.5,)), "sweep.thresholds: sync_vs_snr"),
        ("ber_vs_snr", dict(mu_allocation=(((0, 1), (0, 1)),)),
         "mu.allocation: ber_vs_snr"),
        ("mu_uplink", dict(sync=SyncSettings(threshold=0.3)),
         "sync.threshold: mu_uplink never reads these keys"),
        ("ber_vs_snr", dict(pilot=replace(PILOT, detection_threshold=7.0)),
         "est.threshold_sigma: ber_vs_snr with detector.csi = genie never"),
        ("ber_vs_snr", dict(pilot=replace(PILOT, detection_threshold=7.0),
                            sync=SyncSettings(threshold=0.2)),
         "sync.threshold, est.threshold_sigma: ber_vs_snr without "
         "sync.enabled = true and with detector.csi = genie never"),
        ("mu_uplink", dict(pilot=replace(PILOT, detection_threshold=9.0)),
         "est.threshold_sigma: mu_uplink with detector.csi = genie never"),
        # only a custom profile reads its taps
        ("sync_vs_snr", dict(custom_taps=((0.0, 0.0, 0.0),), mu_users=3),
         "mu.q, channel.taps: sync_vs_snr with channel.profile = single_tap "
         "never reads these keys; leave them at their defaults$")])
    def test_rejected(self, kind, settings, keys):
        base = dict(csi="genie", channel_profile="single_tap")
        if kind in ("sync_vs_snr", "threshold_sweep"):
            base["sync"] = SyncSettings(enabled=True)
        if kind == "mu_uplink":
            base["constellation"] = "qpsk"
        spec = make_spec(kind=kind, **{**base, **settings})
        with pytest.raises(ConfigError, match=f"^{keys}"):
            prepare(spec)

    @pytest.mark.parametrize("kind,settings", [
        ("threshold_sweep", dict(sweep_thresholds=(0.3, 0.9), csi="genie",
                                 sync=SyncSettings(enabled=True, threshold=0.2))),
        ("ber_vs_snr", dict(sync=SyncSettings(enabled=True, threshold=0.2),
                            csi="estimated",
                            pilot=replace(PILOT, detection_threshold=4.0))),
        ("mu_uplink", dict(mu_users=3, csi="estimated", constellation="qpsk",
                           pilot=PilotConfig(4, 8, 1000.0, 1, 1,
                                             detection_threshold=4.0)))])
    def test_keys_the_kind_reads_pass(self, kind, settings):
        prepare(make_spec(kind=kind, **settings))

    def test_away_sets_every_key_some_spec_leaves_unread(self):
        assert {key for key, row in SCHEMA.items()
                if row.kinds != EXPERIMENTS or row.condition} <= set(AWAY)

    @PROPERTY
    @given(st.sampled_from(EXPERIMENTS),
           st.sets(st.sampled_from([key for key in SCHEMA if key in AWAY])),
           st.sampled_from(["single_tap", "eva3", "custom"]))
    def test_the_table_decides_every_key(self, kind, keys, profile):
        # every key AWAY sets away from its default, on any kind, is
        # rejected exactly where the table says the spec does not read it,
        # as the three paths prepare had before the table decided for every
        # key but the profile's (channel.taps, channel.velocity_kmh and
        # frame.carrier_hz); the genie uplink keeps its pilot.* keys
        keys = set(keys)
        if kind == "mu_uplink" and {"mu.q", "mu.allocation"} <= keys:
            keys.discard("mu.q")   # the committed allocation lists 2 users
        if kind == "mu_uplink" and "detector.csi" in keys:
            keys.add("pilot.guards")   # to fit each user's bins
        if profile == "custom" and "channel.taps" not in keys:
            profile = "single_tap"   # a custom profile needs its taps
        text = (f"experiment = {kind}\ntrials = 1\nsnr_db = 20\n"
                f"channel.profile = {profile}\n")
        spec = spec_from_config(parse_config_text(
            text + "".join(f"{key} = {AWAY[key]}\n" for key in keys)))
        unread = {key for key in keys if not reads(spec, key)}
        assert unread - PROFILE_KEYS == unread_keys_by_path(spec)
        if not unread:
            prepare(spec)
            return
        with pytest.raises(ConfigError) as exc:
            prepare(spec)
        named, rest = str(exc.value).split(": ", 1)
        assert set(named.split(", ")) == unread
        assert rest.endswith(" never reads these keys; leave them at their defaults")


# a tiny grid every kind runs on: each of two users' 8x4 bins hosts a
# pilot with guards 2,1
TINY = """
trials = 1
seed = 5
frame.M = 16
frame.N = 8
frame.L_cp = 4
pilot.m_p = 4
pilot.n_p = 4
pilot.guards = 2,1
"""

# the lines each kind adds; ber_vs_snr_sync is the link with sync
KIND_LINES = {
    "ber_vs_snr": "experiment = ber_vs_snr\n",
    "ber_vs_snr_sync": "experiment = ber_vs_snr\nsync.enabled = true\n"
                       "impair.theta_d = uniform:0:3\n"
                       "impair.epsilon = uniform:-0.4:0.4\n",
    "sync_vs_snr": "experiment = sync_vs_snr\nimpair.theta_d = 2\n"
                   "impair.epsilon = uniform:-0.4:0.4\n",
    "threshold_sweep": "experiment = threshold_sweep\nimpair.theta_d = uniform:0:3\n",
    "mu_uplink": "experiment = mu_uplink\nconstellation = qpsk\n",
}

def mostly(usual, rare):
    """``usual``, but for about one time in eight ``rare``."""
    return st.integers(0, 7).flatmap(lambda i: rare if i == 7 else usual)


# finite non-negative floats: mostly the default or a value in the key's
# range [lo, hi], and now and then one of any size: zero, the float
# maximum, powers of ten and their neighbours, and any float
def magnitudes(default, lo, hi):
    return mostly(st.one_of(st.just(default), st.floats(lo, hi)),
                  st.one_of(st.sampled_from([0.0, sys.float_info.max]),
                            st.integers(-320, 308).map(lambda e: float(f"1e{e}")),
                            st.floats(0.0, sys.float_info.max)))


# SNRs mostly in the range of snr_db, now and then just past its ends, at
# the float extremes, or of any size
SNRS = mostly(st.floats(-100.0, 300.0),
              st.one_of(st.sampled_from([-1e308, -3082.0, -100.001, 300.001,
                                         3076.0, 1e308]),
                        st.floats(-1e308, 1e308)))


# one to three custom taps, each with a delay, a power and a Doppler
# shift of either sign, mostly in its range
CUSTOM_TAPS = st.lists(
    st.tuples(st.floats(0.0, 500.0), st.floats(-20.0, 0.0),
              st.tuples(st.sampled_from([1.0, -1.0]), magnitudes(0.0, 0.0, 1e8))
              .map(lambda pair: pair[0] * pair[1])),
    min_size=1, max_size=3)


def assert_rejected_or_finite(text):
    """The config ``text`` either raises ConfigError before its first
    trial, as it is parsed or prepared, or runs to finite rows with no
    RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            spec = spec_from_config(parse_config_text(text))
            prepare(spec)
        except ConfigError:
            return
        rows = run(spec)
    assert rows and all(math.isfinite(r.value) for r in rows)


# an 8x8 grid whose delay guard the eva3 spread passes, with estimated CSI
SMALL_ESTIMATED = """
trials = 1
frame.M = 8
frame.N = 8
frame.L_cp = 5
pilot.m_p = 2
pilot.n_p = 4
pilot.guards = 1,1
channel.profile = eva3
frame.carrier_hz = 560.16
detector.csi = estimated
constellation = qpsk
"""

# pilot powers mostly in the range of pilot.power_db, now and then just
# past its ends, past both ends of the float range, or of any size
PILOT_POWERS = mostly(st.floats(-100.0, 100.0),
                      st.one_of(st.sampled_from([-4000.0, -3200.0, -268.87, -100.001,
                                                 100.001, 3083.0]),
                                st.floats(-1e308, 1e308)))


class TestAcceptedRuns:
    """A config that parses and that ``prepare`` accepts runs: finite
    values of the velocity, the carrier, a custom tap's Doppler, the pilot
    power and the SNR, mostly in their ranges and now and then of any
    size, either raise ConfigError before the first trial, or give finite
    rows with no RuntimeWarning."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(sorted(KIND_LINES)), st.sampled_from(["genie", "estimated"]),
           st.sampled_from(["eva3", "eva", "single_tap"]),
           magnitudes(500.0, 0.0, 3e4), magnitudes(5.9e9, 1.0, 1e12), SNRS)
    # single_tap never reads the velocity and the carrier
    @example("sync_vs_snr", "genie", "single_tap", 300.0, 2e9, 10.0)
    # the largest Doppler shift the ranges admit, on the committed eva3
    # link, and a velocity far past its range, whose Doppler overflows in Hz
    @example("ber_vs_snr", "estimated", "eva3", 3e4, 1e12, 10.0)
    @example("ber_vs_snr", "estimated", "eva3", 1e300, 5.9e9, 10.0)
    # the sync metric's sums of pure noise at the bottom of the SNR range,
    # and far past it, where they would overflow
    @example("sync_vs_snr", "genie", "single_tap", 500.0, 5.9e9, -100.0)
    @example("threshold_sweep", "genie", "single_tap", 500.0, 5.9e9, -100.0)
    @example("ber_vs_snr_sync", "estimated", "eva3", 500.0, 5.9e9, -100.0)
    @example("sync_vs_snr", "genie", "single_tap", 500.0, 5.9e9, -3074.0)
    def test_prepare_rejects_or_the_run_gives_finite_rows(self, kind, csi, profile,
                                                          velocity, carrier, snr):
        assert_rejected_or_finite(
            TINY + KIND_LINES[kind] + f"channel.profile = {profile}\n"
            f"channel.velocity_kmh = {velocity!r}\n"
            f"frame.carrier_hz = {carrier!r}\nsnr_db = {snr!r}\n"
            + (f"detector.csi = {csi}\n" if kind.startswith(("ber", "mu")) else ""))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(sorted(KIND_LINES)), st.sampled_from(["genie", "estimated"]),
           CUSTOM_TAPS, st.sampled_from([(16, 8), (128, 32)]), SNRS)
    # the top of the Doppler range at both grids, and 1e308 Hz, whose tap
    # phase over a 128x32 frame would leave the float range
    @example("ber_vs_snr", "estimated", [(0.0, 0.0, 1e8)], (128, 32), 10.0)
    @example("ber_vs_snr", "estimated", [(0.0, 0.0, -1e8)], (16, 8), 10.0)
    @example("ber_vs_snr", "estimated", [(0.0, 0.0, 1e308)], (128, 32), 10.0)
    def test_custom_taps_of_any_doppler(self, kind, csi, taps, grid, snr):
        (M, N), taps = grid, "; ".join(f"{d!r}:{p!r}:{nu!r}" for d, p, nu in taps)
        assert_rejected_or_finite(
            TINY.replace("frame.M = 16\nframe.N = 8", f"frame.M = {M}\nframe.N = {N}")
            + KIND_LINES[kind] + "channel.profile = custom\n"
            f"channel.taps = {taps}\nsnr_db = {snr!r}\n"
            + (f"detector.csi = {csi}\n" if kind.startswith(("ber", "mu")) else ""))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(["ber_vs_snr", "mu_uplink"]), PILOT_POWERS, SNRS,
           st.integers(0, 2 ** 40))
    # a pilot 200 dB below the noise, the bottom of both ranges: the
    # estimate's gains reach about 3e10
    @example("mu_uplink", -100.0, -100.0, 4343820536)
    # a pilot 3317 dB below the noise, whose estimate's gains would
    # overflow the uplink detector's products
    @example("mu_uplink", -268.87, -3047.9, 4343820536)
    def test_estimated_csi_of_any_pilot_power(self, kind, power_db, snr, seed):
        assert_rejected_or_finite(
            f"experiment = {kind}\n" + SMALL_ESTIMATED
            + f"pilot.power_db = {power_db!r}\nsnr_db = {snr!r}\nseed = {seed}\n")

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(["genie", "estimated"]), st.floats(100.0, 300.0),
           st.integers(0, 2 ** 32 - 1), st.just(20))
    # the committed link's band solve failed its Cholesky at 200 dB
    @example("genie", 200.0, 1, 300)
    def test_a_desk_link_from_100_db_to_the_top_of_the_range(self, csi, snr, seed,
                                                             trials):
        cfg = load_config(ROOT / "configs" / "ber_vs_snr.cfg")
        cfg.update({"detector.csi": csi, "snr_db": (snr,), "seed": seed,
                    "trials": trials})
        assert_rejected_or_finite(canonical_text(cfg))


class TestWaveformsRunApart:
    """A run of one waveform writes, byte for byte, that waveform's rows
    of a run of both: no receiver chain reads what another computed."""

    @pytest.mark.parametrize("config, csi", [("ber_vs_snr", "estimated"),
                                             ("mu_uplink", "genie"),
                                             ("mu_uplink", "estimated"),
                                             ("sync_vs_snr", None)])
    def test_one_waveform_writes_its_rows_of_a_run_of_both(self, config, csi):
        spec = load_spec(str(ROOT / "configs" / f"{config}.cfg"))
        spec = replace(spec, trials=3, **({} if csi is None else {"csi": csi}))
        alone = {w: rows_to_csv(run(replace(spec, waveforms=(w,)))).splitlines()
                 for w in BOTH}
        for waveforms in (BOTH, BOTH[::-1]):
            header, *rows = rows_to_csv(run(replace(spec, waveforms=waveforms))
                                        ).splitlines()
            for w in BOTH:
                mine = [r for r in rows if r.split(",")[1] == w.value]
                assert alone[w] == [header] + mine


class TestRun:
    def test_csv_and_metadata_written(self, tmp_path):
        spec = make_spec(kind="sync_vs_snr", channel_profile="single_tap",
                         csi="genie",
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
                         csi="genie",
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
    """Thread count of scipy's OpenBLAS, or None where none is found."""
    blas = harness._openblas()
    return None if blas is None else blas.get()


@pytest.fixture
def caller_blas_threads():
    """scipy's OpenBLAS at 2 threads for the test (as the caller's
    setting); the count before the test comes back after it."""
    blas = harness._openblas()
    if blas is None:
        pytest.skip("scipy bundles no OpenBLAS here")
    saved = blas.get()
    blas.set(2)
    yield blas.get()
    blas.set(saved)


class TestBlasThreads:
    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_trials_run_on_one_blas_thread(self, monkeypatch, caller_blas_threads,
                                           parallelism):
        real = harness.mu_trial

        def pinned(*args):
            if blas_threads() != 1:
                raise RuntimeError(f"BLAS threads in a trial: {blas_threads()}")
            return real(*args)

        monkeypatch.setattr(harness, "mu_trial", pinned)
        spec = make_spec(kind="mu_uplink", channel_profile="single_tap",
                         constellation="qpsk", csi="genie", trials=3,
                         snr_db=(10.0, 20.0))
        assert len(run(spec, parallelism=parallelism)) == 4

    def test_run_restores_the_caller_count(self, monkeypatch,
                                           caller_blas_threads):
        spec = make_spec(trials=1, snr_db=(10.0,), channel_profile="single_tap")
        run(spec)
        assert blas_threads() == caller_blas_threads == 2

        def fails(*args):
            raise RuntimeError("trial failed")

        monkeypatch.setattr(harness, "link_trial", fails)
        with pytest.raises(RuntimeError, match="trial failed"):
            run(spec)
        assert blas_threads() == caller_blas_threads

    def test_finds_the_openblas_scipy_bundles(self):
        # a library file in scipy.libs is found, with its thread and
        # config symbols; numpy's, of another file name, is not
        libs = Path(scipy.__file__).parent.parent / "scipy.libs"
        files = {p.name for p in libs.glob(_blas._OPENBLAS)}
        lib = harness._openblas()
        assert (lib is not None) == bool(files)
        if lib is not None:
            assert lib.name in files and "openblas64_" not in lib.name
            assert "OpenBLAS" in lib.config and lib.get() >= 1

    def test_metadata_reports_the_library(self, tmp_path, caller_blas_threads):
        spec = make_spec(trials=1, snr_db=(10.0,), channel_profile="single_tap")
        run(spec, out_dir=tmp_path)
        meta = (tmp_path / "metadata.txt").read_text().splitlines()
        lib = harness._openblas()
        assert [m for m in meta if m.startswith("openblas_")] == [
            f"openblas_scipy = {lib.name} ({lib.config}); threads "
            f"{caller_blas_threads} before the run, 1 during it"]
        lapack = _blas._lapack()
        assert f"band_solve_lapack = {lapack.source}" in meta
        assert lapack.source.startswith(f"{lib.name} through ctypes")

    def test_runs_and_reports_when_no_library_is_found(self, monkeypatch,
                                                       tmp_path):
        spec = make_spec(kind="mu_uplink", channel_profile="single_tap",
                         constellation="qpsk", csi="genie", trials=2,
                         snr_db=(10.0,))
        run(spec, out_dir=tmp_path / "found")
        monkeypatch.setattr(harness, "_openblas", lambda: None)
        run(spec, out_dir=tmp_path / "none")
        meta = (tmp_path / "none/metadata.txt").read_text().splitlines()
        assert [m for m in meta if m.startswith("openblas_")] == [
            "openblas_scipy = not found"]
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
