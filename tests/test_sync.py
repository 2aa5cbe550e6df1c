import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ddlink.chanest import PilotConfig, embed_pilot
from ddlink.channel import (ChannelTap, LtvChannel, apply_channel, draw_noise,
                            make_channel)
from ddlink.frame import FrameConfig
from ddlink.modem import DelayDopplerGrid, Waveform, modulate_direct
from ddlink.sync import (Impairments, block_offset, cfo_estimate, correct,
                         estimate_sync, fine_timing, metric_peak_set,
                         timing_metric)
from oracles import (bits, coarse_timing, estimate_sync_by_rule,
                     first_peak_row, timing_metric_by_rows)
from strategies import PROPERTY

FRAME = FrameConfig(32, 16, cp_len=8)
PILOT = PilotConfig(4, 8, 1000.0, 4, 4)


def pilot_record(ch, impair=Impairments(), frame=FRAME, pilot=PILOT,
                 noise_var=0.0, seed=0, record_len=None, waveform=Waveform.OTFS):
    grid = embed_pilot(DelayDopplerGrid.zeros(frame), pilot)
    x = modulate_direct(grid, waveform)
    record_len = record_len or (impair.total_offset(frame.M) + 2 * frame.grid_size)
    r = apply_channel(x, ch, impair=impair, record_len=record_len).samples
    if noise_var > 0:
        r = r + draw_noise(np.random.default_rng(seed), noise_var, r.size)
    return r


def single_tap(frame=FRAME):
    return LtvChannel((ChannelTap(0, 1.0, 0.0),), frame)


def biased_two_tap(seed, frame=FRAME):
    return make_channel("two_tap_biased", frame, 0.0, np.random.default_rng(seed))


class TestTimingMetric:
    def test_energy_confined_to_pilot_rows(self):
        r = pilot_record(single_tap())
        _, row_metric = timing_metric(r, FRAME)
        peak = FRAME.cp_len + PILOT.pilot_delay
        others = np.delete(np.abs(row_metric), peak)
        assert np.abs(row_metric[peak]) > 0
        assert np.max(others) <= 1e-9 * np.abs(row_metric[peak])

    def test_conjugation_conjugates_metric(self):
        r = pilot_record(biased_two_tap(3), noise_var=0.01)
        _, a = timing_metric(r, FRAME)
        _, b = timing_metric(np.conj(r), FRAME)
        np.testing.assert_allclose(b, np.conj(a), atol=1e-9)

    def test_short_record_rejected(self):
        with pytest.raises(ValueError):
            timing_metric(np.zeros(100), FRAME)

    def test_waveform_equivalence_same_pilot(self):
        # pilot-only transmissions of the two waveforms differ by a global
        # unit phase, so the metric magnitudes coincide
        ch = biased_two_tap(8)
        imp = Impairments(timing_delay=5, cfo=0.2)
        a = pilot_record(ch, imp, waveform=Waveform.OTFS)
        b = pilot_record(ch, imp, waveform=Waveform.SC_IFDMA)
        _, ma = timing_metric(a, FRAME)
        _, mb = timing_metric(b, FRAME)
        scale = np.max(np.abs(ma))
        assert np.max(np.abs(np.abs(ma) - np.abs(mb))) <= 1e-10 * scale


class TestCoarseTiming:
    """The metric-peak rule, the coarse delay of an estimate."""

    def test_recovers_offset_on_single_tap(self):
        r = pilot_record(single_tap(), Impairments(timing_delay=5))
        assert estimate_sync(r, FRAME, PILOT.pilot_delay).coarse_delay == 5

    def test_bias_follows_strongest_tap(self):
        for seed in range(5):
            r = pilot_record(biased_two_tap(seed), Impairments(timing_delay=2))
            assert estimate_sync(r, FRAME, PILOT.pilot_delay).coarse_delay == 2 + 3

    def test_zero_metric_rejected(self):
        # a complex record, and a real one, read as complex
        for dtype in (complex, float):
            with pytest.raises(ValueError, match="identically zero"):
                estimate_sync(np.zeros(FRAME.grid_size, dtype=dtype), FRAME, 0)
        # every rule reads the magnitude through the same checks
        with pytest.raises(ValueError, match="identically zero"):
            fine_timing(np.zeros(8), 0.5, 0, 0)
        with pytest.raises(ValueError, match="identically zero"):
            metric_peak_set(np.zeros(8), 0.5)

    def test_real_record_estimates_as_its_complex_copy(self):
        r = np.random.default_rng(6).standard_normal(2 * FRAME.grid_size)
        real, cplx = (estimate_sync(x, FRAME, PILOT.pilot_delay)
                      for x in (r, r.astype(complex)))
        assert (real.coarse_delay, real.fine_delay, real.block_offset) == \
            (cplx.coarse_delay, cplx.fine_delay, cplx.block_offset)
        assert np.float64(real.cfo).tobytes() == np.float64(cplx.cfo).tobytes()
        assert real.metric.dtype == cplx.metric.dtype
        assert real.metric.tobytes() == cplx.metric.tobytes()


class TestFineTiming:
    def test_threshold_one_equals_coarse(self):
        r = pilot_record(biased_two_tap(1), noise_var=1e-4)
        _, m = timing_metric(r, FRAME)
        assert fine_timing(m, 1.0, PILOT.pilot_delay, FRAME.cp_len) == \
            coarse_timing(m, PILOT.pilot_delay, FRAME.cp_len)

    def test_removes_multipath_bias(self):
        # first tap holds 0.4 of the power, above half the 0.6 peak
        for seed in range(5):
            r = pilot_record(biased_two_tap(seed), Impairments(timing_delay=4))
            _, m = timing_metric(r, FRAME)
            assert fine_timing(m, 0.5, PILOT.pilot_delay, FRAME.cp_len) == 4

    def test_peak_set_grows_as_threshold_drops(self):
        r = pilot_record(biased_two_tap(2), noise_var=0.05)
        _, m = timing_metric(r, FRAME)
        prev = None
        for ts in (1.0, 0.8, 0.5, 0.3, 0.1, 0.01):
            peaks = set(metric_peak_set(m, ts))
            if prev is not None:
                assert prev <= peaks
            prev = peaks

    def test_fine_never_exceeds_coarse(self):
        for seed in range(10):
            r = pilot_record(biased_two_tap(seed), noise_var=0.03, seed=seed)
            _, m = timing_metric(r, FRAME)
            fine = fine_timing(m, 0.4, PILOT.pilot_delay, FRAME.cp_len)
            assert fine <= coarse_timing(m, PILOT.pilot_delay, FRAME.cp_len)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            fine_timing(np.ones(4), 0.0, 0, 0)
        with pytest.raises(ValueError):
            fine_timing(np.ones(4), 1.5, 0, 0)

    def test_mean_error_beats_coarse_at_moderate_threshold(self):
        # ordering claim on the biased channel at 10 dB
        errs_fine, errs_coarse = [], []
        for seed in range(60):
            true = 3
            r = pilot_record(biased_two_tap(seed), Impairments(timing_delay=true),
                             noise_var=0.1, seed=seed)
            _, m = timing_metric(r, FRAME)
            errs_coarse.append(abs(coarse_timing(m, PILOT.pilot_delay, FRAME.cp_len) - true))
            errs_fine.append(abs(fine_timing(m, 0.4, PILOT.pilot_delay, FRAME.cp_len) - true))
        assert np.mean(errs_fine) < np.mean(errs_coarse)


class TestCfo:
    def test_zero_cfo(self):
        r = pilot_record(single_tap())
        _, m = timing_metric(r, FRAME)
        row = FRAME.cp_len + PILOT.pilot_delay
        est = cfo_estimate(m, row, FRAME, pilot_doppler=PILOT.pilot_doppler)
        assert abs(est) <= 1e-9

    def test_quarter_bin_cfo(self):
        r = pilot_record(single_tap(), Impairments(cfo=0.25))
        _, m = timing_metric(r, FRAME)
        row = FRAME.cp_len + PILOT.pilot_delay
        est = cfo_estimate(m, row, FRAME, pilot_doppler=PILOT.pilot_doppler)
        assert abs(est - 0.25) <= 1e-6

    def test_half_range_wraps_to_negative(self):
        N = FRAME.N
        r = pilot_record(single_tap(), Impairments(cfo=N / 2))
        _, m = timing_metric(r, FRAME)
        row = FRAME.cp_len + PILOT.pilot_delay
        est = cfo_estimate(m, row, FRAME, pilot_doppler=PILOT.pilot_doppler)
        assert abs(est - (-N / 2)) <= 1e-6

    def test_zero_metric_row_rejected(self):
        with pytest.raises(ValueError):
            cfo_estimate(np.zeros(8, dtype=complex), 2, FRAME)


class TestBlockOffset:
    def test_detects_block_level_shift(self):
        for blocks in (0, 1):
            imp = Impairments(timing_delay=3, timing_blocks=blocks)
            r = pilot_record(single_tap(), imp)
            P, m = timing_metric(r, FRAME)
            row = int(np.argmax(np.abs(m)))
            assert block_offset(P, row) == blocks


class TestCorrect:
    def test_identity_when_no_offsets(self):
        r = pilot_record(single_tap(), record_len=FRAME.frame_len)
        out = correct(r, 0, 0.0, FRAME)
        np.testing.assert_array_equal(out.samples, r)

    def test_integer_shift_restores_alignment(self):
        imp = Impairments(timing_delay=7)
        clean = pilot_record(single_tap(), record_len=FRAME.frame_len)
        shifted = pilot_record(single_tap(), imp)
        out = correct(shifted, 7, 0.0, FRAME)
        np.testing.assert_allclose(out.samples, clean, atol=1e-12)

    def test_full_undo_of_impairments(self):
        imp = Impairments(timing_delay=5, timing_blocks=1, cfo=0.3)
        clean = pilot_record(single_tap(), record_len=FRAME.frame_len)
        r = pilot_record(single_tap(), imp)
        out = correct(r, imp.total_offset(FRAME.M), imp.cfo, FRAME)
        np.testing.assert_allclose(out.samples, clean, atol=1e-10)

    def test_window_outside_record_rejected(self):
        r = np.zeros(FRAME.frame_len)
        with pytest.raises(ValueError):
            correct(r, 1, 0.0, FRAME)
        with pytest.raises(ValueError):
            correct(r, -1, 0.0, FRAME)


class TestEstimateSync:
    def test_end_to_end_estimates(self):
        imp = Impairments(timing_delay=6, timing_blocks=1, cfo=-0.35)
        r = pilot_record(single_tap(), imp, noise_var=1e-3)
        est = estimate_sync(r, FRAME, PILOT.pilot_delay,
                            pilot_doppler=PILOT.pilot_doppler, threshold=0.5)
        assert est.total_offset(FRAME.M) == imp.total_offset(FRAME.M)
        assert est.coarse_delay == 6
        assert abs(est.cfo - imp.cfo) <= 1e-2
        peak_row = est.coarse_delay + PILOT.pilot_delay + FRAME.cp_len
        assert peak_row in metric_peak_set(est.metric, 0.5)

    def test_impairment_invariants(self):
        imp = Impairments(timing_delay=3, timing_blocks=2, cfo=0.1)
        assert imp.total_offset(32) == 3 + 64
        with pytest.raises(ValueError):
            Impairments(timing_delay=-1)


class TestRecordScale:
    @PROPERTY
    @given(st.integers(0, 2 ** 32 - 1), st.floats(-5.0, 5.0), st.integers(-60, 60),
           st.floats(0.01, 1.0))
    def test_a_power_of_two_changes_no_decision_and_no_cfo_bit(self, seed, decade,
                                                               k, threshold):
        # records from 1e-23 to 1e23, past the samples the config ranges
        # admit: the metric of 2**k times a record is 4**k times its
        # metric, and the rules compare magnitudes
        g = np.random.default_rng(seed)
        record = (g.standard_normal(1035) + 1j * g.standard_normal(1035)) * 10.0 ** decade
        want = estimate_sync(record, FRAME, 4, 3, threshold)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = estimate_sync(record * 2.0 ** k, FRAME, 4, 3, threshold)
        for name in ("coarse_delay", "fine_delay", "block_offset"):
            assert getattr(got, name) == getattr(want, name)
        assert bits(got.cfo) == bits(want.cfo)


class TestAgainstTheRuleOracles:
    """The metric from a view of the record's rows, and the estimate from
    one metric magnitude, equal the oracles that build every row and
    apply every rule on its own, bit for bit: on records that hold every
    row sample, and on shorter ones that are zero-filled."""

    @PROPERTY
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 40),
           st.integers(0, 10 ** 6), st.floats(0.01, 1.0), st.data())
    def test_estimate_equals_the_rules_applied_apart(self, M, N, cp, seed,
                                                     threshold, data):
        frame = FrameConfig(M, N, cp_len=cp % (M * N))
        # from one grid up to past the M(2N-1) samples the metric reads
        n = data.draw(st.integers(M * N, M * (2 * N - 1) + 2 * M))
        g = np.random.default_rng(seed)
        record = g.standard_normal(n) + 1j * g.standard_normal(n)
        record[g.random(n) < data.draw(st.sampled_from([0.0, 0.5, 1.0]))] = 0.0
        pilot_delay = data.draw(st.integers(0, M - 1))
        pilot_doppler = data.draw(st.integers(0, N - 1))
        wc, rm = timing_metric(record, frame)
        owc, orm = timing_metric_by_rows(record, frame)
        assert wc.flags.c_contiguous
        assert np.array_equal(bits(wc), bits(owc))
        assert np.array_equal(bits(rm), bits(orm))
        try:
            want = estimate_sync_by_rule(record, frame, pilot_delay,
                                         pilot_doppler, threshold)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                estimate_sync(record, frame, pilot_delay, pilot_doppler, threshold)
            return
        got = estimate_sync(record, frame, pilot_delay, pilot_doppler, threshold)
        for name in ("coarse_delay", "fine_delay", "block_offset"):
            assert getattr(got, name) == getattr(want, name)
        assert bits(got.cfo) == bits(want.cfo)
        assert np.array_equal(bits(got.metric), bits(want.metric))
        lead = pilot_delay + frame.cp_len
        assert (fine_timing(rm, threshold, pilot_delay, frame.cp_len)
                == first_peak_row(orm, threshold) - lead)
        peaks = metric_peak_set(rm, threshold)
        assert peaks.min() == first_peak_row(orm, threshold)
        assert np.array_equal(peaks, np.flatnonzero(
            np.abs(orm) >= threshold * np.abs(orm).max()))

    @pytest.mark.parametrize("n", [32 * 16, 32 * 31 - 1, 32 * 31, 1035])
    def test_checks_stay(self, n):
        record = np.zeros(n, dtype=complex)
        with pytest.raises(ValueError, match="identically zero"):
            estimate_sync(record, FRAME, 4)
        record[:] = np.random.default_rng(n).standard_normal(n)
        for threshold in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="threshold must be in"):
                estimate_sync(record, FRAME, 4, threshold=threshold)
