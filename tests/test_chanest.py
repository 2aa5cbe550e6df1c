import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ddlink import chanest
from ddlink.chanest import (EstimatedChannel, EstimatedTap, PilotConfig,
                            embed_pilot, estimate_channel, estimated_diagonals,
                            overlay_mask)
from ddlink.channel import (ChannelTap, LtvChannel, NoiseSpec, apply_channel,
                            build_dd_matrix, delay_diagonals)
from ddlink.frame import FrameConfig
from ddlink.mapping import DATA, GUARD, PILOT
from ddlink.modem import (DelayDopplerGrid, Waveform, demodulate_direct,
                          modulate_direct)
from ddlink.transforms import coupling_phases
from oracles import estimate_channel_loop, to_ltv_channel
from strategies import PROPERTY

FRAME = FrameConfig(16, 16, cp_len=6)
PC = PilotConfig(4, 8, 100.0, 4, 4)

rng = np.random.default_rng(10)


def received_grid(ch, waveform, noise_var=0.0, seed=0, pc=PC, frame=FRAME):
    grid = embed_pilot(DelayDopplerGrid.zeros(frame), pc)
    x = modulate_direct(grid, waveform)
    noise = NoiseSpec(noise_var, np.random.default_rng(seed)) if noise_var else None
    r = apply_channel(x, ch, noise=noise)
    return demodulate_direct(r, waveform)


class TestEmbedPilot:
    def test_single_nonzero_entry(self):
        out = embed_pilot(DelayDopplerGrid.zeros(FRAME), PC)
        nz = np.flatnonzero(out.data)
        assert nz.size == 1
        assert out.data[PC.pilot_delay, PC.pilot_doppler] == PC.amplitude

    def test_energy_adds_on_orthogonal_supports(self):
        mask = overlay_mask(PC, FRAME)
        data = np.where(mask == DATA,
                        rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)),
                        0.0)
        grid = DelayDopplerGrid(data, FRAME)
        out = embed_pilot(grid, PC)
        total = np.linalg.norm(out.data) ** 2
        assert abs(total - (np.linalg.norm(data) ** 2 + PC.power)) <= 1e-9 * total

    def test_guard_violation_rejected(self):
        with pytest.raises(ValueError):
            PilotConfig(1, 8, 10.0, 3, 3).validate_fit(FRAME)
        with pytest.raises(ValueError):
            overlay_mask(PilotConfig(4, 1, 10.0, 2, 4), FRAME)

    def test_mask_conflict_rejected(self):
        data = np.zeros((16, 16), dtype=complex)
        data[PC.pilot_delay + 1, PC.pilot_doppler] = 1.0  # inside the guard
        with pytest.raises(ValueError):
            embed_pilot(DelayDopplerGrid(data, FRAME), PC)

    def test_mask_is_cached_read_only(self):
        mask = overlay_mask(PC, FRAME)
        assert overlay_mask(PC, FRAME) is mask
        with pytest.raises(ValueError):
            mask[0, 0] = GUARD

    def test_mask_regions(self):
        mask = overlay_mask(PC, FRAME)
        assert mask[PC.pilot_delay, PC.pilot_doppler] == PILOT
        assert mask[PC.pilot_delay + 1, PC.pilot_doppler] == GUARD
        assert mask[0, 0] == DATA


class TestEstimateChannel:
    def test_identity_channel_single_unit_tap(self):
        ch = LtvChannel((ChannelTap(0, 1.0, 0.0),), FRAME)
        est = estimate_channel(received_grid(ch, Waveform.OTFS), PC,
                               Waveform.OTFS, noise_std=1e-9)
        assert len(est.taps) == 1
        t = est.taps[0]
        assert (t.delay, t.doppler) == (0, 0)
        assert abs(t.gain - 1.0) <= 1e-9

    @pytest.mark.parametrize("w", [Waveform.OTFS, Waveform.SC_IFDMA])
    def test_single_tap_gain_recovered(self, w):
        g = 0.7 - 0.4j
        ch = LtvChannel((ChannelTap(2, g, 0.0),), FRAME)
        est = estimate_channel(received_grid(ch, w), PC, w, noise_std=1e-9)
        assert len(est.taps) == 1
        t = est.taps[0]
        assert (t.delay, t.doppler) == (2, 0)
        assert abs(abs(t.gain) - abs(g)) <= 1e-9
        assert abs(t.gain - g) <= 1e-9  # phase convention removes the known rotation

    @pytest.mark.parametrize("w", [Waveform.OTFS, Waveform.SC_IFDMA])
    def test_three_tap_on_grid_recovery(self, w):
        taps = (ChannelTap(0, 0.9 - 0.2j, 1.0), ChannelTap(2, 0.5j, -2.0),
                ChannelTap(3, 0.3 + 0.1j, 2.0))
        ch = LtvChannel(taps, FRAME)
        est = estimate_channel(received_grid(ch, w), PC, w, noise_std=1e-9)
        got = {(t.delay, t.doppler): t.gain for t in est.taps}
        assert len(got) == 3
        for t in taps:
            assert abs(got[(t.delay, int(t.doppler))] - t.gain) <= 1e-6

    def test_waveforms_share_the_canonical_tap_store(self):
        taps = (ChannelTap(1, 0.8, 1.0), ChannelTap(3, 0.4j, -1.0))
        ch = LtvChannel(taps, FRAME)
        a = estimate_channel(received_grid(ch, Waveform.OTFS), PC,
                             Waveform.OTFS, noise_std=1e-9)
        b = estimate_channel(received_grid(ch, Waveform.SC_IFDMA), PC,
                             Waveform.SC_IFDMA, noise_std=1e-9)
        ga = {(t.delay, t.doppler): t.gain for t in a.taps}
        gb = {(t.delay, t.doppler): t.gain for t in b.taps}
        assert ga.keys() == gb.keys()
        for k in ga:
            assert abs(ga[k] - gb[k]) <= 1e-9

    def test_noise_only_usually_empty(self):
        # 45 scanned bins at a 3-sigma threshold: a detection on a pure
        # noise grid has probability about 45*exp(-9), well under 5%
        empty = 0
        for seed in range(100):
            noise = np.sqrt(0.5) * (rng.standard_normal((16, 16))
                                    + 1j * rng.standard_normal((16, 16)))
            grid = DelayDopplerGrid(noise, FRAME)
            est = estimate_channel(grid, PC, Waveform.OTFS, noise_std=1.0)
            empty += est.is_empty
        assert empty >= 95

    def test_noise_std_estimated_from_leading_guard_rows(self):
        ch = LtvChannel((ChannelTap(0, 1.0, 0.0),), FRAME)
        est = estimate_channel(received_grid(ch, Waveform.OTFS, noise_var=0.01,
                                             seed=4), PC, Waveform.OTFS)
        assert 0.03 <= est.noise_std <= 0.3
        assert len(est.taps) == 1

    def test_empty_estimate_flagged(self):
        grid = DelayDopplerGrid.zeros(FRAME)
        est = estimate_channel(grid, PC, Waveform.OTFS, noise_std=1.0)
        assert est.is_empty

    def test_missing_noise_floor_requires_guards(self):
        pc = PilotConfig(0, 8, 10.0, 0, 4)
        with pytest.raises(ValueError):
            estimate_channel(DelayDopplerGrid.zeros(FRAME), pc, Waveform.OTFS)


class TestReconstruct:
    @pytest.mark.parametrize("w", [Waveform.OTFS, Waveform.SC_IFDMA])
    def test_one_tap_reconstruction_matches_truth(self, w):
        ch = LtvChannel((ChannelTap(2, 0.6 + 0.3j, 1.0),), FRAME)
        est = estimate_channel(received_grid(ch, w), PC, w, noise_std=1e-9)
        H = build_dd_matrix(to_ltv_channel(est, FRAME), w).matrix
        Htrue = build_dd_matrix(ch, w).matrix
        assert np.max(np.abs(H - Htrue)) <= 1e-8

    def test_waveform_relation_inherited(self):
        ch = LtvChannel((ChannelTap(0, 0.9, 1.0), ChannelTap(2, 0.4, -1.0)), FRAME)
        est = estimate_channel(received_grid(ch, Waveform.OTFS), PC,
                               Waveform.OTFS, noise_std=1e-9)
        h = to_ltv_channel(est, FRAME)
        Ho = build_dd_matrix(h, Waveform.OTFS).matrix
        Hs = build_dd_matrix(h, Waveform.SC_IFDMA).matrix
        wv = coupling_phases(16, 16).flatten(order="F")
        rel = np.linalg.norm(Hs - wv[:, None] * Ho * np.conj(wv)[None, :])
        assert rel / np.linalg.norm(Ho) <= 1e-9

    def test_empty_estimate_rejected(self):
        est = EstimatedChannel((), Waveform.OTFS, 1.0)
        with pytest.raises(ValueError):
            to_ltv_channel(est, FRAME)
        with pytest.raises(ValueError, match="empty"):
            estimated_diagonals(est, PC, FRAME)


@st.composite
def pilot_frames(draw):
    """A random frame and a pilot whose guard rectangle fits it; the CP is
    often shorter than the delay guard, and may be 0."""
    M = draw(st.integers(1, 16))
    N = draw(st.integers(1, 16))
    gd = draw(st.integers(0, (M - 1) // 2))
    gk = draw(st.integers(0, (N - 1) // 2))
    short = st.integers(0, max(gd - 1, 0))
    cp_len = draw(short | short | st.integers(0, M * N - 1))
    pc = PilotConfig(draw(st.integers(gd, M - 1 - gd)),
                     draw(st.integers(gk, N - 1 - gk)),
                     draw(st.floats(1.0, 1e4)), gd, gk,
                     draw(st.floats(0.5, 5.0)))
    return FrameConfig(M, N, cp_len=cp_len), pc


@st.composite
def estimates(draw):
    """A random estimate on a random frame: distinct taps of the pilot's
    guard rectangle in any order, with any gains."""
    frame, pc = draw(pilot_frames())
    bins = st.tuples(st.integers(0, pc.guard_delay),
                     st.integers(-pc.guard_doppler, pc.guard_doppler))
    finite = st.floats(-2.0, 2.0, allow_nan=False)
    taps = tuple(EstimatedTap(d, k, draw(st.builds(complex, finite, finite)))
                 for d, k in draw(st.lists(bins, min_size=1, max_size=12,
                                           unique=True)))
    waveform = draw(st.sampled_from([Waveform.OTFS, Waveform.SC_IFDMA]))
    return EstimatedChannel(taps, waveform, 1.0), pc, frame


class TestEstimatedDiagonals:
    @PROPERTY
    @given(estimates())
    def test_equals_the_diagonals_of_the_estimated_channel(self, case):
        est, pc, frame = case
        got = estimated_diagonals(est, pc, frame)
        want = delay_diagonals(to_ltv_channel(est, frame))
        order = np.argsort(want.delays)
        np.testing.assert_array_equal(got.delays, want.delays[order])
        assert got.frame == frame
        err = np.linalg.norm(got.gains - want.gains[order])
        assert err <= 1e-12 * np.linalg.norm(want.gains)

    def test_zeroes_the_samples_before_the_frame(self):
        # delay 3 past a CP of 1 reads nothing on samples 0 and 1
        frame = FrameConfig(8, 4, cp_len=1)
        pc = PilotConfig(3, 2, 10.0, 3, 1)
        est = EstimatedChannel((EstimatedTap(0, 1, 0.5j), EstimatedTap(3, -1, 1.0),
                                EstimatedTap(3, 0, -0.5)), Waveform.OTFS, 1.0)
        got = estimated_diagonals(est, pc, frame)
        np.testing.assert_array_equal(got.delays, [0, 3])
        assert not got.gains[1, :2].any() and got.gains[1, 2:].all()
        assert got.gains[0].all()

    def test_ramp_table_is_cached_and_read_only(self):
        chanest._doppler_ramps.cache_clear()
        est = EstimatedChannel((EstimatedTap(1, 2, 1.0),), Waveform.OTFS, 1.0)
        for _ in range(3):
            estimated_diagonals(est, PC, FRAME)
        info = chanest._doppler_ramps.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        table = chanest._doppler_ramps(PC.guard_doppler, FRAME.grid_size,
                                       FRAME.cp_len)
        assert table.shape == (2 * PC.guard_doppler + 1, FRAME.grid_size)
        with pytest.raises(ValueError):
            table[...] = 0

    @PROPERTY
    @given(pilot_frames())
    def test_ramp_table_holds_each_pilot_reference_phase_bit_for_bit(self, case):
        # estimate_channel divides a tap's gain by the table entry of its
        # Doppler index at the pilot's sample, in place of the phase it
        # once computed itself, exp(2j*pi*k*(cp + mp + d)/(M*N)) over the
        # arrays of detected (d, k)
        frame, pc = case
        g, mp = pc.guard_doppler, pc.pilot_delay
        k, d = (a.ravel() for a in np.meshgrid(np.arange(-g, g + 1),
                                               np.arange(pc.guard_delay + 1)))
        want = np.exp(2j * np.pi * k * (frame.cp_len + mp + d) / frame.grid_size)
        got = chanest._doppler_ramps(g, frame.grid_size, frame.cp_len)[k + g, mp + d]
        assert got.tobytes() == want.tobytes()


@st.composite
def received_grids(draw):
    """A random received grid around a fitting pilot, with guard bins on
    both sides of the threshold, and the optional arguments of
    estimate_channel drawn or left out."""
    frame, pc = draw(pilot_frames())
    g = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.floats(0.1, 10.0))
    grid = DelayDopplerGrid(scale * (g.standard_normal((frame.M, frame.N))
                                     + 1j * g.standard_normal((frame.M, frame.N))),
                            frame)
    noise_std = draw(st.none() | st.floats(0.1, 10.0)) if pc.guard_delay else 1.0
    pilot_value = draw(st.none() | st.builds(complex, st.floats(-50, 50),
                                             st.floats(0.5, 50)))
    waveform = draw(st.sampled_from([Waveform.OTFS, Waveform.SC_IFDMA]))
    return grid, pc, waveform, noise_std, pilot_value


class TestVectorizedEstimate:
    @PROPERTY
    @given(received_grids())
    def test_matches_the_bin_by_bin_loop(self, case):
        grid, pc, waveform, noise_std, pilot_value = case
        got = estimate_channel(grid, pc, waveform, noise_std=noise_std,
                               pilot_value=pilot_value)
        want = estimate_channel_loop(grid, pc, waveform, noise_std=noise_std,
                                     pilot_value=pilot_value)
        assert got.noise_std == want.noise_std and got.waveform is want.waveform
        assert ([(t.delay, t.doppler) for t in got.taps]
                == [(t.delay, t.doppler) for t in want.taps])
        for a, b in zip(got.taps, want.taps):
            assert type(a.delay) is int and type(a.doppler) is int
            assert type(a.gain) is complex
            assert abs(a.gain - b.gain) <= 1e-14 * abs(b.gain)

    @PROPERTY
    @given(received_grids(), st.integers(-980, 1000))
    def test_noise_floor_scales_by_powers_of_two_bit_for_bit(self, case, k):
        # from grids whose squares are subnormal to grids whose squares
        # overflow, with no warning: the floor of 2**k times a grid is
        # 2**k times its floor, and the taps are the same
        grid, pc, waveform, _, pilot_value = case
        if not pc.guard_delay:
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            base = estimate_channel(grid, pc, waveform, pilot_value=pilot_value)
            scaled = estimate_channel(DelayDopplerGrid(grid.data * 2.0 ** k,
                                                       grid.frame),
                                      pc, waveform, pilot_value=pilot_value)
        assert scaled.noise_std == np.ldexp(base.noise_std, k)
        assert ([(t.delay, t.doppler) for t in scaled.taps]
                == [(t.delay, t.doppler) for t in base.taps])
