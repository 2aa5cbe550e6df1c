import numpy as np
import pytest

from ddlink.chanest import (EstimatedChannel, PilotConfig, embed_pilot,
                            estimate_channel, overlay_mask, to_ltv_channel)
from ddlink.channel import (ChannelTap, LtvChannel, NoiseSpec, apply_channel,
                            build_dd_matrix)
from ddlink.frame import FrameConfig
from ddlink.mapping import DATA, GUARD, PILOT
from ddlink.modem import (DelayDopplerGrid, Waveform, demodulate_direct,
                          modulate_direct)
from ddlink.transforms import coupling_phases

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
