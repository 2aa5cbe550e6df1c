import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ddlink.frame import FrameConfig
from ddlink.modem import (DelayDopplerGrid, TimeSignal, Waveform, _demod_core,
                          _mod_core, demodulate_direct, demodulate_spread,
                          modulate_direct, modulate_spread)
from strategies import PROPERTY

rng = np.random.default_rng(99)

WAVEFORMS = [Waveform.OTFS, Waveform.SC_IFDMA]


def random_grid(frame):
    d = rng.standard_normal((frame.M, frame.N)) + 1j * rng.standard_normal((frame.M, frame.N))
    return DelayDopplerGrid(d, frame)


class TestModulate:
    def test_zero_grid_zero_signal(self):
        frame = FrameConfig(4, 4, cp_len=3)
        for w in WAVEFORMS:
            out = modulate_direct(DelayDopplerGrid.zeros(frame), w)
            assert not out.samples.any()
            assert out.samples.size == frame.frame_len

    def test_single_symbol_hand_value(self):
        # one symbol in the corner bin of a 2x2 grid, no CP
        frame = FrameConfig(2, 2, cp_len=0)
        D = np.zeros((2, 2), dtype=complex)
        D[0, 0] = 1.0
        out = modulate_direct(DelayDopplerGrid(D, frame), Waveform.OTFS)
        expected = np.array([1 / np.sqrt(2), 0, 1 / np.sqrt(2), 0])
        np.testing.assert_allclose(out.samples, expected, atol=1e-12)

    def test_norm_preserved(self):
        frame = FrameConfig(4, 4, cp_len=2)
        for w in WAVEFORMS:
            grid = random_grid(frame)
            s = modulate_direct(grid, w).samples[frame.cp_len:]
            assert abs(np.linalg.norm(s) - np.linalg.norm(grid.data)) <= 1e-12 * np.linalg.norm(grid.data)

    def test_cp_property(self):
        frame = FrameConfig(4, 6, cp_len=5)
        for w in WAVEFORMS:
            x = modulate_direct(random_grid(frame), w).samples
            np.testing.assert_array_equal(x[:5], x[-5:])

    def test_grid_frame_mismatch(self):
        with pytest.raises(ValueError):
            DelayDopplerGrid(np.zeros((3, 3)), FrameConfig(4, 4))


class TestStructuralEquivalence:
    @pytest.mark.parametrize("M,N", [(2, 2), (4, 4), (8, 16), (5, 7)])
    @pytest.mark.parametrize("w", WAVEFORMS)
    def test_modulators_agree(self, M, N, w):
        frame = FrameConfig(M, N, cp_len=min(3, M * N - 1))
        grid = random_grid(frame)
        a = modulate_direct(grid, w).samples
        b = modulate_spread(grid, w).samples
        assert np.max(np.abs(a - b)) <= 1e-10

    @pytest.mark.parametrize("M,N", [(2, 2), (4, 4), (8, 16), (5, 7)])
    @pytest.mark.parametrize("w", WAVEFORMS)
    def test_demodulators_agree(self, M, N, w):
        frame = FrameConfig(M, N, cp_len=2)
        sig = TimeSignal(rng.standard_normal(frame.frame_len)
                         + 1j * rng.standard_normal(frame.frame_len), frame)
        a = demodulate_direct(sig, w).data
        b = demodulate_spread(sig, w).data
        assert np.max(np.abs(a - b)) <= 1e-10


class TestDemodulate:
    @pytest.mark.parametrize("w", WAVEFORMS)
    def test_roundtrip(self, w):
        frame = FrameConfig(8, 4, cp_len=3)
        grid = random_grid(frame)
        for mod, demod in [(modulate_direct, demodulate_direct),
                           (modulate_spread, demodulate_spread),
                           (modulate_direct, demodulate_spread)]:
            back = demod(mod(grid, w), w)
            assert np.max(np.abs(back.data - grid.data)) <= 1e-10

    def test_zero_signal(self):
        frame = FrameConfig(4, 4, cp_len=1)
        out = demodulate_direct(TimeSignal(np.zeros(frame.frame_len), frame), Waveform.OTFS)
        assert not out.data.any()

    def test_unitarity(self):
        frame = FrameConfig(4, 8, cp_len=4)
        sig = TimeSignal(rng.standard_normal(frame.frame_len)
                         + 1j * rng.standard_normal(frame.frame_len), frame)
        for w in WAVEFORMS:
            out = demodulate_direct(sig, w)
            ref = np.linalg.norm(sig.samples[frame.cp_len:])
            assert abs(np.linalg.norm(out.data) - ref) <= 1e-12 * ref

    def test_cp_already_removed(self):
        frame = FrameConfig(4, 4, cp_len=3)
        grid = random_grid(frame)
        x = modulate_direct(grid, Waveform.OTFS)
        bare = TimeSignal(x.samples[frame.cp_len:], frame, cp_included=False)
        back = demodulate_direct(bare, Waveform.OTFS)
        np.testing.assert_allclose(back.data, grid.data, atol=1e-10)

    def test_length_mismatch(self):
        frame = FrameConfig(4, 4, cp_len=3)
        with pytest.raises(ValueError):
            demodulate_direct(TimeSignal(np.zeros(10), frame), Waveform.OTFS)
        with pytest.raises(ValueError):
            demodulate_spread(TimeSignal(np.zeros(10), frame), Waveform.OTFS)

    def test_waveform_outputs_differ_by_unit_phases(self):
        # same record, both demodulators: entrywise equal magnitudes
        frame = FrameConfig(8, 4, cp_len=2)
        sig = TimeSignal(rng.standard_normal(frame.frame_len)
                         + 1j * rng.standard_normal(frame.frame_len), frame)
        a = demodulate_direct(sig, Waveform.OTFS).data
        b = demodulate_direct(sig, Waveform.SC_IFDMA).data
        np.testing.assert_allclose(np.abs(a), np.abs(b), atol=1e-10)


class TestSpreadStructure:
    def test_two_branch_frequency_vector(self):
        # degenerate N=1 grid: the spread vector is the two-point DFT
        frame = FrameConfig(2, 1, cp_len=0)
        D = np.array([[1.0], [0.0]], dtype=complex)
        x = modulate_spread(DelayDopplerGrid(D, frame), Waveform.OTFS).samples
        dbar = np.fft.fft(x, norm="ortho")
        np.testing.assert_allclose(dbar, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)

    def test_sc_equals_otfs_at_origin_bin(self):
        # the coupling phase at bin (0, 0) is unity
        frame = FrameConfig(4, 4, cp_len=2)
        D = np.zeros((4, 4), dtype=complex)
        D[0, 0] = 1.5 - 0.5j
        grid = DelayDopplerGrid(D, frame)
        a = modulate_spread(grid, Waveform.OTFS).samples
        b = modulate_spread(grid, Waveform.SC_IFDMA).samples
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_single_symbol_time_support(self):
        # a lone bin (m0, n0) occupies exactly the samples m0 + k*M
        frame = FrameConfig(8, 4, cp_len=0)
        m0, n0 = 5, 2
        D = np.zeros((8, 4), dtype=complex)
        D[m0, n0] = 1.0
        s = modulate_direct(DelayDopplerGrid(D, frame), Waveform.OTFS).samples
        support = np.flatnonzero(np.abs(s) > 1e-12)
        np.testing.assert_array_equal(support, m0 + 8 * np.arange(4))

    def test_single_symbol_frequency_support(self):
        # the same symbol occupies exactly the frequency bins n0 + k*N
        frame = FrameConfig(8, 4, cp_len=0)
        m0, n0 = 5, 2
        D = np.zeros((8, 4), dtype=complex)
        D[m0, n0] = 1.0
        s = modulate_direct(DelayDopplerGrid(D, frame), Waveform.OTFS).samples
        spectrum = np.fft.fft(s, norm="ortho")
        support = np.flatnonzero(np.abs(spectrum) > 1e-12)
        np.testing.assert_array_equal(support, n0 + 4 * np.arange(8))


class TestBatchAxis:
    """The cores take a leading batch axis; every grid and signal of a
    batch gets its own single-frame arithmetic, bit for bit."""

    @PROPERTY
    @given(st.sampled_from([(1, 1), (3, 5), (8, 8), (32, 16), (128, 32)]),
           st.integers(0, 8), st.integers(1, 3), st.sampled_from(WAVEFORMS),
           st.booleans(), st.integers(0, 2 ** 32 - 1))
    def test_batch_equals_each_frame_alone(self, shape, cp, batch, w, spread, seed):
        M, N = shape
        frame = FrameConfig(M, N, cp_len=min(cp, M * N - 1))
        g = np.random.default_rng(seed)
        D = g.standard_normal((batch, M, N)) + 1j * g.standard_normal((batch, M, N))
        z = g.standard_normal((batch, M * N)) + 1j * g.standard_normal((batch, M * N))
        x, G = _mod_core(D, frame, w, spread), _demod_core(z, frame, w, spread)
        assert x.shape == (batch, frame.frame_len) and G.shape == (batch, M, N)
        for b in range(batch):
            for got, alone in ((x[b], _mod_core(D[b], frame, w, spread)),
                               (G[b], _demod_core(z[b], frame, w, spread))):
                assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                                      np.ascontiguousarray(alone).view(np.uint64))


class TestGridVec:
    def test_vec_layout(self):
        frame = FrameConfig(3, 2)
        data = np.arange(6, dtype=complex).reshape(3, 2)
        grid = DelayDopplerGrid(data, frame)
        # entry n*M + m holds data[m, n]
        np.testing.assert_array_equal(grid.vec, [0, 2, 4, 1, 3, 5])
        back = DelayDopplerGrid.from_vec(grid.vec, frame)
        np.testing.assert_array_equal(back.data, data)

    def test_from_vec_length_check(self):
        with pytest.raises(ValueError):
            DelayDopplerGrid.from_vec(np.zeros(5), FrameConfig(3, 2))
