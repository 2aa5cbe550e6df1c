import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ddlink.channel import ChannelTap, LtvChannel, build_dd_matrix
from ddlink.equalize import (equalize_iterative, equalize_mmse,
                             equalize_time_domain)
from ddlink.frame import FrameConfig
from ddlink.modem import DelayDopplerGrid, TimeSignal, Waveform, demodulate_direct
from ddlink.transforms import coupling_phases
from strategies import PROPERTY, channels

rng = np.random.default_rng(21)


def grid_of(v, frame):
    return DelayDopplerGrid.from_vec(np.asarray(v, dtype=complex), frame)


class TestMmse:
    def test_identity_channel_zero_noise(self):
        frame = FrameConfig(4, 4)
        y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        out = equalize_mmse(grid_of(y, frame), np.eye(16), 0.0)
        np.testing.assert_allclose(out.vec, y, atol=1e-12)

    def test_zero_forcing_residual(self):
        frame = FrameConfig(4, 4)
        H = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        out = equalize_mmse(grid_of(y, frame), H, 0.0)
        assert np.linalg.norm(H @ out.vec - y) <= 1e-8 * np.linalg.norm(y)

    def test_unitary_diagonal_closed_form(self):
        frame = FrameConfig(4, 4)
        diag = coupling_phases(4, 4).flatten(order="F")
        y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        s2 = 0.3
        out = equalize_mmse(grid_of(y, frame), np.diag(diag), s2)
        np.testing.assert_allclose(out.vec, np.conj(diag) * y / (1 + s2), atol=1e-10)

    def test_shape_mismatch(self):
        frame = FrameConfig(4, 4)
        with pytest.raises(ValueError):
            equalize_mmse(grid_of(np.zeros(16), frame), np.eye(8), 0.1)


class TestIterative:
    def test_identity_converges_immediately(self):
        frame = FrameConfig(4, 4)
        y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        s2 = 0.2
        res = equalize_iterative(grid_of(y, frame), np.eye(16), s2)
        assert res.converged
        assert res.iterations <= 2
        np.testing.assert_allclose(res.grid.vec, y / (1 + s2), atol=1e-8)

    def test_matches_direct_solve(self):
        frame = FrameConfig(4, 4)
        for _ in range(5):
            H = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
            H += 4 * np.eye(16)  # keep it well conditioned
            y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            s2 = 0.1
            direct = equalize_mmse(grid_of(y, frame), H, s2)
            it = equalize_iterative(grid_of(y, frame), H, s2, max_iter=400, tol=1e-12)
            assert it.converged
            err = np.linalg.norm(it.grid.vec - direct.vec)
            assert err / np.linalg.norm(direct.vec) <= 1e-6

    def test_zero_budget_returns_zero_with_flag(self):
        frame = FrameConfig(4, 4)
        y = np.ones(16, dtype=complex)
        res = equalize_iterative(grid_of(y, frame), np.eye(16), 0.1, max_iter=0)
        assert not res.converged
        assert res.iterations == 0
        assert not res.grid.vec.any()
        assert res.residual == pytest.approx(np.linalg.norm(y))

    def test_solves_the_damped_problem(self):
        # gradient of ||Hd - y||^2 + s2*||d||^2 vanishes at the solution
        frame = FrameConfig(4, 4)
        H = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        s2 = 0.25
        res = equalize_iterative(grid_of(y, frame), H, s2, max_iter=400, tol=1e-13)
        grad = H.conj().T @ (H @ res.grid.vec - y) + s2 * res.grid.vec
        assert np.linalg.norm(grad) <= 1e-6 * np.linalg.norm(y)


class TestTimeDomain:
    @pytest.mark.parametrize("w", [Waveform.OTFS, Waveform.SC_IFDMA])
    @pytest.mark.parametrize("cp_len", [0, 3, 6])
    def test_mmse_matches_dense_oracle(self, w, cp_len):
        # the tap at delay 5 reaches past the CP unless cp_len is 6
        frame = FrameConfig(4, 6, cp_len=cp_len)
        ch = LtvChannel((ChannelTap(0, 0.8, 0.3), ChannelTap(2, 0.3 - 0.4j, -1.6),
                         ChannelTap(5, 0.25j, 0.9)), frame)
        r = TimeSignal(rng.standard_normal(frame.frame_len)
                       + 1j * rng.standard_normal(frame.frame_len), frame)
        for s2 in (0.0, 0.05, 1.0):
            oracle = equalize_mmse(demodulate_direct(r, w), build_dd_matrix(ch, w), s2)
            td = equalize_time_domain(r, ch, w, s2)
            err = np.linalg.norm(td.vec - oracle.vec) / np.linalg.norm(oracle.vec)
            assert err <= 1e-10

    @PROPERTY
    @given(channels(), st.floats(1e-3, 1.0), st.integers(0, 2**32 - 1))
    def test_mmse_matches_dense_oracle_on_random_channels(self, ch, s2, seed):
        # any delay set, including delays whose offsets coincide mod M*N
        # and taps that reach past the CP or the whole frame
        frame = ch.frame
        g = np.random.default_rng(seed)
        r = TimeSignal(g.standard_normal(frame.frame_len)
                       + 1j * g.standard_normal(frame.frame_len), frame)
        for w in (Waveform.OTFS, Waveform.SC_IFDMA):
            oracle = equalize_mmse(demodulate_direct(r, w), build_dd_matrix(ch, w), s2)
            td = equalize_time_domain(r, ch, w, s2)
            assert (np.linalg.norm(td.vec - oracle.vec)
                    <= 1e-10 * np.linalg.norm(oracle.vec))

    @pytest.mark.parametrize("delay", [5, 18])
    def test_zero_forcing_on_a_singular_channel_raises(self, delay):
        # past the CP the first delay - cp_len samples read nothing, so
        # H_t has zero columns; past the whole frame it is zero
        frame = FrameConfig(4, 4, cp_len=2)
        ch = LtvChannel((ChannelTap(delay, 1.0, 0.0),), frame)
        r = TimeSignal(np.ones(frame.frame_len), frame)
        with pytest.raises(np.linalg.LinAlgError):
            equalize_time_domain(r, ch, Waveform.OTFS, 0.0)
        if delay >= frame.frame_len:
            with pytest.raises(np.linalg.LinAlgError):
                equalize_mmse(demodulate_direct(r, Waveform.OTFS),
                              build_dd_matrix(ch, Waveform.OTFS), 0.0)

    def test_rejects_mismatched_channel(self):
        frame = FrameConfig(4, 4, cp_len=2)
        r = TimeSignal(np.ones(frame.frame_len), frame)
        other = LtvChannel((ChannelTap(0, 1.0, 0.0),), FrameConfig(4, 2))
        with pytest.raises(ValueError):
            equalize_time_domain(r, other, Waveform.OTFS, 0.1)
