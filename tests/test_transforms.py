"""Transform identities the link rests on: the coupling phases, the unitary
DFT and block interleaver from which ``oracles`` builds the dense reference
modulator, and the multirate identities that tie the modem's direct and
spread structures together."""

import numpy as np
import pytest

from ddlink.frame import FrameConfig
from ddlink.modem import (DelayDopplerGrid, TimeSignal, Waveform,
                          demodulate_direct, modulate_direct, modulate_spread)
from ddlink.transforms import coupling_phases
from oracles import dft_matrix, interleaver_source_index

rng = np.random.default_rng(1234)


def random_complex(*shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestDft:
    def test_impulse_is_flat(self):
        out = dft_matrix(4) @ np.array([1, 0, 0, 0], dtype=complex)
        np.testing.assert_allclose(out, np.full(4, 0.5), atol=1e-12)

    def test_two_point_by_hand(self):
        # direct evaluation of the unitary definition at K=2
        out = dft_matrix(2) @ np.array([1.0, 1.0])
        np.testing.assert_allclose(out, [np.sqrt(2), 0.0], atol=1e-12)

    def test_idft_four_ones(self):
        out = dft_matrix(4).conj().T @ np.ones(4, dtype=complex)
        np.testing.assert_allclose(out, [2, 0, 0, 0], atol=1e-12)

    def test_one_point_is_identity(self):
        np.testing.assert_allclose(dft_matrix(1), [[1.0]], atol=1e-15)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 7, 16, 31])
    def test_unitary_roundtrip(self, k):
        F = dft_matrix(k)
        v = random_complex(k)
        np.testing.assert_allclose(F.conj().T @ (F @ v), v, atol=1e-12)
        assert abs(np.linalg.norm(F @ v) - np.linalg.norm(v)) <= 1e-10 * np.linalg.norm(v)
        assert abs(np.linalg.norm(F.conj().T @ v) - np.linalg.norm(v)) <= 1e-10 * np.linalg.norm(v)

    @pytest.mark.parametrize("k", [4, 5, 8])
    def test_matches_ortho_fft(self, k):
        # the modem runs np.fft with norm="ortho"; the oracle must agree
        v = random_complex(k)
        F = dft_matrix(k)
        np.testing.assert_allclose(F @ v, np.fft.fft(v, norm="ortho"), atol=1e-12)
        np.testing.assert_allclose(F.conj().T @ v, np.fft.ifft(v, norm="ortho"), atol=1e-12)
        np.testing.assert_allclose(F @ F.conj().T, np.eye(k), atol=1e-12)


class TestCouplingPhases:
    def test_unit_modulus(self):
        np.testing.assert_allclose(np.abs(coupling_phases(4, 6)), 1.0, atol=1e-12)

    def test_entry_value(self):
        # (m=1, n=1) with M = N = 2 is exp(-j*pi/2)
        assert abs(coupling_phases(2, 2)[1, 1] - (-1j)) <= 1e-12

    def test_first_delay_row_and_doppler_column_unchanged(self):
        W = coupling_phases(5, 3)
        np.testing.assert_array_equal(W[0, :], 1.0)
        np.testing.assert_array_equal(W[:, 0], 1.0)

    def test_conjugate_inverts(self):
        D = random_complex(3, 4)
        W = coupling_phases(3, 4)
        np.testing.assert_allclose(D * np.conj(W) * W, D, atol=1e-12)

    def test_norm_preserved(self):
        D = random_complex(4, 3)
        out = D * coupling_phases(4, 3)
        assert abs(np.linalg.norm(out) - np.linalg.norm(D)) <= 1e-12

    def test_vec_layout_matches_definition(self):
        # entry n*M + m of the column-major vector is exp(-2j*pi*m*n/(M*N))
        M, N = 3, 4
        v = coupling_phases(M, N).flatten(order="F")
        for n in range(N):
            for m in range(M):
                assert abs(v[n * M + m] - np.exp(-2j * np.pi * m * n / (M * N))) <= 1e-12

    def test_cached_read_only(self):
        W = coupling_phases(3, 5)
        assert coupling_phases(3, 5) is W
        with pytest.raises(ValueError):
            W[1, 1] = 0.0

    @pytest.mark.parametrize("M,N", [(2, 2), (4, 4), (5, 7)])
    def test_waveforms_differ_only_by_coupling_phases(self, M, N):
        # SC-IFDMA transmits the OTFS signal of the derotated grid, and its
        # demodulator returns the OTFS output with the phases reapplied
        frame = FrameConfig(M, N, cp_len=min(2, M * N - 1))
        D = random_complex(M, N)
        W = coupling_phases(M, N)
        sc = modulate_direct(DelayDopplerGrid(D, frame), Waveform.SC_IFDMA).samples
        otfs = modulate_direct(DelayDopplerGrid(D * np.conj(W), frame), Waveform.OTFS).samples
        np.testing.assert_allclose(sc, otfs, atol=1e-12)
        sig = TimeSignal(random_complex(frame.frame_len), frame)
        np.testing.assert_allclose(demodulate_direct(sig, Waveform.SC_IFDMA).data,
                                   demodulate_direct(sig, Waveform.OTFS).data * W,
                                   atol=1e-12)


class TestInterleaving:
    def test_two_by_two_hand_trace(self):
        # blocks [a, b] and [c, d] interleave to [a, c, b, d]
        np.testing.assert_array_equal(interleaver_source_index(2, 2), [0, 2, 1, 3])

    def test_single_block_identity(self):
        np.testing.assert_array_equal(interleaver_source_index(1, 6), np.arange(6))

    def test_unit_blocks_identity(self):
        np.testing.assert_array_equal(interleaver_source_index(6, 1), np.arange(6))

    def test_block_interleaver_bijective(self):
        np.testing.assert_array_equal(np.sort(interleaver_source_index(4, 6)), np.arange(24))

    def test_block_interleaver_matches_row_interleaving(self):
        # spreading N blocks of length M equals reading the (N, M) block
        # array column by column
        M, N = 3, 4
        v = random_complex(M * N)
        np.testing.assert_array_equal(v[interleaver_source_index(N, M)],
                                      v.reshape(N, M).T.ravel())

    @pytest.mark.parametrize("M,N", [(2, 3), (4, 4), (5, 2)])
    def test_spread_modulator_places_comb_by_interleaver(self, M, N):
        # the spread path's full-band vector is the per-column M-point DFTs,
        # block-interleaved: frequency bin n + k*N holds column n's bin k
        frame = FrameConfig(M, N, cp_len=0)
        D = random_complex(M, N)
        s = modulate_spread(DelayDopplerGrid(D, frame), Waveform.SC_IFDMA).samples
        blocks = np.fft.fft(D, axis=0, norm="ortho").ravel(order="F")
        np.testing.assert_allclose(np.fft.fft(s, norm="ortho"),
                                   blocks[interleaver_source_index(N, M)], atol=1e-12)


class TestMultirateIdentities:
    @pytest.mark.parametrize("M,N", [(2, 4), (4, 4), (3, 5), (8, 16)])
    def test_upsampling_identity(self, M, N):
        # a grid with only delay row 0 transmits the M-fold expansion of the
        # N-point IDFT of that row, which equals the MN-point IDFT of the
        # scaled M-fold replication
        frame = FrameConfig(M, N, cp_len=0)
        d = random_complex(N)
        D = np.zeros((M, N), dtype=complex)
        D[0] = d
        expanded = np.zeros(M * N, dtype=complex)
        expanded[::M] = np.fft.ifft(d, norm="ortho")
        rhs = np.fft.ifft(np.tile(d, M) / np.sqrt(M), norm="ortho")
        np.testing.assert_allclose(expanded, rhs, atol=1e-10)
        for w in (Waveform.OTFS, Waveform.SC_IFDMA):
            s = modulate_direct(DelayDopplerGrid(D, frame), w).samples
            np.testing.assert_allclose(s, rhs, atol=1e-10)

    @pytest.mark.parametrize("M,N", [(2, 4), (4, 4), (3, 5), (8, 16)])
    def test_aliasing_identity(self, M, N):
        # delay row 0 of the demodulated grid is the N-point DFT of the
        # M-fold decimation, which equals the scaled fold of the full DFT
        frame = FrameConfig(M, N, cp_len=0)
        z = random_complex(M * N)
        decimated = np.fft.fft(z[::M], norm="ortho")
        folded = np.fft.fft(z, norm="ortho").reshape(M, N).sum(axis=0) / np.sqrt(M)
        np.testing.assert_allclose(decimated, folded, atol=1e-10)
        for w in (Waveform.OTFS, Waveform.SC_IFDMA):
            row = demodulate_direct(TimeSignal(z, frame), w).data[0]
            np.testing.assert_allclose(row, folded, atol=1e-10)
