import numpy as np
import pytest
from hypothesis import given
from scipy.sparse.linalg import LinearOperator

from ddlink.channel import (ChannelTap, LtvChannel, NoiseSpec, apply_channel,
                            build_dd_matrix, cp_channel_matrix, eva_channel,
                            linearized_io, make_channel, taps_from_profile)
from ddlink.frame import FrameConfig
from ddlink.modem import (DelayDopplerGrid, TimeSignal, Waveform,
                          demodulate_direct, modulate_direct)
from ddlink.sync import Impairments
from ddlink.transforms import coupling_phases
from oracles import dft_matrix, interleaver_source_index, time_domain_matrix
from strategies import PROPERTY, channels

rng = np.random.default_rng(42)


def random_channel(frame, n_taps=3, max_delay=None, rng=rng):
    max_delay = frame.cp_len if max_delay is None else max_delay
    delays = rng.choice(max_delay + 1, size=min(n_taps, max_delay + 1), replace=False)
    taps = tuple(
        ChannelTap(int(d),
                   complex(rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2),
                   float(rng.uniform(-2, 2)))
        for d in delays)
    return LtvChannel(taps, frame)


def random_grid(frame, rng=rng):
    d = rng.standard_normal((frame.M, frame.N)) + 1j * rng.standard_normal((frame.M, frame.N))
    return DelayDopplerGrid(d, frame)


class TestEvaProfile:
    def test_zero_velocity_is_static(self):
        frame = FrameConfig(32, 16, cp_len=20)
        ch = eva_channel(frame, 0.0, np.random.default_rng(0))
        assert all(t.doppler == 0.0 for t in ch.taps)

    def test_delay_quantization(self):
        # 310 ns at 7.68 MHz rounds to 2 samples
        frame = FrameConfig(32, 16, cp_len=20, bandwidth_hz=7.68e6)
        ch = eva_channel(frame, 100.0, np.random.default_rng(0))
        delays = [t.delay for t in ch.taps]
        assert delays == [0, 0, 1, 2, 3, 5, 8, 13, 19]

    def test_power_normalization(self):
        frame = FrameConfig(32, 16, cp_len=20)
        g = np.random.default_rng(5)
        energy = np.mean([sum(abs(t.gain) ** 2 for t in eva_channel(frame, 200.0, g).taps)
                          for _ in range(4000)])
        assert abs(energy - 1.0) <= 0.05

    def test_doppler_bounded_by_max_shift(self):
        frame = FrameConfig(32, 16, cp_len=20, carrier_hz=5.9e9)
        ch = eva_channel(frame, 500.0, np.random.default_rng(1))
        nu_max = 5.9e9 * (500 / 3.6) / 3e8
        k_max = nu_max / frame.doppler_spacing
        assert all(abs(t.doppler) <= k_max + 1e-9 for t in ch.taps)

    def test_negative_velocity_rejected(self):
        with pytest.raises(ValueError):
            eva_channel(FrameConfig(8, 8, cp_len=4), -1.0, np.random.default_rng(0))

    def test_profile_registry(self):
        frame = FrameConfig(32, 16, cp_len=8)
        two = make_channel("two_tap_biased", frame, 0.0, np.random.default_rng(2))
        assert [t.delay for t in two.taps] == [0, 3]
        np.testing.assert_allclose(sorted(abs(t.gain) ** 2 for t in two.taps),
                                   [0.4, 0.6], atol=1e-12)
        with pytest.raises(ValueError):
            make_channel("nope", frame, 0.0, np.random.default_rng(0))

    def test_explicit_doppler_taps(self):
        frame = FrameConfig(32, 16, cp_len=8)
        ch = taps_from_profile([0.0, 260.4], [0.0, -3.0], frame, 0.0,
                               np.random.default_rng(0), dopplers_hz=[0.0, 15000.0])
        assert [t.delay for t in ch.taps] == [0, 2]
        np.testing.assert_allclose([t.doppler for t in ch.taps], [0.0, 1.0], atol=1e-12)


class TestApplyChannel:
    def test_identity_channel(self):
        frame = FrameConfig(8, 4, cp_len=3)
        ch = LtvChannel((ChannelTap(0, 1.0, 0.0),), frame)
        x = modulate_direct(random_grid(frame), Waveform.OTFS)
        out = apply_channel(x, ch)
        np.testing.assert_array_equal(out.samples, x.samples)

    def test_two_static_taps_against_convolution_loop(self):
        # independent brute-force O(L*K) oracle
        frame = FrameConfig(8, 4, cp_len=3)
        ch = LtvChannel((ChannelTap(0, 0.8 - 0.3j, 0.0), ChannelTap(2, 0.4j, 0.0)), frame)
        x = modulate_direct(random_grid(frame), Waveform.OTFS)
        out = apply_channel(x, ch).samples
        expected = np.zeros_like(out)
        for k in range(expected.size):
            for tap in ch.taps:
                j = k - tap.delay
                if 0 <= j < x.samples.size:
                    expected[k] += tap.gain * x.samples[j]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_cfo_phase_ramp(self):
        frame = FrameConfig(8, 4, cp_len=2)
        ch = LtvChannel((ChannelTap(0, 1.0, 0.0),), frame)
        x = modulate_direct(random_grid(frame), Waveform.OTFS)
        eps = 0.37
        out = apply_channel(x, ch, impair=Impairments(cfo=eps)).samples
        kappa = np.arange(x.samples.size)
        expected = np.exp(2j * np.pi * eps * kappa / frame.grid_size) * x.samples
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_timing_offset_shifts_record(self):
        frame = FrameConfig(8, 4, cp_len=2)
        ch = LtvChannel((ChannelTap(0, 1.0, 0.0),), frame)
        x = modulate_direct(random_grid(frame), Waveform.OTFS)
        imp = Impairments(timing_delay=3, timing_blocks=1)
        out = apply_channel(x, ch, impair=imp).samples
        shift = imp.total_offset(frame.M)
        assert out.size == x.samples.size + shift
        assert not out[:shift].any()
        np.testing.assert_array_equal(out[shift:], x.samples)

    def test_doppler_tap_matches_closed_form(self):
        frame = FrameConfig(8, 4, cp_len=2)
        k_dop = 1.3
        ch = LtvChannel((ChannelTap(0, 1.0, k_dop),), frame)
        x = modulate_direct(random_grid(frame), Waveform.OTFS)
        out = apply_channel(x, ch).samples
        kappa = np.arange(x.samples.size)
        np.testing.assert_allclose(
            out, np.exp(2j * np.pi * k_dop * kappa / frame.grid_size) * x.samples,
            atol=1e-12)

    def test_noise_statistics(self):
        frame = FrameConfig(50, 10, cp_len=0)
        ch = LtvChannel((ChannelTap(0, 1.0, 0.0),), frame)
        zero = TimeSignal(np.zeros(frame.frame_len), frame)
        out = apply_channel(zero, ch, noise=NoiseSpec(1.0, np.random.default_rng(3)),
                            record_len=10_000)
        var = np.mean(np.abs(out.samples) ** 2)
        assert abs(var - 1.0) <= 0.05


def reference_dd_matrix(ch, waveform):
    """Explicit dense product of the CP-bounded channel with the unitary
    (de)modulation factors, assembled from first principles."""
    frame = ch.frame
    M, N, n = frame.M, frame.N, frame.grid_size
    FMN, FM = dft_matrix(n), dft_matrix(M)
    perm = interleaver_source_index(n_blocks=N, block_len=M)
    Psi = np.eye(n)[:, perm].T  # row i = unit at perm[i]
    A = FMN.conj().T @ Psi @ np.kron(np.eye(N), FM)
    if waveform is Waveform.OTFS:
        A = A @ np.diag(coupling_phases(M, N).flatten(order="F"))
    return A.conj().T @ cp_channel_matrix(ch) @ A


class TestDdMatrix:
    @pytest.mark.parametrize("w", [Waveform.OTFS, Waveform.SC_IFDMA])
    def test_identity_channel_gives_identity(self, w):
        frame = FrameConfig(4, 4, cp_len=2)
        ch = LtvChannel((ChannelTap(0, 1.0, 0.0),), frame)
        H = build_dd_matrix(ch, w).matrix
        assert np.max(np.abs(H - np.eye(16))) <= 1e-10

    def test_single_delay_tap_against_probe_oracle(self):
        # independent oracle: modulate each unit grid with dense DFT
        # matrices, convolve by hand, demodulate with dense matrices
        frame = FrameConfig(2, 2, cp_len=1)
        ch = LtvChannel((ChannelTap(1, 1.0, 0.0),), frame)
        H = build_dd_matrix(ch, Waveform.OTFS).matrix
        F2 = dft_matrix(2)
        expected = np.zeros((4, 4), dtype=complex)
        for j in range(4):
            D = np.zeros((2, 2), dtype=complex)
            D[j % 2, j // 2] = 1.0
            S = D @ F2.conj().T
            s = S.flatten(order="F")
            x = np.concatenate([s[-1:], s])
            r = np.zeros(5, dtype=complex)
            r[1:] = x[:-1]
            z = r[1:]
            R = z.reshape((2, 2), order="F")
            expected[:, j] = (R @ F2).flatten(order="F")
        np.testing.assert_allclose(H, expected, atol=1e-12)

    @pytest.mark.parametrize("w", [Waveform.OTFS, Waveform.SC_IFDMA])
    def test_matches_explicit_matrix_product(self, w):
        frame = FrameConfig(4, 6, cp_len=3)
        ch = random_channel(frame)
        H = build_dd_matrix(ch, w).matrix
        assert np.max(np.abs(H - reference_dd_matrix(ch, w))) <= 1e-9

    def test_waveform_phase_relation(self):
        frame = FrameConfig(8, 8, cp_len=6)
        for _ in range(5):
            ch = random_channel(frame)
            Ho = build_dd_matrix(ch, Waveform.OTFS).matrix
            Hs = build_dd_matrix(ch, Waveform.SC_IFDMA).matrix
            wv = coupling_phases(8, 8).flatten(order="F")
            rel = np.linalg.norm(Hs - wv[:, None] * Ho * np.conj(wv)[None, :])
            assert rel / np.linalg.norm(Ho) <= 1e-9
            assert np.max(np.abs(np.abs(Hs) - np.abs(Ho))) <= 1e-9

    def test_static_channel_structure(self):
        # a time-invariant in-CP channel commutes with the unit-delay
        # operator (circular shift of both delay indices, wrap phase
        # included) and is block-diagonal across Doppler
        frame = FrameConfig(8, 4, cp_len=5)
        ch = LtvChannel((ChannelTap(0, 0.8 + 0.2j, 0.0),
                         ChannelTap(2, 0.4 - 0.1j, 0.0),
                         ChannelTap(4, 0.2j, 0.0)), frame)
        H = build_dd_matrix(ch, Waveform.OTFS).matrix
        R = build_dd_matrix(LtvChannel((ChannelTap(1, 1.0, 0.0),), frame),
                            Waveform.OTFS).matrix
        assert np.max(np.abs(R @ H @ R.conj().T - H)) <= 1e-9
        blocks = H.reshape(4, 8, 4, 8)
        for n in range(4):
            for n2 in range(4):
                if n != n2:
                    assert np.max(np.abs(blocks[n, :, n2, :])) <= 1e-12


class TestLinearizedIo:
    @pytest.mark.parametrize("w", [Waveform.OTFS, Waveform.SC_IFDMA])
    def test_noiseless_consistency(self, w):
        frame = FrameConfig(8, 8, cp_len=6)
        for _ in range(5):
            ch = random_channel(frame)
            grid = random_grid(frame)
            rx, H = linearized_io(grid, ch, None, w)
            err = np.linalg.norm(rx.vec - H.matrix @ grid.vec)
            assert err / np.linalg.norm(rx.vec) <= 1e-9

    def test_residual_is_exactly_the_demodulated_noise(self):
        frame = FrameConfig(8, 4, cp_len=3)
        ch = random_channel(frame)
        grid = random_grid(frame)
        rx, H = linearized_io(grid, ch, NoiseSpec(0.1, np.random.default_rng(11)), Waveform.OTFS)
        residual = rx.vec - H.matrix @ grid.vec
        # replay the same noise draw and demodulate it alone
        from ddlink.channel import draw_noise
        eta = draw_noise(np.random.default_rng(11), 0.1, frame.frame_len)
        eta_grid = demodulate_direct(TimeSignal(eta, frame), Waveform.OTFS)
        np.testing.assert_allclose(residual, eta_grid.vec, atol=1e-9)

    def test_demodulated_noise_statistics(self):
        # unitary demodulation preserves the noise variance
        frame = FrameConfig(32, 16, cp_len=8)
        ch = LtvChannel((ChannelTap(0, 1.0, 0.0),), frame)
        zero = DelayDopplerGrid.zeros(frame)
        samples = []
        for seed in range(20):
            rx, _ = linearized_io(zero, ch, NoiseSpec(1.0, np.random.default_rng(seed)),
                                  Waveform.OTFS)
            samples.append(rx.vec)
        var = np.mean(np.abs(np.concatenate(samples)) ** 2)
        assert abs(var - 1.0) <= 0.05

    def test_waveform_noise_rotation(self):
        # the two demodulators turn one noise record into vectors that
        # differ exactly by the unit coupling phases
        frame = FrameConfig(8, 4, cp_len=2)
        eta = rng.standard_normal(frame.frame_len) + 1j * rng.standard_normal(frame.frame_len)
        sig = TimeSignal(eta, frame)
        a = demodulate_direct(sig, Waveform.OTFS).vec
        b = demodulate_direct(sig, Waveform.SC_IFDMA).vec
        np.testing.assert_allclose(np.abs(a), np.abs(b), atol=1e-12)
        wv = coupling_phases(8, 4).flatten(order="F")
        np.testing.assert_allclose(b, wv * a, atol=1e-12)


def td_operator(ch, w):
    """demod_w o H_t o mod_w with H_t = time_domain_matrix(ch). The
    (de)modulators are unitary, so the adjoint is demod_w o H_t^H o mod_w."""
    frame = ch.frame
    n, cp = frame.grid_size, frame.cp_len
    Ht = time_domain_matrix(ch)

    def through(H):
        def apply(v):
            s = modulate_direct(DelayDopplerGrid.from_vec(v, frame), w).samples[cp:]
            return demodulate_direct(TimeSignal(H @ s, frame, cp_included=False),
                                     w).vec
        return apply

    return LinearOperator((n, n), matvec=through(Ht),
                          rmatvec=through(Ht.conj().T), dtype=complex)


class TestOperator:
    @pytest.mark.parametrize("w", [Waveform.OTFS, Waveform.SC_IFDMA])
    def test_matvec_and_adjoint_match_dense(self, w):
        # delays up to 7 > cp_len: the taps reaching past the CP drop
        # their leading samples, in the sparse matrix and the dense build
        frame = FrameConfig(8, 8, cp_len=5)
        ch = random_channel(frame, n_taps=4, max_delay=7)
        op = td_operator(ch, w)
        H = build_dd_matrix(ch, w).matrix
        v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        np.testing.assert_allclose(op.matvec(v), H @ v, rtol=0, atol=1e-10)
        np.testing.assert_allclose(op.rmatvec(v), H.conj().T @ v, rtol=0, atol=1e-10)

    def test_adjoint_inner_product(self):
        frame = FrameConfig(4, 8, cp_len=3)
        ch = random_channel(frame, max_delay=5)
        op = td_operator(ch, Waveform.OTFS)
        u = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        v = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        lhs = np.vdot(u, op.matvec(v))
        rhs = np.vdot(op.rmatvec(u), v)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


class TestTimeDomainMatrix:
    @PROPERTY
    @given(channels())
    def test_equals_dense_cp_channel_exactly(self, ch):
        Ht = time_domain_matrix(ch)
        assert Ht.nnz <= len(ch.taps) * ch.frame.grid_size
        assert np.array_equal(Ht.toarray(), cp_channel_matrix(ch))

    @PROPERTY
    @given(channels())
    def test_unitary_sandwich_equals_dd_matrix(self, ch):
        n = ch.frame.grid_size
        eye = np.eye(n, dtype=complex)
        for w in (Waveform.OTFS, Waveform.SC_IFDMA):
            op = td_operator(ch, w)
            H = build_dd_matrix(ch, w).matrix
            np.testing.assert_allclose(op.matmat(eye), H, rtol=0, atol=1e-10)
            np.testing.assert_allclose(op.rmatmat(eye), H.conj().T,
                                       rtol=0, atol=1e-10)

    def test_drops_samples_before_the_frame(self):
        # a tap delayed past the CP reads nothing for its first
        # delay - cp_len output samples
        frame = FrameConfig(4, 2, cp_len=1)
        Ht = time_domain_matrix(LtvChannel((ChannelTap(3, 1.0, 0.0),), frame))
        assert np.array_equal(Ht.toarray()[:2], np.zeros((2, 8)))
        assert np.array_equal(Ht.toarray()[2:], np.eye(8, k=-3)[2:]
                              + np.eye(8, k=5)[2:])


class TestValidation:
    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            ChannelTap(-1, 1.0, 0.0)

    def test_empty_taps_rejected(self):
        with pytest.raises(ValueError):
            LtvChannel((), FrameConfig(4, 4))

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(-0.1)
