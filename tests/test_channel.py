import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import LinearOperator

from ddlink import channel
from ddlink.channel import (ChannelTap, LtvChannel, NoiseSpec, apply_channel,
                            build_dd_matrix, delay_diagonals, eva_channel,
                            linearized_io, make_channel, taps_from_profile)
from ddlink.frame import FrameConfig
from ddlink.modem import (DelayDopplerGrid, TimeSignal, Waveform,
                          demodulate_direct, modulate_direct)
from ddlink.sync import Impairments
from ddlink.transforms import coupling_phases
import oracles
from oracles import (apply_taps_per_tap, cp_channel_matrix,
                     delay_diagonals_own_ramps, dft_matrix,
                     interleaver_source_index, time_domain_matrix)
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

    def test_profile_draw_matches_the_formula_bit_for_bit(self):
        # the cached profile constants give the gains and Doppler shifts
        # of the formula evaluated in full on every draw
        frame = FrameConfig(32, 16, cp_len=8)
        delays_ns, powers_db = (0.0, 150.0, 370.0), (0.0, -1.4, -0.6)
        ch = taps_from_profile(delays_ns, powers_db, frame, 500.0,
                               np.random.default_rng(3))
        g = np.random.default_rng(3)
        powers = 10.0 ** (np.asarray(powers_db) / 10.0)
        powers = powers / powers.sum()
        gains = np.sqrt(powers) * (g.standard_normal(3)
                                   + 1j * g.standard_normal(3)) / np.sqrt(2)
        nu_max = frame.carrier_hz * (500.0 / 3.6) / 3e8
        dopplers = (nu_max * np.cos(g.uniform(0.0, 2 * np.pi, 3))
                    / frame.doppler_spacing)
        assert [t.delay for t in ch.taps] == [0, 1, 3]
        assert [t.gain for t in ch.taps] == gains.tolist()
        assert [t.doppler for t in ch.taps] == dopplers.tolist()

    def test_profile_constants_are_cached_read_only(self):
        key = ((0.0, 260.4), (0.0, -3.0), FrameConfig(32, 16, cp_len=8), 120.0)
        delays, amplitudes, _ = channel._profile_constants(*key)
        assert channel._profile_constants(*key)[0] is delays
        np.testing.assert_array_equal(delays, [0, 2])
        for a in (delays, amplitudes):
            with pytest.raises(ValueError):
                a[0] = 1


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

    @pytest.mark.parametrize("record_len", [None, 40, 70])
    def test_a_batch_equals_each_frame_alone(self, record_len):
        # one CFO ramp for the batch; the default record fits a frame
        frame = FrameConfig(8, 4, cp_len=3)
        ch = random_channel(frame, max_delay=5)
        x = np.array([modulate_direct(random_grid(frame), w).samples
                      for w in (Waveform.OTFS, Waveform.SC_IFDMA, Waveform.OTFS)])
        imp = Impairments(timing_delay=3, timing_blocks=1, cfo=0.37)
        batch = apply_channel(TimeSignal(x, frame), ch, impair=imp,
                              record_len=record_len).samples
        assert batch.shape == (3, record_len or x.shape[-1] + 11)
        for row, s in zip(batch, x):
            alone = apply_channel(TimeSignal(s, frame), ch, impair=imp,
                                  record_len=record_len).samples
            assert np.array_equal(row.view(np.uint64), alone.view(np.uint64))


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


@st.composite
def ramp_cases(draw):
    """A drawn channel as a trial meets it, on a 32x16 or 128x32 frame: a
    built-in profile, a ``custom`` profile (delays in ns that may quantize
    to one sample delay, Doppler in Hz of either sign) or raw taps
    (delays from a small pool, so taps share delays, up to past the
    frame, fractional Doppler of either sign); a timing shift; and a
    record length from one frame with its CP, which truncates the taps'
    tails, up to the sync record (the shift, two grids and a CP)."""
    M, N = draw(st.sampled_from([(32, 16), (128, 32)]))
    frame = FrameConfig(M, N, cp_len=draw(st.sampled_from([0, 8, 20])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["eva", "eva3", "custom", "taps"]))
    finite = st.floats(-2.0, 2.0, allow_nan=False)
    if kind == "taps":
        pool = draw(st.lists(st.integers(0, frame.frame_len), min_size=1,
                             max_size=4, unique=True))
        ch = LtvChannel(tuple(draw(st.lists(st.builds(
            ChannelTap, delay=st.sampled_from(pool),
            gain=st.builds(complex, finite, finite),
            doppler=st.floats(-N / 2, N / 2, allow_nan=False)),
            min_size=1, max_size=9))), frame)
    elif kind == "custom":
        n = draw(st.integers(1, 9))
        ns = st.floats(0.0, 3000.0, allow_nan=False)
        hz = st.floats(-3000.0, 3000.0, allow_nan=False)
        ch = taps_from_profile(draw(st.lists(ns, min_size=n, max_size=n)),
                               draw(st.lists(st.floats(-20.0, 0.0), min_size=n,
                                             max_size=n)),
                               frame, 0.0, rng,
                               dopplers_hz=draw(st.lists(hz, min_size=n, max_size=n)))
    else:
        ch = make_channel(kind, frame, draw(st.floats(0.0, 1000.0)), rng)
    shift = draw(st.integers(0, 2 * M))
    record_len = draw(st.integers(frame.frame_len,
                                  shift + 2 * frame.grid_size + frame.cp_len))
    x = rng.standard_normal(frame.frame_len) + 1j * rng.standard_normal(frame.frame_len)
    return ch, shift, record_len, x


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64))


class TestSharedRamps:
    """A trial evaluates each drawn channel's tap ramps once, over the
    samples its taps reach; the transmit convolution and the genie delay
    diagonals read them and equal, bit for bit, the same computations
    with each ramp evaluated on its own."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(ramp_cases())
    def test_transmit_and_diagonals_equal_the_per_tap_ramps(self, case):
        ch, shift, record_len, x = case
        frame = ch.frame
        impair = Impairments(timing_delay=shift)
        # over the samples the taps reach, as a trial's send stage takes
        # them (TestSend checks it takes these)
        (ramps,) = oracles.ramps(frame, [ch], impair, record_len)
        old = apply_taps_per_tap(x, ch, shift, record_len)
        assert same_bits(channel._apply_taps(x, ch, ramps, shift, record_len), old)
        # apply_channel evaluates the ramps over the whole record itself
        whole = apply_channel(TimeSignal(x, frame), ch, impair=impair,
                              record_len=record_len).samples
        assert same_bits(whole, old)
        want = delay_diagonals_own_ramps(ch)
        for got in (delay_diagonals(ch, ramps), delay_diagonals(ch)):
            assert np.array_equal(got.delays, want.delays)
            assert same_bits(got.gains, want.gains)

    def test_ramps_are_not_changed_by_their_readers(self):
        frame = FrameConfig(8, 4, cp_len=2)
        ch = LtvChannel((ChannelTap(9, 1.0, 0.5), ChannelTap(9, 0.5j, -1.0),
                         ChannelTap(1, 0.3, 0.0)), frame)
        ramps = channel.tap_ramps(ch, frame.frame_len)
        kept = ramps.copy()
        delay_diagonals(ch, ramps)
        apply_channel(TimeSignal(np.ones(frame.frame_len), frame), ch, ramps=ramps)
        assert same_bits(ramps, kept)


class TestValidation:
    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            ChannelTap(-1, 1.0, 0.0)

    def test_empty_taps_rejected(self):
        with pytest.raises(ValueError):
            LtvChannel((), FrameConfig(4, 4))

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(-0.1, np.random.default_rng(0))
