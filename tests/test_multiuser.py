import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddlink.channel import (ChannelTap, LtvChannel, NoiseSpec, apply_channel,
                            delay_diagonals, linearized_io, make_channel)
from ddlink.config import load_spec
from ddlink.frame import FrameConfig
from ddlink.harness import prepare
from ddlink.modem import (DelayDopplerGrid, TimeSignal, Waveform,
                          modulate_direct)
from ddlink import multiuser
from ddlink.multiuser import (Allocation, UserBins, compound_matrix,
                              compound_uplink, detect_users,
                              detect_users_time_domain, even_split_allocation,
                              extract_user, place_user)
from ddlink.transforms import coupling_phases
from oracles import dense_detect, even_split_chunks, in_otfs_convention

rng = np.random.default_rng(33)

FRAME = FrameConfig(8, 8, cp_len=4)
BOTH = (Waveform.OTFS, Waveform.SC_IFDMA)
UPLINK_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "mu_uplink.cfg"


def selection_matrix(alloc: Allocation, q: int) -> np.ndarray:
    """Dense MN-by-(M_q N_q) selector, column j picking the full-grid vec
    position of the user's j-th symbol."""
    idx = alloc.vec_indices(q)
    G = np.zeros((alloc.M * alloc.N, idx.size))
    G[idx, np.arange(idx.size)] = 1.0
    return G


def two_user_alloc(M=8, N=8):
    return Allocation((UserBins(tuple(range(0, M // 2)), tuple(range(0, N // 2))),
                       UserBins(tuple(range(M // 2, M)), tuple(range(N // 2, N)))),
                      M, N)


def random_channel(frame, seed):
    g = np.random.default_rng(seed)
    taps = tuple(ChannelTap(int(d), complex(g.standard_normal() + 1j * g.standard_normal()) / 2,
                            0.0)
                 for d in (0, 2))
    return LtvChannel(taps, frame)


class TestAllocation:
    def test_sorted_and_validated(self):
        a = Allocation((UserBins((3, 1), (0, 2)),), 4, 4)
        assert a.users[0].delay_bins == (1, 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Allocation((UserBins((0, 4), (0,)),), 4, 4)

    def test_shared_bin_rejected(self):
        # bin (1, 1); then bin (3, 0), where one user's column crosses the
        # other's row
        with pytest.raises(ValueError, match="users 0 and 1 share"):
            Allocation((UserBins((0, 1), (0, 1)), UserBins((1, 2), (1, 2))), 4, 4)
        with pytest.raises(ValueError, match="users 0 and 1 share"):
            Allocation((UserBins((0, 1, 2, 3), (0,)), UserBins((3,), (0, 1, 2))),
                       4, 4)

    def test_shared_rows_or_columns_allowed(self):
        a = Allocation((UserBins((0, 1), (0, 1)), UserBins((0, 1), (2, 3)),
                        UserBins((2, 3), (0, 1, 2, 3))), 4, 4)
        assert a.n_users == 3

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_one_rule_no_bin_of_two_users(self, data):
        M, N = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
        bins = lambda n: st.sets(st.integers(0, n - 1), min_size=1)
        users = data.draw(st.lists(st.builds(UserBins, bins(M), bins(N)),
                                   min_size=1, max_size=4))
        grids = []
        for u in users:
            grid = np.zeros((M, N), dtype=int)
            grid[np.ix_(sorted(u.delay_bins), sorted(u.doppler_bins))] = 1
            grids.append(grid)
        if sum(grids).max() <= 1:
            assert Allocation(tuple(users), M, N).n_users == len(users)
            return
        with pytest.raises(ValueError) as err:
            Allocation(tuple(users), M, N)
        i, j = map(int, re.fullmatch(r"users (\d+) and (\d+) share "
                                     r"delay-Doppler bins", str(err.value)).groups())
        assert i < j and np.any(grids[i] & grids[j])

    def test_even_split_covers_grid(self):
        a = even_split_allocation(8, 8, 3)
        assert sorted(b for u in a.users for b in u.delay_bins) == list(range(8))
        assert sorted(b for u in a.users for b in u.doppler_bins) == list(range(8))

    @pytest.mark.parametrize("n_users", [0, -1])
    def test_even_split_needs_a_user(self, n_users):
        with pytest.raises(ValueError, match="at least one user"):
            even_split_allocation(8, 8, n_users)

    @pytest.mark.parametrize("M, N", [(32, 16), (128, 32), (7, 5), (1, 3)])
    def test_even_split_equals_the_written_out_chunks(self, M, N):
        for q in range(1, min(M, N) + 1):
            users = even_split_allocation(M, N, q).users
            assert users == tuple(map(UserBins, even_split_chunks(M, q),
                                      even_split_chunks(N, q)))
            assert all(type(b) is int for u in users
                       for b in u.delay_bins + u.doppler_bins)

    def test_even_split_needs_a_bin_per_user(self):
        with pytest.raises(ValueError, match="cannot split 5 bins across 6 users"):
            even_split_allocation(7, 5, 6)


class TestPlacement:
    def test_full_allocation_identity_embedding(self):
        a = Allocation((UserBins(tuple(range(8)), tuple(range(8))),), 8, 8)
        data = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        out = place_user(data, a, 0, FRAME)
        np.testing.assert_array_equal(out.data, data)

    def test_hand_traced_position(self):
        frame = FrameConfig(4, 2)
        a = Allocation((UserBins((1, 3), (0,)),), 4, 2)
        data = np.array([[5.0], [7.0]], dtype=complex)
        out = place_user(data, a, 0, frame)
        assert out.data[1, 0] == 5.0
        assert out.data[3, 0] == 7.0
        assert np.count_nonzero(out.data) == 2

    def test_energy_additivity(self):
        a = two_user_alloc()
        total = 0.0
        acc = np.zeros((8, 8), dtype=complex)
        for q in range(2):
            d = rng.standard_normal(a.user_shape(q)) + 1j * rng.standard_normal(a.user_shape(q))
            total += np.linalg.norm(d) ** 2
            acc += place_user(d, a, q, FRAME).data
        assert abs(np.linalg.norm(acc) ** 2 - total) <= 1e-9 * total

    def test_dimension_mismatch(self):
        a = two_user_alloc()
        with pytest.raises(ValueError):
            place_user(np.zeros((3, 3)), a, 0, FRAME)

    def test_extract_inverts_place(self):
        a = two_user_alloc()
        d = rng.standard_normal(a.user_shape(1)) + 1j * rng.standard_normal(a.user_shape(1))
        np.testing.assert_array_equal(extract_user(place_user(d, a, 1, FRAME), a, 1), d)

    def test_selection_matrix_orthogonality(self):
        a = two_user_alloc()
        G0, G1 = selection_matrix(a, 0), selection_matrix(a, 1)
        np.testing.assert_array_equal(G0.T @ G1, np.zeros((G0.shape[1], G1.shape[1])))
        np.testing.assert_array_equal(G0.T @ G0, np.eye(G0.shape[1]))

    def test_selection_matrix_matches_place(self):
        a = two_user_alloc()
        d = rng.standard_normal(a.user_shape(0)) + 1j * rng.standard_normal(a.user_shape(0))
        via_matrix = selection_matrix(a, 0) @ d.flatten(order="F")
        np.testing.assert_allclose(place_user(d, a, 0, FRAME).vec, via_matrix, atol=1e-12)


class TestCompound:
    def test_single_user_reduces_to_point_to_point(self):
        a = Allocation((UserBins(tuple(range(8)), tuple(range(8))),), 8, 8)
        ch = random_channel(FRAME, 1)
        data = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        noise_seed = 77
        rx_mu, H_mu = compound_uplink([(data, ch)], a, Waveform.OTFS, FRAME,
                                      noise=NoiseSpec(0.05, np.random.default_rng(noise_seed)))
        rx_su, H_su = linearized_io(DelayDopplerGrid(data, FRAME), ch,
                                    NoiseSpec(0.05, np.random.default_rng(noise_seed)),
                                    Waveform.OTFS)
        np.testing.assert_array_equal(rx_mu.data, rx_su.data)
        np.testing.assert_array_equal(H_mu.matrix, H_su.matrix)

    def test_identity_channels_superpose_without_cross_terms(self):
        a = two_user_alloc()
        ch = LtvChannel((ChannelTap(0, 1.0, 0.0),), FRAME)
        datas = [rng.standard_normal(a.user_shape(q)) + 1j * rng.standard_normal(a.user_shape(q))
                 for q in range(2)]
        rx, _ = compound_uplink([(datas[0], ch), (datas[1], ch)], a, Waveform.OTFS, FRAME)
        expected = sum(place_user(datas[q], a, q, FRAME).data for q in range(2))
        assert np.max(np.abs(rx.data - expected)) <= 1e-10

    @pytest.mark.parametrize("w", [Waveform.OTFS, Waveform.SC_IFDMA])
    def test_linear_model_against_per_user_oracle(self, w):
        # per-user simulate-then-sum oracle at M = N = 4
        frame = FrameConfig(4, 4, cp_len=3)
        a = Allocation((UserBins((0, 1), (0, 1)), UserBins((2, 3), (2, 3))), 4, 4)
        users = []
        acc = np.zeros(16, dtype=complex)
        for q in range(2):
            ch = random_channel(frame, 10 + q)
            data = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            users.append((data, ch))
            placed = place_user(data, a, q, frame)
            rx_q, _ = linearized_io(placed, ch, None, w)
            acc += rx_q.vec
        rx, H = compound_uplink(users, a, w, frame)
        np.testing.assert_allclose(rx.vec, acc, atol=1e-10)
        combined = sum(place_user(u[0], a, q, frame).vec for q, u in enumerate(users))
        np.testing.assert_allclose(rx.vec, H.matrix @ combined, atol=1e-9)

    def test_compound_waveform_relation(self):
        a = two_user_alloc()
        channels = [random_channel(FRAME, s) for s in (5, 6)]
        Ho = compound_matrix(channels, a, Waveform.OTFS).matrix
        Hs = compound_matrix(channels, a, Waveform.SC_IFDMA).matrix
        wv = coupling_phases(8, 8).flatten(order="F")
        rel = np.linalg.norm(Hs - wv[:, None] * Ho * np.conj(wv)[None, :])
        assert rel / np.linalg.norm(Ho) <= 1e-9

    def test_joint_mmse_recovers_all_users_noiseless(self):
        a = two_user_alloc()
        users = [(rng.standard_normal(a.user_shape(q)) + 1j * rng.standard_normal(a.user_shape(q)),
                  random_channel(FRAME, 20 + q)) for q in range(2)]
        rx, H = compound_uplink(users, a, Waveform.OTFS, FRAME)
        d_hat = detect_users(rx, H, a, 0.0)
        for q, (data, _) in enumerate(users):
            err = np.max(np.abs(extract_user(d_hat, a, q) - data))
            assert err <= 1e-8

    def test_regularized_detection_matches_full_grid_solve_on_support(self):
        a = two_user_alloc()
        users = [(rng.standard_normal(a.user_shape(q)) + 1j * rng.standard_normal(a.user_shape(q)),
                  random_channel(FRAME, 30 + q)) for q in range(2)]
        rx, H = compound_uplink(users, a, Waveform.OTFS, FRAME,
                                noise=NoiseSpec(0.05, np.random.default_rng(9)))
        restricted = detect_users(rx, H, a, 0.05)
        for q, (data, _) in enumerate(users):
            # close to the truth at this SNR; the solver is sane
            err = np.mean(np.abs(extract_user(restricted, a, q) - data))
            assert err < 0.5

    def test_user_count_mismatch(self):
        a = two_user_alloc()
        with pytest.raises(ValueError):
            compound_uplink([(np.zeros(a.user_shape(0)), random_channel(FRAME, 0))],
                            a, Waveform.OTFS, FRAME)


def doppler_channel(frame, delays, seed):
    """Random complex gains with fractional Doppler on the given delays."""
    g = np.random.default_rng(seed)
    return LtvChannel(tuple(
        ChannelTap(int(d), complex(g.standard_normal(), g.standard_normal()) / 2,
                   float(g.uniform(-2.5, 2.5)))
        for d in delays), frame)


def uplink_case(name):
    """(frame, allocation, per-user channels) for one oracle scenario."""
    if name == "even_split":
        return FRAME, even_split_allocation(8, 8, 2), \
            [doppler_channel(FRAME, (0, 1, 3), s) for s in (1, 2)]
    if name == "committed_allocation":
        frame = FrameConfig(32, 16, cp_len=8)
        g = np.random.default_rng(3)
        return frame, prepare(load_spec(str(UPLINK_CONFIG))), \
            [make_channel("eva3", frame, 500.0, g) for _ in range(2)]
    if name == "shared_rows_columns":
        # users 0 and 1 share delay bins, users 0 and 2 share Doppler bins
        alloc = Allocation((UserBins((0, 1, 2), (0, 1, 2, 3)),
                            UserBins((0, 1, 2), (4, 5, 6)),
                            UserBins((4, 5, 6, 7), (0, 1, 2))), 8, 8)
        return FRAME, alloc, [doppler_channel(FRAME, (0, 2), s) for s in (4, 5, 6)]
    if name == "none_user":
        return FRAME, two_user_alloc(), [doppler_channel(FRAME, (0, 2), 7), None]
    if name == "past_cp":
        frame = FrameConfig(8, 8, cp_len=2)
        return frame, two_user_alloc(), \
            [doppler_channel(frame, (0, 5, 9), 8), doppler_channel(frame, (3, 70), 9)]
    raise KeyError(name)


def superposed_record(frame, alloc, channels, noise_var, seed):
    """CP-included record of every user's random grid through its channel
    (a None channel stays silent), plus noise."""
    g = np.random.default_rng(seed)
    rx = np.zeros(frame.frame_len, dtype=complex)
    for q, ch in enumerate(channels):
        shape = alloc.user_shape(q)
        data = g.standard_normal(shape) + 1j * g.standard_normal(shape)
        if ch is not None:
            x = modulate_direct(place_user(data, alloc, q, frame), Waveform.OTFS)
            rx += apply_channel(x, ch).samples
    noise = g.standard_normal(rx.size) + 1j * g.standard_normal(rx.size)
    return TimeSignal(rx + np.sqrt(noise_var / 2) * noise, frame)


def diagonals(channels):
    """The receivers' form of per-user channels: delay diagonals, or None."""
    return [None if ch is None else delay_diagonals(ch) for ch in channels]


def assert_matches_dense(received, channels, alloc, w, noise_var):
    """The detector's one grid against the dense detection of waveform
    ``w``, SC-IFDMA's derotated into the OTFS convention."""
    out = detect_users_time_domain(received, diagonals(channels), alloc,
                                   noise_var).vec
    oracle = in_otfs_convention(dense_detect(received, channels, alloc, w,
                                             noise_var), w)
    assert np.linalg.norm(out - oracle) <= 1e-10 * np.linalg.norm(oracle)
    return out


@st.composite
def uplinks(draw):
    """Random geometry, a random allocation of 1-3 users, who may share
    delay rows or Doppler columns but no bin (bins may stay unallocated),
    and per-user random tap sets with delays up to past the CP-included
    frame and fractional Doppler; a user may be silent."""
    M = draw(st.integers(1, 8))
    N = draw(st.integers(1, 8))
    frame = FrameConfig(M, N, cp_len=draw(st.integers(0, M * N - 1)))
    users = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.sets(st.integers(0, M - 1), min_size=1))
        # the Doppler bins of the users before it that share one of its rows
        taken = {v for u in users if d & set(u.delay_bins) for v in u.doppler_bins}
        free = sorted(set(range(N)) - taken)
        if free:
            users.append(UserBins(tuple(d), tuple(draw(
                st.sets(st.sampled_from(free), min_size=1)))))
    alloc = Allocation(tuple(users), M, N)
    Q = alloc.n_users
    finite = st.floats(-2.0, 2.0, allow_nan=False)
    taps = st.lists(st.builds(ChannelTap, delay=st.integers(0, frame.frame_len),
                              gain=st.builds(complex, finite, finite),
                              doppler=st.floats(-N, N, allow_nan=False)),
                    min_size=1, max_size=4)
    channels = [draw(st.none() | taps.map(lambda t: LtvChannel(tuple(t), frame)))
                for _ in range(Q)]
    return frame, alloc, channels, draw(st.integers(0, 2 ** 32 - 1))


class TestTimeDomainDetector:
    @pytest.mark.parametrize("noise_var", [0.0, 0.05])
    @pytest.mark.parametrize("w", [Waveform.OTFS, Waveform.SC_IFDMA])
    @pytest.mark.parametrize("case", ["even_split", "committed_allocation",
                                      "shared_rows_columns", "none_user", "past_cp"])
    def test_matches_dense_compound_detection(self, case, w, noise_var):
        frame, alloc, channels = uplink_case(case)
        received = superposed_record(frame, alloc, channels, noise_var, 11)
        out = assert_matches_dense(received, channels, alloc, w, noise_var)
        for q, ch in enumerate(channels):
            if ch is None:
                assert not np.any(out[alloc.vec_indices(q)])

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(uplinks(), st.sampled_from([Waveform.OTFS, Waveform.SC_IFDMA]),
           st.sampled_from([0.01, 0.5]))
    def test_random_uplinks_match_dense_compound_detection(self, uplink, w,
                                                           noise_var):
        frame, alloc, channels, seed = uplink
        g = np.random.default_rng(seed)
        received = TimeSignal(g.standard_normal(frame.frame_len)
                              + 1j * g.standard_normal(frame.frame_len), frame)
        assert_matches_dense(received, channels, alloc, w, noise_var)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(uplinks(), st.sampled_from([0.01, 0.5]))
    def test_one_band_solve_per_call(self, uplink, noise_var):
        # one solve per call, none when every user is silent, with users
        # of different delay sets
        frame, alloc, channels, seed = uplink
        g = np.random.default_rng(seed)
        received = TimeSignal(g.standard_normal(frame.frame_len)
                              + 1j * g.standard_normal(frame.frame_len), frame)
        hs = diagonals(channels)
        with mock.patch.object(multiuser, "_solve_band",
                               wraps=multiuser._solve_band) as solve:
            detect_users_time_domain(received, hs, alloc, noise_var)
        assert solve.call_count == int(any(h is not None for h in hs))

    @pytest.mark.parametrize("case", ["none_user", "past_cp", "shared_rows_columns"])
    def test_silent_users_and_distinct_delay_sets(self, case):
        frame, alloc, channels = uplink_case(case)
        received = superposed_record(frame, alloc, channels, 0.05, 13)
        for w in BOTH:
            out = assert_matches_dense(received, channels, alloc, w, 0.05)
        for q, ch in enumerate(channels):
            assert (ch is None) == (not np.any(out[alloc.vec_indices(q)]))

    def test_plan_cache_follows_the_delay_sets(self):
        alloc = two_user_alloc()
        set_a = [doppler_channel(FRAME, (0, 1, 3), s) for s in (40, 41)]
        set_b = [doppler_channel(FRAME, (2, 0), 42), doppler_channel(FRAME, (3,), 43)]
        patterns = [set_a, set_b, [None, set_b[1]], set_a]
        multiuser._uplink_plan.cache_clear()
        for w in (Waveform.OTFS, Waveform.SC_IFDMA):
            for noise_var in (0.0, 0.05):
                for channels in patterns:
                    received = superposed_record(FRAME, alloc, channels, noise_var, 12)
                    assert_matches_dense(received, channels, alloc, w, noise_var)
        info = multiuser._uplink_plan.cache_info()
        assert (info.misses, info.hits) == (3, 13)
        plan = multiuser._uplink_plan(alloc, (1,), ((3,),))
        arrays = [v for v in vars(plan).values() if isinstance(v, np.ndarray)]
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0

    def test_noiseless_recovery(self):
        frame, alloc, channels = uplink_case("even_split")
        g = np.random.default_rng(5)
        datas = [g.standard_normal(alloc.user_shape(q))
                 + 1j * g.standard_normal(alloc.user_shape(q)) for q in range(2)]
        rx = sum(apply_channel(modulate_direct(place_user(d, alloc, q, frame),
                                               Waveform.OTFS), ch).samples
                 for q, (d, ch) in enumerate(zip(datas, channels)))
        hat = detect_users_time_domain(TimeSignal(rx, frame),
                                       diagonals(channels), alloc, 0.0)
        for q, d in enumerate(datas):
            assert np.max(np.abs(extract_user(hat, alloc, q) - d)) <= 1e-8

    def test_zero_forcing_on_a_silent_tap_raises(self):
        # user 1's only tap has gain 0, so its columns of C are zero
        frame, alloc, channels = uplink_case("even_split")
        channels = [channels[0], LtvChannel((ChannelTap(2, 0.0, 0.0),), frame)]
        received = superposed_record(frame, alloc, channels, 0.0, 3)
        with pytest.raises(np.linalg.LinAlgError):
            detect_users_time_domain(received, diagonals(channels), alloc, 0.0)

    def test_mismatched_inputs_rejected(self):
        frame, alloc, channels = uplink_case("even_split")
        channels = diagonals(channels)
        received = TimeSignal(np.zeros(frame.frame_len, dtype=complex), frame)
        with pytest.raises(ValueError):
            detect_users_time_domain(received, channels[:1], alloc, 0.1)
        with pytest.raises(ValueError):
            detect_users_time_domain(received, channels,
                                     even_split_allocation(4, 8, 2), 0.1)

    @pytest.mark.parametrize("other", [FrameConfig(8, 4, cp_len=4),
                                       FrameConfig(8, 8, cp_len=5)])
    def test_rejects_a_channel_of_another_frame(self, other):
        # another grid size, or the same grid with another CP; a user
        # without a channel is not checked
        frame, alloc, channels = uplink_case("even_split")
        received = TimeSignal(np.zeros(frame.frame_len, dtype=complex), frame)
        mixed = [None, delay_diagonals(LtvChannel(channels[1].taps, other))]
        with pytest.raises(ValueError, match="does not match"):
            detect_users_time_domain(received, mixed, alloc, 0.1)
