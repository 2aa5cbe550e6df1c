import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg.lapack import zpbsv

from ddlink import _blas, equalize
from ddlink.channel import (ChannelTap, LtvChannel, build_dd_matrix,
                            delay_diagonals)
from ddlink.equalize import (equalize_iterative, equalize_mmse,
                             equalize_time_domain)
from ddlink.frame import FrameConfig
from ddlink.modem import (DelayDopplerGrid, TimeSignal, Waveform,
                          demodulate_direct)
from ddlink.transforms import coupling_phases
from oracles import bits, in_otfs_convention, solve_band_bincount
from strategies import PROPERTY, channels

rng = np.random.default_rng(21)
BOTH = (Waveform.OTFS, Waveform.SC_IFDMA)


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
        # one grid, in the OTFS convention, serves both waveforms: each
        # waveform's dense solve, SC-IFDMA's derotated, is its oracle
        for s2 in (0.0, 0.05, 1.0):
            oracle = in_otfs_convention(equalize_mmse(
                demodulate_direct(r, w), build_dd_matrix(ch, w), s2), w)
            td = equalize_time_domain(r, delay_diagonals(ch), s2)
            err = np.linalg.norm(td.vec - oracle) / np.linalg.norm(oracle)
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
        td = equalize_time_domain(r, delay_diagonals(ch), s2)
        for w in BOTH:
            oracle = in_otfs_convention(equalize_mmse(
                demodulate_direct(r, w), build_dd_matrix(ch, w), s2), w)
            assert np.linalg.norm(td.vec - oracle) <= 1e-10 * np.linalg.norm(oracle)

    @pytest.mark.parametrize("M, N, cp_len", [(4, 6, 3), (1, 5, 0), (8, 1, 7)])
    def test_an_empty_estimate_gives_the_demodulated_record(self, M, N, cp_len):
        frame = FrameConfig(M, N, cp_len=cp_len)
        g = np.random.default_rng(M * N + cp_len)
        r = TimeSignal(g.standard_normal(frame.frame_len)
                       + 1j * g.standard_normal(frame.frame_len), frame)
        for s2 in (0.0, 0.5):
            assert np.array_equal(bits(equalize_time_domain(r, None, s2).vec),
                                  bits(demodulate_direct(r, Waveform.OTFS).vec))

    @pytest.mark.parametrize("delay", [5, 18])
    def test_zero_forcing_on_a_singular_channel_raises(self, delay):
        # past the CP the first delay - cp_len samples read nothing, so
        # H_t has zero columns; past the whole frame it is zero
        frame = FrameConfig(4, 4, cp_len=2)
        ch = LtvChannel((ChannelTap(delay, 1.0, 0.0),), frame)
        r = TimeSignal(np.ones(frame.frame_len), frame)
        with pytest.raises(np.linalg.LinAlgError):
            equalize_time_domain(r, delay_diagonals(ch), 0.0)
        if delay >= frame.frame_len:
            with pytest.raises(np.linalg.LinAlgError):
                equalize_mmse(demodulate_direct(r, Waveform.OTFS),
                              build_dd_matrix(ch, Waveform.OTFS), 0.0)

    def test_rejects_mismatched_channel(self):
        frame = FrameConfig(4, 4, cp_len=2)
        r = TimeSignal(np.ones(frame.frame_len), frame)
        other = LtvChannel((ChannelTap(0, 1.0, 0.0),), FrameConfig(4, 2))
        with pytest.raises(ValueError):
            equalize_time_domain(r, delay_diagonals(other), 0.1)

    def test_rejects_a_channel_with_another_cp(self):
        # same grid; the diagonals of another CP zero other samples
        frame = FrameConfig(4, 4, cp_len=2)
        r = TimeSignal(np.ones(frame.frame_len), frame)
        other = LtvChannel((ChannelTap(3, 1.0, 0.0),), FrameConfig(4, 4, cp_len=3))
        with pytest.raises(ValueError, match="CP 3 does not match"):
            equalize_time_domain(r, delay_diagonals(other), 0.1)

    def test_plan_cache_follows_the_delay_sets(self):
        # delays (0, 1, 2) put the pairs (1, 0) and (2, 1) on one cyclic
        # diagonal; on the 6-sample grid delays (0, 3) give +3 = -3 mod 6,
        # so the two off-diagonal pairs share their band slots
        frames = (FrameConfig(4, 6, cp_len=3), FrameConfig(2, 3, cp_len=3))
        delay_sets = ((0, 1, 2), (0, 3), (0, 1, 2))
        g = np.random.default_rng(33)
        equalize._link_plan.cache_clear()
        for frame in frames:
            r = TimeSignal(g.standard_normal(frame.frame_len)
                           + 1j * g.standard_normal(frame.frame_len), frame)
            for delays in delay_sets:
                ch = LtvChannel(tuple(
                    ChannelTap(d, complex(*g.standard_normal(2)), g.uniform(-1, 1))
                    for d in delays), frame)
                for w in BOTH:
                    for s2 in (0.05, 1.0):
                        oracle = in_otfs_convention(equalize_mmse(
                            demodulate_direct(r, w), build_dd_matrix(ch, w), s2), w)
                        td = equalize_time_domain(r, delay_diagonals(ch), s2)
                        assert (np.linalg.norm(td.vec - oracle)
                                <= 1e-10 * np.linalg.norm(oracle))
        info = equalize._link_plan.cache_info()
        assert (info.misses, info.hits) == (4, 20)
        plan = equalize._link_plan((0, 3), 6)
        assert plan.width == 5
        for a in (v for v in vars(plan).values() if isinstance(v, np.ndarray)):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0


class TestSolveBand:
    @PROPERTY
    @given(st.integers(1, 40), st.integers(0, 12), st.integers(0, 200),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_matches_the_bincount_assembly_bit_for_bit(self, n, width, count,
                                                       repeats, seed):
        # random values on random slots of the lower band; with repeats
        # at least one slot takes several values, added in value order
        g = np.random.default_rng(seed)
        width = min(width, n - 1)
        rows = np.concatenate([np.full(n - i, i) for i in range(width + 1)])
        cols = np.concatenate([np.arange(n - i) for i in range(width + 1)])
        inside = cols * (width + 1) + rows
        if repeats:
            slot = g.choice(inside, size=count + 1)
            slot[-1] = slot[0]
        else:
            slot = g.choice(inside, size=min(count, inside.size), replace=False)
        vals = g.standard_normal(slot.size) + 1j * g.standard_normal(slot.size)
        noise_var = 1.0 + 2.0 * np.abs(vals).sum()   # diagonally dominant
        rhs = g.standard_normal(n) + 1j * g.standard_normal(n)
        expected = solve_band_bincount(slot, vals, width, noise_var, rhs.copy())
        got = equalize._solve_band(slot, vals, width, noise_var, rhs.copy())
        assert np.array_equal(got, expected)

    @staticmethod
    def full_band(n, width, seed):
        """Every lower-band slot of an n-unknown band once, with random
        values, a diagonally dominant noise_var and a right-hand side."""
        g = np.random.default_rng(seed)
        rows = np.concatenate([np.full(n - i, i) for i in range(width + 1)])
        cols = np.concatenate([np.arange(n - i) for i in range(width + 1)])
        vals = g.standard_normal(rows.size) + 1j * g.standard_normal(rows.size)
        rhs = g.standard_normal(n) + 1j * g.standard_normal(n)
        return cols * (width + 1) + rows, vals, 1.0 + 2.0 * np.abs(vals).sum(), rhs

    @pytest.mark.parametrize("width", [0, 1, 4])
    def test_each_lapack_routine_matches_the_oracle(self, width):
        # zpbsv at every width; at width 1 solveh_banded would take zptsv,
        # so the oracle calls zpbsv there as solveh_banded calls it
        slot, vals, noise_var, rhs = self.full_band(12, width, seed=width)
        expected = solve_band_bincount(slot, vals, width, noise_var, rhs.copy())
        got = equalize._solve_band(slot, vals, width, noise_var, rhs.copy())
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("width", [0, 1, 4])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["vals", "rhs"])
    def test_non_finite_input_raises(self, width, bad, where):
        slot, vals, noise_var, rhs = self.full_band(12, width, seed=1)
        (vals if where == "vals" else rhs)[3] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            equalize._solve_band(slot, vals, width, noise_var, rhs)

    @pytest.mark.parametrize("width", [0, 1, 4])
    def test_a_band_that_is_not_positive_definite_raises(self, width):
        # the negated dominant shift makes every diagonal entry negative
        slot, vals, noise_var, rhs = self.full_band(12, width, seed=2)
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            equalize._solve_band(slot, vals, width, -noise_var, rhs)

    @PROPERTY
    @given(st.integers(1, 600), st.integers(0, 60), st.integers(0, 2**32 - 1))
    def test_both_routes_match_solveh_banded_bit_for_bit(self, n, width, seed):
        # each route builds its own band and consumes its own rhs copy; at
        # width 1 the oracle is zpbsv with solveh_banded's arguments
        width = min(width, n - 1)
        slot, vals, noise_var, rhs = self.full_band(n, width, seed)
        expected = solve_band_bincount(slot, vals, width, noise_var, rhs.copy())
        bundled = equalize._solve_band(slot, vals, width, noise_var, rhs.copy())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(equalize, "_lapack", _blas._linalg_lapack)
            linalg = equalize._solve_band(slot, vals, width, noise_var, rhs.copy())
        assert np.array_equal(bundled, expected)
        assert np.array_equal(linalg, expected)

    @pytest.mark.parametrize("width", [0, 1, 4])
    def test_the_scipy_linalg_route_raises_the_same_errors(self, monkeypatch,
                                                           width):
        slot, vals, noise_var, rhs = self.full_band(12, width, seed=2)
        nan_vals = vals.copy()
        nan_vals[3] = np.nan
        cases = [(vals, -noise_var, np.linalg.LinAlgError),
                 (nan_vals, noise_var, ValueError)]

        def messages():
            out = []
            for v, s2, exc in cases:
                with pytest.raises(exc) as info:
                    equalize._solve_band(slot, v, width, s2, rhs.copy())
                out.append(str(info.value))
            return out

        bundled = messages()
        monkeypatch.setattr(equalize, "_lapack", _blas._linalg_lapack)
        assert messages() == bundled

    def test_the_bundled_routines_check_their_sizes(self):
        blas = _blas._openblas()
        lapack = None if blas is None else _blas._bundled_lapack(blas)
        if lapack is None:
            pytest.skip("scipy bundles no OpenBLAS with zpbsv here")
        b = np.ones(4, dtype=complex)
        for columns in (3, 5):
            with pytest.raises(ValueError, match=f"band of {columns} columns for 4"):
                lapack.pbsv(np.ones((2, columns), dtype=complex, order="F"), b)
        # a strided right-hand side is solved in a copy, as scipy's does
        strided = np.ones(8, dtype=complex)[::2]
        x, info = lapack.pbsv(np.full((1, 4), 4.0 + 0j, order="F"), strided)
        assert info == 0 and np.array_equal(x, np.full(4, 0.25))
        assert np.array_equal(strided, np.ones(4))
        # and so is a band in C order, which LAPACK would read transposed
        band = np.array([[2.0, 2.0, 2.0, 2.0], [1.0, 1.0, 1.0, 0.0]], dtype=complex)
        x, info = lapack.pbsv(band, np.ones(4, dtype=complex))
        _, want, _ = zpbsv(band, np.ones(4, dtype=complex), lower=1)
        assert info == 0 and np.array_equal(bits(x), bits(want))

    @PROPERTY
    @given(channels(), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_link_solve_leaves_its_record_untouched(self, ch, s2, seed):
        # the band solve consumes its right-hand side; the link hands it
        # a folded copy, never the record itself
        diagonals = delay_diagonals(ch)
        g = np.random.default_rng(seed)
        n = ch.frame.grid_size
        z = g.standard_normal(n) + 1j * g.standard_normal(n)
        kept = z.copy()
        try:
            t = equalize._solve_banded(diagonals.delays, diagonals.gains, z, s2)
        except np.linalg.LinAlgError:   # zero forcing on a singular channel
            t = None
        assert np.array_equal(z, kept)
        assert t is None or not np.shares_memory(t, z)
