import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ddlink.frame import FrameConfig
from ddlink.mapping import (DATA, GUARD, PILOT, data_bins, full_data_mask,
                            get_constellation, map_bits)
from oracles import (nearest_indices_argmin, nearest_indices_exact,
                     square_qam_points)
from strategies import PROPERTY

rng = np.random.default_rng(7)


def demap(grid, constellation, mask=None):
    """Hard-decided bits of the data bins of ``grid``, read as the
    receivers read them: the data bins in vec order, sliced."""
    mask = full_data_mask(grid.frame) if mask is None else mask
    idx = constellation.nearest_indices(grid.vec[data_bins(mask)])
    return constellation.indices_to_bits(idx)


class TestConstellations:
    def test_qpsk_zero_word(self):
        c = get_constellation("qpsk")
        np.testing.assert_allclose(c.bits_to_symbols([0, 0]),
                                   [(1 + 1j) / np.sqrt(2)], atol=1e-12)

    @pytest.mark.parametrize("name", ["qpsk", "16qam"])
    def test_unit_average_energy(self, name):
        c = get_constellation(name)
        assert abs(np.mean(np.abs(c.points) ** 2) - 1.0) <= 1e-12

    @pytest.mark.parametrize("name", ["qpsk", "16qam"])
    def test_roundtrip_all_words(self, name):
        c = get_constellation(name)
        words = np.arange(2 ** c.bits_per_symbol)
        bits = c.indices_to_bits(words)
        np.testing.assert_array_equal(
            c.nearest_indices(c.bits_to_symbols(bits)), words)

    def test_gray_neighbours_differ_by_one_bit(self):
        c = get_constellation("16qam")
        pts = c.points
        for i in range(16):
            for j in range(16):
                if i == j:
                    continue
                if abs(pts[i] - pts[j]) <= 2 / np.sqrt(10) + 1e-9:
                    assert bin(i ^ j).count("1") == 1

    @pytest.mark.parametrize("name, bits_per_axis", [("qpsk", 1), ("16qam", 2)])
    def test_points_equal_the_bitwise_gray_construction(self, name, bits_per_axis):
        c = get_constellation(name)
        assert c.points.tobytes() == square_qam_points(bits_per_axis).tobytes()
        assert c.bits_per_symbol == 2 * bits_per_axis

    def test_bit_count_mismatch(self):
        with pytest.raises(ValueError):
            get_constellation("16qam").bits_to_symbols([0, 1, 1])

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            get_constellation("64qam")


class TestSlicer:
    """``nearest_indices`` slices each axis on its own; the argmin over
    every point's rounded complex distance and exact rational distances
    are its oracles."""

    @PROPERTY
    @given(st.sampled_from(["qpsk", "16qam"]),
           st.lists(st.builds(complex, st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
                    min_size=1, max_size=8))
    def test_matches_the_argmin_and_the_exact_nearest_point(self, name, symbols):
        # far from the constellation the argmin's rounded distances can
        # tie where exact ones differ (1e5 - 1.2e-7j on QPSK): there it
        # decides the lowest tied index, and the slicer one of the tied
        # points, the exact nearest
        c = get_constellation(name)
        s = np.array(symbols)
        got = c.nearest_indices(s)
        want = nearest_indices_argmin(c, s)
        d = np.abs(s[:, None] - c.points)
        nearest = d.min(axis=1)
        unique = np.count_nonzero(d == nearest[:, None], axis=1) == 1
        np.testing.assert_array_equal(got[unique], want[unique])
        np.testing.assert_array_equal(d[np.arange(s.size), got], nearest)
        assert got.tolist() == nearest_indices_exact(c, s)

    @pytest.mark.parametrize("name", ["qpsk", "16qam"])
    def test_exact_ties_go_to_the_lowest_index(self, name):
        # zero, points on either axis (a tie on the other axis) and every
        # constellation point
        c = get_constellation(name)
        axis = np.concatenate([np.linspace(-2.0, 2.0, 41), c.points.real,
                               c.points.imag])
        s = np.concatenate([[0.0], axis, 1j * axis, c.points])
        got = c.nearest_indices(s)
        np.testing.assert_array_equal(got, nearest_indices_argmin(c, s))
        assert got.tolist() == nearest_indices_exact(c, s)
        assert got[0] == {"qpsk": 0, "16qam": 5}[name]
        np.testing.assert_array_equal(got[-c.points.size:], np.arange(c.points.size))

    def test_exact_far_from_the_constellation(self):
        # every rounded complex distance of -0.9+1e9j is 1e9: the argmin
        # decides index 0, while the nearest point, -3 + 3j up to scale,
        # is index 8
        c = get_constellation("16qam")
        s = np.array([-0.9 + 1e9j])
        assert c.nearest_indices(s).tolist() == [8] == nearest_indices_exact(c, s)
        assert nearest_indices_argmin(c, s).tolist() == [0]


class TestGridPacking:
    def test_full_grid_roundtrip(self):
        frame = FrameConfig(4, 4)
        c = get_constellation("16qam")
        bits = rng.integers(0, 2, 16 * 4)
        grid = map_bits(bits, c, frame)
        np.testing.assert_array_equal(demap(grid, c), bits)

    def test_mask_skips_reserved_bins(self):
        frame = FrameConfig(4, 4)
        mask = full_data_mask(frame)
        mask[1:3, 1:3] = GUARD
        c = get_constellation("qpsk")
        n_data = data_bins(mask).size
        assert n_data == 12
        bits = rng.integers(0, 2, n_data * 2)
        grid = map_bits(bits, c, frame, data_bins(mask))
        assert not grid.data[1:3, 1:3].any()
        np.testing.assert_array_equal(demap(grid, c, mask), bits)

    def test_wrong_bit_count(self):
        frame = FrameConfig(4, 4)
        with pytest.raises(ValueError):
            map_bits(np.zeros(5, dtype=int), get_constellation("qpsk"), frame)

    def test_noisy_hard_decisions(self):
        frame = FrameConfig(8, 8)
        c = get_constellation("qpsk")
        bits = rng.integers(0, 2, 64 * 2)
        grid = map_bits(bits, c, frame)
        noisy = grid.data + 0.05 * (rng.standard_normal((8, 8))
                                    + 1j * rng.standard_normal((8, 8)))
        np.testing.assert_array_equal(demap(type(grid)(noisy, frame), c), bits)

    @PROPERTY
    @given(st.integers(1, 8), st.integers(1, 8), st.sampled_from(["qpsk", "16qam"]),
           st.data())
    def test_data_bins_carry_the_symbols_in_vec_order(self, M, N, name, data):
        # random overlays: the data bins, column-major, hold the mapped
        # symbols in bit order; every pilot and guard bin stays zero
        frame = FrameConfig(M, N)
        mask = np.array(data.draw(st.lists(st.sampled_from([DATA, PILOT, GUARD]),
                                           min_size=M * N, max_size=M * N)),
                        dtype=np.int8).reshape(M, N)
        c = get_constellation(name)
        bins = data_bins(mask)
        n_bits = bins.size * c.bits_per_symbol
        bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n_bits,
                                           max_size=n_bits)), dtype=int)
        vec = map_bits(bits, c, frame, bins).vec
        np.testing.assert_array_equal(bins, [i for i, v in enumerate(mask.T.flat)
                                             if v == DATA])
        np.testing.assert_array_equal(vec[bins], c.bits_to_symbols(bits))
        assert not np.delete(vec, bins).any()
