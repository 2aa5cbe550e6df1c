"""Gray-mapped QAM constellations and bit <-> grid packing.

Bins reserved for pilots or guards are described by an overlay mask so
bit mapping and demapping skip them; data bins are filled in vec order
(column-major, delay index fastest).

Both constellations are square Gray QAM whose point index is the in-phase
label shifted left by the bits per axis, or'ed with the quadrature label,
so hard decisions slice each axis on its own: one sorted search of the
real parts and one of the imaginary parts against threshold tables built
once per constellation.
"""

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .frame import FrameConfig
from .modem import DelayDopplerGrid

DATA, PILOT, GUARD = 0, 1, 2

# 2-bit Gray code to amplitude level, most positive first
_GRAY2 = {(0, 0): 3, (0, 1): 1, (1, 1): -1, (1, 0): -3}


def _square_qam_points(bits_per_axis: int) -> np.ndarray:
    if bits_per_axis == 1:
        levels = {(0,): 1, (1,): -1}
    elif bits_per_axis == 2:
        levels = _GRAY2
    else:
        raise ValueError(f"unsupported bits per axis: {bits_per_axis}")
    k = 2 * bits_per_axis
    pts = np.empty(2 ** k, dtype=complex)
    for idx in range(2 ** k):
        bits = [(idx >> (k - 1 - b)) & 1 for b in range(k)]
        i_lvl = levels[tuple(bits[: bits_per_axis])]
        q_lvl = levels[tuple(bits[bits_per_axis:])]
        pts[idx] = i_lvl + 1j * q_lvl
    return pts / np.sqrt(np.mean(np.abs(pts) ** 2))


def _axis_slicer(levels: np.ndarray):
    """(thresholds, labels) of one axis whose label j sits at ``levels[j]``:
    ``labels[searchsorted(thresholds, x, side="right")]`` is the label of
    the level nearest x in exact arithmetic, the lowest label on a tie.

    Between neighbouring levels lo < hi, x goes to hi when x > (lo + hi)/2,
    or x equals it and hi has the lower label; the threshold is the
    smallest float that goes to hi, found from the exact midpoint.
    """
    labels = np.argsort(levels, kind="stable")
    thresholds = []
    for lo, hi in zip(labels[:-1], labels[1:]):
        mid = (Fraction(levels[lo]) + Fraction(levels[hi])) / 2
        t = float(mid)
        if t < mid or (t == mid and hi > lo):
            t = float(np.nextafter(t, np.inf))
        thresholds.append(t)
    return np.array(thresholds), labels


@dataclass(frozen=True)
class Constellation:
    """Unit-average-energy square QAM constellation; point index encodes
    the bit word, the in-phase label in its high half and the quadrature
    label in its low half. Other point sets raise ValueError."""

    name: str
    points: np.ndarray
    bits_per_symbol: int
    _slicers: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k = self.bits_per_symbol // 2
        labels = np.arange(2 ** k)
        idx = np.arange(self.points.size)
        square = (self.bits_per_symbol % 2 == 0
                  and self.points.size == 2 ** self.bits_per_symbol)
        if square:
            i_levels = self.points[labels << k].real
            q_levels = self.points[labels].imag
            square = np.array_equal(
                self.points, i_levels[idx >> k] + 1j * q_levels[idx % 2 ** k])
        if not square:
            raise ValueError(f"{self.name}: points are not a square QAM grid "
                             f"indexed (in-phase label << {k}) | quadrature label")
        object.__setattr__(self, "_slicers",
                           (k, _axis_slicer(i_levels), _axis_slicer(q_levels)))

    def bits_to_symbols(self, bits: np.ndarray) -> np.ndarray:
        bits = np.asarray(bits, dtype=int)
        if bits.size % self.bits_per_symbol:
            raise ValueError(
                f"bit count {bits.size} not a multiple of {self.bits_per_symbol}"
            )
        words = bits.reshape(-1, self.bits_per_symbol)
        idx = words @ (1 << np.arange(self.bits_per_symbol - 1, -1, -1))
        return self.points[idx]

    def nearest_indices(self, symbols: np.ndarray) -> np.ndarray:
        """Minimum-distance hard decisions; ties resolve to the lowest index.

        The nearest point is the nearest in-phase level combined with the
        nearest quadrature level, each found exactly for the float inputs
        (ties to the lowest label per axis, which is the lowest index).
        An argmin over the rounded complex distances is not exact far
        from the constellation: beyond about 1e8 it rounds all distances
        equal and decides index 0 for -0.9+1e9j on 16-QAM, whose nearest
        point is index 8.
        """
        s = np.asarray(symbols).reshape(-1)
        k, (i_thr, i_lab), (q_thr, q_lab) = self._slicers
        return ((i_lab[i_thr.searchsorted(s.real, side="right")] << k)
                | q_lab[q_thr.searchsorted(s.imag, side="right")])

    def indices_to_bits(self, idx: np.ndarray) -> np.ndarray:
        shifts = np.arange(self.bits_per_symbol - 1, -1, -1)
        return ((np.asarray(idx).reshape(-1, 1) >> shifts) & 1).reshape(-1)


_CONSTELLATIONS = {
    "qpsk": Constellation("qpsk", _square_qam_points(1), 2),
    "16qam": Constellation("16qam", _square_qam_points(2), 4),
}


def get_constellation(name: str) -> Constellation:
    try:
        return _CONSTELLATIONS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown constellation {name!r}; choose from "
                         f"{sorted(_CONSTELLATIONS)}") from None


def full_data_mask(frame: FrameConfig) -> np.ndarray:
    return np.full((frame.M, frame.N), DATA, dtype=np.int8)


def data_bin_count(mask: np.ndarray) -> int:
    return int(np.count_nonzero(mask == DATA))


def map_bits(bits, constellation: Constellation, frame: FrameConfig,
             mask: np.ndarray | None = None) -> DelayDopplerGrid:
    """Pack bits onto the data bins of a frame grid, zeros elsewhere."""
    mask = full_data_mask(frame) if mask is None else mask
    bits = np.asarray(bits, dtype=int)
    need = data_bin_count(mask) * constellation.bits_per_symbol
    if bits.size != need:
        raise ValueError(f"expected {need} bits for {data_bin_count(mask)} "
                         f"data bins, got {bits.size}")
    symbols = constellation.bits_to_symbols(bits)
    vec = np.zeros(frame.grid_size, dtype=complex)
    vec[mask.flatten(order="F") == DATA] = symbols
    return DelayDopplerGrid.from_vec(vec, frame)


def demap_bits(grid, constellation: Constellation,
               mask: np.ndarray | None = None):
    """Hard-decide the data bins of a received grid.

    Returns (bits, symbol_indices); indices are the per-bin constellation
    decisions in vec order, useful for decision-level comparisons.
    """
    mask = full_data_mask(grid.frame) if mask is None else mask
    symbols = grid.vec[mask.flatten(order="F") == DATA]
    idx = constellation.nearest_indices(symbols)
    return constellation.indices_to_bits(idx), idx
