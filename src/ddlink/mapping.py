"""Gray-mapped QAM constellations and bit <-> grid packing.

Bins reserved for pilots or guards are described by an overlay mask;
:func:`data_bins` lists the data bins in vec order (column-major, delay
index fastest), the order in which :func:`map_bits` fills them and the
receivers slice them.

Both constellations are square Gray QAM whose point index is the in-phase
label shifted left by the bits per axis, or'ed with the quadrature label.
Both axes carry the same levels, so hard decisions slice each axis on its
own against one threshold table built once per constellation: one sorted
search of the real parts and one of the imaginary parts.
"""

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .frame import FrameConfig
from .modem import DelayDopplerGrid

DATA, PILOT, GUARD = 0, 1, 2

# Gray label -> amplitude level of one axis, by bits per axis
_GRAY_LEVELS = {1: (1, -1), 2: (3, 1, -3, -1)}


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
    """Unit-average-energy square Gray QAM with ``bits_per_axis`` bits on
    each axis; point index encodes the bit word, the in-phase label in its
    high half and the quadrature label in its low half. Both axes put
    label j at level ``_GRAY_LEVELS[bits_per_axis][j]`` before scaling,
    so one slicer serves both."""

    name: str
    bits_per_axis: int
    points: np.ndarray = field(init=False, repr=False, compare=False)
    _slicer: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k = self.bits_per_axis
        levels = np.array(_GRAY_LEVELS[k], dtype=float)
        idx = np.arange(4 ** k)
        points = levels[idx >> k] + 1j * levels[idx % 2 ** k]
        points /= np.sqrt(np.mean(np.abs(points) ** 2))
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "_slicer", _axis_slicer(points[:2 ** k].imag))

    @property
    def bits_per_symbol(self) -> int:
        return 2 * self.bits_per_axis

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
        thresholds, labels = self._slicer
        return ((labels[thresholds.searchsorted(s.real, side="right")]
                 << self.bits_per_axis)
                | labels[thresholds.searchsorted(s.imag, side="right")])

    def indices_to_bits(self, idx: np.ndarray) -> np.ndarray:
        shifts = np.arange(self.bits_per_symbol - 1, -1, -1)
        return ((np.asarray(idx).reshape(-1, 1) >> shifts) & 1).reshape(-1)


_CONSTELLATIONS = {
    "qpsk": Constellation("qpsk", 1),
    "16qam": Constellation("16qam", 2),
}


def get_constellation(name: str) -> Constellation:
    try:
        return _CONSTELLATIONS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown constellation {name!r}; choose from "
                         f"{sorted(_CONSTELLATIONS)}") from None


def full_data_mask(frame: FrameConfig) -> np.ndarray:
    return np.full((frame.M, frame.N), DATA, dtype=np.int8)


def data_bins(mask: np.ndarray) -> np.ndarray:
    """Vec indices of the data bins of ``mask``, in vec order."""
    return np.flatnonzero(mask.ravel(order="F") == DATA)


def map_bits(bits, constellation: Constellation, frame: FrameConfig,
             bins: np.ndarray | None = None) -> DelayDopplerGrid:
    """Pack bits onto the data bins ``bins`` (vec indices in fill order,
    as :func:`data_bins` lists them; every bin when not given) of a frame
    grid, zeros elsewhere."""
    bins = np.arange(frame.grid_size) if bins is None else bins
    bits = np.asarray(bits, dtype=int)
    need = bins.size * constellation.bits_per_symbol
    if bits.size != need:
        raise ValueError(f"expected {need} bits for {bins.size} "
                         f"data bins, got {bits.size}")
    symbols = constellation.bits_to_symbols(bits)
    vec = np.zeros(frame.grid_size, dtype=complex)
    vec[bins] = symbols
    return DelayDopplerGrid.from_vec(vec, frame)

