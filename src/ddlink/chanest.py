"""Embedded impulse-pilot channel estimation in the delay-Doppler domain.

One boosted pilot bin surrounded by zero guards; at the receiver, every
guard-region bin whose magnitude clears a threshold (a multiple of the
noise standard deviation) is a channel tap: its delay/Doppler offset from
the pilot bin gives the tap coordinates and its value, divided by the
transmitted pilot and by the tap's Doppler ramp at the pilot's sample (a
known phase), gives the complex gain, in the OTFS phase convention (an
SC-IFDMA grid's bins are converted by the known coupling phases). An
estimate holds its :class:`~ddlink.channel.ChannelTap` taps, on integer
Doppler bins of the guard rectangle, and the delay diagonals the
receivers read, built through :func:`~ddlink.channel.tap_diagonals` as
a drawn channel's are: a tap's row over the CP-stripped samples is its
gain times its row of one cached table of Doppler ramps
(:func:`_doppler_ramps`), the table the gains are divided by.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .channel import ChannelTap, DelayDiagonals, tap_diagonals
from .frame import FrameConfig
from .mapping import DATA, GUARD, PILOT, full_data_mask
from .modem import DelayDopplerGrid, Waveform
from .transforms import coupling_phases


@dataclass(frozen=True)
class PilotConfig:
    """Pilot bin position, linear power, guard half-widths, and the
    detection threshold in units of the noise standard deviation."""

    pilot_delay: int
    pilot_doppler: int
    power: float
    guard_delay: int
    guard_doppler: int
    detection_threshold: float = 3.0

    def __post_init__(self):
        if self.power <= 0:
            raise ValueError("pilot power must be positive")
        if self.guard_delay < 0 or self.guard_doppler < 0:
            raise ValueError("guard widths must be >= 0")
        if self.detection_threshold <= 0:
            raise ValueError("detection threshold must be positive")

    @property
    def amplitude(self) -> float:
        return float(np.sqrt(self.power))

    def validate_fit(self, frame: FrameConfig):
        """Guard rectangle must sit inside the grid without wraparound."""
        if not (0 <= self.pilot_delay - self.guard_delay
                and self.pilot_delay + self.guard_delay < frame.M):
            raise ValueError(
                f"delay guard [{self.pilot_delay - self.guard_delay}, "
                f"{self.pilot_delay + self.guard_delay}] outside [0, {frame.M})")
        if not (0 <= self.pilot_doppler - self.guard_doppler
                and self.pilot_doppler + self.guard_doppler < frame.N):
            raise ValueError(
                f"Doppler guard [{self.pilot_doppler - self.guard_doppler}, "
                f"{self.pilot_doppler + self.guard_doppler}] outside [0, {frame.N})")


@lru_cache(maxsize=32)
def overlay_mask(pc: PilotConfig, frame: FrameConfig) -> np.ndarray:
    """Per-bin overlay: the pilot bin, the zero guard rectangle around it,
    data everywhere else. Cached per (pilot, frame) as a read-only array."""
    pc.validate_fit(frame)
    mask = full_data_mask(frame)
    mask[pc.pilot_delay - pc.guard_delay: pc.pilot_delay + pc.guard_delay + 1,
         pc.pilot_doppler - pc.guard_doppler: pc.pilot_doppler + pc.guard_doppler + 1] = GUARD
    mask[pc.pilot_delay, pc.pilot_doppler] = PILOT
    mask.setflags(write=False)
    return mask


def embed_pilot(grid: DelayDopplerGrid, pc: PilotConfig) -> DelayDopplerGrid:
    """Place the pilot impulse; the grid must be clear over pilot and guards."""
    mask = overlay_mask(pc, grid.frame)
    if np.any(grid.data[mask != DATA] != 0):
        raise ValueError("grid carries symbols on pilot/guard bins")
    data = grid.data.copy()
    data[pc.pilot_delay, pc.pilot_doppler] = pc.amplitude
    return DelayDopplerGrid(data, grid.frame)


@dataclass(frozen=True)
class EstimatedChannel:
    """Detected taps, the noise level they were detected against, and
    their :class:`~ddlink.channel.DelayDiagonals` (None without taps). A
    tap's delay and Doppler are its offsets from the pilot's delay and
    Doppler bins, and its gain is in the OTFS convention."""

    taps: tuple
    noise_std: float
    diagonals: DelayDiagonals | None = field(repr=False, compare=False)

    @property
    def is_empty(self) -> bool:
        return len(self.taps) == 0


@lru_cache(maxsize=8)
def _doppler_ramps(guard_doppler: int, frame: FrameConfig) -> np.ndarray:
    """Read-only (2 * guard_doppler + 1, frame_len) table of the Doppler
    ramps exp(2j*pi*k*kappa/(M*N)) over the samples kappa of one frame
    with its CP, for k from -guard_doppler to guard_doppler. A tap's gain
    times its row is its :func:`~ddlink.channel.tap_ramps` bit for bit."""
    k = np.arange(-guard_doppler, guard_doppler + 1)
    kappa = np.arange(frame.frame_len)
    ramps = np.exp((2j * np.pi * k)[:, None] * kappa / frame.grid_size)
    ramps.setflags(write=False)
    return ramps


def estimate_channel(received: DelayDopplerGrid, pc: PilotConfig,
                     waveform: Waveform, noise_std: float | None = None,
                     pilot_value: complex | None = None) -> EstimatedChannel:
    """Threshold detection over the guard region around the pilot.

    Taps are searched on the causal delay side, [0, guard_delay] past the
    pilot row, and listed by delay, then Doppler, as channel taps of
    integer Doppler. A tap's gain is its bin divided by the pilot and by
    its Doppler ramp at the pilot's sample, kappa = cp_len + pilot_delay
    + delay, read from the cached table (:func:`_doppler_ramps`). The
    diagonals sum, through :func:`~ddlink.channel.tap_diagonals`, each
    tap's gain times its table row over the CP-stripped samples.
    When ``noise_std`` is not given it is taken from the guard rows ahead
    of the pilot; wrapped delay spread from far data bins can reach those
    rows, so the estimate errs high (a conservative threshold).
    ``pilot_value`` overrides the transmitted pilot amplitude (the paired
    harness passes the waveform-domain pilot of a shared transmission).
    """
    frame = received.frame
    pc.validate_fit(frame)
    D = received.data
    mp, npil = pc.pilot_delay, pc.pilot_doppler
    dop = slice(npil - pc.guard_doppler, npil + pc.guard_doppler + 1)

    if noise_std is None:
        if pc.guard_delay == 0:
            raise ValueError("cannot estimate the noise level without "
                             "leading guard rows; pass noise_std")
        lead = np.abs(D[mp - pc.guard_delay: mp, dop])
        noise_std = float(np.sqrt(np.mean(lead ** 2)))

    pilot = pc.amplitude if pilot_value is None else pilot_value
    region = D[mp: mp + pc.guard_delay + 1, dop]
    delay, col = np.nonzero(np.abs(region) >= pc.detection_threshold * noise_std)
    doppler = col - pc.guard_doppler
    gains = region[delay, col] / pilot
    if waveform is Waveform.SC_IFDMA:
        # convert to the canonical convention via the known phases
        W = coupling_phases(frame.M, frame.N)
        gains *= np.conj(W[mp + delay, npil + doppler]) * W[mp, npil]
    table = _doppler_ramps(pc.guard_doppler, frame)
    gains /= table[col, frame.cp_len + mp + delay]
    taps = tuple(ChannelTap(d, g, float(k)) for d, g, k in
                 zip(delay.tolist(), gains.tolist(), doppler.tolist()))
    # gain on the left, as tap_ramps multiplies: numpy's complex product
    # is not bitwise commutative
    rows = (g * table[c, frame.cp_len:frame.frame_len] for g, c in zip(gains, col))
    return EstimatedChannel(taps, noise_std, tap_diagonals(delay, rows, frame)
                            if taps else None)
