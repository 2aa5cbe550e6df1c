"""Embedded impulse-pilot channel estimation in the delay-Doppler domain.

One boosted pilot bin surrounded by zero guards; at the receiver, every
guard-region bin whose magnitude clears a threshold (a multiple of the
noise standard deviation) is a channel tap: its delay/Doppler offset from
the pilot bin gives the tap coordinates and its value, divided by the
transmitted pilot and by the tap's Doppler ramp at the pilot's sample (a
known phase), gives the complex gain. Estimated gains are stored in one
canonical phase convention (the OTFS one); estimates taken from an
SC-IFDMA grid are converted using the known coupling phases, which makes
a single tap store serve both waveforms. An estimate is a tuple of
:class:`~ddlink.channel.ChannelTap` taps, each on an integer Doppler bin
of the guard rectangle, with their tap ramps, so the receivers read it
as the channel of those taps through
:func:`~ddlink.channel.delay_diagonals`, the route of a drawn channel.
The ramps of an integer-Doppler tap are its gain times a row of one
cached table of Doppler ramps (:func:`_doppler_ramps`), the table the
gains are divided by.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .channel import ChannelTap
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
    """Detected taps and their :func:`~ddlink.channel.tap_ramps` over one
    frame with its CP, (taps, frame_len). A tap's delay is its offset
    from the pilot delay bin, its Doppler its offset from the pilot
    Doppler bin, and its gain is in the canonical (OTFS) convention."""

    taps: tuple
    waveform: Waveform
    noise_std: float
    ramps: np.ndarray = field(repr=False, compare=False)

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
    + delay, read from the cached table (:func:`_doppler_ramps`); its tap
    ramps are its gain times its row of the same table, and the
    receivers read them through :func:`~ddlink.channel.delay_diagonals`.
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
    ramps = table[col]
    np.multiply(gains[:, None], ramps, out=ramps)
    return EstimatedChannel(taps, waveform, noise_std, ramps)
