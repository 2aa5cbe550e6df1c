"""Embedded impulse-pilot channel estimation in the delay-Doppler domain.

One boosted pilot bin surrounded by zero guards; at the receiver, every
guard-region bin whose magnitude clears a threshold (a multiple of the
noise standard deviation) is a channel tap: its delay/Doppler offset from
the pilot bin gives the tap coordinates and its value, divided by the
transmitted pilot and by the tap's Doppler ramp at the pilot's sample (a
known phase), gives the complex gain. Estimated gains are stored in one
canonical phase convention (the OTFS one); estimates taken from an
SC-IFDMA grid are converted using the known coupling phases, which makes
a single tap store serve both waveforms. The receivers read an estimate
as the delay diagonals of its taps (:func:`estimated_diagonals`): every
tap sits on an integer Doppler bin of the guard rectangle, so the
diagonals are one product of the tap gains with a cached table of
Doppler ramps, the table the estimate's gains are divided by.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import DelayDiagonals, _cp_bounded
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
class EstimatedTap:
    delay: int        # offset from the pilot delay bin = tap delay in samples
    doppler: int      # offset from the pilot Doppler bin, in bins
    gain: complex     # canonical (OTFS-convention) complex gain


@dataclass(frozen=True)
class EstimatedChannel:
    taps: tuple
    waveform: Waveform
    noise_std: float

    @property
    def is_empty(self) -> bool:
        return len(self.taps) == 0


@lru_cache(maxsize=8)
def _doppler_ramps(guard_doppler: int, grid: int, cp_len: int) -> np.ndarray:
    """Read-only (2 * guard_doppler + 1, grid) table of the Doppler ramps
    exp(2j*pi*k*(i + cp_len)/grid) over the CP-stripped samples i, for k
    from -guard_doppler to guard_doppler."""
    k = np.arange(-guard_doppler, guard_doppler + 1)
    kappa = np.arange(cp_len, grid + cp_len)
    ramps = np.exp((2j * np.pi * k)[:, None] * kappa / grid)
    ramps.setflags(write=False)
    return ramps


def estimate_channel(received: DelayDopplerGrid, pc: PilotConfig,
                     waveform: Waveform, noise_std: float | None = None,
                     pilot_value: complex | None = None) -> EstimatedChannel:
    """Threshold detection over the guard region around the pilot.

    Taps are searched on the causal delay side, [0, guard_delay] past the
    pilot row, and listed by delay, then Doppler. A tap's gain is its bin
    divided by the pilot and by its Doppler ramp at the pilot's sample,
    read from the cached table (:func:`_doppler_ramps`) that
    :func:`estimated_diagonals` multiplies the gains back by. When
    ``noise_std`` is not given it is taken from the guard rows ahead of
    the pilot; wrapped delay spread from far data bins can reach those
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
        # scaled by a power of two into [0.5, 1) at its largest, so no
        # square overflows or falls below the normal range; the scaling is
        # exact, so the bits are those of the unscaled floor wherever
        # that one has normal squares
        scale = math.ldexp(1.0, -max(math.frexp(lead.max())[1], -1021))
        noise_std = float(np.sqrt(np.mean((lead * scale) ** 2))) / scale

    pilot = pc.amplitude if pilot_value is None else pilot_value
    region = D[mp: mp + pc.guard_delay + 1, dop]
    delay, col = np.nonzero(np.abs(region) >= pc.detection_threshold * noise_std)
    doppler = col - pc.guard_doppler
    gains = region[delay, col] / pilot
    if waveform is Waveform.SC_IFDMA:
        # convert to the canonical convention via the known phases
        W = coupling_phases(frame.M, frame.N)
        gains *= np.conj(W[mp + delay, npil + doppler]) * W[mp, npil]
    gains /= _doppler_ramps(pc.guard_doppler, frame.grid_size,
                            frame.cp_len)[col, mp + delay]
    taps = tuple(EstimatedTap(d, k, g) for d, k, g in
                 zip(delay.tolist(), doppler.tolist(), gains.tolist()))
    return EstimatedChannel(taps, waveform, noise_std)


def estimated_diagonals(est: EstimatedChannel, pc: PilotConfig,
                        frame: FrameConfig) -> DelayDiagonals:
    """Delay diagonals, in ascending delay order, of the taps of a
    non-empty estimate made with pilot ``pc`` on ``frame``.

    An estimated tap has an integer Doppler index k in [-guard_doppler,
    guard_doppler], so each delay row is the (delays x Doppler taps)
    matrix of the gains times the cached table of Doppler ramps. As in
    :func:`~ddlink.channel.delay_diagonals`, which this equals for the
    channel of the same taps, the gains are zero where i + cp_len < d.
    An empty estimate raises ValueError.
    """
    if est.is_empty:
        raise ValueError("empty channel estimate")
    delays = sorted({t.delay for t in est.taps})
    row = {d: p for p, d in enumerate(delays)}
    taps = np.zeros((len(delays), 2 * pc.guard_doppler + 1), dtype=complex)
    for t in est.taps:
        taps[row[t.delay], t.doppler + pc.guard_doppler] = t.gain
    ramps = _doppler_ramps(pc.guard_doppler, frame.grid_size, frame.cp_len)
    return _cp_bounded(delays, taps @ ramps, frame)
