"""Embedded impulse-pilot channel estimation in the delay-Doppler domain.

One boosted pilot bin surrounded by zero guards; at the receiver, every
guard-region bin whose magnitude clears a threshold (a multiple of the
noise standard deviation) is a channel tap: its delay/Doppler offset from
the pilot bin gives the tap coordinates and its value, divided by the
transmitted pilot and by the known per-tap reference phase, gives the
complex gain. Estimated gains are stored in one canonical phase
convention (the OTFS one); estimates taken from an SC-IFDMA grid are
converted using the known coupling phases, which makes a single tap
store serve both waveforms.
"""

from dataclasses import dataclass

import numpy as np

from .channel import ChannelTap, LtvChannel
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


def overlay_mask(pc: PilotConfig, frame: FrameConfig) -> np.ndarray:
    """Per-bin overlay: the pilot bin, the zero guard rectangle around it,
    data everywhere else."""
    pc.validate_fit(frame)
    mask = full_data_mask(frame)
    mask[pc.pilot_delay - pc.guard_delay: pc.pilot_delay + pc.guard_delay + 1,
         pc.pilot_doppler - pc.guard_doppler: pc.pilot_doppler + pc.guard_doppler + 1] = GUARD
    mask[pc.pilot_delay, pc.pilot_doppler] = PILOT
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


def _reference_phase(delay: int, doppler: int, pc: PilotConfig,
                     frame: FrameConfig) -> complex:
    """Known response phase of a unit tap probed at the pilot bin: the
    Doppler ramp, evaluated at the pilot's absolute sample position."""
    kappa = frame.cp_len + pc.pilot_delay + delay
    return complex(np.exp(2j * np.pi * doppler * kappa / frame.grid_size))


def estimate_channel(received: DelayDopplerGrid, pc: PilotConfig,
                     waveform: Waveform, noise_std: float | None = None,
                     pilot_value: complex | None = None) -> EstimatedChannel:
    """Threshold detection over the guard region around the pilot.

    Taps are searched on the causal delay side, [0, guard_delay] past the
    pilot row. When ``noise_std`` is not given it is taken from the guard
    rows ahead of the pilot; wrapped delay spread from far data bins can
    reach those rows, so the estimate errs high (a conservative
    threshold). ``pilot_value`` overrides the transmitted pilot amplitude
    (the paired harness passes the waveform-domain pilot of a shared
    transmission).
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
        lead = D[mp - pc.guard_delay: mp, dop]
        noise_std = float(np.sqrt(np.mean(np.abs(lead) ** 2)))

    pilot = pc.amplitude if pilot_value is None else pilot_value
    W = coupling_phases(frame.M, frame.N)
    taps = []
    for d_off in range(0, pc.guard_delay + 1):
        for k_off in range(-pc.guard_doppler, pc.guard_doppler + 1):
            m, n = mp + d_off, npil + k_off
            value = D[m, n]
            if np.abs(value) < pc.detection_threshold * noise_std:
                continue
            gain = value / pilot
            if waveform is Waveform.SC_IFDMA:
                # convert to the canonical convention via the known phases
                gain *= np.conj(W[m, n]) * W[mp, npil]
            gain /= _reference_phase(d_off, k_off, pc, frame)
            taps.append(EstimatedTap(d_off, k_off, complex(gain)))
    return EstimatedChannel(tuple(taps), waveform, noise_std)


def to_ltv_channel(est: EstimatedChannel, frame: FrameConfig) -> LtvChannel:
    if est.is_empty:
        raise ValueError("empty channel estimate")
    return LtvChannel(tuple(ChannelTap(t.delay, t.gain, float(t.doppler))
                            for t in est.taps), frame)
