"""Linear time-varying channel simulation and its exact delay-Doppler
equivalents.

A channel is a sparse set of taps, each with an integer sample delay, a
complex gain, and a Doppler shift expressed in cycles per frame (i.e.
normalized to the Doppler-bin spacing, fractional values allowed). The
time-domain gain of delay tap ell at output sample kappa is

    h[ell, kappa] = sum_i gain_i * delta[ell - delay_i]
                           * exp(2j*pi*doppler_i*kappa/(M*N))

with kappa indexed over the full transmitted record including the CP.
"""

import cmath
from dataclasses import dataclass

import numpy as np

from .frame import FrameConfig, SPEED_OF_LIGHT
from .modem import (DelayDopplerGrid, TimeSignal, Waveform, _demod_core,
                    _mod_core)
from .sync import Impairments

# 3GPP TS 36.101 Annex B Extended Vehicular A power-delay profile
EVA_DELAYS_NS = (0.0, 30.0, 150.0, 310.0, 370.0, 710.0, 1090.0, 1730.0, 2510.0)
EVA_POWERS_DB = (0.0, -1.5, -1.4, -3.6, -0.6, -9.1, -7.0, -12.0, -16.9)


@dataclass(frozen=True)
class ChannelTap:
    delay: int            # samples
    gain: complex
    doppler: float        # cycles per frame (Doppler-bin units)

    def __post_init__(self):
        if self.delay < 0:
            raise ValueError(f"tap delay must be >= 0, got {self.delay}")


@dataclass(frozen=True)
class LtvChannel:
    taps: tuple
    frame: FrameConfig

    def __post_init__(self):
        if not self.taps:
            raise ValueError("channel needs at least one tap")
        object.__setattr__(self, "taps", tuple(self.taps))

    @property
    def n_spread(self) -> int:
        """Delay spread in samples: 1 + the largest tap delay."""
        return 1 + max(t.delay for t in self.taps)


@dataclass(frozen=True)
class NoiseSpec:
    """AWGN with total complex variance ``variance``; ``rng`` identifies the
    stream (a Generator, or a seed for one)."""

    variance: float
    rng: object = None

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError("noise variance must be >= 0")

    def generator(self) -> np.random.Generator:
        if isinstance(self.rng, np.random.Generator):
            return self.rng
        return np.random.default_rng(self.rng)


def draw_noise(rng: np.random.Generator, variance: float, n: int) -> np.ndarray:
    return np.sqrt(variance / 2) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


@dataclass(frozen=True)
class DdChannelMatrix:
    """Dense equivalent delay-Doppler channel for one waveform, mapping the
    vectorized transmit grid to the vectorized received grid."""

    matrix: np.ndarray
    waveform: Waveform


def taps_from_profile(delays_ns, powers_db, frame: FrameConfig, velocity_kmh: float,
                      rng: np.random.Generator, carrier_hz: float | None = None,
                      dopplers_hz=None) -> LtvChannel:
    """Tapped-delay-line channel from a delay/power profile.

    Delays are quantized to the sample grid; powers are normalized to unit
    total energy; gains are independent complex Gaussian. Unless explicit
    Doppler shifts are given, each tap gets nu_max*cos(phi), phi uniform,
    with nu_max from the velocity and carrier.
    """
    delays_ns = np.asarray(delays_ns, dtype=float)
    powers = 10.0 ** (np.asarray(powers_db, dtype=float) / 10.0)
    powers = powers / powers.sum()
    delays = np.rint(delays_ns * 1e-9 * frame.bandwidth_hz).astype(int)
    carrier = frame.carrier_hz if carrier_hz is None else carrier_hz
    nu_max = carrier * (velocity_kmh / 3.6) / SPEED_OF_LIGHT
    gains = np.sqrt(powers) * (rng.standard_normal(powers.size)
                               + 1j * rng.standard_normal(powers.size)) / np.sqrt(2)
    if dopplers_hz is None:
        dopplers_hz = nu_max * np.cos(rng.uniform(0.0, 2 * np.pi, powers.size))
    dopplers = np.asarray(dopplers_hz, dtype=float) / frame.doppler_spacing
    taps = tuple(ChannelTap(int(d), complex(g), float(k))
                 for d, g, k in zip(delays, gains, dopplers))
    return LtvChannel(taps, frame)


def eva_channel(frame: FrameConfig, velocity_kmh: float,
                rng: np.random.Generator, carrier_hz: float | None = None) -> LtvChannel:
    """Extended Vehicular A tapped-delay-line realization."""
    if velocity_kmh < 0:
        raise ValueError("velocity must be >= 0")
    return taps_from_profile(EVA_DELAYS_NS, EVA_POWERS_DB, frame, velocity_kmh,
                             rng, carrier_hz=carrier_hz)


def _eva3_channel(frame, velocity_kmh, rng):
    # three strongest EVA taps, renormalized
    order = np.argsort(EVA_POWERS_DB)[::-1][:3]
    keep = sorted(order)
    return taps_from_profile([EVA_DELAYS_NS[i] for i in keep],
                             [EVA_POWERS_DB[i] for i in keep],
                             frame, velocity_kmh, rng)


def _single_tap_channel(frame, velocity_kmh, rng):
    # unit-magnitude gain, random phase, static
    return LtvChannel((ChannelTap(0, cmath.exp(1j * rng.uniform(0, 2 * np.pi)), 0.0),),
                      frame)


def _two_tap_biased_channel(frame, velocity_kmh, rng):
    # deterministic power split 0.4/0.6 with the stronger tap arriving
    # 3 samples late: the metric-peak timing estimate is biased by +3
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
    return LtvChannel((ChannelTap(0, complex(np.sqrt(0.4) * phases[0]), 0.0),
                       ChannelTap(3, complex(np.sqrt(0.6) * phases[1]), 0.0)),
                      frame)


CHANNEL_PROFILES = {
    "eva": (eva_channel, "3GPP Extended Vehicular A, 9 fading taps, "
                         "cosine-drawn Doppler from the configured velocity"),
    "eva3": (_eva3_channel, "three strongest EVA taps, renormalized"),
    "single_tap": (_single_tap_channel, "one static tap, unit gain, random phase"),
    "two_tap_biased": (_two_tap_biased_channel,
                       "static taps with powers 0.4/0.6, delay gap 3 samples"),
}


def make_channel(profile: str, frame: FrameConfig, velocity_kmh: float,
                 rng: np.random.Generator) -> LtvChannel:
    try:
        factory = CHANNEL_PROFILES[profile][0]
    except KeyError:
        raise ValueError(f"unknown channel profile {profile!r}; choose from "
                         f"{sorted(CHANNEL_PROFILES)}") from None
    return factory(frame, velocity_kmh, rng)


def _apply_taps(x: np.ndarray, ch: LtvChannel, shift: int, record_len: int) -> np.ndarray:
    """Linear time-varying convolution onto a zero-initialized record.

    x may carry a trailing batch axis; the record is truncated or
    zero-filled to record_len (one-shot frame, no wraparound).
    """
    grid = ch.frame.grid_size
    out_shape = (record_len,) + x.shape[1:]
    r = np.zeros(out_shape, dtype=complex)
    n = x.shape[0]
    for tap in ch.taps:
        start = shift + tap.delay
        stop = min(record_len, start + n)
        if stop <= start:
            continue
        kappa = np.arange(start, stop)
        phase = tap.gain * np.exp(2j * np.pi * tap.doppler * kappa / grid)
        seg = x[:stop - start]
        r[start:stop] += (phase if seg.ndim == 1 else phase[:, None]) * seg
    return r


def apply_channel(sig: TimeSignal, ch: LtvChannel, noise: NoiseSpec | None = None,
                  impair: Impairments | None = None,
                  record_len: int | None = None) -> TimeSignal:
    """Pass one frame through the channel with optional TO/CFO and AWGN.

    Output sample kappa is exp(2j*pi*cfo*kappa/(M*N)) times the LTV
    convolution of the frame shifted by the total timing offset, plus
    noise over the whole record. Default record length is the shifted
    frame length (one-shot model: the multipath tail beyond it is
    dropped, matching the square CP-bounded channel matrix).

    Delay spreads exceeding the CP are allowed (inter-block interference
    studies); a spread beyond the CP is the caller's concern, not an error.
    """
    x = sig.samples
    frame = ch.frame
    impair = Impairments() if impair is None else impair
    shift = impair.total_offset(frame.M)
    n = x.shape[0] + shift if record_len is None else record_len
    r = _apply_taps(x, ch, shift, n)
    if impair.cfo != 0.0:
        rot = np.exp(2j * np.pi * impair.cfo * np.arange(n) / frame.grid_size)
        r = r * (rot if r.ndim == 1 else rot[:, None])
    if noise is not None and noise.variance > 0.0:
        eta = draw_noise(noise.generator(), noise.variance, n)
        r = r + (eta if r.ndim == 1 else eta[:, None])
    return TimeSignal(r, frame, cp_included=sig.cp_included)


def cp_channel_matrix(ch: LtvChannel) -> np.ndarray:
    """Dense CP-bounded channel: CP removal on the left, the banded
    time-varying convolution in the middle, CP addition on the right.
    Square of size M*N; the reference for the equivalent-channel builds."""
    frame = ch.frame
    grid, cp = frame.grid_size, frame.cp_len
    n = grid + cp
    H = np.zeros((n, n), dtype=complex)
    kappa = np.arange(n)
    for tap in ch.taps:
        rows = kappa[tap.delay:]
        H[rows, rows - tap.delay] += tap.gain * np.exp(
            2j * np.pi * tap.doppler * rows / grid)
    acp = np.vstack([np.eye(grid)[grid - cp:], np.eye(grid)]) if cp else np.eye(grid)
    return H[cp:] @ acp


def delay_diagonals(ch: LtvChannel):
    """CP-bounded channel as cyclic diagonals: ``(delays, gains)`` with
    ``H_t[i, (i - delays[p]) mod M*N] = gains[p, i]``.

    Output sample i (after CP removal) of a tap with delay d reads block
    sample (i - d) mod M*N through the CP, or nothing where i + cp_len < d
    (as in :func:`_apply_taps`), so those gains are zero. Taps sharing a
    delay are summed in tap order, as in :func:`cp_channel_matrix`.
    """
    frame = ch.frame
    grid, cp = frame.grid_size, frame.cp_len
    kappa = np.arange(cp, grid + cp)
    turns = np.array([2j * np.pi * tap.doppler for tap in ch.taps])
    per_tap = (np.array([tap.gain for tap in ch.taps])[:, None]
               * np.exp(turns[:, None] * kappa / grid))
    sums = {}
    for tap, g in zip(ch.taps, per_tap):
        sums[tap.delay] = sums[tap.delay] + g if tap.delay in sums else g
    delays = np.fromiter(sums, dtype=int, count=len(sums))
    gains = np.array(list(sums.values()))
    for p, d in enumerate(delays):
        gains[p, :max(d - cp, 0)] = 0.0
    return delays, gains


def build_dd_matrix(ch: LtvChannel, waveform: Waveform) -> DdChannelMatrix:
    """Exact equivalent delay-Doppler channel for one waveform.

    Built by pushing all M*N unit grids through the modulate -> channel ->
    demodulate pipeline in one batch; equals the explicit product of the
    CP-bounded channel with the unitary (de)modulation matrices.
    """
    frame = ch.frame
    M, N, grid = frame.M, frame.N, frame.grid_size
    # columns of the identity, viewed as grids: unit at vec index n*M + m
    D = np.moveaxis(np.eye(grid, dtype=complex).reshape(N, M, grid), 1, 0)
    x = _mod_core(D, frame, waveform, spread=False)
    r = _apply_taps(x, ch, 0, x.shape[0])
    G = _demod_core(r[frame.cp_len:], frame, waveform, spread=False)
    H = np.moveaxis(G, 1, 0).reshape(grid, grid)
    return DdChannelMatrix(H, waveform)


def linearized_io(grid: DelayDopplerGrid, ch: LtvChannel,
                  noise: NoiseSpec | None, waveform: Waveform):
    """End-to-end single-frame simulation plus the exact linear model.

    Returns (received grid, DdChannelMatrix); without noise the received
    vec equals matrix @ transmit vec, and with noise the difference is
    exactly the demodulated noise.
    """
    from .modem import demodulate_direct, modulate_direct

    x = modulate_direct(grid, waveform)
    r = apply_channel(x, ch, noise=noise)
    received = demodulate_direct(r, waveform)
    return received, build_dd_matrix(ch, waveform)
