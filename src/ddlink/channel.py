"""Linear time-varying channel simulation and its exact delay-Doppler
equivalents.

A channel is a sparse set of taps, each with an integer sample delay, a
complex gain, and a Doppler shift expressed in cycles per frame (i.e.
normalized to the Doppler-bin spacing, fractional values allowed). The
time-domain gain of delay tap ell at output sample kappa is

    h[ell, kappa] = sum_i gain_i * delta[ell - delay_i]
                           * exp(2j*pi*doppler_i*kappa/(M*N))

with kappa indexed over the full transmitted record including the CP.
The per-tap factors gain_i * exp(2j*pi*doppler_i*kappa/(M*N)) are the
tap ramps (:func:`tap_ramps`); a trial evaluates them once per drawn
channel, by one ``exp`` over (taps, record samples), and both the
transmit convolution and the channel's delay diagonals read them.
"""

import cmath
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .frame import FrameConfig, SPEED_OF_LIGHT
from .modem import (DelayDopplerGrid, TimeSignal, Waveform, _demod_core,
                    _mod_core, _unvec, _vec, demodulate_direct,
                    modulate_direct)
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
    """AWGN with total complex variance ``variance``, drawn from ``rng``."""

    variance: float
    rng: np.random.Generator

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError("noise variance must be >= 0")


def draw_noise(rng: np.random.Generator, variance: float, n: int) -> np.ndarray:
    return np.sqrt(variance / 2) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


@dataclass(frozen=True)
class DdChannelMatrix:
    """Dense equivalent delay-Doppler channel for one waveform, mapping the
    vectorized transmit grid to the vectorized received grid."""

    matrix: np.ndarray
    waveform: Waveform


def taps_from_profile(delays_ns, powers_db, frame: FrameConfig, velocity_kmh: float,
                      rng: np.random.Generator, dopplers_hz=None) -> LtvChannel:
    """Tapped-delay-line channel from a delay/power profile.

    Delays are quantized to the sample grid; powers are normalized to unit
    total energy; gains are independent complex Gaussian. Unless explicit
    Doppler shifts are given, each tap gets nu_max*cos(phi), phi uniform,
    with nu_max from the velocity and the frame's carrier. What follows
    from the profile alone is computed once per profile, frame and
    velocity (:func:`_profile_constants`).
    """
    delays, amplitudes, nu_max = _profile_constants(
        tuple(delays_ns), tuple(powers_db), frame, velocity_kmh)
    gains = amplitudes * (rng.standard_normal(amplitudes.size)
                          + 1j * rng.standard_normal(amplitudes.size)) / np.sqrt(2)
    if dopplers_hz is None:
        dopplers_hz = nu_max * np.cos(rng.uniform(0.0, 2 * np.pi, amplitudes.size))
    dopplers = np.asarray(dopplers_hz, dtype=float) / frame.doppler_spacing
    taps = tuple(ChannelTap(int(d), complex(g), float(k))
                 for d, g, k in zip(delays, gains, dopplers))
    return LtvChannel(taps, frame)


@lru_cache(maxsize=32)
def _profile_constants(delays_ns: tuple, powers_db: tuple, frame: FrameConfig,
                       velocity_kmh: float):
    """Read-only sample delays and tap amplitudes (the square roots of the
    powers normalized to unit total energy) of a profile, and the largest
    Doppler shift nu_max in Hz."""
    delays = np.rint(np.asarray(delays_ns, dtype=float) * 1e-9
                     * frame.bandwidth_hz).astype(int)
    powers = 10.0 ** (np.asarray(powers_db, dtype=float) / 10.0)
    amplitudes = np.sqrt(powers / powers.sum())
    for a in (delays, amplitudes):
        a.setflags(write=False)
    return delays, amplitudes, max_doppler_hz(frame, velocity_kmh)


def max_doppler_hz(frame: FrameConfig, velocity_kmh: float) -> float:
    """Largest Doppler shift nu_max in Hz of a profile's taps at
    ``velocity_kmh`` on the frame's carrier."""
    return frame.carrier_hz * (velocity_kmh / 3.6) / SPEED_OF_LIGHT


def eva_channel(frame: FrameConfig, velocity_kmh: float,
                rng: np.random.Generator) -> LtvChannel:
    """Extended Vehicular A tapped-delay-line realization."""
    if velocity_kmh < 0:
        raise ValueError("velocity must be >= 0")
    return taps_from_profile(EVA_DELAYS_NS, EVA_POWERS_DB, frame, velocity_kmh,
                             rng)


# the three strongest EVA taps, in delay order
_EVA3 = sorted(np.argsort(EVA_POWERS_DB)[::-1][:3].tolist())
_EVA3_DELAYS_NS = tuple(EVA_DELAYS_NS[i] for i in _EVA3)
_EVA3_POWERS_DB = tuple(EVA_POWERS_DB[i] for i in _EVA3)


def _eva3_channel(frame, velocity_kmh, rng):
    # three strongest EVA taps, renormalized
    return taps_from_profile(_EVA3_DELAYS_NS, _EVA3_POWERS_DB, frame,
                             velocity_kmh, rng)


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


def tap_ramps(ch: LtvChannel, n: int) -> np.ndarray:
    """(taps, n) time-domain gains of the taps at output samples kappa =
    0 .. n-1: row i is gain_i * exp(2j*pi*doppler_i*kappa/(M*N)), one
    ``exp`` over all taps. A trial evaluates them once per drawn channel;
    the transmit convolution (:func:`_apply_taps`) and
    :func:`delay_diagonals` both read them."""
    grid = ch.frame.grid_size
    turns = np.array([2j * np.pi * tap.doppler for tap in ch.taps])
    return (np.array([tap.gain for tap in ch.taps])[:, None]
            * np.exp(turns[:, None] * np.arange(n) / grid))


def _apply_taps(x: np.ndarray, ch: LtvChannel, ramps: np.ndarray, shift: int,
                record_len: int) -> np.ndarray:
    """Linear time-varying convolution onto a zero-initialized record.

    x may carry leading batch axes; the record is truncated or
    zero-filled to record_len (one-shot frame, no wraparound). ``ramps``
    are the channel's :func:`tap_ramps` over at least the samples its
    taps reach, min(record_len, shift + largest delay + len(x)).
    """
    r = np.zeros(x.shape[:-1] + (record_len,), dtype=complex)
    n = x.shape[-1]
    for tap, ramp in zip(ch.taps, ramps):
        start = shift + tap.delay
        stop = min(record_len, start + n)
        if stop > start:
            r[..., start:stop] += ramp[start:stop] * x[..., :stop - start]
    return r


def apply_channel(sig: TimeSignal, ch: LtvChannel, noise: NoiseSpec | None = None,
                  impair: Impairments | None = None,
                  record_len: int | None = None,
                  ramps: np.ndarray | None = None) -> TimeSignal:
    """Pass one frame through the channel with optional TO/CFO and AWGN.

    Output sample kappa is exp(2j*pi*cfo*kappa/(M*N)) times the LTV
    convolution of the frame shifted by the total timing offset, plus
    noise over the whole record. Default record length is the shifted
    frame length (one-shot model: the multipath tail beyond it is
    dropped, matching the square CP-bounded channel matrix).

    Delay spreads exceeding the CP are allowed, and are not an error: the
    frame goes out alone, with zeros before it, so a spread past the CP
    leaves a channel that is no longer cyclic over the block (the
    CP-bounded model of :func:`tap_diagonals` is exact for it), with no
    earlier frame to interfere.
    ``ramps`` are the channel's :func:`tap_ramps` (see :func:`_apply_taps`
    for the samples they must cover), evaluated over the record when not
    given. The samples may carry leading batch axes, one frame each: every
    frame goes through the same channel and offsets, with one CFO ramp
    and one noise draw for all of them.
    """
    x = sig.samples
    frame = ch.frame
    impair = Impairments() if impair is None else impair
    shift = impair.total_offset(frame.M)
    n = x.shape[-1] + shift if record_len is None else record_len
    r = _apply_taps(x, ch, tap_ramps(ch, n) if ramps is None else ramps,
                    shift, n)
    if impair.cfo != 0.0:
        r = r * np.exp(2j * np.pi * impair.cfo * np.arange(n) / frame.grid_size)
    if noise is not None and noise.variance > 0.0:
        r = r + draw_noise(noise.rng, noise.variance, n)
    return TimeSignal(r, frame, cp_included=sig.cp_included)


@dataclass(frozen=True, eq=False)
class DelayDiagonals:
    """A CP-bounded channel on ``frame`` as its cyclic diagonals, the one
    channel form the receivers read: ``H_t[i, (i - delays[p]) mod M*N] =
    gains[p, i]`` for distinct ``delays``."""

    delays: np.ndarray
    gains: np.ndarray
    frame: FrameConfig

    def check_frame(self, frame: FrameConfig):
        """Raise ValueError unless the diagonals are of ``frame``'s grid
        size and CP, the two numbers they depend on."""
        mine = self.frame
        if (mine.grid_size, mine.cp_len) != (frame.grid_size, frame.cp_len):
            raise ValueError(f"channel of a {mine.grid_size}-sample grid with "
                             f"CP {mine.cp_len} does not match the received "
                             f"{frame.grid_size}-sample grid with CP {frame.cp_len}")


def _cp_bounded(delays, gains: np.ndarray, frame: FrameConfig) -> DelayDiagonals:
    """Diagonals of the gain rows of ``delays`` over the CP-stripped
    samples i, zeroed in place where i + cp_len < d: output sample i of a
    tap with delay d reads block sample (i - d) mod M*N through the CP,
    or nothing before the frame (as in :func:`_apply_taps`)."""
    for p, d in enumerate(delays):
        gains[p, :max(d - frame.cp_len, 0)] = 0.0
    return DelayDiagonals(np.asarray(delays), gains, frame)


def tap_diagonals(delays, rows, frame: FrameConfig) -> DelayDiagonals:
    """CP-bounded channel (CP removal, the banded time-varying
    convolution, CP addition) as cyclic diagonals, from one gain row per
    tap over the CP-stripped samples (any iterable of ``rows``, read
    once) and the taps' ``delays``. Rows of a shared delay are summed in
    tap order into one preallocated array, the delays keep the order of
    their first tap, and :func:`_cp_bounded` zeroes what no sample
    reaches: the one route of a drawn channel and an estimate alike."""
    slot = {}
    gains = np.empty((len(set(delays)), frame.grid_size), dtype=complex)
    for d, g in zip(delays, rows, strict=True):
        if d in slot:
            gains[slot[d]] += g
        else:
            gains[slot.setdefault(d, len(slot))] = g
    return _cp_bounded(np.fromiter(slot, dtype=int, count=len(slot)), gains, frame)


def delay_diagonals(ch: LtvChannel, ramps: np.ndarray | None = None) -> DelayDiagonals:
    """:func:`tap_diagonals` of a channel, reading its :func:`tap_ramps`
    at kappa = cp_len + i for CP-stripped sample i: ``ramps`` when given
    (over at least one frame with its CP), else evaluated here."""
    frame = ch.frame
    ramps = tap_ramps(ch, frame.frame_len) if ramps is None else ramps
    return tap_diagonals([tap.delay for tap in ch.taps],
                         ramps[:, frame.cp_len:frame.frame_len], frame)


def build_dd_matrix(ch: LtvChannel, waveform: Waveform) -> DdChannelMatrix:
    """Exact equivalent delay-Doppler channel for one waveform.

    Built by pushing all M*N unit grids through the modulate -> channel ->
    demodulate pipeline in one batch; equals the explicit product of the
    CP-bounded channel with the unitary (de)modulation matrices.
    """
    frame = ch.frame
    M, N, grid = frame.M, frame.N, frame.grid_size
    # rows of the identity, viewed as grids: unit at vec index n*M + m
    D = _unvec(np.eye(grid, dtype=complex), M, N)
    x = _mod_core(D, frame, waveform, spread=False)
    r = _apply_taps(x, ch, tap_ramps(ch, frame.frame_len), 0, frame.frame_len)
    G = _demod_core(r[:, frame.cp_len:], frame, waveform, spread=False)
    return DdChannelMatrix(_vec(G).T, waveform)


def linearized_io(grid: DelayDopplerGrid, ch: LtvChannel,
                  noise: NoiseSpec | None, waveform: Waveform):
    """End-to-end single-frame simulation plus the exact linear model.

    Returns (received grid, DdChannelMatrix); without noise the received
    vec equals matrix @ transmit vec, and with noise the difference is
    exactly the demodulated noise.
    """
    x = modulate_direct(grid, waveform)
    r = apply_channel(x, ch, noise=noise)
    received = demodulate_direct(r, waveform)
    return received, build_dd_matrix(ch, waveform)
