"""OTFS and SC-IFDMA modulation/demodulation.

Each waveform is implemented in two provably equivalent structures:

* direct path: per-delay-row N-point IDFT, column vectorization, CP
  (and the reverse at the receiver);
* spread path: per-Doppler-column M-point DFT, comb interleaving into
  a full-band frequency vector, M*N-point IDFT, CP.

The two waveforms differ only by the entrywise coupling phases
(see :func:`ddlink.transforms.coupling_phases`): OTFS applies them at
the transmit spreader input and conjugated at the receive despreader
output, SC-IFDMA omits them. The direct SC-IFDMA path is therefore the
OTFS path applied to the phase-derotated grid.

The private cores accept optional leading batch axes on the grid data
and the signal samples; each grid and each signal of a batch gets the
same arithmetic, bit for bit, as it would alone. Public single-frame use
never sees them.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .frame import FrameConfig
from .transforms import coupling_phases


class Waveform(enum.Enum):
    OTFS = "otfs"
    SC_IFDMA = "sc_ifdma"


@dataclass(frozen=True)
class DelayDopplerGrid:
    """M-by-N complex symbol matrix, rows indexed by delay, columns by Doppler."""

    data: np.ndarray
    frame: FrameConfig

    def __post_init__(self):
        d = np.asarray(self.data, dtype=complex)
        if d.shape[:2] != (self.frame.M, self.frame.N):
            raise ValueError(
                f"grid shape {d.shape[:2]} does not match frame "
                f"({self.frame.M}, {self.frame.N})"
            )
        object.__setattr__(self, "data", d)

    @property
    def vec(self) -> np.ndarray:
        """Column-major vectorization: entry n*M + m is data[m, n]."""
        return self.data.flatten(order="F")

    @classmethod
    def from_vec(cls, v: np.ndarray, frame: FrameConfig) -> "DelayDopplerGrid":
        v = np.asarray(v)
        if v.size != frame.grid_size:
            raise ValueError(f"expected length {frame.grid_size}, got {v.size}")
        return cls(v.reshape((frame.M, frame.N), order="F"), frame)

    @classmethod
    def zeros(cls, frame: FrameConfig) -> "DelayDopplerGrid":
        return cls(np.zeros((frame.M, frame.N), dtype=complex), frame)


@dataclass(frozen=True)
class TimeSignal:
    """Complex baseband samples of one frame, with or without its CP."""

    samples: np.ndarray
    frame: FrameConfig
    cp_included: bool = True

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=complex))

    @property
    def expected_len(self) -> int:
        return self.frame.frame_len if self.cp_included else self.frame.grid_size


def _add_cp(s: np.ndarray, cp_len: int) -> np.ndarray:
    if cp_len == 0:
        return s
    return np.concatenate([s[..., -cp_len:], s], axis=-1)


def _strip(sig: TimeSignal) -> np.ndarray:
    """Samples of one frame with the CP removed, validating length."""
    if sig.samples.shape[0] != sig.expected_len:
        raise ValueError(
            f"signal length {sig.samples.shape[0]} does not match expected "
            f"{sig.expected_len}"
        )
    return sig.samples[sig.frame.cp_len:] if sig.cp_included else sig.samples


# batch-aware cores: D has shape ([B,] M, N); s has shape ([B,] MN)

def _vec(S: np.ndarray) -> np.ndarray:
    """Column-major vectorization along the last two axes."""
    M, N = S.shape[-2:]
    return S.swapaxes(-1, -2).reshape(S.shape[:-2] + (M * N,))


def _unvec(s: np.ndarray, M: int, N: int) -> np.ndarray:
    return s.reshape(s.shape[:-1] + (N, M)).swapaxes(-1, -2)


def _mod_core(D: np.ndarray, frame: FrameConfig, waveform: Waveform,
              spread: bool) -> np.ndarray:
    M, N = frame.M, frame.N
    W = coupling_phases(M, N)
    if spread:
        Dw = D * W if waveform is Waveform.OTFS else D
        C = np.fft.fft(Dw, axis=-2, norm="ortho")  # per-column M-point DFT
        # comb placement: frequency bin n + k*N holds C[k, n]
        dbar = C.reshape(D.shape[:-2] + (M * N,))
        s = np.fft.ifft(dbar, axis=-1, norm="ortho")
    else:
        Dw = D * np.conj(W) if waveform is Waveform.SC_IFDMA else D
        S = np.fft.ifft(Dw, axis=-1, norm="ortho")  # per-row N-point IDFT
        s = _vec(S)
    return _add_cp(s, frame.cp_len)


def _demod_core(z: np.ndarray, frame: FrameConfig, waveform: Waveform,
                spread: bool) -> np.ndarray:
    M, N = frame.M, frame.N
    W = coupling_phases(M, N)
    if spread:
        zbar = np.fft.fft(z, axis=-1, norm="ortho")
        Z = zbar.reshape(z.shape[:-1] + (M, N))  # Z[k, n] = zbar[n + k*N]
        G = np.fft.ifft(Z, axis=-2, norm="ortho")
        return G * np.conj(W) if waveform is Waveform.OTFS else G
    R = _unvec(z, M, N)  # R[m, l] = z[m + l*M]
    Dt = np.fft.fft(R, axis=-1, norm="ortho")
    return Dt * W if waveform is Waveform.SC_IFDMA else Dt


def modulate_direct(grid: DelayDopplerGrid, waveform: Waveform) -> TimeSignal:
    """Delay-time path: row IDFTs, column vectorization, CP prepend."""
    s = _mod_core(grid.data, grid.frame, waveform, spread=False)
    return TimeSignal(s, grid.frame, cp_included=True)


def modulate_spread(grid: DelayDopplerGrid, waveform: Waveform) -> TimeSignal:
    """DFT-spread frequency path; equals :func:`modulate_direct` to 1e-10."""
    s = _mod_core(grid.data, grid.frame, waveform, spread=True)
    return TimeSignal(s, grid.frame, cp_included=True)


def demodulate_direct(sig: TimeSignal, waveform: Waveform) -> DelayDopplerGrid:
    """Delay-time path: CP removal, M-strided reshaping, row DFTs."""
    z = _strip(sig)
    return DelayDopplerGrid(_demod_core(z, sig.frame, waveform, spread=False), sig.frame)


def demodulate_spread(sig: TimeSignal, waveform: Waveform) -> DelayDopplerGrid:
    """Full-band DFT, comb gathering, per-column IDFTs; equals the direct path."""
    z = _strip(sig)
    return DelayDopplerGrid(_demod_core(z, sig.frame, waveform, spread=True), sig.frame)
