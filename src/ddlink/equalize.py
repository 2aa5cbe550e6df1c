"""Delay-Doppler domain equalization.

Every route solves the regularized problem

    min ||H d - received||^2 + noise_var * ||d||^2.

The (de)modulators are unitary, so H = U H_t U^H with H_t the CP-bounded
time-domain channel: :func:`equalize_time_domain`, the equalizer the
harness runs, solves for the transmitted block with H_t and demodulates
once. H_t is nonzero only on the cyclic diagonals of the tap delays,
which :func:`~ddlink.channel.delay_diagonals` returns; the periodic band
H_t^H H_t + noise_var I is formed from them and solved by banded
Cholesky. The dense direct :func:`equalize_mmse` and LSMR
:func:`equalize_iterative` are its oracles.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solveh_banded
from scipy.sparse.linalg import lsmr

from .channel import DdChannelMatrix, LtvChannel, delay_diagonals
from .modem import DelayDopplerGrid, TimeSignal, Waveform, _strip, demodulate_direct


def _as_matrix(H):
    return H.matrix if isinstance(H, DdChannelMatrix) else np.asarray(H)


def equalize_mmse(received: DelayDopplerGrid, H, noise_var: float) -> DelayDopplerGrid:
    """Direct MMSE solve; with noise_var 0 this is zero-forcing and fails
    (numpy.linalg.LinAlgError) on a singular channel."""
    A = _as_matrix(H)
    n = A.shape[0]
    if A.shape != (n, n) or n != received.frame.grid_size:
        raise ValueError(f"channel matrix shape {A.shape} does not match "
                         f"grid size {received.frame.grid_size}")
    y = received.vec
    d = np.linalg.solve(A.conj().T @ A + noise_var * np.eye(n), A.conj().T @ y)
    return DelayDopplerGrid.from_vec(d, received.frame)


@dataclass(frozen=True)
class IterativeResult:
    grid: DelayDopplerGrid
    converged: bool
    iterations: int
    residual: float


def equalize_iterative(received: DelayDopplerGrid, H, noise_var: float,
                       max_iter: int = 200, tol: float = 1e-10) -> IterativeResult:
    """Damped least-squares equalization via LSMR.

    ``H`` is a dense matrix or a DdChannelMatrix. On convergence the
    solution agrees with :func:`equalize_mmse` to solver tolerance.
    """
    frame = received.frame
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    if max_iter == 0:
        zero = DelayDopplerGrid.zeros(frame)
        return IterativeResult(zero, False, 0, float(np.linalg.norm(received.vec)))
    op = _as_matrix(H)
    damp = float(np.sqrt(noise_var))
    sol = lsmr(op, received.vec, damp=damp, atol=tol, btol=tol, maxiter=max_iter)
    x, istop, itn, normr = sol[0], sol[1], sol[2], sol[3]
    return IterativeResult(
        grid=DelayDopplerGrid.from_vec(x, frame),
        converged=istop in (0, 1, 2, 4, 5),
        iterations=int(itn),
        residual=float(normr),
    )


def _fold_positions(n: int) -> np.ndarray:
    """Position of unknown k in the order 0, n-1, 1, n-2, ...: a periodic
    band of half-width b becomes an ordinary band of half-width 2b."""
    k = np.arange(n)
    return np.where(k <= (n - 1) // 2, 2 * k, 2 * (n - 1 - k) + 1)


def _solve_banded(delays, gains, z: np.ndarray, noise_var: float) -> np.ndarray:
    """Solve (H^H H + noise_var I) t = H^H z for H[i, (i - delays[p]) mod n]
    = gains[p, i] by Cholesky on the band of the folded normal matrix.

    Unknown j reaches row i = (j + d_a) mod n through delay d_a, where
    unknown (j + d_a - d_b) mod n also arrives through delay d_b: each
    delay pair adds one cyclic diagonal to the normal matrix, and pairs
    whose offsets coincide mod n add to the same one. A singular normal
    matrix (zero forcing on a singular H) raises numpy.linalg.LinAlgError.
    """
    n, p = z.size, len(delays)
    j = np.arange(n)
    rows = (j + delays[:, None]) % n
    seen = gains[:, rows]                    # seen[b, a, j] = gains[b, rows[a, j]]
    own = seen[np.arange(p), np.arange(p)].conj()
    rhs = (own * z[rows]).sum(axis=0)
    vals = own[:, None] * seen.transpose(1, 0, 2)
    pos = _fold_positions(n)
    cols = pos[(j + delays[:, None, None] - delays[None, :, None]) % n]
    band = pos - cols
    lower = band >= 0
    ab = np.zeros((band.max() + 1, n), dtype=complex)
    np.add.at(ab, (band[lower], cols[lower]), vals[lower])
    ab[0] += noise_var
    folded = np.empty(n, dtype=complex)
    folded[pos] = rhs
    return solveh_banded(ab, folded, lower=True)[pos]


def equalize_time_domain(received: TimeSignal, ch: LtvChannel, waveform: Waveform,
                         noise_var: float) -> DelayDopplerGrid:
    """Equalize one CP-included frame on the CP-bounded channel of ``ch``.

    Solves (H_t^H H_t + noise_var I) t = H_t^H z by banded Cholesky on the
    channel's delay diagonals and demodulates the estimate t of the
    transmitted block in ``waveform``'s convention. This equals
    :func:`equalize_mmse` on the demodulated frame with the dense
    delay-Doppler matrix of the same channel. A channel of another grid
    size or CP raises ValueError; zero forcing (noise_var 0) on a singular
    channel raises numpy.linalg.LinAlgError.
    """
    frame = received.frame
    if (ch.frame.grid_size, ch.frame.cp_len) != (frame.grid_size, frame.cp_len):
        raise ValueError(f"channel of a {ch.frame.grid_size}-sample grid with "
                         f"CP {ch.frame.cp_len} does not match the received "
                         f"{frame.grid_size}-sample grid with CP {frame.cp_len}")
    t = _solve_banded(*delay_diagonals(ch), _strip(received), noise_var)
    return demodulate_direct(TimeSignal(t, frame, cp_included=False), waveform)
