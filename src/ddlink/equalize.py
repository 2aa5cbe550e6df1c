"""Delay-Doppler domain equalization.

Every route solves the regularized problem

    min ||H d - received||^2 + noise_var * ||d||^2

by a direct normal-equation solve or by LSMR. The (de)modulators are
unitary, so H = U H_t U^H with H_t the sparse CP-bounded time-domain
channel: :func:`equalize_time_domain` solves for the transmitted block
with H_t and demodulates once; the harness runs it. The dense
:func:`equalize_mmse` and :func:`equalize_iterative` are its oracles.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import lsmr, spsolve

from .channel import DdChannelMatrix
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


def equalize_time_domain(received: TimeSignal, H_t, waveform: Waveform,
                         noise_var: float, method: str = "mmse",
                         max_iter: int = 200, tol: float = 1e-10) -> DelayDopplerGrid:
    """Equalize one CP-included frame on the sparse time-domain channel.

    ``mmse`` solves (H_t^H H_t + noise_var I) t = H_t^H z by sparse LU,
    ``iterative`` runs LSMR on H_t; the estimate t of the transmitted
    block is demodulated in ``waveform``'s convention. This equals
    :func:`equalize_mmse` (:func:`equalize_iterative`) on the demodulated
    frame with the dense delay-Doppler matrix of the same channel. A
    channel of the wrong size raises ValueError.
    """
    z = _strip(received)
    if method == "mmse":
        Hh = H_t.conj().T
        A = Hh @ H_t + noise_var * sparse.eye_array(z.size)
        t = spsolve(A.tocsc(), Hh @ z)
    elif method == "iterative":
        if max_iter < 0:
            raise ValueError("max_iter must be >= 0")
        t = lsmr(H_t, z, damp=float(np.sqrt(noise_var)), atol=tol, btol=tol,
                 maxiter=max_iter)[0]
    else:
        raise ValueError(f"unknown equalizer method {method!r}")
    return demodulate_direct(TimeSignal(t, received.frame, cp_included=False),
                             waveform)
