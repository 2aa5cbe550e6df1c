"""Delay-Doppler domain equalization.

Every route solves the regularized problem

    min ||H d - received||^2 + noise_var * ||d||^2.

The (de)modulators are unitary, so H = U H_t U^H with H_t the CP-bounded
time-domain channel: :func:`equalize_time_domain`, the equalizer the
harness runs, solves once for the transmitted block with H_t and
demodulates that solution with the OTFS structure the record was sent
with. The waveforms differ only by the coupling phases D of the unknowns,
which the paper absorbs into the channel: the SC-IFDMA system is
D A D^H d = D b for the OTFS system A d = b, so the one solution serves
the receiver of either waveform, in OTFS's convention. H_t is nonzero
only on the cyclic diagonals of the tap delays, and the equalizer takes
the channel in that form, a :class:`~ddlink.channel.DelayDiagonals` (from
:func:`~ddlink.channel.tap_diagonals`, for a drawn channel and an
estimate alike); the periodic band H_t^H H_t + noise_var I is formed
from them and solved by banded Cholesky. The index plan of that band
depends only on the delays and the grid size and is cached, so a call
does only value work. The band solve itself, :func:`_solve_band`, is
shared with the uplink
detector of :mod:`ddlink.multiuser`: it builds the band in place in one
zeroed array, in the column-major layout LAPACK factors without a copy,
consumes its right-hand side, which the solution overwrites, and calls
LAPACK's ``zpbsv`` for every band width with the checks of
``scipy.linalg.solveh_banded``. The routine is that of the OpenBLAS
scipy's wheel bundles, called through ctypes
(:func:`ddlink._blas._lapack`), so no trial imports ``scipy.linalg``; a
scipy without that library gives ``scipy.linalg``'s wrapper of the same
routine. The dense direct :func:`equalize_mmse` and LSMR
:func:`equalize_iterative` are its oracles.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._blas import _lapack
from .channel import DdChannelMatrix, DelayDiagonals
from .modem import (DelayDopplerGrid, TimeSignal, Waveform, _strip,
                    demodulate_direct)


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
    # imported here: no trial runs this oracle, and scipy.sparse.linalg
    # would add tens of milliseconds to every process that imports ddlink
    from scipy.sparse.linalg import lsmr

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


_EPS = np.finfo(float).eps


def _solve_band(slot: np.ndarray, vals: np.ndarray, width: int, noise_var: float,
                rhs: np.ndarray) -> np.ndarray:
    """Solve (A + noise_var I) x = rhs for Hermitian A whose lower band of
    half-width ``width`` is the sum of ``vals`` at the band slots ``slot``
    (column * (width + 1) + band row, values sharing a slot added in
    order), by banded Cholesky. A matrix that is not positive definite
    raises numpy.linalg.LinAlgError; inf or NaN in the band or in ``rhs``
    raises ValueError.

    A positive ``noise_var`` below the floor (width + 1) * eps * max_i a_ii
    is raised to it: each factor entry is an inner product of at most
    width + 1 terms, so the computed factor is exact for A + dA with
    |dA_ij| <= gamma_(width+1) sqrt(a_ii a_jj) (Higham, Accuracy and
    Stability of Numerical Algorithms, Thm 10.5), and a smaller shift is
    lost in that rounding, where a singular A meets a pivot that is not
    positive (from about 160 dB on a 32x16 link, inside the 300 dB top
    of ``snr_db``). 0 is zero forcing. The values are formed as they
    are, unscaled: the ranges of the config keys, which the parsers of
    their rows in :data:`ddlink.config.SCHEMA` check, keep them normal
    floats.

    The band is built in place: one zeroed column-major (width + 1, n)
    array, which LAPACK factors without a copy. ``rhs`` (complex, one
    contiguous vector) is consumed: the solution overwrites it. LAPACK's
    ``zpbsv`` solves every width, from the library scipy's wrappers link
    (:func:`_lapack`), called with the arguments
    ``scipy.linalg.solveh_banded`` gives it; so the solution is
    ``solveh_banded``'s own, bit for bit, at every width but 1, where
    ``solveh_banded`` calls a tridiagonal routine instead.
    """
    ab = np.zeros((width + 1, rhs.size), dtype=complex, order="F")
    np.add.at(ab.reshape(-1, order="F"), slot, vals)
    if noise_var > 0:
        noise_var = max(noise_var, (width + 1) * _EPS * ab[0].real.max())
    ab[0] += noise_var
    if not (np.isfinite(ab).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    x, info = _lapack().pbsv(ab, rhs)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal pbsv")
    return x


@dataclass(frozen=True)
class _LinkPlan:
    """Index bookkeeping of :func:`_solve_banded` for one delay set and
    grid size; the gains do not enter it. Gain indices point into the
    raveled (delays, n) gains of the channel's delay diagonals. All
    arrays are read-only.
    """

    left: np.ndarray   # gain index of conj(g_a[r]) ...
    right: np.ndarray  # ... and of g_b[r] per lower-band value, r = (j + d_a) mod n
    slot: np.ndarray   # band slot of each value (see _solve_band)
    rows: np.ndarray   # (delays, n): row (j + d_p) mod n of H^H z
    own: np.ndarray    # (delays, n): gain index of g_p[rows[p, j]]
    pos: np.ndarray    # fold position of each unknown
    width: int         # band half-width


@lru_cache(maxsize=8)
def _link_plan(delays: tuple, n: int) -> _LinkPlan:
    """Plan for the distinct ``delays`` of a channel on an n-sample block.

    Unknown j reaches row r = (j + d_a) mod n through delay d_a, where
    unknown (j + d_a - d_b) mod n also arrives through delay d_b: each
    delay pair adds conj(g_a[r]) g_b[r] to one cyclic diagonal of the
    normal matrix, and pairs whose offsets coincide mod n share a slot.
    Only values on or below the diagonal in fold order are kept.
    """
    d = np.array(delays)
    p = d.size
    j = np.arange(n)
    rows = (j + d[:, None]) % n
    own = np.arange(p)[:, None] * n + rows
    pos = _fold_positions(n)
    cols = pos[(j + d[:, None, None] - d[None, :, None]) % n]
    band = pos - cols
    lower = band >= 0
    left = np.broadcast_to(own[:, None, :], band.shape)[lower]
    right = (np.arange(p)[None, :, None] * n + rows[:, None, :])[lower]
    width = int(band.max())
    arrays = dict(left=left, right=right,
                  slot=cols[lower] * (width + 1) + band[lower],
                  rows=rows, own=own, pos=pos)
    for a in arrays.values():
        a.setflags(write=False)
    return _LinkPlan(width=width, **arrays)


def _solve_banded(delays, gains, z: np.ndarray, noise_var: float) -> np.ndarray:
    """Solve (H^H H + noise_var I) t = H^H z for H[i, (i - delays[p]) mod n]
    = gains[p, i] by Cholesky on the band of the folded normal matrix.

    The index plan (:func:`_link_plan`) depends only on the delays and n
    and is cached, so a call gathers the gain products of each delay pair
    into their band slots and solves. A singular normal matrix (zero
    forcing on a singular H) raises numpy.linalg.LinAlgError.
    """
    n = z.size
    plan = _link_plan(tuple(delays.tolist()), n)
    flat = gains.ravel()
    vals = flat[plan.left].conj() * flat[plan.right]
    rhs = (flat[plan.own].conj() * z[plan.rows]).sum(axis=0)
    folded = np.empty(n, dtype=complex)
    folded[plan.pos] = rhs
    return _solve_band(plan.slot, vals, plan.width, noise_var, folded)[plan.pos]


def equalize_time_domain(received: TimeSignal, channel: DelayDiagonals | None,
                         noise_var: float) -> DelayDopplerGrid:
    """Equalize one CP-included frame on a CP-bounded channel given as its
    delay diagonals (None for an empty estimate: no equalization).

    Solves (H_t^H H_t + noise_var I) t = H_t^H z by banded Cholesky on
    the diagonals, and demodulates the estimate t of the transmitted
    block with the OTFS structure, the one the record was sent with.
    This equals :func:`equalize_mmse` on the OTFS demodulation of the
    frame with the dense OTFS delay-Doppler matrix of the same channel;
    for SC-IFDMA, whose dense system is D A D^H d = D b for that one
    (D the coupling phases), it equals D times this grid. Diagonals of
    another grid size or CP raise ValueError; zero forcing (noise_var 0)
    on a singular channel raises numpy.linalg.LinAlgError.
    """
    frame, block = received.frame, received
    if channel is not None:
        channel.check_frame(frame)
        t = _solve_banded(channel.delays, channel.gains, _strip(received), noise_var)
        block = TimeSignal(t, frame, cp_included=False)
    return demodulate_direct(block, Waveform.OTFS)
