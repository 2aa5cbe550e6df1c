"""Generalized uplink resource allocation and the compound received model.

Each user owns a set of delay bins and a set of Doppler bins; user data
grids embed into the full frame on the Cartesian product of those sets.
The one rule an allocation meets is that no delay-Doppler bin belongs to
two users: users may share delay rows or Doppler columns.
A run's allocation is built by ``harness.prepare`` from the bins its
config lists (``mu.allocation``) or as :func:`even_split_allocation`.
The base station sees the superposition of all users' transmissions, each
through its own channel, and detects jointly against a compound model
whose columns over a user's bins come from that user's channel.

:func:`detect_users_time_domain` detects on the CP-stripped record, and
the harness runs it. It takes each user's CP-bounded channel as its
delay diagonals (:class:`~ddlink.channel.DelayDiagonals`), the one
channel form every receiver reads, and forms the normal matrix of the
allocated bins in the delay-Doppler basis straight from them; no
delay-Doppler matrix is built.
That matrix couples a delay row only to the rows a delay difference
away, so ordered by folded delay row it is a band, solved by banded
Cholesky. The waveforms differ only by linear phase shifts, which the
paper absorbs into the channel, so one band solve serves the receiver of
either waveform, in the OTFS convention the record was sent with: the
SC-IFDMA system is that one with its unknowns rotated by the coupling
phases, and so is its solution.
The index plan of the band depends only on the allocation and the delay
sets and is cached; the band solve is the link equalizer's
(:func:`~ddlink.equalize._solve_band`). The demodulators are unitary, so
the detector equals :func:`detect_users` on the OTFS demodulation of the
record with the dense OTFS :func:`compound_matrix`, and the SC-IFDMA
solution derotated by the coupling phases; both stay as its oracles.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import (DdChannelMatrix, NoiseSpec, apply_channel,
                      build_dd_matrix, draw_noise)
from .equalize import _fold_positions, _solve_band
from .frame import FrameConfig
from .modem import (DelayDopplerGrid, TimeSignal, Waveform, _strip,
                    demodulate_direct, modulate_direct)


@dataclass(frozen=True)
class UserBins:
    delay_bins: tuple
    doppler_bins: tuple


@dataclass(frozen=True)
class Allocation:
    """Per-user bin sets over an M-by-N grid.

    Bin sets are kept sorted. A user holds the Cartesian product of its
    delay and Doppler bins, and no bin may belong to two users; users may
    share delay rows or Doppler columns, so full-grid tilings (each user
    on every Doppler bin, or on every delay row) are allocations.
    """

    users: tuple
    M: int
    N: int

    def __post_init__(self):
        norm = []
        for q, u in enumerate(self.users):
            d = tuple(sorted(set(int(b) for b in u.delay_bins)))
            v = tuple(sorted(set(int(b) for b in u.doppler_bins)))
            if not d or not v:
                raise ValueError(f"user {q} has an empty bin set")
            if d[0] < 0 or d[-1] >= self.M or v[0] < 0 or v[-1] >= self.N:
                raise ValueError(f"user {q} bins outside the {self.M}x{self.N} grid")
            norm.append(UserBins(d, v))
        object.__setattr__(self, "users", tuple(norm))
        self._check_disjoint()

    def _check_disjoint(self):
        for (i, a), (j, b) in itertools.combinations(enumerate(self.users), 2):
            if set(a.delay_bins) & set(b.delay_bins) and \
                    set(a.doppler_bins) & set(b.doppler_bins):
                raise ValueError(f"users {i} and {j} share delay-Doppler bins")

    @property
    def n_users(self) -> int:
        return len(self.users)

    def user_shape(self, q: int):
        u = self.users[q]
        return len(u.delay_bins), len(u.doppler_bins)

    def vec_indices(self, q: int) -> np.ndarray:
        """Vectorized (column-major) full-grid indices of user q's bins, in
        the order matching the vectorization of the user's own data grid."""
        u = self.users[q]
        d = np.asarray(u.delay_bins)
        v = np.asarray(u.doppler_bins)
        return (v[None, :] * self.M + d[:, None]).flatten(order="F")


def place_user(data: np.ndarray, alloc: Allocation, q: int,
               frame: FrameConfig) -> DelayDopplerGrid:
    """Embed a user's M_q-by-N_q grid on its allocated bins, zero elsewhere."""
    data = np.asarray(data, dtype=complex)
    if (frame.M, frame.N) != (alloc.M, alloc.N):
        raise ValueError("frame does not match the allocation grid")
    if data.shape != alloc.user_shape(q):
        raise ValueError(f"user {q} data shape {data.shape} does not match "
                         f"allocation {alloc.user_shape(q)}")
    u = alloc.users[q]
    full = np.zeros((frame.M, frame.N), dtype=complex)
    full[np.ix_(u.delay_bins, u.doppler_bins)] = data
    return DelayDopplerGrid(full, frame)


def extract_user(grid: DelayDopplerGrid, alloc: Allocation, q: int) -> np.ndarray:
    u = alloc.users[q]
    return grid.data[np.ix_(u.delay_bins, u.doppler_bins)]


def compound_matrix(channels, alloc: Allocation, waveform: Waveform) -> DdChannelMatrix:
    """Columns over each user's bins come from that user's equivalent
    channel; unallocated columns stay zero."""
    mats = [build_dd_matrix(ch, waveform).matrix for ch in channels]
    n = alloc.M * alloc.N
    H = np.zeros((n, n), dtype=complex)
    for q, Hq in enumerate(mats):
        cols = alloc.vec_indices(q)
        H[:, cols] = Hq[:, cols]
    return DdChannelMatrix(H, waveform)


def compound_uplink(users, alloc: Allocation, waveform: Waveform,
                    frame: FrameConfig, noise: NoiseSpec | None = None):
    """Simulate the superposed uplink and build the matching compound model.

    ``users`` is a sequence of (data, LtvChannel) pairs, data shaped per the
    allocation. Returns (received grid, compound DdChannelMatrix).
    """
    if len(users) != alloc.n_users:
        raise ValueError(f"{len(users)} user inputs for {alloc.n_users} allocations")
    rx = np.zeros(frame.frame_len, dtype=complex)
    for q, (data, ch) in enumerate(users):
        grid = place_user(data, alloc, q, frame)
        x = modulate_direct(grid, waveform)
        rx = rx + apply_channel(x, ch).samples
    if noise is not None and noise.variance > 0.0:
        rx = rx + draw_noise(noise.rng, noise.variance, rx.size)
    received = demodulate_direct(TimeSignal(rx, frame, cp_included=True), waveform)
    H = compound_matrix([ch for _, ch in users], alloc, waveform)
    return received, H


def detect_users(received: DelayDopplerGrid, H: DdChannelMatrix,
                 alloc: Allocation, noise_var: float) -> DelayDopplerGrid:
    """Joint MMSE detection over the allocated bins.

    The compound matrix is zero on unallocated columns, so the solve is
    restricted to the active ones (noiseless recovery is exact whenever
    those columns are linearly independent). Returns a full grid with the
    detected symbols scattered back onto each user's bins.
    """
    cols = np.concatenate([alloc.vec_indices(q) for q in range(alloc.n_users)])
    A = H.matrix[:, cols]
    y = received.vec
    if noise_var > 0.0:
        x = np.linalg.solve(A.conj().T @ A + noise_var * np.eye(cols.size),
                            A.conj().T @ y)
    else:
        x = np.linalg.lstsq(A, y, rcond=None)[0]
    out = np.zeros(alloc.M * alloc.N, dtype=complex)
    out[cols] = x
    return DelayDopplerGrid.from_vec(out, received.frame)


@dataclass(frozen=True)
class _UplinkPlan:
    """Index bookkeeping of the banded uplink solve for one allocation and
    one delay set per user with a channel; the gains do not enter it.

    Gains are read from the stacked rows of the users' delay diagonals
    (user by user, delays in the order of the key), raveled. All arrays
    are read-only.
    """

    bins: np.ndarray    # full-grid vec index of each unknown, in solve order
    left: np.ndarray    # (pair rows, N) gain index of conj(g_qa[r]) ...
    right: np.ndarray   # ... and of g_q'b[r], r = (k*M + m + a) mod MN
    groups: np.ndarray  # first pair row of each (q, q', delta, m)
    entry: np.ndarray   # index into the raveled (group, f) FFT of each entry
    slot: np.ndarray    # band slot of each entry (see equalize._solve_band)
    shift: np.ndarray   # (delays, MN): index of row p at (j + a_p) mod MN
    user_rows: np.ndarray  # first stacked delay row of each user
    rhs_entry: np.ndarray   # index into the raveled (user, f, m) FFT per unknown
    phase: np.ndarray   # phase of each entry, over N
    width: int          # band half-width


@lru_cache(maxsize=8)
def _uplink_plan(alloc: Allocation, users: tuple, delays: tuple) -> _UplinkPlan:
    """Plan for the users ``users`` (those with a channel), user users[i]
    with the distinct delays ``delays[i]`` of its delay diagonals.

    Unknowns are each user's bins (m, n), ordered by fold position of m,
    then user, then n: the normal matrix couples delay rows m and m' only
    through delay differences, so it is an ordinary band in this order.
    Per user pair, each delay pair (a, b) with delta = a - b and each
    delay row m of user q whose m' = (m + delta) mod M is one of user q''s
    rows gives one pair row; rows of the same (q, q', delta, m) are summed
    before the FFT. Only the lower band (m at or after m' in fold order)
    is kept.
    """
    M, N = alloc.M, alloc.N
    grid = M * N
    pos = _fold_positions(M)
    k = np.arange(N)
    rows_of = [np.array(alloc.users[q].delay_bins) for q in users]
    cols_of = [np.array(alloc.users[q].doppler_bins) for q in users]
    active = np.zeros((len(users), M, N), dtype=bool)
    for i, (rows, cols) in enumerate(zip(rows_of, cols_of)):
        active[i][np.ix_(rows, cols)] = True
    member = active.any(axis=2)
    who, m, n = np.nonzero(active)
    order = np.lexsort((n, who, pos[m]))
    who, m, n = who[order], m[order], n[order]
    unknown = np.full(active.shape, -1)
    unknown[who, m, n] = np.arange(m.size)

    first_gain = np.cumsum([0] + [len(d) for d in delays])
    offset = max(max(d) for d in delays)          # delta + offset >= 0
    left, right, groups, entry, carry, row, col = ([] for _ in range(7))
    n_pairs = n_groups = 0
    for i, j in itertools.product(range(len(users)), repeat=2):
        a = np.array(delays[i])[:, None, None]
        b = np.array(delays[j])[None, :, None]
        reach = rows_of[i] + a - b                # m + delta, (Pi, Pj, Mi)
        ia, ib, im = np.nonzero(member[j, reach % M]
                                & (pos[rows_of[i]] >= pos[reach % M]))
        if not ia.size:
            continue
        key = (a[ia, 0, 0] - b[0, ib, 0] + offset) * M + rows_of[i][im]
        by_key = np.argsort(key, kind="stable")
        ia, ib, im = ia[by_key], ib[by_key], im[by_key]
        keys, starts = np.unique(key[by_key], return_index=True)
        r = (k * M + (rows_of[i][im] + a[ia, 0, 0])[:, None]) % grid
        left.append((first_gain[i] + ia)[:, None] * grid + r)
        right.append((first_gain[j] + ib)[:, None] * grid + r)
        groups.append(n_pairs + starts)
        n_pairs += ia.size

        gm = keys % M                             # the group's m ...
        reach = gm + keys // M - offset           # ... and m + delta
        e_row = unknown[i][gm[:, None, None], cols_of[i][None, :, None]]
        e_col = unknown[j][(reach % M)[:, None, None], cols_of[j][None, None, :]]
        e_row, e_col = np.broadcast_arrays(e_row, e_col)
        lower = e_row >= e_col
        f = (cols_of[i][:, None] - cols_of[j][None, :]) % N
        entry.append(((n_groups + np.arange(keys.size))[:, None, None] * N + f)[lower])
        carry.append(np.broadcast_to(
            (reach // M)[:, None, None] * cols_of[j][None, None, :] % N,
            lower.shape)[lower])
        row.append(e_row[lower])
        col.append(e_col[lower])
        n_groups += keys.size
    row, col = np.concatenate(row), np.concatenate(col)
    band = row - col
    phase = np.exp(2j * np.pi * np.concatenate(carry) / N) / N

    stacked = np.concatenate(delays)
    shift = (np.arange(stacked.size)[:, None] * grid
             + (np.arange(grid) + stacked[:, None]) % grid)

    width = int(band.max())
    arrays = dict(
        bins=n * M + m, left=np.concatenate(left), right=np.concatenate(right),
        groups=np.concatenate(groups), entry=np.concatenate(entry),
        slot=col * (width + 1) + band, shift=shift, user_rows=first_gain[:-1],
        rhs_entry=(who * N + n) * M + m, phase=phase)
    for a in arrays.values():
        a.setflags(write=False)
    return _UplinkPlan(width=width, **arrays)


def detect_users_time_domain(received: TimeSignal, channels, alloc: Allocation,
                             noise_var: float) -> DelayDopplerGrid:
    """Joint MMSE detection over the allocated bins of one CP-included
    superposed record, in the OTFS delay-Doppler convention the record
    was sent with; returns one full grid.

    ``channels[q]`` is user q's CP-bounded channel as its
    :class:`~ddlink.channel.DelayDiagonals`, or None. With C the
    time-domain columns of the allocated bins of the users that have a
    channel (user q's bins modulated and carried along the delay
    diagonals of ``channels[q]``) and z the record without its CP,
    solves (C^H C + noise_var I) x = C^H z by banded Cholesky. In the
    delay-Doppler basis of OTFS, the entry from bin (q, m, n) to bin
    (q', m', n') sums, over the delay pairs (a of user q, b of user q') with
    m + a - b = m' + c*M, exp(2j*pi*n'*c/N) F[(n - n') mod N, m] / N,
    where F is the FFT over k of conj(g_qa[r]) g_q'b[r] at
    r = (k*M + m + a) mod MN; C^H z is the FFT over k of
    sum_a conj(g_qa[r]) z[r], over sqrt(N). Ordered by fold position of
    the delay row, the matrix is an ordinary band; its index plan
    depends only on the allocation and the delay sets and is cached.

    The two waveforms differ only by the coupling phases W of
    :func:`~ddlink.transforms.coupling_phases`, which the paper absorbs
    into the channel: with D = diag(W) over the unknowns, the SC-IFDMA
    system is D A D^H x = D b for this OTFS system A x = b, so its
    solution is D times the OTFS one, and this one solve serves the
    receiver of either waveform.

    A ``None`` channel leaves its user out of the solve, and its bins
    stay zero. Diagonals of another grid size or CP than the record's
    raise ValueError. Zero forcing (noise_var 0) on a singular C raises
    numpy.linalg.LinAlgError. Equals :func:`detect_users` on the OTFS
    demodulation of the record with the OTFS compound matrix of the same
    channels, and conj(W) times its solution on the SC-IFDMA ones.
    """
    if len(channels) != alloc.n_users:
        raise ValueError(f"{len(channels)} channels for {alloc.n_users} allocations")
    frame = received.frame
    if (frame.M, frame.N) != (alloc.M, alloc.N):
        raise ValueError("frame does not match the allocation grid")
    users = tuple(q for q, ch in enumerate(channels) if ch is not None)
    for q in users:
        channels[q].check_frame(frame)
    if not users:
        return DelayDopplerGrid.zeros(frame)
    plan = _uplink_plan(alloc, users,
                        tuple(tuple(channels[q].delays.tolist()) for q in users))
    gains = np.concatenate([channels[q].gains for q in users])
    flat = gains.ravel()
    h = np.add.reduceat(np.conj(flat[plan.left]) * flat[plan.right], plan.groups)
    entries = np.fft.fft(h).ravel()[plan.entry]
    seen = (np.conj(gains) * _strip(received)).ravel()[plan.shift]
    y = np.add.reduceat(seen, plan.user_rows).reshape(len(users), alloc.N, alloc.M)
    unknowns = np.fft.fft(y, axis=1).ravel()[plan.rhs_entry]
    out = np.zeros(frame.grid_size, dtype=complex)
    out[plan.bins] = _solve_band(plan.slot, entries * plan.phase, plan.width,
                                 noise_var, unknowns * (1 / np.sqrt(alloc.N)))
    return DelayDopplerGrid.from_vec(out, frame)


def even_split_allocation(M: int, N: int, n_users: int) -> Allocation:
    """Contiguous equal split of both dimensions; remainders go to the
    first users."""
    if n_users < 1:
        raise ValueError(f"need at least one user, got {n_users}")
    if n_users > min(M, N):
        raise ValueError(f"cannot split {min(M, N)} bins across {n_users} users")
    return Allocation(tuple(map(UserBins, np.array_split(np.arange(M), n_users),
                                np.array_split(np.arange(N), n_users))), M, N)
