"""Generalized uplink resource allocation and the compound received model.

Each user owns a set of delay bins and a set of Doppler bins; user data
grids embed into the full frame on the Cartesian product of those sets.
The base station sees the superposition of all users' transmissions, each
through its own channel, and detects jointly against a compound model
whose columns over a user's bins come from that user's channel.

:func:`detect_users_time_domain` detects on the CP-stripped record, and
the harness runs it. User q's columns are its bins, modulated in closed
form (N samples each) and carried along the delay diagonals of its
CP-bounded channel (:func:`~ddlink.channel.delay_diagonals`), the one
channel form every receiver reads; no delay-Doppler matrix is built.
The demodulators are unitary, so it equals :func:`detect_users` on the
demodulated record with the dense :func:`compound_matrix`, which stay as
its oracles.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import MatrixRankWarning, spsolve

from .channel import (DdChannelMatrix, NoiseSpec, apply_channel,
                      build_dd_matrix, delay_diagonals, draw_noise)
from .frame import FrameConfig
from .modem import (DelayDopplerGrid, TimeSignal, Waveform, _strip,
                    demodulate_direct, modulate_direct)
from .transforms import coupling_phases


@dataclass(frozen=True)
class UserBins:
    delay_bins: tuple
    doppler_bins: tuple


@dataclass(frozen=True)
class Allocation:
    """Per-user bin sets over an M-by-N grid.

    Bin sets are kept sorted; users must not share delay bins nor Doppler
    bins (the per-dimension rule). ``relax_disjointness`` weakens this to
    disjointness of the Cartesian products only.
    """

    users: tuple
    M: int
    N: int
    relax_disjointness: bool = False

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
        for i in range(len(self.users)):
            for j in range(i + 1, len(self.users)):
                a, b = self.users[i], self.users[j]
                if self.relax_disjointness:
                    shared = (set(a.delay_bins) & set(b.delay_bins)) and \
                             (set(a.doppler_bins) & set(b.doppler_bins))
                    if shared:
                        raise ValueError(
                            f"users {i} and {j} share delay-Doppler resources")
                else:
                    if set(a.delay_bins) & set(b.delay_bins):
                        raise ValueError(f"users {i} and {j} share delay bins")
                    if set(a.doppler_bins) & set(b.doppler_bins):
                        raise ValueError(f"users {i} and {j} share Doppler bins")

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
        rx = rx + draw_noise(noise.generator(), noise.variance, rx.size)
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


def _user_columns(ch, alloc: Allocation, q: int, waveform: Waveform, start: int):
    """Rows, values and columns (from ``start`` on) of C_q = H_t,q B_q,
    with B_q the direct-path modulator without CP on user q's bins.

    Column j belongs to the user's j-th bin (m, n) in vec order. Its
    modulated block holds exp(2j*pi*n*k/N)/sqrt(N) on sample k*M + m for
    k = 0..N-1, times conj(W[m, n]) for SC-IFDMA, and delay diagonal p of
    :func:`~ddlink.channel.delay_diagonals` carries that sample to row
    r = (k*M + m + delays[p]) mod M*N with gain gains[p, r].
    """
    M, N = alloc.M, alloc.N
    idx = alloc.vec_indices(q)
    m, n = idx % M, idx // M
    k = np.arange(N)
    phases = np.exp(2j * np.pi * (np.outer(n, k) % N) / N) / np.sqrt(N)
    if waveform is Waveform.SC_IFDMA:
        phases *= np.conj(coupling_phases(M, N)[m, n])[:, None]
    delays, gains = delay_diagonals(ch)
    rows = (k * M + m[:, None] + delays[:, None, None]) % (M * N)
    vals = gains[np.arange(len(delays))[:, None, None], rows] * phases
    cols = np.broadcast_to(start + np.arange(idx.size)[:, None], rows.shape)
    return rows.ravel(), vals.ravel(), cols.ravel()


def detect_users_time_domain(received: TimeSignal, channels, alloc: Allocation,
                             waveform: Waveform, noise_var: float) -> DelayDopplerGrid:
    """Joint MMSE detection over the allocated bins of one CP-included
    superposed record, in ``waveform``'s delay-Doppler convention.

    User q's columns are C_q = H_t,q B_q: its modulated bins carried
    along the delay diagonals of ``channels[q]``, at most P*N nonzeros
    each. A ``None`` channel leaves its user out of the solve, and its
    bins stay zero. With C the columns of the users that have a channel
    and z the record without its CP, solves (C^H C + noise_var I) x = C^H z by
    sparse LU for every noise_var; zero forcing (noise_var 0) on a
    singular C raises numpy.linalg.LinAlgError. Equals
    :func:`detect_users` on the demodulated record with the compound
    matrix of the same channels.
    """
    if len(channels) != alloc.n_users:
        raise ValueError(f"{len(channels)} channels for {alloc.n_users} allocations")
    frame = received.frame
    if (frame.M, frame.N) != (alloc.M, alloc.N):
        raise ValueError("frame does not match the allocation grid")
    out = np.zeros(frame.grid_size, dtype=complex)
    users = [q for q, ch in enumerate(channels) if ch is not None]
    if not users:
        return DelayDopplerGrid.from_vec(out, frame)
    bins = [alloc.vec_indices(q) for q in users]
    starts = np.cumsum([0] + [idx.size for idx in bins])
    rows, vals, cols = (np.concatenate(a) for a in zip(*(
        _user_columns(channels[q], alloc, q, waveform, start)
        for q, start in zip(users, starts))))
    C = sparse.csr_array((vals, (rows, cols)), shape=(frame.grid_size, starts[-1]))
    Ch = C.conj().T
    G = Ch @ C + noise_var * sparse.eye_array(starts[-1])
    with warnings.catch_warnings():
        warnings.simplefilter("error", MatrixRankWarning)
        try:
            x = spsolve(G.tocsc(), Ch @ _strip(received))
        except MatrixRankWarning as exc:
            raise np.linalg.LinAlgError(f"uplink normal matrix: {exc}") from None
    out[np.concatenate(bins)] = x
    return DelayDopplerGrid.from_vec(out, frame)


def load_allocation(path: str, M: int, N: int, relax: bool = False) -> Allocation:
    """Read per-user bin lists from a flat text file of
    ``userK.delay_bins = ...`` / ``userK.doppler_bins = ...`` lines;
    disjointness is validated on construction."""
    entries = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, src in enumerate(fh, 1):
            line = src.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = bins'")
            key, value = (p.strip() for p in line.split("=", 1))
            if "." not in key:
                raise ValueError(f"{path}:{lineno}: bad key {key!r}")
            user, kind = key.split(".", 1)
            if not user.startswith("user") or not user[4:].isdigit():
                raise ValueError(f"{path}:{lineno}: bad user name {user!r}")
            if kind not in ("delay_bins", "doppler_bins"):
                raise ValueError(f"{path}:{lineno}: bad key {key!r}")
            bins = tuple(int(b) for b in value.split(",") if b.strip())
            entries.setdefault(int(user[4:]), {})[kind] = bins
    if not entries or sorted(entries) != list(range(len(entries))):
        raise ValueError(f"{path}: users must be user0..user{{Q-1}} with no gaps")
    users = []
    for q in sorted(entries):
        e = entries[q]
        if "delay_bins" not in e or "doppler_bins" not in e:
            raise ValueError(f"{path}: user{q} needs both delay_bins and doppler_bins")
        users.append(UserBins(e["delay_bins"], e["doppler_bins"]))
    return Allocation(tuple(users), M, N, relax_disjointness=relax)


def even_split_allocation(M: int, N: int, n_users: int) -> Allocation:
    """Contiguous equal split of both dimensions; remainders go to the
    first users."""
    if n_users < 1:
        raise ValueError(f"need at least one user, got {n_users}")

    def chunks(total, parts):
        base, extra = divmod(total, parts)
        sizes = [base + (1 if i < extra else 0) for i in range(parts)]
        if min(sizes) < 1:
            raise ValueError(f"cannot split {total} bins across {parts} users")
        out, start = [], 0
        for s in sizes:
            out.append(tuple(range(start, start + s)))
            start += s
        return out

    d, v = chunks(M, n_users), chunks(N, n_users)
    return Allocation(tuple(UserBins(d[q], v[q]) for q in range(n_users)), M, N)
