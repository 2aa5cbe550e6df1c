"""Dense reference computations shared by several test modules."""

import numpy as np
from scipy import sparse

from ddlink.channel import (ChannelTap, DdChannelMatrix, LtvChannel,
                            delay_diagonals)
from ddlink.modem import demodulate_direct
from ddlink.multiuser import compound_matrix, detect_users


def dense_detect(received, channels, alloc, waveform, noise_var):
    """Joint detection on the demodulated record with the dense compound
    delay-Doppler matrix; a ``None`` channel leaves its user's columns
    zero."""
    stand_in = LtvChannel((ChannelTap(0, 1.0, 0.0),), received.frame)
    H = compound_matrix([stand_in if ch is None else ch for ch in channels],
                        alloc, waveform).matrix
    for q, ch in enumerate(channels):
        if ch is None:
            H[:, alloc.vec_indices(q)] = 0.0
    return detect_users(demodulate_direct(received, waveform),
                        DdChannelMatrix(H, waveform), alloc, noise_var)


def dft_matrix(size: int) -> np.ndarray:
    """Dense unitary DFT matrix with entries exp(-2j*pi*p*q/size)/sqrt(size)."""
    pq = np.outer(np.arange(size), np.arange(size))
    return np.exp(-2j * np.pi * pq / size) / np.sqrt(size)


def interleaver_source_index(n_blocks: int, block_len: int) -> np.ndarray:
    """Source index p of the block interleaver that spreads each contiguous
    block across comb positions with stride ``n_blocks``: output i takes
    input p[i], out[b + k*n_blocks] = in[b*block_len + k]."""
    i = np.arange(n_blocks * block_len)
    return (i % n_blocks) * block_len + i // n_blocks


def time_domain_matrix(ch: LtvChannel) -> sparse.csr_array:
    """Sparse CP-bounded channel of :func:`delay_diagonals`, equal to
    :func:`cp_channel_matrix`; the rows a tap cannot reach hold no entry."""
    grid, cp = ch.frame.grid_size, ch.frame.cp_len
    delays, gains = delay_diagonals(ch)
    starts = [max(d - cp, 0) for d in delays]
    rows = [np.arange(s, grid) for s in starts]
    cols = [(r - d) % grid for d, r in zip(delays, rows)]
    vals = [g[s:] for g, s in zip(gains, starts)]
    return sparse.csr_array((np.concatenate(vals),
                             (np.concatenate(rows), np.concatenate(cols))),
                            shape=(grid, grid))
