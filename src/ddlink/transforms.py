"""The per-bin coupling phases by which the OTFS and SC-IFDMA structures
differ, cached per grid shape as read-only arrays."""

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=32)
def _coupling_cached(M: int, N: int):
    m = np.arange(M)[:, None]
    n = np.arange(N)[None, :]
    w = np.exp(-2j * np.pi * m * n / (M * N))
    w.setflags(write=False)
    return w


def coupling_phases(M: int, N: int) -> np.ndarray:
    """(M, N) matrix of per-bin phases exp(-2j*pi*m*n/(M*N)).

    These are the only phases by which the OTFS and SC-IFDMA structures
    differ; applied entrywise to a delay-Doppler grid.
    """
    return _coupling_cached(M, N)
