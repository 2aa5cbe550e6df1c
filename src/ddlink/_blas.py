"""Native libraries a run uses through ctypes: the OpenBLAS that scipy's
wheel bundles, and the C library's malloc.

``_openblas`` finds scipy's library in its ``scipy.libs`` directory,
located from scipy's import spec without importing scipy, and binds the
thread and config symbols :mod:`ddlink.harness` pins and reports. It is
the only BLAS a trial calls: ``_lapack`` binds the LAPACK routine of the
band solve (:func:`ddlink.equalize._solve_band`) from it, ``zpbsv``, the
file scipy's own LAPACK wrappers link, so a solve gives the bits
``scipy.linalg`` would. Where scipy bundles no such library, ``_lapack``
returns ``scipy.linalg``'s wrapper of the same routine instead, and only
then imports ``scipy.linalg``.
``_keep_freed_heap`` fixes glibc's malloc thresholds for a run.
"""

import ctypes
import importlib.util
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

# the OpenBLAS file scipy's wheel bundles in scipy.libs
_OPENBLAS = "libscipy_openblas-*.so"


@dataclass(frozen=True)
class _Blas:
    """One OpenBLAS, loaded through ctypes."""

    name: str        # file name
    config: str      # its get_config string
    get: object      # () -> thread count
    set: object      # (thread count) -> None
    lib: object      # the ctypes.CDLL


def _load_blas(path: Path) -> _Blas | None:
    try:
        lib = ctypes.CDLL(str(path))
        get, set_, config = (getattr(lib, f"scipy_openblas_{name}")
                             for name in ("get_num_threads", "set_num_threads",
                                          "get_config"))
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    config.argtypes, config.restype = [], ctypes.c_char_p
    return _Blas(path.name, config().decode(errors="replace"), get, set_, lib)


@cache
def _openblas() -> _Blas | None:
    """scipy's OpenBLAS, or None when ``scipy.libs`` holds no loadable one
    with the thread and config symbols."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or spec.origin is None:
        return None
    path = next((Path(spec.origin).parent.parent / "scipy.libs").glob(_OPENBLAS),
                None)
    return None if path is None else _load_blas(path)


@dataclass(frozen=True)
class _Lapack:
    """The band solve's LAPACK routine, solving in place where its arrays
    allow, and returning the solution and LAPACK's ``info``."""

    source: str      # where the routine comes from, for the run report
    pbsv: object     # (ab, b) -> (x, info): zpbsv, lower band ab (kd + 1, n)


def _bundled_lapack(blas: _Blas) -> _Lapack | None:
    """``zpbsv`` of ``blas`` through ctypes, or None when it lacks it. An
    array the routine cannot take as it is (not contiguous, or of another
    dtype) is copied first, as scipy's wrapper copies it. A read-only or
    empty array raises TypeError or ValueError (ctypes takes no pointer to
    either), and so does a band whose size disagrees with ``b``, before
    LAPACK could read past an array."""
    try:
        zpbsv = blas.lib.scipy_zpbsv_
    except AttributeError:
        return None
    num, arr = ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double)
    # gfortran passes the length of the character argument uplo last
    zpbsv.argtypes = [ctypes.c_char_p, num, num, num, arr, num, arr, num, num,
                      ctypes.c_size_t]
    zpbsv.restype = None
    c_int, at = ctypes.c_int, ctypes.c_double.from_buffer
    one = c_int(1)

    def pbsv(ab, b):
        b = np.ascontiguousarray(b, np.complex128)
        band = np.ascontiguousarray(ab.T, np.complex128)  # ab's F layout
        if band.shape[0] != b.size:
            raise ValueError(f"band of {band.shape[0]} columns for {b.size} "
                             f"unknowns")
        n, ldab, info = c_int(b.size), c_int(band.shape[1]), c_int()
        zpbsv(b"L", n, c_int(band.shape[1] - 1), one, at(band), ldab, at(b), n,
              info, 1)
        return b, info.value

    return _Lapack(f"{blas.name} through ctypes (scipy_zpbsv_)", pbsv)


def _linalg_lapack() -> _Lapack:
    """``scipy.linalg``'s wrapper of ``zpbsv``, called with the arguments
    ``scipy.linalg.solveh_banded`` gives it."""
    from scipy.linalg import get_lapack_funcs
    (zpbsv,) = get_lapack_funcs(("pbsv",), dtype=np.complex128)

    def pbsv(ab, b):
        _, x, info = zpbsv(ab, b, lower=1, overwrite_ab=1, overwrite_b=1)
        return x, info

    return _Lapack("scipy.linalg (get_lapack_funcs: zpbsv)", pbsv)


@cache
def _lapack() -> _Lapack:
    """The band solve's routine: scipy's bundled OpenBLAS through ctypes
    where :func:`_openblas` finds it with ``zpbsv``, else
    ``scipy.linalg``'s."""
    blas = _openblas()
    return (blas is not None and _bundled_lapack(blas)) or _linalg_lapack()


# mallopt parameter numbers of glibc's malloc.h
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@cache
def _keep_freed_heap() -> bool:
    """Have glibc's malloc keep freed memory of up to 64 MB at the top of
    its heap and serve blocks under 32 MB from the heap, the most its own
    dynamic thresholds reach; whether the C library took the setting.

    A trial allocates and frees the same few hundred kilobytes of arrays.
    Whether glibc hands that memory back to the kernel after each trial,
    and so faults it in again on the next, depends on what the process
    happened to allocate and free before; fixed thresholds make it never
    do so. Other C libraries lack ``mallopt`` or ignore these numbers.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, 32 << 20)
                and mallopt(_M_TRIM_THRESHOLD, 64 << 20))
