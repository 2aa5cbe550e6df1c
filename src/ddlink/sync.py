"""Timing- and frequency-offset estimation from an embedded impulse pilot.

The pilot occupies one delay row of the delay-time grid as N samples
spaced M apart. Reshaping the received record by rows r[m, l] = r[m + M*l]
and correlating adjacent samples within each row concentrates the pilot
energy in one row of the aggregated metric; its position gives the timing
offset in the delay dimension, the correlation phase gives the CFO, and
the block index of the pilot start resolves full-block offsets.

The fine estimator refines the row choice: instead of the metric maximum
(which follows the strongest channel tap and is biased by the delay of
that tap) it takes the earliest row whose metric clears a relative
threshold, recovering the first arriving tap.

The metric reads its rows r[m + M*l], l = 0 .. 2N-2, as a (2N-1, M) view
of the record's first M(2N-1) samples, which every harness record
(:meth:`Impairments.record_len`) holds; a shorter record is padded with
zeros first. One estimate takes the metric magnitude once: the coarse
row (the metric peak) and the fine row (the rule of :func:`fine_timing`)
follow from it, and the block offset and CFO are read at the coarse row.
"""

from dataclasses import dataclass, field

import numpy as np

from .frame import FrameConfig
from .modem import TimeSignal


@dataclass(frozen=True)
class Impairments:
    """Receiver-side offsets: integer timing shift split into a delay part
    (samples, < M) and a block part (multiples of M), plus CFO normalized
    to the Doppler-bin spacing."""

    timing_delay: int = 0
    timing_blocks: int = 0
    cfo: float = 0.0

    def __post_init__(self):
        if self.timing_delay < 0 or self.timing_blocks < 0:
            raise ValueError("timing offsets must be nonnegative")

    def total_offset(self, M: int) -> int:
        return self.timing_delay + M * self.timing_blocks

    def record_len(self, frame: FrameConfig) -> int:
        """Samples of a record received at this offset: the offset, two
        grids and a CP."""
        return self.total_offset(frame.M) + 2 * frame.grid_size + frame.cp_len


@dataclass(frozen=True)
class SyncEstimate:
    coarse_delay: int
    fine_delay: int
    block_offset: int
    cfo: float
    metric: np.ndarray = field(repr=False)   # |row metric|, length M

    def total_offset(self, M: int) -> int:
        return self.fine_delay + M * self.block_offset


def timing_metric(record, frame: FrameConfig):
    """Sliding pilot-search correlation over the M delay rows.

    Returns (window_corr, row_metric): window_corr[m, l] sums the N-1
    adjacent-sample products of the length-N window starting at block l of
    row m; row_metric[m] sums window_corr[m, :] over the N window starts.
    Rows are zero-filled past the end of the record. Row m is column m of
    the record's first M(2N-1) samples read as a (2N-1, M) view, so the
    running sums along the rows run across all rows at once.
    """
    r = np.asarray(record, dtype=complex)
    M, N = frame.M, frame.N
    if r.ndim != 1 or r.size < M * N:
        raise ValueError(f"record too short for the sliding window: "
                         f"{r.size} < {M * N}")
    n = M * (2 * N - 1)
    if r.size < n:
        r = np.concatenate((r, np.zeros(n - r.size, r.dtype)))
    cols = r[:n].reshape(2 * N - 1, M)
    prod = np.conj(cols[:-1]) * cols[1:]
    csum = np.zeros((2 * N - 1, M), complex)
    np.cumsum(prod, axis=0, dtype=prod.dtype, out=csum[1:])
    # starts l = 0..N-1, laid out by row for the sum along each row
    window_corr = np.subtract(csum[N - 1:N - 1 + N].T, csum[0:N].T, order="C")
    row_metric = window_corr.sum(axis=1)
    return window_corr, row_metric


def _peak_rows(mag, threshold: float):
    """The rules of coarse and fine timing on the metric magnitude
    ``mag``: the lowest row of its maximum, and the rows within
    ``threshold`` of that maximum, in increasing order. A zero metric, or
    a threshold outside (0, 1], raises ValueError."""
    if not mag.any():
        raise ValueError("timing metric is identically zero")
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    return int(np.argmax(mag)), np.flatnonzero(mag >= threshold * mag.max())


def metric_peak_set(row_metric, threshold: float) -> np.ndarray:
    """Rows whose metric magnitude is within ``threshold`` of the maximum."""
    return _peak_rows(np.abs(np.asarray(row_metric)), threshold)[1]


def fine_timing(row_metric, threshold: float, pilot_delay: int, cp_len: int) -> int:
    """First-peak timing estimate: earliest row above the relative threshold.

    The maximum always qualifies, so the peak set is never empty; with
    threshold 1 this reduces to the metric-peak estimate, the coarse
    delay of :func:`estimate_sync`.
    """
    rows = _peak_rows(np.abs(np.asarray(row_metric)), threshold)[1]
    return int(rows[0]) - pilot_delay - cp_len


# Window starts the block search compares. The estimator resolves whether
# the pilot run of its metric row starts in block 0 or has wrapped into
# block 1: the CP, the pilot row, the delay part of the offset and the
# channel's delay put it in one of the two, and a block part of the offset
# (theta_t) moves it on by whole blocks. ``config.check`` rejects
# specs whose pilot run can start in a later block.
BLOCK_STARTS = 2


def block_offset(window_corr, row: int) -> int:
    """Block index at which the pilot sequence starts in the given row:
    the one of the first :data:`BLOCK_STARTS` window starts with the
    largest correlation magnitude."""
    span = np.abs(np.asarray(window_corr)[row, :BLOCK_STARTS])
    return int(np.argmax(span))


def cfo_estimate(row_metric, row: int, frame: FrameConfig,
                 pilot_doppler: int = 0) -> float:
    """Phase-slope CFO estimate from the aggregated metric at ``row``.

    Each correlated sample pair spans M samples, so the metric phase is
    2*pi*(cfo + pilot Doppler)/N; the estimate is unambiguous for
    |cfo| < N/2 and wraps into [-N/2, N/2).
    """
    value = np.asarray(row_metric)[row]
    if value == 0:
        raise ValueError(f"zero metric at row {row}")
    raw = frame.N / (2 * np.pi) * np.angle(value) - pilot_doppler
    return ((raw + frame.N / 2) % frame.N) - frame.N / 2


def correct(record, offset: int, cfo: float, frame: FrameConfig):
    """Undo estimated impairments: advance by ``offset`` samples and
    derotate the CFO, returning exactly one CP-included frame."""
    r = np.asarray(record)
    n = frame.frame_len
    if offset < 0 or offset + n > r.size:
        raise ValueError(f"offset {offset} leaves no full frame in a "
                         f"record of {r.size} samples")
    kappa = np.arange(n)
    out = r[offset:offset + n] * np.exp(
        -2j * np.pi * cfo * (kappa + offset) / frame.grid_size)
    return TimeSignal(out, frame, cp_included=True)


def estimate_sync(record, frame: FrameConfig, pilot_delay: int,
                  pilot_doppler: int = 0, threshold: float = 0.5) -> SyncEstimate:
    """Run the full estimator chain on one received record: coarse and
    fine timing, the block offset and the CFO, all from one metric
    magnitude (the block offset and the CFO at the metric-peak row).

    The metric sums up to 2N^2 products of record samples as they are:
    the ranges of ``snr_db`` and ``pilot.power_db`` keep a record's
    samples under about 1e5, so no sum leaves the float range."""
    window_corr, row_metric = timing_metric(record, frame)
    mag = np.abs(row_metric)
    peak_row, rows = _peak_rows(mag, threshold)
    lead = pilot_delay + frame.cp_len
    return SyncEstimate(
        coarse_delay=peak_row - lead,
        fine_delay=int(rows[0]) - lead,
        block_offset=block_offset(window_corr, peak_row),
        cfo=cfo_estimate(row_metric, peak_row, frame, pilot_doppler=pilot_doppler),
        metric=mag,
    )
