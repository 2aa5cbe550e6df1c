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
"""

from dataclasses import dataclass, field

import numpy as np

from .frame import FrameConfig


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


@dataclass(frozen=True)
class SyncEstimate:
    coarse_delay: int
    fine_delay: int
    block_offset: int
    cfo: float
    metric: np.ndarray = field(repr=False)   # |row metric|, length n_rows
    peak_set: frozenset = field(repr=False)

    def total_offset(self, M: int) -> int:
        return self.fine_delay + M * self.block_offset


def timing_metric(record, frame: FrameConfig, n_rows: int | None = None):
    """Sliding pilot-search correlation over delay rows.

    Returns (window_corr, row_metric): window_corr[m, l] sums the N-1
    adjacent-sample products of the length-N window starting at block l of
    row m; row_metric[m] sums window_corr[m, :] over the N window starts.
    Rows are zero-filled past the end of the record.
    """
    r = np.asarray(record)
    M, N = frame.M, frame.N
    if r.ndim != 1 or r.size < M * N:
        raise ValueError(f"record too short for the sliding window: "
                         f"{r.size} < {M * N}")
    n_rows = M if n_rows is None else n_rows
    row_len = 2 * N - 1
    idx = np.arange(n_rows)[:, None] + M * np.arange(row_len)[None, :]
    rows = np.where(idx < r.size, r[np.minimum(idx, r.size - 1)], 0.0)
    prod = np.conj(rows[:, :-1]) * rows[:, 1:]
    csum = np.concatenate([np.zeros((n_rows, 1), complex), np.cumsum(prod, axis=1)], axis=1)
    window_corr = csum[:, N - 1:N - 1 + N] - csum[:, 0:N]  # starts l = 0..N-1
    row_metric = window_corr.sum(axis=1)
    return window_corr, row_metric


def coarse_timing(row_metric, pilot_delay: int, cp_len: int) -> int:
    """Metric-peak timing estimate in the delay dimension.

    Follows the strongest channel tap, so it is biased by that tap's delay;
    the result is only known modulo M (full blocks are resolved separately).
    Ties resolve to the lowest row.
    """
    mag = np.abs(np.asarray(row_metric))
    if not mag.any():
        raise ValueError("timing metric is identically zero")
    return int(np.argmax(mag)) - pilot_delay - cp_len


def metric_peak_set(row_metric, threshold: float) -> np.ndarray:
    """Rows whose metric magnitude is within ``threshold`` of the maximum."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    mag = np.abs(np.asarray(row_metric))
    return np.flatnonzero(mag >= threshold * mag.max())


def fine_timing(row_metric, threshold: float, pilot_delay: int, cp_len: int) -> int:
    """First-peak timing estimate: earliest row above the relative threshold.

    The maximum always qualifies, so the peak set is never empty; with
    threshold 1 and a unique maximum this reduces to :func:`coarse_timing`.
    """
    mag = np.abs(np.asarray(row_metric))
    if not mag.any():
        raise ValueError("timing metric is identically zero")
    return int(metric_peak_set(row_metric, threshold).min()) - pilot_delay - cp_len


def block_offset(window_corr, row: int, max_blocks: int = 2) -> int:
    """Block index at which the pilot sequence starts in the given row:
    the window-start position with the largest correlation magnitude."""
    span = np.abs(np.asarray(window_corr)[row, :max_blocks])
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
    from .modem import TimeSignal

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
                  pilot_doppler: int = 0, threshold: float = 0.5,
                  n_rows: int | None = None, max_blocks: int = 2) -> SyncEstimate:
    """Run the full estimator chain on one received record."""
    window_corr, row_metric = timing_metric(record, frame, n_rows=n_rows)
    coarse = coarse_timing(row_metric, pilot_delay, cp_len=frame.cp_len)
    fine = fine_timing(row_metric, threshold, pilot_delay, cp_len=frame.cp_len)
    peak_row = coarse + pilot_delay + frame.cp_len
    blocks = block_offset(window_corr, peak_row, max_blocks=max_blocks)
    cfo = cfo_estimate(row_metric, peak_row, frame, pilot_doppler=pilot_doppler)
    return SyncEstimate(
        coarse_delay=coarse,
        fine_delay=fine,
        block_offset=blocks,
        cfo=cfo,
        metric=np.abs(row_metric),
        peak_set=frozenset(int(m) for m in metric_peak_set(row_metric, threshold)),
    )
