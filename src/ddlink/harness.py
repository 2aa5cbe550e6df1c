"""Monte-Carlo experiment runner: the trials of each experiment kind and
the run loop. The rules a spec meets before its first trial live with the
spec, in :mod:`ddlink.config`.

Experiments sweep SNR cells; within a cell every trial draws its channel,
noise, data, and impairments from collision-free substreams of one master
seed (:func:`ddlink._seeds.seed_stream`), so results are bit-identical for
a fixed spec + seed regardless of execution order or worker count.

SNR convention (printed in the run metadata): data symbols have unit
average power and channel profiles unit energy, so a cell at S dB uses
noise variance 10**(-S/10).

Waveform pairing: detection experiments (ber_vs_snr, mu_uplink) transmit
one physical record per trial and hand it to both receivers; the OTFS
signal of a grid is identical to the SC-IFDMA signal of the same grid
pre-rotated by the known coupling phases. The paper absorbs those phases
into the channel: the SC-IFDMA receiver estimates its channel from its
own received grid, with the pilot rotated by its phase, and the
detector's one solution, in the OTFS convention the record was sent
with, serves either receiver. This makes the per-trial hard decisions
of the two waveforms comparable one-to-one.
Synchronization experiments instead send each waveform's own signal of
the one drawn grid, with shared channel/noise/impairment draws, since the
timing metric needs no cross-waveform coupling; the records of all
waveforms come from one batched transmission, and each is synced on its
own.

Trial skeleton: ``prepare`` builds what the trials of a run share once,
before the first trial: the uplink allocation (the bins the config
lists, or an even split) and the run's layout
(``_layout``: each transmitted grid's pilot and data bins, one grid for
a link, one per uplink user), cached so every trial reads it, and then
checks the spec's rules (:func:`ddlink.config.check`). Every trial sends
through one stage, ``_send``: ``_draw`` draws one channel, bit array and
grid per grid of the layout and stacks the grids; where the spec syncs,
the impairments are drawn and lengthen the record; each drawn channel's
tap ramps are evaluated once; and one noisy record per waveform it is
asked for comes as a batch: one modulation of the stacked grids of every
waveform, one pass through each channel for all of them (reading those
ramps, with one CFO ramp), the grids superposed and the one noise draw
added to each record. A detection trial asks for the OTFS record alone,
a sync trial for one record per waveform of its spec.
``_detection_trial`` runs a link or uplink trial on one noisy record:
impairments and sync only where ``config._runs_sync`` says the spec
syncs, then CSI, the trial's detector and demapping per grid. The
link's and the uplink's detectors both take the record and the CSI,
solve their band once and give one grid in the OTFS convention, which
the harness demaps as it is. CSI is delay diagonals built through
``channel.tap_diagonals``. Genie CSI, those of the drawn channels read
from the same ramps from the sample the frame was sent at, serves every
waveform, so the detector is called once and its grid serves all of
them: the paired decisions agree by construction. Estimated CSI, those
each estimate builds from its taps, is per waveform, and so are the call
and its solve. The harness demodulates a record only to estimate from
it, once for both waveforms.
``_KINDS`` maps each kind to its trial and its result rows; it names
``link_trial``, ``sync_trial`` and ``mu_trial`` at call time, so
rebinding them on this module intercepts every trial.

BLAS threads: ``run`` holds scipy's bundled OpenBLAS, the one BLAS a
trial calls (:func:`ddlink._blas._openblas`, the library the band solve
takes its LAPACK routine from), at one thread, in its own process and
in each worker, and restores the caller's count when it returns. A
trial's largest BLAS call is a band factorization of a few hundred to a
few thousand unknowns, too small to gain from a second thread, whose
helper spins and, in a pool, crowds out the other workers. numpy's
OpenBLAS is left as the caller set it: no trial calls it. ``run`` also
fixes glibc's malloc thresholds in each process
(:func:`ddlink._blas._keep_freed_heap`), so the arrays a trial frees
stay in the heap for the next trial instead of being faulted in afresh.
"""

import csv
import hashlib
import io
import math
import platform
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from . import __version__
from ._blas import _keep_freed_heap, _lapack, _openblas
from ._seeds import seed_stream
from .chanest import PilotConfig, embed_pilot, estimate_channel, overlay_mask
from .channel import (DelayDiagonals, apply_channel, delay_diagonals,
                      draw_noise, tap_ramps)
from .config import ConfigError, ExperimentSpec, _noise_var, _runs_sync, check
from .equalize import equalize_time_domain
from .frame import FrameConfig
from .mapping import (GUARD, data_bins, full_data_mask, get_constellation,
                      map_bits)
from .modem import (DelayDopplerGrid, TimeSignal, Waveform, _mod_core,
                    demodulate_direct)
from .multiuser import (Allocation, UserBins, detect_users_time_domain,
                        even_split_allocation)
from .sync import correct, estimate_sync, fine_timing
from .transforms import coupling_phases


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    waveform: str
    snr_db: float
    metric: str
    value: float
    trials: int
    seed: int


@dataclass(frozen=True)
class _Layout:
    """The grids every trial of a run transmits: per grid, its pilot (or
    None) and its data bins in vec order (read-only)."""

    pilots: tuple
    bins: tuple


@lru_cache(maxsize=8)
def _layout(frame: FrameConfig, pilot: PilotConfig, csi: str,
            alloc: Allocation | None) -> _Layout:
    """Layout of a link (``alloc`` None: one grid around ``pilot``) or
    of an uplink (one grid per user, inside its own bins, with its own
    pilot under estimated CSI). Built once per run and cached; raises
    ConfigError for a user whose bins cannot host its pilot."""
    if alloc is None:
        pilots = (pilot,)
        masks = [overlay_mask(pilot, frame)]
    else:
        pilots = tuple(_mu_user_pilot(pilot, alloc, q) if csi == "estimated"
                       else None for q in range(alloc.n_users))
        masks = [_mu_user_mask(frame, alloc, q, pc) for q, pc in enumerate(pilots)]
    bins = tuple(data_bins(mask) for mask in masks)
    for b in bins:
        b.setflags(write=False)
    return _Layout(pilots, bins)


def _draw(spec: ExperimentSpec, trial_id: int, layout: _Layout):
    """One channel, one bit array and one grid per grid of ``layout``,
    in layout order, from the trial's channel and data substreams; a
    grid carries its pilot when it has one. The grids come stacked,
    (grids, M, N)."""
    const = get_constellation(spec.constellation)
    rng_ch = seed_stream(spec.seed, trial_id, "channel")
    rng_data = seed_stream(spec.seed, trial_id, "data")
    channels, bits, grids = [], [], []
    for bins, pc in zip(layout.bins, layout.pilots):
        channels.append(spec.draw_channel(rng_ch))
        b = rng_data.integers(0, 2, bins.size * const.bits_per_symbol)
        grid = map_bits(b, const, spec.frame, bins)
        bits.append(b)
        grids.append((grid if pc is None else embed_pilot(grid, pc)).data)
    return channels, bits, np.array(grids)


def _send(spec: ExperimentSpec, trial_id: int, snr_db: float, layout: _Layout,
          waveforms):
    """The trial's draws for ``layout`` (:func:`_draw`) sent with each
    waveform of ``waveforms``: (channels, bits, ramps, impairments,
    records). Where the spec syncs, the impairments are drawn from their
    substream (a fixed setting leaves it unread) and the record is
    :meth:`~ddlink.sync.Impairments.record_len` long; elsewhere they are
    None and the record is one frame. Each
    channel's :func:`~ddlink.channel.tap_ramps` cover the record samples
    its taps reach from a frame sent at that offset, which include the
    frame with its CP that genie CSI reads: the ramps start at record
    sample 0, so it reads them from the offset on.

    The records come as a (waveforms, record length) batch from one
    modulation of every waveform and grid: SC-IFDMA grids are the OTFS
    structure applied to the grids derotated by the coupling phases,
    which is the multiply ``_mod_core`` makes for them. Each channel then
    carries its grid of every waveform in one ``apply_channel`` call
    (reading its ramps, one CFO ramp for the batch), the grids superpose,
    and the one noise draw is added to every record."""
    frame = spec.frame
    channels, bits, grids = _draw(spec, trial_id, layout)
    impair, shift, record_len = None, 0, frame.frame_len
    if _runs_sync(spec):
        impair = spec.impair.draw(seed_stream(spec.seed, trial_id, "impairment"))
        shift = impair.total_offset(frame.M)
        record_len = impair.record_len(frame)
    ramps = [tap_ramps(ch, min(record_len, shift + ch.n_spread - 1 + frame.frame_len))
             for ch in channels]
    noise = draw_noise(seed_stream(spec.seed, trial_id, "noise"),
                       _noise_var(snr_db), record_len)
    W = coupling_phases(frame.M, frame.N)
    x = _mod_core(np.array([grids if w is Waveform.OTFS else grids * np.conj(W)
                            for w in waveforms]), frame, Waveform.OTFS, spread=False)
    records = sum(apply_channel(TimeSignal(x[:, g], frame), ch, impair=impair,
                                record_len=record_len, ramps=r).samples
                  for g, (ch, r) in enumerate(zip(channels, ramps))) + noise
    return channels, bits, ramps, impair, records


def _estimate_sync(spec: ExperimentSpec, record: np.ndarray):
    return estimate_sync(record, spec.frame, spec.pilot.pilot_delay,
                         pilot_doppler=spec.pilot.pilot_doppler,
                         threshold=spec.sync.threshold)


def _estimated_channel(received: DelayDopplerGrid, pc: PilotConfig,
                       waveform: Waveform) -> DelayDiagonals | None:
    """Delay diagonals of the channel estimated from the pilot ``pc`` of
    the shared transmit record (built with the OTFS structure, so the
    SC-IFDMA receiver sees the pilot rotated by its coupling phase), as
    the estimate builds them; None when the estimate comes back empty."""
    pilot_value = complex(pc.amplitude)
    if waveform is Waveform.SC_IFDMA:
        W = coupling_phases(received.frame.M, received.frame.N)
        pilot_value = pc.amplitude * W[pc.pilot_delay, pc.pilot_doppler]
    return estimate_channel(received, pc, waveform,
                            pilot_value=pilot_value).diagonals


def _received_grids(signal: TimeSignal) -> dict:
    """Waveform -> received delay-Doppler grid of ``signal``, from one
    demodulation: the SC-IFDMA grid is the OTFS grid times the coupling
    phases, which is what :func:`demodulate_direct` computes for it, bit
    for bit."""
    otfs = demodulate_direct(signal, Waveform.OTFS)
    W = coupling_phases(signal.frame.M, signal.frame.N)
    return {Waveform.OTFS: otfs,
            Waveform.SC_IFDMA: DelayDopplerGrid(otfs.data * W, signal.frame)}


def _detection_trial(spec: ExperimentSpec, trial_id: int, snr_db: float,
                     layout: _Layout, detect) -> dict:
    """One paired detection trial: each grid of ``layout`` (with its
    pilot, if any) through its own channel into one shared noisy
    OTFS-structured record, and one receiver chain per waveform. Where
    the spec syncs, the record carries the impairments and the receivers
    read the frame sync finds (clamped into the record), CFO undone.

    CSI is a list of delay diagonals, one per channel.
    ``detect(signal, hs, noise_var)`` gives one equalized delay-Doppler
    grid in the OTFS convention the record was sent with, which serves
    the receiver of either waveform (the paper's phase absorption). Genie
    CSI reads the diagonals of the drawn channels from the tap ramps the
    transmit used, from the sample the frame was sent at; it is the same
    for every waveform, so one ``detect`` call serves them all. Estimated
    CSI takes, per waveform, those of one estimate per pilot (None for an
    empty estimate) from the waveform's received grid (both grids from
    one demodulation, :func:`_received_grids`), and makes one call per
    waveform. Hard decisions on the data bins of the grid are counted
    against the bits (returned with the decisions and whether an
    estimate came back empty)."""
    frame = spec.frame
    noise_var = _noise_var(snr_db)
    channels, bits, ramps, impair, (record,) = _send(spec, trial_id, snr_db,
                                                     layout, (Waveform.OTFS,))
    if impair is None:
        signal = TimeSignal(record, frame, cp_included=True)
    else:
        est = _estimate_sync(spec, record)
        offset = min(max(est.total_offset(frame.M), 0),
                     record.size - frame.frame_len)
        signal = correct(record, offset, est.cfo, frame)
    const = get_constellation(spec.constellation)

    def detected(hs):
        d_hat = detect(signal, hs, noise_var).vec
        errors, decisions = 0, []
        for bins, b in zip(layout.bins, bits):
            idx = const.nearest_indices(d_hat[bins])
            errors += int(np.count_nonzero(const.indices_to_bits(idx) != b))
            decisions.append(idx)
        return {"bit_errors": errors,
                "bits": sum(b.size for b in bits),
                "decisions": np.concatenate(decisions),
                "estimate_empty": any(h is None for h in hs)}

    if spec.csi == "genie":
        # the frame starts at the offset, record sample 0 of the ramps
        shift = 0 if impair is None else impair.total_offset(frame.M)
        out = detected([delay_diagonals(ch, r[:, shift:])
                        for ch, r in zip(channels, ramps)])
        return {w.value: dict(out) for w in spec.waveforms}
    grids = _received_grids(signal)
    return {w.value: detected([_estimated_channel(grids[w], pc, w)
                               for pc in layout.pilots])
            for w in spec.waveforms}


def link_trial(spec: ExperimentSpec, trial_id: int, snr_db: float) -> dict:
    """One paired link trial (:func:`_detection_trial`) around the
    configured pilot: MMSE equalization on the one channel
    (:func:`~ddlink.equalize.equalize_time_domain`)."""
    return _detection_trial(
        spec, trial_id, snr_db, _layout(spec.frame, spec.pilot, spec.csi, None),
        lambda signal, hs, noise_var: equalize_time_domain(signal, hs[0],
                                                           noise_var))


def sync_trial(spec: ExperimentSpec, trial_id: int, snr_db: float) -> dict:
    """One synchronization trial: one transmission per waveform with
    shared channel/noise/data/impairment realizations, all sent in one
    batch (:func:`_send`), and one sync estimate per waveform.
    Returns per-waveform offset errors (samples) and the CFO estimate
    error, plus per-threshold fine errors for sweeps."""
    frame = spec.frame
    *_, impair, records = _send(spec, trial_id, snr_db,
                                _layout(frame, spec.pilot, spec.csi, None),
                                spec.waveforms)
    true_offset = impair.total_offset(frame.M)

    out = {}
    for w, record in zip(spec.waveforms, records):
        est = _estimate_sync(spec, record)
        coarse_total = est.coarse_delay + frame.M * est.block_offset
        res = {
            "coarse_err": abs(coarse_total - true_offset),
            "fine_err": abs(est.total_offset(frame.M) - true_offset),
            "cfo_sq_err": (est.cfo - impair.cfo) ** 2,
        }
        if spec.kind == "threshold_sweep":
            for ts in spec.sweep_thresholds:
                fine = fine_timing(est.metric, ts, spec.pilot.pilot_delay,
                                   frame.cp_len) + frame.M * est.block_offset
                res[f"fine_err@{ts:g}"] = abs(fine - true_offset)
        out[w.value] = res
    return out


def prepare(spec: ExperimentSpec) -> Allocation | None:
    """Pre-flight of a run, before its first trial: the uplink allocation
    (None for other kinds), built from the bins of ``mu.allocation`` or
    as an even split of ``mu.q`` users, the run's :func:`_layout`, which
    its trials then share, and the spec's rules
    (:func:`ddlink.config.check`). Raises ConfigError for an invalid
    allocation (an empty bin set, bins outside the grid, users sharing
    bins), a ``mu.q`` that disagrees with the users ``mu.allocation``
    lists, an estimated-CSI user whose bins cannot host its pilot, or a
    spec that breaks a rule."""
    frame, alloc = spec.frame, None
    if spec.kind == "mu_uplink":
        if spec.mu_allocation is None:
            alloc = even_split_allocation(frame.M, frame.N, spec.mu_users)
        else:
            try:
                alloc = Allocation(tuple(UserBins(*u) for u in spec.mu_allocation),
                                   frame.M, frame.N)
            except ValueError as exc:
                raise ConfigError(f"mu.allocation: {exc}") from None
        if alloc.n_users != spec.mu_users:
            raise ConfigError(f"mu.q = {spec.mu_users} but mu.allocation lists "
                              f"{alloc.n_users} users")
    _layout(frame, spec.pilot, spec.csi, alloc)
    check(spec)
    return alloc


def _mu_user_pilot(pilot: PilotConfig, alloc: Allocation, q: int) -> PilotConfig:
    """Per-user pilot for estimated multiuser CSI: the guard rectangle of
    ``pilot``, centered on the user's own bins; it must fit inside them."""
    u = alloc.users[q]
    pc = pilot
    m_c = u.delay_bins[len(u.delay_bins) // 2]
    n_c = u.doppler_bins[len(u.doppler_bins) // 2]
    rect_d = set(range(m_c - pc.guard_delay, m_c + pc.guard_delay + 1))
    rect_v = set(range(n_c - pc.guard_doppler, n_c + pc.guard_doppler + 1))
    if not (rect_d <= set(u.delay_bins) and rect_v <= set(u.doppler_bins)):
        raise ConfigError(
            f"user {q} allocation cannot host the pilot guard rectangle "
            f"({2 * pc.guard_delay + 1}x{2 * pc.guard_doppler + 1}); shrink "
            f"pilot.guards or use detector.csi = genie")
    return PilotConfig(m_c, n_c, pc.power, pc.guard_delay, pc.guard_doppler,
                       pc.detection_threshold)


def _mu_user_mask(frame: FrameConfig, alloc: Allocation, q: int,
                  pc: PilotConfig | None) -> np.ndarray:
    """Full-frame overlay of user q: its pilot and guards when ``pc`` is
    given, data on the rest of its bins, guard outside them."""
    base = full_data_mask(frame) if pc is None else overlay_mask(pc, frame)
    bins = np.ix_(alloc.users[q].delay_bins, alloc.users[q].doppler_bins)
    mask = np.full_like(base, GUARD)
    mask[bins] = base[bins]
    return mask


def mu_trial(spec: ExperimentSpec, trial_id: int, snr_db: float,
             alloc: Allocation) -> dict:
    """One multiuser uplink trial (:func:`_detection_trial`): one grid
    per user inside its own bins (the run's :func:`_layout`), joint MMSE
    detection in the time domain. Per-user CSI is either known (genie:
    one detector call and one band solve for both waveforms) or
    estimated from a pilot inside each user's own bins (one call and one
    solve per waveform); a user whose estimate comes back empty
    contributes zero columns (regularized detection then drives its
    symbols toward zero)."""
    return _detection_trial(
        spec, trial_id, snr_db, _layout(spec.frame, spec.pilot, spec.csi, alloc),
        lambda signal, hs, noise_var: detect_users_time_domain(
            signal, hs, alloc, noise_var))


def _ber_metrics(spec: ExperimentSpec, per_trial: list) -> list:
    errors = sum(t["bit_errors"] for t in per_trial)
    bits = sum(t["bits"] for t in per_trial)
    return [("BER", errors / bits)]


def _mean(per_trial: list, key: str) -> float:
    return float(np.mean([t[key] for t in per_trial]))


def _sync_metrics(spec: ExperimentSpec, per_trial: list) -> list:
    return [("TO_mean_error", _mean(per_trial, "coarse_err")),
            ("TO_fine_mean_error", _mean(per_trial, "fine_err")),
            ("CFO_MSE", _mean(per_trial, "cfo_sq_err"))]


def _sweep_metrics(spec: ExperimentSpec, per_trial: list) -> list:
    return _sync_metrics(spec, per_trial) + [
        (f"TO_fine_mean_error@Ts={ts:g}", _mean(per_trial, f"fine_err@{ts:g}"))
        for ts in spec.sweep_thresholds]


# kind -> (trial, per-waveform (metric, value) rows); the lambdas look the
# trial functions up at call time (see the module docstring).
_KINDS = {
    "ber_vs_snr": (lambda spec, t, snr, alloc: link_trial(spec, t, snr),
                   _ber_metrics),
    "sync_vs_snr": (lambda spec, t, snr, alloc: sync_trial(spec, t, snr),
                    _sync_metrics),
    "threshold_sweep": (lambda spec, t, snr, alloc: sync_trial(spec, t, snr),
                        _sweep_metrics),
    "mu_uplink": (lambda spec, t, snr, alloc: mu_trial(spec, t, snr, alloc),
                  _ber_metrics),
}


def _summary(spec: ExperimentSpec, snr_db: float, alloc: Allocation | None,
             trial_id: int) -> dict:
    """One trial, reduced to new per-waveform dicts of its scalars (what
    ``_aggregate`` reads); the dict the trial returned keeps its decisions."""
    trial, _ = _KINDS[spec.kind]
    out = trial(spec, trial_id, snr_db, alloc)
    return {w: {k: v for k, v in r.items() if k != "decisions"}
            for w, r in out.items()}


def _init_worker() -> None:
    """Initializer of ``run``'s worker processes."""
    _keep_freed_heap()
    blas = _openblas()
    if blas is not None:
        blas.set(1)


@contextmanager
def _one_blas_thread():
    """Hold scipy's OpenBLAS at one thread and restore the caller's count
    on exit. Yields its run-report line: the library's file name, its
    config string and its thread count before and during the run, or
    ``not found``."""
    blas = _openblas()
    if blas is None:
        yield "openblas_scipy = not found"
        return
    before = blas.get()
    try:
        blas.set(1)
        yield (f"openblas_scipy = {blas.name} ({blas.config}); threads "
               f"{before} before the run, {blas.get()} during it")
    finally:
        blas.set(before)


def run(spec: ExperimentSpec, out_dir=None, parallelism: int = 1):
    """Execute the experiment; returns the result rows and, when ``out_dir``
    is given, writes results.csv and metadata.txt there.

    Every cell maps its trial ids through ``_summary``: in this process,
    or over ``parallelism`` worker processes in one chunk per worker.
    Throughout, scipy's OpenBLAS runs one thread per process; the caller's
    count comes back on return.
    """
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    t0 = time.monotonic()
    _keep_freed_heap()
    with _one_blas_thread() as blas_report:
        alloc = prepare(spec)
        rows = []
        pool = nullcontext()
        if parallelism > 1:
            # imported here: a serial run never needs the process pool
            from concurrent.futures import ProcessPoolExecutor
            pool = ProcessPoolExecutor(max_workers=parallelism,
                                       initializer=_init_worker)
        with pool:
            trial_map = (map if parallelism == 1 else
                         partial(pool.map, chunksize=math.ceil(spec.trials / parallelism)))
            for si, snr in enumerate(spec.snr_db):
                ids = range(si * spec.trials, (si + 1) * spec.trials)
                trials = list(trial_map(partial(_summary, spec, snr, alloc), ids))
                rows.extend(_aggregate(spec, snr, trials))
    elapsed = time.monotonic() - t0
    if out_dir is not None:
        import scipy   # only its version is read

        environment = [f"python = {platform.python_version()}",
                       f"numpy = {np.__version__}",
                       f"scipy = {scipy.__version__}",
                       f"parallelism = {parallelism}",
                       blas_report,
                       f"band_solve_lapack = {_lapack().source}"]
        write_outputs(spec, rows, Path(out_dir), elapsed, environment)
    return rows


def _aggregate(spec: ExperimentSpec, snr: float, trials: list) -> list:
    _, metrics = _KINDS[spec.kind]
    return [ResultRow(spec.kind, w.value, snr, metric, value, spec.trials,
                      spec.seed)
            for w in spec.waveforms
            for metric, value in metrics(spec, [t[w.value] for t in trials])]


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["experiment", "waveform", "snr_db", "metric",
                     "value", "trials", "seed"])
    for r in rows:
        writer.writerow([r.experiment, r.waveform, f"{r.snr_db:g}", r.metric,
                         f"{r.value:.12g}", r.trials, r.seed])
    return buf.getvalue()


def _config_hash(text: str) -> str:
    blob = f"blob {len(text.encode())}\0".encode() + text.encode()
    return hashlib.sha1(blob).hexdigest()


def write_outputs(spec: ExperimentSpec, rows, out_dir: Path, elapsed: float,
                  environment=()):
    """results.csv, and metadata.txt with the run's facts, the lines of
    ``environment`` (``run`` passes the Python, numpy and scipy versions,
    its parallelism, its OpenBLAS line and the LAPACK of the band solves)
    and the config echo."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "results.csv").write_text(rows_to_csv(rows), encoding="utf-8")
    echo = spec.config_echo or "(spec built programmatically)\n"
    meta = [
        f"ddlink_version = {__version__}",
        f"experiment = {spec.kind}",
        f"config_hash = {_config_hash(echo)}",
        "snr_definition = average received signal power over noise variance; "
        "unit-power data symbols through a unit-energy channel, so "
        "noise_var = 10**(-snr_db/10)",
        f"wall_clock_s = {elapsed:.3f}",
        f"rows = {len(rows)}",
        *environment,
        "",
        "[config]",
        echo.rstrip("\n"),
        "",
    ]
    (out_dir / "metadata.txt").write_text("\n".join(meta), encoding="utf-8")
