"""Monte-Carlo experiment runner.

Experiments sweep SNR cells; within a cell every trial draws its channel,
noise, data, and impairments from collision-free substreams of one master
seed, so results are bit-identical for a fixed spec + seed regardless of
execution order or worker count.

SNR convention (printed in the run metadata): data symbols have unit
average power and channel profiles unit energy, so a cell at S dB uses
noise variance 10**(-S/10).

Waveform pairing: detection experiments (ber_vs_snr, mu_uplink) transmit
one physical record per trial and hand it to both receivers; the OTFS
signal of a grid is identical to the SC-IFDMA signal of the same grid
pre-rotated by the known coupling phases, so each receiver simply
accounts for those phases in its own bookkeeping. This makes the
per-trial hard decisions of the two waveforms comparable one-to-one.
Synchronization experiments transmit per-waveform signals with shared
channel/noise/impairment draws instead, since the timing metric needs no
cross-waveform coupling.

Trial skeleton: ``_draw`` draws one channel, bit array and grid per data
mask (one mask for a link, one per uplink user), ``_transmit`` superposes
the grids through their channels, and ``_detection_trial`` runs a link or
uplink trial on one noisy record: impairments and sync only where
``_runs_sync`` says the spec syncs, then per waveform CSI, the trial's
detector, SC-IFDMA derotation and demapping per mask. It demodulates its
record at most once: estimated CSI reads both waveforms' received grids
from one demodulation, and genie CSI reads none, since the detectors
work on the time-domain record. ``_KINDS`` maps each kind to its trial
and its result rows; it names ``link_trial``, ``sync_trial`` and
``mu_trial`` at call time, so rebinding them on this module intercepts
every trial. ``prepare`` builds and checks what the trials of a spec
share (the uplink allocation) once, before the first trial.

BLAS threads: ``run`` holds every OpenBLAS that numpy and scipy load at
one thread, in its own process and in each worker, and restores the
caller's counts when it returns. It finds them through
:func:`ddlink._blas._openblas`, the finder that also gives the band
solve its LAPACK routines. A trial's largest BLAS call is a band
factorization of a few hundred to a few thousand unknowns, too small to
gain from a second thread, whose helper spins and, in a pool, crowds out
the other workers. ``run`` also fixes glibc's malloc thresholds in each
process (:func:`ddlink._blas._keep_freed_heap`), so the arrays a trial
frees stay in the heap for the next trial instead of being faulted in
afresh.
"""

import csv
import hashlib
import io
import math
import platform
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from ._blas import _keep_freed_heap, _lapack, _openblas
from .chanest import (PilotConfig, embed_pilot, estimate_channel,
                      estimated_diagonals, overlay_mask)
from .channel import (DelayDiagonals, LtvChannel, apply_channel,
                      delay_diagonals, draw_noise, make_channel,
                      taps_from_profile)
from .config import ConfigError, ExperimentSpec, ImpairSettings
from .equalize import equalize_time_domain
from .mapping import (GUARD, data_bin_count, data_bins, full_data_mask,
                      get_constellation, map_bits)
from .modem import (DelayDopplerGrid, TimeSignal, Waveform, demodulate_direct,
                    modulate_direct)
from .multiuser import (Allocation, detect_users_time_domain,
                        even_split_allocation, load_allocation)
from .sync import BLOCK_STARTS, correct, estimate_sync, fine_timing
from .transforms import coupling_phases

_COMPONENTS = {"channel": 0, "noise": 1, "data": 2, "impairment": 3}


def seed_stream(master_seed: int, trial: int, component: str) -> np.random.Generator:
    """Deterministic, collision-free RNG substream for one trial component.

    Built on numpy's SeedSequence spawn keys, so distinct (trial, component)
    pairs never collide and trial indices beyond 2**32 stay well-defined.
    """
    if component not in _COMPONENTS:
        raise ValueError(f"unknown component {component!r}; one of "
                         f"{sorted(_COMPONENTS)}")
    ss = np.random.SeedSequence(master_seed,
                                spawn_key=(trial, _COMPONENTS[component]))
    return np.random.default_rng(ss)


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    waveform: str
    snr_db: float
    metric: str
    value: float
    trials: int
    seed: int


def _draw_channel(spec: ExperimentSpec, rng: np.random.Generator) -> LtvChannel:
    if spec.channel_profile == "custom":
        delays = [t[0] for t in spec.custom_taps]
        powers = [t[1] for t in spec.custom_taps]
        dopplers = [t[2] for t in spec.custom_taps]
        return taps_from_profile(delays, powers, spec.frame, spec.velocity_kmh,
                                 rng, dopplers_hz=dopplers)
    return make_channel(spec.channel_profile, spec.frame, spec.velocity_kmh, rng)


def _noise_var(snr_db: float) -> float:
    return 10.0 ** (-snr_db / 10.0)


def _draw(spec: ExperimentSpec, trial_id: int, masks, pilots):
    """One channel, one bit array and one grid per data mask, in mask
    order, from the trial's channel and data substreams; a grid carries
    its pilot when one is given."""
    const = get_constellation(spec.constellation)
    rng_ch = seed_stream(spec.seed, trial_id, "channel")
    rng_data = seed_stream(spec.seed, trial_id, "data")
    channels, bits, grids = [], [], []
    for mask, pc in zip(masks, pilots):
        channels.append(_draw_channel(spec, rng_ch))
        b = rng_data.integers(0, 2, data_bin_count(mask) * const.bits_per_symbol)
        grid = map_bits(b, const, spec.frame, mask)
        bits.append(b)
        grids.append(grid if pc is None else embed_pilot(grid, pc))
    return channels, bits, grids


def _transmit(grids, channels, waveform: Waveform, impair=None,
              record_len=None) -> np.ndarray:
    """Noiseless received record: the grids, each through its own channel,
    superposed."""
    return sum(apply_channel(modulate_direct(g, waveform), ch, impair=impair,
                             record_len=record_len).samples
               for g, ch in zip(grids, channels))


def _estimate_sync(spec: ExperimentSpec, record: np.ndarray):
    return estimate_sync(record, spec.frame, spec.pilot.pilot_delay,
                         pilot_doppler=spec.pilot.pilot_doppler,
                         threshold=spec.sync.threshold)


def _estimated_channel(received: DelayDopplerGrid, pc: PilotConfig,
                       waveform: Waveform) -> DelayDiagonals | None:
    """Delay diagonals of the channel estimated from the pilot ``pc`` of
    the shared transmit record (built with the OTFS structure, so the
    SC-IFDMA receiver sees the pilot rotated by its coupling phase); None
    when the estimate comes back empty."""
    frame = received.frame
    pilot_value = complex(pc.amplitude)
    if waveform is Waveform.SC_IFDMA:
        W = coupling_phases(frame.M, frame.N)
        pilot_value = pc.amplitude * W[pc.pilot_delay, pc.pilot_doppler]
    est = estimate_channel(received, pc, waveform, pilot_value=pilot_value)
    return None if est.is_empty else estimated_diagonals(est, pc, frame)


def _received_grids(signal: TimeSignal) -> dict:
    """Waveform -> received delay-Doppler grid of ``signal``, from one
    demodulation: the SC-IFDMA grid is the OTFS grid times the coupling
    phases, which is what :func:`demodulate_direct` computes for it, bit
    for bit."""
    otfs = demodulate_direct(signal, Waveform.OTFS)
    W = coupling_phases(signal.frame.M, signal.frame.N)
    return {Waveform.OTFS: otfs,
            Waveform.SC_IFDMA: DelayDopplerGrid(otfs.data * W, signal.frame)}


def _runs_sync(spec: ExperimentSpec) -> bool:
    """Whether the trials of ``spec`` sync (an uplink's never do)."""
    return spec.kind in ("sync_vs_snr", "threshold_sweep") or (
        spec.kind == "ber_vs_snr" and spec.sync.enabled)


def _impairments(spec: ExperimentSpec, trial_id: int):
    """The trial's impairment draw and record length (its offset plus two
    grids and a CP) where the spec syncs, else (None, one frame): only
    sync undoes impairments. Fixed settings never read a generator, so
    the impairment substream is made only when a setting is uniform."""
    frame, impair = spec.frame, spec.impair
    if not _runs_sync(spec):
        return None, frame.frame_len
    drawn = impair.draw(seed_stream(spec.seed, trial_id, "impairment")
                        if impair._random else None)
    return drawn, drawn.total_offset(frame.M) + 2 * frame.grid_size + frame.cp_len


def _detection_trial(spec: ExperimentSpec, trial_id: int, snr_db: float,
                     masks, pilots, detect) -> dict:
    """One paired detection trial: the grid of each data mask (with its
    pilot, if any) through its own channel into one shared noisy
    OTFS-structured record, and one receiver chain per waveform. Where
    the spec syncs, the record carries the impairments and the receivers
    read the frame sync finds (clamped into the record), CFO undone.

    CSI is a list of delay diagonals, one per channel: with genie CSI
    those of the drawn channels, computed once for both waveforms; with
    estimated CSI, per waveform, those of one estimate per pilot (None
    for an empty estimate), taken from the waveform's received grid. The
    frame is demodulated once for both waveforms (:func:`_received_grids`),
    and only for estimated CSI, so a genie ``detect`` gets None for
    ``received``. Per waveform, ``detect(signal, received, hs, waveform,
    noise_var)`` gives the equalized delay-Doppler vec, SC-IFDMA is
    derotated by the coupling phases, and hard decisions on the data bins
    of each mask, sliced straight from that vec, are counted against that
    mask's bits (returned with the decisions and whether an estimate came
    back empty)."""
    frame = spec.frame
    noise_var = _noise_var(snr_db)
    channels, bits, sent = _draw(spec, trial_id, masks, pilots)
    impair, record_len = _impairments(spec, trial_id)
    noise = draw_noise(seed_stream(spec.seed, trial_id, "noise"), noise_var,
                       record_len)
    record = _transmit(sent, channels, Waveform.OTFS, impair, record_len) + noise
    if impair is None:
        signal = TimeSignal(record, frame, cp_included=True)
    else:
        est = _estimate_sync(spec, record)
        offset = min(max(est.total_offset(frame.M), 0),
                     record_len - frame.frame_len)
        signal = correct(record, offset, est.cfo, frame)
    const = get_constellation(spec.constellation)
    W = coupling_phases(frame.M, frame.N)
    bins_of = [data_bins(mask) for mask in masks]
    genie = ([delay_diagonals(ch) for ch in channels] if spec.csi == "genie"
             else None)
    grids = (dict.fromkeys(spec.waveforms) if genie is not None
             else _received_grids(signal))
    out = {}
    for w in spec.waveforms:
        received = grids[w]
        hs = (genie if genie is not None else
              [_estimated_channel(received, pc, w) for pc in pilots])
        d_hat = detect(signal, received, hs, w, noise_var)
        if w is Waveform.SC_IFDMA:
            d_hat = d_hat * np.conj(W).flatten(order="F")
        errors, decisions = 0, []
        for bins, b in zip(bins_of, bits):
            idx = const.nearest_indices(d_hat[bins])
            errors += int(np.count_nonzero(const.indices_to_bits(idx) != b))
            decisions.append(idx)
        out[w.value] = {
            "bit_errors": errors,
            "bits": sum(b.size for b in bits),
            "decisions": np.concatenate(decisions),
            "estimate_empty": any(h is None for h in hs),
        }
    return out


def link_trial(spec: ExperimentSpec, trial_id: int, snr_db: float) -> dict:
    """One paired link trial (:func:`_detection_trial`) around the
    configured pilot: MMSE equalization on the one channel, or the
    received grid as it is when the estimate comes back empty."""

    def detect(signal, received, hs, waveform, noise_var):
        return (received.vec if hs[0] is None else
                equalize_time_domain(signal, hs[0], waveform, noise_var).vec)

    return _detection_trial(spec, trial_id, snr_db,
                            [overlay_mask(spec.pilot, spec.frame)],
                            [spec.pilot], detect)


def sync_trial(spec: ExperimentSpec, trial_id: int, snr_db: float) -> dict:
    """One synchronization trial: per-waveform transmissions with shared
    channel/noise/data/impairment realizations. Returns per-waveform offset
    errors (samples) and the CFO estimate error, plus per-threshold fine
    errors for sweeps."""
    frame = spec.frame
    mask = overlay_mask(spec.pilot, frame)
    channels, _, grids = _draw(spec, trial_id, [mask], [spec.pilot])
    impair, record_len = _impairments(spec, trial_id)
    true_offset = impair.total_offset(frame.M)
    eta = draw_noise(seed_stream(spec.seed, trial_id, "noise"),
                     _noise_var(snr_db), record_len)

    out = {}
    for w in spec.waveforms:
        record = _transmit(grids, channels, w, impair, record_len) + eta
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
    """Pre-flight of a run: the uplink allocation (None for other kinds),
    checked before the first trial. Raises ConfigError for sync on a
    one-column grid (no adjacent-sample pair in any metric row), sync
    whose pilot run can start past the window starts the block search
    compares (``sync.BLOCK_STARTS``), estimated CSI without a guard row
    ahead of the pilot (the noise level comes from it), an unreadable or
    invalid allocation, a ``mu.q`` that disagrees with the allocation
    file, an estimated-CSI user whose bins cannot host its pilot, sync on
    the uplink, whose trial has none, or impairments where no sync runs
    to undo them (an uplink, or a link without ``sync.enabled``)."""
    frame = spec.frame
    if _runs_sync(spec):
        if frame.N == 1:
            raise ConfigError("frame.N = 1 leaves the sync timing metric no "
                              "adjacent-sample pair; sync needs frame.N >= 2")
        # the largest theta_d: a fixed value, or the top of its range
        terms = (frame.cp_len, spec.pilot.pilot_delay,
                 int(spec.impair.theta_d[-1]), _largest_tap_delay(spec))
        block = sum(terms) // frame.M + spec.impair.theta_t
        if block >= BLOCK_STARTS:
            raise ConfigError(
                f"impair.theta_d, impair.theta_t: the pilot run starts in "
                f"block (frame.L_cp + pilot.m_p + theta_d + largest tap "
                f"delay) // frame.M + theta_t = ({' + '.join(map(str, terms))})"
                f" // {frame.M} + {spec.impair.theta_t} = {block}; sync finds "
                f"it only in blocks 0 to {BLOCK_STARTS - 1}")
    if (spec.kind in ("ber_vs_snr", "mu_uplink") and spec.csi == "estimated"
            and spec.pilot.guard_delay == 0):
        raise ConfigError("pilot.guards: detector.csi = estimated needs a "
                          "delay guard >= 1, the guard rows ahead of the "
                          "pilot that give the noise level")
    impaired = [] if _runs_sync(spec) else [
        f"impair.{name}" for name in ("theta_d", "theta_t", "epsilon")
        if getattr(spec.impair, name) != getattr(ImpairSettings(), name)]
    if spec.kind != "mu_uplink":
        if impaired:
            raise ConfigError(f"{', '.join(impaired)}: only sync undoes "
                              f"impairments, and ber_vs_snr syncs only with "
                              f"sync.enabled = true")
        return None
    try:
        if spec.mu_allocation_path:
            alloc = load_allocation(spec.mu_allocation_path, frame.M, frame.N,
                                    relax=spec.mu_relax_disjointness)
        else:
            alloc = even_split_allocation(frame.M, frame.N, spec.mu_users)
    except OSError as exc:
        raise ConfigError(f"cannot read mu.allocation: {exc}") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if alloc.n_users != spec.mu_users:
        raise ConfigError(f"mu.q = {spec.mu_users} but mu.allocation lists "
                          f"{alloc.n_users} users")
    if spec.csi == "estimated":
        for q in range(alloc.n_users):
            _mu_user_pilot(spec, alloc, q)
    unused = ["sync.enabled"] * spec.sync.enabled + impaired
    if unused:
        raise ConfigError(f"{', '.join(unused)}: mu_uplink runs without sync "
                          f"and impairments; leave these keys at their "
                          f"defaults")
    return alloc


def _largest_tap_delay(spec: ExperimentSpec) -> int:
    """Largest tap delay of the spec's channel, in samples. The tap delays
    of every profile follow from the spec alone (only gains and Doppler
    are drawn), so one draw gives the largest delay of every trial."""
    return _draw_channel(spec, np.random.default_rng(0)).n_spread - 1


def spread_warnings(spec: ExperimentSpec) -> list:
    """``warning:`` lines for a delay spread beyond the CP or the pilot
    delay guard."""
    longest = _largest_tap_delay(spec)
    out = []
    if longest > spec.frame.cp_len:
        out.append(f"warning: largest tap delay {longest} exceeds frame.L_cp "
                   f"= {spec.frame.cp_len}; expect inter-block interference")
    if ((spec.csi == "estimated" or _runs_sync(spec))
            and longest > spec.pilot.guard_delay):
        out.append(f"warning: largest tap delay {longest} exceeds the pilot "
                   f"delay guard {spec.pilot.guard_delay}; channel estimation "
                   f"and sync do not see the later taps")
    return out


def _mu_user_pilot(spec: ExperimentSpec, alloc: Allocation, q: int) -> PilotConfig:
    """Per-user pilot for estimated multiuser CSI: the configured guard
    rectangle, centered on the user's own bins; it must fit inside them."""
    u = alloc.users[q]
    pc = spec.pilot
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


def _mu_user_mask(spec: ExperimentSpec, alloc: Allocation, q: int,
                  pc: PilotConfig | None) -> np.ndarray:
    """Full-frame overlay of user q: its pilot and guards when ``pc`` is
    given, data on the rest of its bins, guard outside them."""
    base = full_data_mask(spec.frame) if pc is None else overlay_mask(pc, spec.frame)
    bins = np.ix_(alloc.users[q].delay_bins, alloc.users[q].doppler_bins)
    mask = np.full_like(base, GUARD)
    mask[bins] = base[bins]
    return mask


def mu_trial(spec: ExperimentSpec, trial_id: int, snr_db: float,
             alloc: Allocation) -> dict:
    """One multiuser uplink trial (:func:`_detection_trial`): one data
    mask per user inside its own bins, joint MMSE detection in the time
    domain. Per-user CSI is either known (genie) or estimated from a
    pilot inside each user's own bins; a user whose estimate comes back
    empty contributes zero columns (regularized detection then drives its
    symbols toward zero)."""
    pilots = [_mu_user_pilot(spec, alloc, q) if spec.csi == "estimated" else None
              for q in range(alloc.n_users)]
    masks = [_mu_user_mask(spec, alloc, q, pc) for q, pc in enumerate(pilots)]

    def detect(signal, received, hs, waveform, noise_var):
        return detect_users_time_domain(signal, hs, alloc, waveform,
                                        noise_var).vec

    return _detection_trial(spec, trial_id, snr_db, masks, pilots, detect)


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


def _set_blas_threads(count: int) -> None:
    """Set every OpenBLAS found to ``count`` threads."""
    for lib in _openblas().values():
        if lib is not None:
            lib.set(count)


def _init_worker() -> None:
    """Initializer of ``run``'s worker processes."""
    _keep_freed_heap()
    _set_blas_threads(1)


@contextmanager
def _one_blas_thread():
    """Hold every OpenBLAS found at one thread and restore the caller's
    counts on exit. Yields one run-report line per package: the library's
    file name, its config string and its thread count before and during
    the run, or ``not found``."""
    libs = _openblas()
    before = {package: lib.get() for package, lib in libs.items() if lib is not None}
    try:
        _set_blas_threads(1)
        yield [f"openblas_{package} = not found" if lib is None else
               f"openblas_{package} = {lib.name} ({lib.config}); threads "
               f"{before[package]} before the run, {lib.get()} during it"
               for package, lib in libs.items()]
    finally:
        for package, count in before.items():
            libs[package].set(count)


def run(spec: ExperimentSpec, out_dir=None, parallelism: int = 1):
    """Execute the experiment; returns the result rows and, when ``out_dir``
    is given, writes results.csv and metadata.txt there.

    Every cell maps its trial ids through ``_summary``: in this process,
    or over ``parallelism`` worker processes in one chunk per worker.
    Throughout, every OpenBLAS runs one thread per process; the caller's
    counts come back on return.
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
                       *blas_report,
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
    its parallelism, the OpenBLAS lines and the LAPACK of the band solves)
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
