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
the grids through their channels, and detection trials hand the noisy
record to ``_receive`` (CSI, the trial's solve, SC-IFDMA derotation,
demapping per mask). ``_KINDS`` maps each kind to its trial and its result
rows; it names ``link_trial``, ``sync_trial`` and ``mu_trial`` at call
time, so rebinding them on this module intercepts every trial.
``prepare`` builds and checks what the trials of a spec share (the
uplink allocation) once, before the first trial.
"""

import csv
import hashlib
import io
import math
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .chanest import (PilotConfig, embed_pilot, estimate_channel, overlay_mask,
                      to_ltv_channel)
from .channel import (LtvChannel, apply_channel, draw_noise, make_channel,
                      taps_from_profile)
from .config import ConfigError, ExperimentSpec
from .equalize import equalize_time_domain
from .mapping import (GUARD, data_bin_count, demap_bits, full_data_mask,
                      get_constellation, map_bits)
from .modem import (DelayDopplerGrid, TimeSignal, Waveform, demodulate_direct,
                    modulate_direct)
from .multiuser import (Allocation, detect_users_time_domain,
                        even_split_allocation, load_allocation)
from .sync import correct, estimate_sync, fine_timing
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
    sync = spec.sync
    return estimate_sync(record, spec.frame, spec.pilot.pilot_delay,
                         pilot_doppler=spec.pilot.pilot_doppler,
                         threshold=sync.threshold, n_rows=sync.search_rows,
                         max_blocks=sync.max_blocks)


def _estimated_channel(received: DelayDopplerGrid, pc: PilotConfig,
                       waveform: Waveform) -> LtvChannel | None:
    """Channel estimated from the pilot ``pc`` of the shared transmit record
    (built with the OTFS structure, so the SC-IFDMA receiver sees the pilot
    rotated by its coupling phase); None when the estimate comes back empty."""
    frame = received.frame
    pilot_value = complex(pc.amplitude)
    if waveform is Waveform.SC_IFDMA:
        W = coupling_phases(frame.M, frame.N)
        pilot_value = pc.amplitude * W[pc.pilot_delay, pc.pilot_doppler]
    est = estimate_channel(received, pc, waveform, pilot_value=pilot_value)
    return None if est.is_empty else to_ltv_channel(est, frame)


def _receive(spec: ExperimentSpec, signal: TimeSignal, channels, pilots,
             masks, bits, solve) -> dict:
    """Both receiver chains of one shared OTFS-structured record.

    Per waveform: CSI (the drawn ``channels``, or one estimate per pilot),
    ``solve(received, hs, waveform)`` for the equalized delay-Doppler vec,
    derotation by the coupling phases for SC-IFDMA, then hard decisions
    on the data bins of each mask against that mask's bits.
    """
    const = get_constellation(spec.constellation)
    W = coupling_phases(spec.frame.M, spec.frame.N)
    out = {}
    for w in spec.waveforms:
        received = demodulate_direct(signal, w)
        hs = (channels if spec.csi == "genie" else
              [_estimated_channel(received, pc, w) for pc in pilots])
        d_hat = solve(received, hs, w)
        if w is Waveform.SC_IFDMA:
            d_hat = d_hat * np.conj(W).flatten(order="F")
        hat_grid = DelayDopplerGrid.from_vec(d_hat, spec.frame)
        errors, decisions = 0, []
        for mask, b in zip(masks, bits):
            bits_hat, idx = demap_bits(hat_grid, const, mask)
            errors += int(np.count_nonzero(bits_hat != b))
            decisions.append(idx)
        out[w.value] = {
            "bit_errors": errors,
            "bits": sum(b.size for b in bits),
            "decisions": np.concatenate(decisions),
            "estimate_empty": any(h is None for h in hs),
        }
    return out


def link_trial(spec: ExperimentSpec, trial_id: int, snr_db: float) -> dict:
    """One paired detection trial: a shared physical record, one receiver
    chain per waveform. Returns per-waveform bit errors, bit counts, and
    symbol decisions."""
    frame = spec.frame
    mask = overlay_mask(spec.pilot, frame)
    noise_var = _noise_var(snr_db)
    (ch,), bits, grids = _draw(spec, trial_id, [mask], [spec.pilot])
    impair = spec.impair.draw(seed_stream(spec.seed, trial_id, "impairment"))

    shift = impair.total_offset(frame.M)
    if spec.sync.enabled:
        record_len = shift + 2 * frame.grid_size + frame.cp_len
    else:
        record_len = shift + frame.frame_len + (ch.n_spread if shift else 0)
    rng_noise = seed_stream(spec.seed, trial_id, "noise")
    record = (_transmit(grids, [ch], Waveform.OTFS, impair, record_len)
              + draw_noise(rng_noise, noise_var, record_len))

    if spec.sync.enabled:
        est = _estimate_sync(spec, record)
        offset = min(max(est.total_offset(frame.M), 0),
                     record_len - frame.frame_len)
        corrected = correct(record, offset, est.cfo, frame)
    else:
        corrected = TimeSignal(record[:frame.frame_len], frame, cp_included=True)

    def solve(received, hs, w):
        if hs[0] is None:
            return received.vec
        return equalize_time_domain(corrected, hs[0], w, noise_var).vec

    return _receive(spec, corrected, [ch], [spec.pilot], [mask], bits, solve)


def sync_trial(spec: ExperimentSpec, trial_id: int, snr_db: float) -> dict:
    """One synchronization trial: per-waveform transmissions with shared
    channel/noise/data/impairment realizations. Returns per-waveform offset
    errors (samples) and the CFO estimate error, plus per-threshold fine
    errors for sweeps."""
    frame = spec.frame
    mask = overlay_mask(spec.pilot, frame)
    channels, _, grids = _draw(spec, trial_id, [mask], [spec.pilot])
    impair = spec.impair.draw(seed_stream(spec.seed, trial_id, "impairment"))

    true_offset = impair.total_offset(frame.M)
    record_len = true_offset + 2 * frame.grid_size + frame.cp_len
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
    checked before the first trial. Raises ConfigError for an unreadable
    or invalid allocation, a ``mu.q`` that disagrees with the allocation
    file, or an estimated-CSI user whose bins cannot host its pilot."""
    if spec.kind != "mu_uplink":
        return None
    frame = spec.frame
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
    return alloc


def spread_warnings(spec: ExperimentSpec) -> list:
    """``warning:`` lines for a delay spread beyond the CP or the pilot
    delay guard. The tap delays of every profile follow from the spec
    alone (only gains and Doppler are drawn), so one draw gives the
    largest delay of every trial."""
    longest = _draw_channel(spec, np.random.default_rng(0)).n_spread - 1
    out = []
    if longest > spec.frame.cp_len:
        out.append(f"warning: largest tap delay {longest} exceeds frame.L_cp "
                   f"= {spec.frame.cp_len}; expect inter-block interference")
    if ((spec.csi == "estimated" or spec.sync.enabled)
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
    """One multiuser uplink trial: superposed per-user transmissions, joint
    MMSE detection in the time domain on the per-user channels, paired
    across waveforms by the same shared-record construction as
    :func:`link_trial`.

    Per-user CSI is either known (genie) or estimated from a pilot
    embedded inside each user's own allocation; a user whose estimate
    comes back empty contributes zero columns (regularized detection then
    drives its symbols toward zero).
    """
    frame = spec.frame
    noise_var = _noise_var(snr_db)
    pilots = [_mu_user_pilot(spec, alloc, q) if spec.csi == "estimated" else None
              for q in range(alloc.n_users)]
    masks = [_mu_user_mask(spec, alloc, q, pc) for q, pc in enumerate(pilots)]
    channels, bits, grids = _draw(spec, trial_id, masks, pilots)
    rng_noise = seed_stream(spec.seed, trial_id, "noise")
    record = (_transmit(grids, channels, Waveform.OTFS)
              + draw_noise(rng_noise, noise_var, frame.frame_len))
    shared = TimeSignal(record, frame, cp_included=True)

    def solve(received, hs, w):
        return detect_users_time_domain(shared, hs, alloc, w, noise_var).vec

    return _receive(spec, shared, channels, pilots, masks, bits, solve)


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


def run(spec: ExperimentSpec, out_dir=None, parallelism: int = 1):
    """Execute the experiment; returns the result rows and, when ``out_dir``
    is given, writes results.csv and metadata.txt there.

    Every cell maps its trial ids through ``_summary``: in this process,
    or over ``parallelism`` worker processes in one chunk per worker.
    """
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    t0 = time.monotonic()
    alloc = prepare(spec)
    rows = []
    with (ProcessPoolExecutor(max_workers=parallelism) if parallelism > 1
          else nullcontext()) as pool:
        trial_map = (map if pool is None else
                     partial(pool.map, chunksize=math.ceil(spec.trials / parallelism)))
        for si, snr in enumerate(spec.snr_db):
            ids = range(si * spec.trials, (si + 1) * spec.trials)
            trials = list(trial_map(partial(_summary, spec, snr, alloc), ids))
            rows.extend(_aggregate(spec, snr, trials))
    elapsed = time.monotonic() - t0
    if out_dir is not None:
        write_outputs(spec, rows, Path(out_dir), elapsed)
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


def write_outputs(spec: ExperimentSpec, rows, out_dir: Path, elapsed: float):
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
        "",
        "[config]",
        echo.rstrip("\n"),
        "",
    ]
    (out_dir / "metadata.txt").write_text("\n".join(meta), encoding="utf-8")
