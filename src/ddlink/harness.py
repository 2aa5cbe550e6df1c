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
"""

import csv
import hashlib
import io
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .chanest import (PilotConfig, embed_pilot, estimate_channel, overlay_mask,
                      to_ltv_channel)
from .channel import (LtvChannel, apply_channel, draw_noise, make_channel,
                      taps_from_profile, time_domain_matrix)
from .config import ConfigError, ExperimentSpec
from .equalize import equalize_time_domain
from .mapping import (DATA, PILOT, data_bin_count, demap_bits,
                      get_constellation, map_bits)
from .modem import (DelayDopplerGrid, TimeSignal, Waveform, demodulate_direct,
                    modulate_direct)
from .multiuser import (Allocation, detect_users_time_domain,
                        even_split_allocation, extract_user, load_allocation,
                        place_user)
from .sync import correct, estimate_sync
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


def _equalize(spec: ExperimentSpec, corrected: TimeSignal, ch: LtvChannel,
              waveform: Waveform, noise_var: float) -> np.ndarray:
    """Equalized delay-Doppler vec of one receiver chain, solved in the
    time domain on the sparse CP-bounded channel of ``ch``."""
    eq = spec.eq
    return equalize_time_domain(corrected, time_domain_matrix(ch), waveform,
                                noise_var, method=eq.method,
                                max_iter=eq.max_iter, tol=eq.tol).vec


def link_trial(spec: ExperimentSpec, trial_id: int, snr_db: float) -> dict:
    """One paired detection trial: a shared physical record, one receiver
    chain per waveform. Returns per-waveform bit errors, bit counts, and
    symbol decisions."""
    frame = spec.frame
    const = get_constellation(spec.constellation)
    mask = overlay_mask(spec.pilot, frame)
    noise_var = _noise_var(snr_db)

    ch = _draw_channel(spec, seed_stream(spec.seed, trial_id, "channel"))
    impair = spec.impair.draw(seed_stream(spec.seed, trial_id, "impairment"))
    rng_data = seed_stream(spec.seed, trial_id, "data")
    bits = rng_data.integers(0, 2, data_bin_count(mask) * const.bits_per_symbol)
    grid = embed_pilot(map_bits(bits, const, frame, mask), spec.pilot)

    x = modulate_direct(grid, Waveform.OTFS)
    shift = impair.total_offset(frame.M)
    if spec.sync.enabled:
        record_len = shift + 2 * frame.grid_size + frame.cp_len
    else:
        record_len = shift + frame.frame_len + (ch.n_spread if shift else 0)
    r = apply_channel(x, ch, noise=None, impair=impair, record_len=record_len)
    eta = draw_noise(seed_stream(spec.seed, trial_id, "noise"), noise_var, record_len)
    record = r.samples + eta

    if spec.sync.enabled:
        est = estimate_sync(record, frame, spec.pilot.pilot_delay,
                            pilot_doppler=spec.pilot.pilot_doppler,
                            threshold=spec.sync.threshold,
                            n_rows=spec.sync.search_rows,
                            max_blocks=spec.sync.max_blocks,
                            cfo_convention=spec.sync.cfo_convention)
        offset = min(max(est.total_offset(frame.M), 0),
                     record_len - frame.frame_len)
        corrected = correct(record, offset, est.cfo, frame)
    else:
        corrected = TimeSignal(record[:frame.frame_len], frame, cp_included=True)

    W = coupling_phases(frame.M, frame.N)
    out = {}
    for w in spec.waveforms:
        received = demodulate_direct(corrected, w)
        h = ch if spec.csi == "genie" else _estimated_channel(received, spec.pilot, w)
        d_hat = (received.vec if h is None
                 else _equalize(spec, corrected, h, w, noise_var))
        if w is Waveform.SC_IFDMA:
            d_hat = d_hat * np.conj(W).flatten(order="F")
        hat_grid = DelayDopplerGrid.from_vec(d_hat, frame)
        bits_hat, decisions = demap_bits(hat_grid, const, mask)
        out[w.value] = {
            "bit_errors": int(np.count_nonzero(bits_hat != bits)),
            "bits": int(bits.size),
            "decisions": decisions,
            "estimate_empty": h is None,
        }
    return out


def sync_trial(spec: ExperimentSpec, trial_id: int, snr_db: float) -> dict:
    """One synchronization trial: per-waveform transmissions with shared
    channel/noise/data/impairment realizations. Returns per-waveform offset
    errors (samples) and the CFO estimate error, plus per-threshold fine
    errors for sweeps."""
    frame = spec.frame
    const = get_constellation(spec.constellation)
    mask = overlay_mask(spec.pilot, frame)
    noise_var = _noise_var(snr_db)

    ch = _draw_channel(spec, seed_stream(spec.seed, trial_id, "channel"))
    impair = spec.impair.draw(seed_stream(spec.seed, trial_id, "impairment"))
    rng_data = seed_stream(spec.seed, trial_id, "data")
    bits = rng_data.integers(0, 2, data_bin_count(mask) * const.bits_per_symbol)
    grid = embed_pilot(map_bits(bits, const, frame, mask), spec.pilot)

    shift = impair.total_offset(frame.M)
    record_len = shift + 2 * frame.grid_size + frame.cp_len
    eta = draw_noise(seed_stream(spec.seed, trial_id, "noise"), noise_var, record_len)

    out = {}
    true_offset = impair.total_offset(frame.M)
    for w in spec.waveforms:
        x = modulate_direct(grid, w)
        r = apply_channel(x, ch, noise=None, impair=impair, record_len=record_len)
        record = r.samples + eta
        est = estimate_sync(record, frame, spec.pilot.pilot_delay,
                            pilot_doppler=spec.pilot.pilot_doppler,
                            threshold=spec.sync.threshold,
                            n_rows=spec.sync.search_rows,
                            max_blocks=spec.sync.max_blocks,
                            cfo_convention=spec.sync.cfo_convention)
        coarse_total = est.coarse_delay + frame.M * est.block_offset
        res = {
            "coarse_err": abs(coarse_total - true_offset),
            "fine_err": abs(est.total_offset(frame.M) - true_offset),
            "cfo_sq_err": (est.cfo - impair.cfo) ** 2,
        }
        if spec.kind == "threshold_sweep":
            from .sync import fine_timing, timing_metric
            _, row_metric = timing_metric(record, frame, n_rows=spec.sync.search_rows)
            for ts in spec.sweep_thresholds:
                fine = fine_timing(row_metric, ts, spec.pilot.pilot_delay,
                                   frame.cp_len) + frame.M * est.block_offset
                res[f"fine_err@{ts:g}"] = abs(fine - true_offset)
        out[w.value] = res
    return out


def _mu_setup(spec: ExperimentSpec) -> Allocation:
    if spec.mu_allocation_path:
        return load_allocation(spec.mu_allocation_path, spec.frame.M, spec.frame.N,
                               relax=spec.mu_relax_disjointness)
    return even_split_allocation(spec.frame.M, spec.frame.N, spec.mu_users)


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
    const = get_constellation(spec.constellation)
    noise_var = _noise_var(snr_db)
    estimated = spec.csi == "estimated"
    pilots = [_mu_user_pilot(spec, alloc, q) for q in range(alloc.n_users)] \
        if estimated else None

    rng_ch = seed_stream(spec.seed, trial_id, "channel")
    rng_data = seed_stream(spec.seed, trial_id, "data")
    channels, grids, bits_all, masks = [], [], [], []
    for q in range(alloc.n_users):
        channels.append(_draw_channel(spec, rng_ch))
        mq, nq = alloc.user_shape(q)
        if estimated:
            full_mask = overlay_mask(pilots[q], frame)
            u = alloc.users[q]
            local_mask = full_mask[np.ix_(u.delay_bins, u.doppler_bins)]
        else:
            local_mask = np.zeros((mq, nq), dtype=np.int8)  # all data
        bits = rng_data.integers(0, 2, data_bin_count(local_mask) * const.bits_per_symbol)
        bits_all.append(bits)
        masks.append(local_mask)
        vec = np.zeros(mq * nq, dtype=complex)
        vec[local_mask.flatten(order="F") == DATA] = const.bits_to_symbols(bits)
        local = vec.reshape((mq, nq), order="F")
        if estimated:
            local[local_mask == PILOT] = pilots[q].amplitude
        grids.append(local)

    rx = np.zeros(frame.frame_len, dtype=complex)
    for q in range(alloc.n_users):
        grid = place_user(grids[q], alloc, q, frame)
        x = modulate_direct(grid, Waveform.OTFS)
        rx = rx + apply_channel(x, channels[q]).samples
    rx = rx + draw_noise(seed_stream(spec.seed, trial_id, "noise"),
                         noise_var, rx.size)
    shared = TimeSignal(rx, frame, cp_included=True)

    W = coupling_phases(frame.M, frame.N)
    out = {}
    for w in spec.waveforms:
        if estimated:
            received = demodulate_direct(shared, w)
            hs = [_estimated_channel(received, pc, w) for pc in pilots]
        else:
            hs = channels
        d_hat = detect_users_time_domain(shared, hs, alloc, w, noise_var).vec
        if w is Waveform.SC_IFDMA:
            d_hat = d_hat * np.conj(W).flatten(order="F")
        hat_grid = DelayDopplerGrid.from_vec(d_hat, frame)
        errors = bits = 0
        decisions = []
        for q in range(alloc.n_users):
            sym = extract_user(hat_grid, alloc, q).flatten(order="F")
            sym = sym[masks[q].flatten(order="F") == DATA]
            idx = const.nearest_indices(sym)
            bh = const.indices_to_bits(idx)
            errors += int(np.count_nonzero(bh != bits_all[q]))
            bits += bits_all[q].size
            decisions.append(idx)
        out[w.value] = {"bit_errors": errors, "bits": bits,
                        "decisions": np.concatenate(decisions)}
    return out


def _run_chunk(args):
    spec, snr_db, trial_ids, alloc = args
    results = []
    for t in trial_ids:
        if spec.kind in ("ber_vs_snr",):
            results.append((t, link_trial(spec, t, snr_db)))
        elif spec.kind == "mu_uplink":
            results.append((t, mu_trial(spec, t, snr_db, alloc)))
        else:
            results.append((t, sync_trial(spec, t, snr_db)))
    return results


def _cell_trials(spec: ExperimentSpec, snr_index: int):
    base = snr_index * spec.trials
    return list(range(base, base + spec.trials))


def run(spec: ExperimentSpec, out_dir=None, parallelism: int = 1):
    """Execute the experiment; returns the result rows and, when ``out_dir``
    is given, writes results.csv and metadata.txt there."""
    t0 = time.monotonic()
    alloc = _mu_setup(spec) if spec.kind == "mu_uplink" else None
    rows = []
    with (ProcessPoolExecutor(max_workers=parallelism) if parallelism > 1
          else nullcontext()) as pool:
        for si, snr in enumerate(spec.snr_db):
            trial_ids = _cell_trials(spec, si)
            per_trial = {}
            if pool is not None:
                chunks = np.array_split(trial_ids, parallelism)
                jobs = [(spec, snr, [int(t) for t in c], alloc)
                        for c in chunks if len(c)]
                for part in pool.map(_run_chunk, jobs):
                    per_trial.update(dict(part))
            else:
                per_trial = dict(_run_chunk((spec, snr, trial_ids, alloc)))
            ordered = [per_trial[t] for t in trial_ids]
            rows.extend(_aggregate(spec, snr, ordered))
    elapsed = time.monotonic() - t0
    if out_dir is not None:
        write_outputs(spec, rows, Path(out_dir), elapsed)
    return rows


def _aggregate(spec: ExperimentSpec, snr: float, trials: list) -> list:
    rows = []
    for w in spec.waveforms:
        name = w.value
        if spec.kind in ("ber_vs_snr", "mu_uplink"):
            errors = sum(t[name]["bit_errors"] for t in trials)
            bits = sum(t[name]["bits"] for t in trials)
            rows.append(ResultRow(spec.kind, name, snr, "BER", errors / bits,
                                  spec.trials, spec.seed))
        else:
            coarse = float(np.mean([t[name]["coarse_err"] for t in trials]))
            fine = float(np.mean([t[name]["fine_err"] for t in trials]))
            cfo = float(np.mean([t[name]["cfo_sq_err"] for t in trials]))
            rows.append(ResultRow(spec.kind, name, snr, "TO_mean_error",
                                  coarse, spec.trials, spec.seed))
            rows.append(ResultRow(spec.kind, name, snr, "TO_fine_mean_error",
                                  fine, spec.trials, spec.seed))
            rows.append(ResultRow(spec.kind, name, snr, "CFO_MSE",
                                  cfo, spec.trials, spec.seed))
            if spec.kind == "threshold_sweep":
                for ts in spec.sweep_thresholds:
                    key = f"fine_err@{ts:g}"
                    val = float(np.mean([t[name][key] for t in trials]))
                    rows.append(ResultRow(spec.kind, name, snr,
                                          f"TO_fine_mean_error@Ts={ts:g}",
                                          val, spec.trials, spec.seed))
    return rows


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
