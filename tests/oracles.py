"""Dense reference computations shared by several test modules."""

from fractions import Fraction

import numpy as np
from scipy import sparse
from scipy.linalg import solveh_banded
from scipy.linalg.lapack import zpbsv

from ddlink._seeds import COMPONENTS
from ddlink.config import SCHEMA, ImpairSettings
from ddlink.chanest import EstimatedChannel, embed_pilot, overlay_mask
from ddlink.channel import (ChannelTap, DdChannelMatrix, LtvChannel,
                            _cp_bounded, apply_channel, delay_diagonals,
                            draw_noise, tap_ramps)
from ddlink.mapping import data_bins, get_constellation, map_bits
from ddlink.modem import TimeSignal, Waveform, _mod_core, demodulate_direct
from ddlink.multiuser import compound_matrix, detect_users
from ddlink.sync import BLOCK_STARTS, SyncEstimate, cfo_estimate
from ddlink.transforms import coupling_phases


def seed_stream_by_sequence(master_seed: int, trial: int,
                            component: str) -> np.random.Generator:
    """:func:`ddlink.harness.seed_stream` with one ``SeedSequence`` per
    call: numpy's generator of the spawn key (trial, component number)."""
    if component not in COMPONENTS:
        raise ValueError(f"unknown component {component!r}; one of "
                         f"{sorted(COMPONENTS)}")
    ss = np.random.SeedSequence(master_seed,
                                spawn_key=(trial, COMPONENTS[component]))
    return np.random.default_rng(ss)


def unread_keys_by_path(spec) -> set:
    """The keys that ``harness.prepare`` rejected as unread, on its three
    paths, before the rows of one table (:data:`ddlink.config.SCHEMA`)
    decided them:
    impairments where no sync runs, ``sync.enabled`` and impairments on
    the uplink, and the keys among ``sweep.thresholds``,
    ``sync.threshold``, ``detector.csi``, ``est.threshold_sigma`` and
    ``mu.*`` that the kind never reads, each where set away from its
    default. The oracle of the table for every key but ``channel.taps``,
    which no path read."""
    syncs = spec.kind in ("sync_vs_snr", "threshold_sweep")
    runs_sync = syncs or (spec.kind == "ber_vs_snr" and spec.sync.enabled)
    uplink = spec.kind == "mu_uplink"
    impaired = [] if runs_sync else [
        f"impair.{name}" for name in ("theta_d", "theta_t", "epsilon")
        if getattr(spec.impair, name) != getattr(ImpairSettings(), name)]
    unused = ["sync.enabled"] * (uplink and spec.sync.enabled)
    values = {
        "sweep.thresholds": (spec.sweep_thresholds, spec.kind == "threshold_sweep"),
        "sync.threshold": (spec.sync.threshold, runs_sync),
        "detector.csi": (spec.csi, not syncs),
        "est.threshold_sigma": (spec.pilot.detection_threshold,
                                not syncs and spec.csi == "estimated"),
        "mu.q": (spec.mu_users, uplink),
        "mu.allocation": (spec.mu_allocation, uplink),
    }
    # each key's default text, parsed; an empty one (mu.allocation's) means
    # None, an even split
    rows = {key: SCHEMA[key] for key in values}
    defaults = {key: None if row.default == "" else row.parse(row.default)
                for key, row in rows.items()}
    unread = [key for key, (value, read) in values.items()
              if not read and value != defaults[key]]
    return set(impaired + unused + unread)


def in_otfs_convention(grid, waveform) -> np.ndarray:
    """The vec of a delay-Doppler solution of ``waveform``'s system in
    the OTFS convention: an SC-IFDMA one derotated by the coupling
    phases, an OTFS one as it is."""
    if waveform is Waveform.OTFS:
        return grid.vec
    frame = grid.frame
    return grid.vec * np.conj(coupling_phases(frame.M, frame.N)).flatten(order="F")


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


def solve_band_bincount(slot, vals, width, noise_var, rhs):
    """:func:`ddlink.equalize._solve_band` with the band assembled as
    before it was built in place: two float bincounts (each adding the
    values of a slot in value order) joined by ``1j * imag``, and a
    solve that copies the band and the right-hand side:
    ``solveh_banded``, or at width 1, where that calls ``zptsv``,
    ``zpbsv`` called with the arguments ``solveh_banded`` gives it."""
    length = (width + 1) * rhs.size
    ab = (np.bincount(slot, vals.real, length)
          + 1j * np.bincount(slot, vals.imag, length)).reshape(rhs.size, width + 1).T
    ab[0] += noise_var
    if width != 1:
        return solveh_banded(ab, rhs, lower=True)
    _, x, info = zpbsv(ab, rhs, lower=1, overwrite_ab=0, overwrite_b=0)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal pbsv")
    return x


def square_qam_points(bits_per_axis: int) -> np.ndarray:
    """Unit-average-energy square Gray QAM built bit by bit: each index's
    in-phase bits (the high half) and quadrature bits (the low half) pick
    their axis level from a table of Gray codes, 2-bit 00, 01, 11, 10 at
    3, 1, -1, -3. The reference of :class:`ddlink.mapping.Constellation`."""
    levels = ({(0,): 1, (1,): -1} if bits_per_axis == 1 else
              {(0, 0): 3, (0, 1): 1, (1, 1): -1, (1, 0): -3})
    k = 2 * bits_per_axis
    pts = np.empty(2 ** k, dtype=complex)
    for idx in range(2 ** k):
        bits = [(idx >> (k - 1 - b)) & 1 for b in range(k)]
        i_lvl = levels[tuple(bits[: bits_per_axis])]
        q_lvl = levels[tuple(bits[bits_per_axis:])]
        pts[idx] = i_lvl + 1j * q_lvl
    return pts / np.sqrt(np.mean(np.abs(pts) ** 2))


def nearest_indices_argmin(constellation, symbols) -> np.ndarray:
    """Minimum-distance decisions of :meth:`Constellation.nearest_indices`
    by an argmin over the rounded complex distances to every point, ties
    to the lowest index. Far from the constellation the rounding makes
    distances tie that differ: beyond about 1e8 all of them."""
    d = np.abs(np.asarray(symbols).reshape(-1, 1) - constellation.points.reshape(1, -1))
    return np.argmin(d, axis=1)


def nearest_indices_exact(constellation, symbols) -> list:
    """The same decisions from exact squared distances in rational
    arithmetic, ties to the lowest index."""
    points = [(Fraction(p.real), Fraction(p.imag)) for p in constellation.points]
    out = []
    for s in np.asarray(symbols, dtype=complex).reshape(-1):
        x, y = Fraction(s.real), Fraction(s.imag)
        d = [(x - px) ** 2 + (y - py) ** 2 for px, py in points]
        out.append(d.index(min(d)))
    return out


def even_split_chunks(total: int, parts: int) -> list:
    """Contiguous bin tuples of ``total`` bins split into ``parts``, the
    first ``total % parts`` one bin longer, written out chunk by chunk:
    the reference of :func:`ddlink.multiuser.even_split_allocation`."""
    base, extra = divmod(total, parts)
    out, start = [], 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        out.append(tuple(range(start, start + size)))
        start += size
    return out


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


def cp_channel_matrix(ch: LtvChannel) -> np.ndarray:
    """Dense CP-bounded channel: CP removal on the left, the banded
    time-varying convolution in the middle, CP addition on the right.
    Square of size M*N; the reference for the equivalent-channel builds
    and :func:`ddlink.channel.delay_diagonals`."""
    frame = ch.frame
    grid, cp = frame.grid_size, frame.cp_len
    n = grid + cp
    H = np.zeros((n, n), dtype=complex)
    kappa = np.arange(n)
    for tap in ch.taps:
        rows = kappa[tap.delay:]
        H[rows, rows - tap.delay] += tap.gain * np.exp(
            2j * np.pi * tap.doppler * rows / grid)
    acp = np.vstack([np.eye(grid)[grid - cp:], np.eye(grid)]) if cp else np.eye(grid)
    return H[cp:] @ acp


def apply_taps_per_tap(x, ch: LtvChannel, shift: int, record_len: int) -> np.ndarray:
    """The transmit convolution with each tap's Doppler ramp evaluated on
    its own, over just the samples the tap reaches: the bit oracle of
    :func:`ddlink.channel._apply_taps` on the shared
    :func:`ddlink.channel.tap_ramps`. x may carry a trailing batch axis."""
    grid = ch.frame.grid_size
    out_shape = (record_len,) + x.shape[1:]
    r = np.zeros(out_shape, dtype=complex)
    n = x.shape[0]
    for tap in ch.taps:
        start = shift + tap.delay
        stop = min(record_len, start + n)
        if stop <= start:
            continue
        kappa = np.arange(start, stop)
        phase = tap.gain * np.exp(2j * np.pi * tap.doppler * kappa / grid)
        seg = x[:stop - start]
        r[start:stop] += (phase if seg.ndim == 1 else phase[:, None]) * seg
    return r


def _summed_by_delay(ch: LtvChannel, per_tap: np.ndarray):
    """Diagonals of the taps' rows ``per_tap`` over the CP-stripped
    samples: the rows of taps sharing a delay summed in a dict, in tap
    order, and the sums copied into one array."""
    sums = {}
    for tap, g in zip(ch.taps, per_tap):
        sums[tap.delay] = sums[tap.delay] + g if tap.delay in sums else g
    delays = np.fromiter(sums, dtype=int, count=len(sums))
    return _cp_bounded(delays, np.array(list(sums.values())), ch.frame)


def delay_diagonals_by_dict(ch: LtvChannel, ramps: np.ndarray):
    """:func:`ddlink.channel.delay_diagonals` on the tap ramps ``ramps``
    (over at least one frame with its CP) by a dict of per-delay sums:
    the bit oracle of its sums into one preallocated array."""
    grid, cp = ch.frame.grid_size, ch.frame.cp_len
    return _summed_by_delay(ch, ramps[:, cp:grid + cp])


def delay_diagonals_own_ramps(ch: LtvChannel):
    """:func:`ddlink.channel.delay_diagonals` with the ramps evaluated
    over the CP-stripped samples alone, by one ``exp`` of its own: the
    bit oracle of the diagonals read from the shared tap ramps."""
    frame = ch.frame
    grid, cp = frame.grid_size, frame.cp_len
    kappa = np.arange(cp, grid + cp)
    turns = np.array([2j * np.pi * tap.doppler for tap in ch.taps])
    per_tap = (np.array([tap.gain for tap in ch.taps])[:, None]
               * np.exp(turns[:, None] * kappa / grid))
    return _summed_by_delay(ch, per_tap)


def time_domain_matrix(ch: LtvChannel) -> sparse.csr_array:
    """Sparse CP-bounded channel of :func:`delay_diagonals`, equal to
    :func:`cp_channel_matrix`; the rows a tap cannot reach hold no entry."""
    grid, cp = ch.frame.grid_size, ch.frame.cp_len
    diagonals = delay_diagonals(ch)
    delays, gains = diagonals.delays, diagonals.gains
    starts = [max(d - cp, 0) for d in delays]
    rows = [np.arange(s, grid) for s in starts]
    cols = [(r - d) % grid for d, r in zip(delays, rows)]
    vals = [g[s:] for g, s in zip(gains, starts)]
    return sparse.csr_array((np.concatenate(vals),
                             (np.concatenate(rows), np.concatenate(cols))),
                            shape=(grid, grid))


def to_ltv_channel(est: EstimatedChannel, frame) -> LtvChannel:
    """The channel of an estimate's taps, each at its integer Doppler."""
    if est.is_empty:
        raise ValueError("empty channel estimate")
    return LtvChannel(est.taps, frame)


def estimated_diagonals(est: EstimatedChannel, pc, frame):
    """Delay diagonals, in ascending delay order, of the taps of a
    non-empty estimate made with pilot ``pc`` on ``frame``, by the route
    estimates once took: each delay row is the (delays x Doppler taps)
    matrix of the gains times a table of the Doppler ramps
    exp(2j*pi*k*kappa/(M*N)) over the samples kappa = cp_len + i of the
    CP-stripped frame, for k in [-guard_doppler, guard_doppler]. The
    oracle of :func:`delay_diagonals` of the estimate's channel, which
    sums the taps' own ramps by delay."""
    if est.is_empty:
        raise ValueError("empty channel estimate")
    delays = sorted({t.delay for t in est.taps})
    row = {d: p for p, d in enumerate(delays)}
    g = pc.guard_doppler
    taps = np.zeros((len(delays), 2 * g + 1), dtype=complex)
    for t in est.taps:
        taps[row[t.delay], int(t.doppler) + g] = t.gain
    k = np.arange(-g, g + 1)
    kappa = np.arange(frame.cp_len, frame.frame_len)
    ramps = np.exp((2j * np.pi * k)[:, None] * kappa / frame.grid_size)
    return _cp_bounded(delays, taps @ ramps, frame)


def estimate_channel_loop(received, pc, waveform, noise_std=None,
                          pilot_value=None) -> EstimatedChannel:
    """Threshold detection bin by bin over the guard rectangle: the scalar
    reference of :func:`ddlink.chanest.estimate_channel`."""
    frame = received.frame
    pc.validate_fit(frame)
    D = received.data
    mp, npil = pc.pilot_delay, pc.pilot_doppler
    dop = slice(npil - pc.guard_doppler, npil + pc.guard_doppler + 1)
    if noise_std is None:
        lead = D[mp - pc.guard_delay: mp, dop]
        noise_std = float(np.sqrt(np.mean(np.abs(lead) ** 2)))
    pilot = pc.amplitude if pilot_value is None else pilot_value
    W = coupling_phases(frame.M, frame.N)
    taps = []
    for d_off in range(0, pc.guard_delay + 1):
        for k_off in range(-pc.guard_doppler, pc.guard_doppler + 1):
            m, n = mp + d_off, npil + k_off
            value = D[m, n]
            if np.abs(value) < pc.detection_threshold * noise_std:
                continue
            gain = value / pilot
            if waveform is Waveform.SC_IFDMA:
                gain *= np.conj(W[m, n]) * W[mp, npil]
            kappa = frame.cp_len + mp + d_off
            gain /= complex(np.exp(2j * np.pi * k_off * kappa / frame.grid_size))
            taps.append(ChannelTap(d_off, complex(gain), float(k_off)))
    ramps = (tap_ramps(LtvChannel(taps, frame), frame.frame_len) if taps
             else np.zeros((0, frame.frame_len), dtype=complex))
    return EstimatedChannel(tuple(taps), waveform, noise_std, ramps)


def bits(x):
    """The bit pattern of a number or an array, for comparison without
    tolerance."""
    return np.asarray(x).view(np.uint64)


def timing_metric_by_rows(record, frame):
    """:func:`ddlink.sync.timing_metric` with the rows gathered by an
    index of its own, zero-filled past the record by ``np.where`` on every
    call, and the running sums taken along each row: the bit oracle of
    the metric's view of the rows, one per column, and its zero padding."""
    r = np.asarray(record)
    M, N = frame.M, frame.N
    if r.ndim != 1 or r.size < M * N:
        raise ValueError(f"record too short for the sliding window: "
                         f"{r.size} < {M * N}")
    row_len = 2 * N - 1
    idx = np.arange(M)[:, None] + M * np.arange(row_len)[None, :]
    rows = np.where(idx < r.size, r[np.minimum(idx, r.size - 1)], 0.0)
    prod = np.conj(rows[:, :-1]) * rows[:, 1:]
    csum = np.concatenate([np.zeros((M, 1), complex), np.cumsum(prod, axis=1)], axis=1)
    window_corr = csum[:, N - 1:N - 1 + N] - csum[:, 0:N]  # starts l = 0..N-1
    row_metric = window_corr.sum(axis=1)
    return window_corr, row_metric


def coarse_row(row_metric) -> int:
    """Row of the metric-peak timing rule: the first maximum of the
    metric magnitude; a zero metric raises ValueError."""
    mag = np.abs(np.asarray(row_metric))
    if not mag.any():
        raise ValueError("timing metric is identically zero")
    return int(np.argmax(mag))


def coarse_timing(row_metric, pilot_delay: int, cp_len: int) -> int:
    """Metric-peak timing estimate in the delay dimension, the coarse
    delay of :func:`ddlink.sync.estimate_sync` on its own metric.

    Follows the strongest channel tap, so it is biased by that tap's delay;
    the result is only known modulo M (full blocks are resolved separately).
    Ties resolve to the lowest row.
    """
    return coarse_row(row_metric) - pilot_delay - cp_len


def first_peak_row(row_metric, threshold: float) -> int:
    """Row of the first-peak timing rule: the earliest row whose metric
    magnitude is within ``threshold`` of the maximum; a zero metric or a
    threshold outside (0, 1] raises ValueError."""
    mag = np.abs(np.asarray(row_metric))
    if not mag.any():
        raise ValueError("timing metric is identically zero")
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    return int(np.flatnonzero(mag >= threshold * mag.max()).min())


def estimate_sync_by_rule(record, frame, pilot_delay: int, pilot_doppler: int = 0,
                          threshold: float = 0.5) -> SyncEstimate:
    """:func:`ddlink.sync.estimate_sync` on :func:`timing_metric_by_rows`,
    each rule taking the metric magnitude on its own: the bit oracle of
    the estimate from one magnitude."""
    window_corr, row_metric = timing_metric_by_rows(record, frame)
    lead = pilot_delay + frame.cp_len
    peak_row = coarse_row(row_metric)
    fine = first_peak_row(row_metric, threshold) - lead
    blocks = int(np.argmax(np.abs(window_corr[peak_row, :BLOCK_STARTS])))
    cfo = cfo_estimate(row_metric, peak_row, frame, pilot_doppler=pilot_doppler)
    return SyncEstimate(peak_row - lead, fine, blocks, cfo, np.abs(row_metric))


def transmit_one_waveform(frame, grids, channels, ramps, waveform, impair=None,
                          record_len=None) -> np.ndarray:
    """Noiseless received record of one waveform: its own modulation of
    the stacked grids, each through its own channel (with its ramps, and
    its own CFO ramp), superposed. The bit oracle of a row of the
    records :func:`transmit` gives, without their noise."""
    x = _mod_core(grids, frame, waveform, spread=False)
    return sum(apply_channel(TimeSignal(s, frame), ch, impair=impair,
                             record_len=record_len, ramps=r).samples
               for s, ch, r in zip(x, channels, ramps))


# The send stage of a trial as four steps, each of them the code the
# harness ran before one function, ``harness._send``, did all four:
# draw, impairments, ramps, then the noise draw and transmit.

def draw(spec, trial_id: int, pilots, bins):
    """One channel, one bit array and one grid per grid of a layout (its
    ``pilots``, None for a grid without one, and data ``bins``), in
    layout order, from the trial's channel and data substreams; a grid
    carries its pilot when it has one. The grids come stacked, (grids,
    M, N)."""
    const = get_constellation(spec.constellation)
    rng_ch = seed_stream_by_sequence(spec.seed, trial_id, "channel")
    rng_data = seed_stream_by_sequence(spec.seed, trial_id, "data")
    channels, drawn_bits, grids = [], [], []
    for b_idx, pc in zip(bins, pilots):
        channels.append(spec.draw_channel(rng_ch))
        b = rng_data.integers(0, 2, b_idx.size * const.bits_per_symbol)
        grid = map_bits(b, const, spec.frame, b_idx)
        drawn_bits.append(b)
        grids.append((grid if pc is None else embed_pilot(grid, pc)).data)
    return channels, drawn_bits, np.array(grids)


def impairments(spec, trial_id: int):
    """The trial's impairment draw and record length (its offset plus two
    grids and a CP) where the spec syncs, else (None, one frame). Fixed
    settings never read a generator, so the impairment substream is made
    only when a setting is uniform."""
    frame, impair = spec.frame, spec.impair
    syncs = (spec.kind in ("sync_vs_snr", "threshold_sweep")
             or (spec.kind == "ber_vs_snr" and spec.sync.enabled))
    if not syncs:
        return None, frame.frame_len
    uniform = "uniform" in (impair.theta_d[0], impair.epsilon[0])
    drawn = impair.draw(seed_stream_by_sequence(spec.seed, trial_id, "impairment")
                        if uniform else None)
    return drawn, drawn.total_offset(frame.M) + 2 * frame.grid_size + frame.cp_len


def ramps(frame, channels, impair, record_len: int) -> list:
    """Each channel's :func:`~ddlink.channel.tap_ramps` over the record
    samples its taps reach from a frame sent at the impairment's offset,
    which cover the frame with its CP that genie CSI reads."""
    shift = 0 if impair is None else impair.total_offset(frame.M)
    return [tap_ramps(ch, min(record_len, shift + ch.n_spread - 1 + frame.frame_len))
            for ch in channels]


def transmit(frame, grids, channels, channel_ramps, waveforms, impair,
             record_len: int, noise) -> np.ndarray:
    """Noisy received records of the stacked grids sent with each
    waveform of ``waveforms``, as a (waveforms, record_len) batch: one
    modulation of every waveform and grid (SC-IFDMA as the OTFS
    structure of the grids derotated by the coupling phases), each
    channel's pass over its grid of every waveform, the grids superposed
    and ``noise`` added to every record."""
    W = coupling_phases(frame.M, frame.N)
    x = _mod_core(np.array([grids if w is Waveform.OTFS else grids * np.conj(W)
                            for w in waveforms]), frame, Waveform.OTFS, spread=False)
    return sum(apply_channel(TimeSignal(x[:, g], frame), ch, impair=impair,
                             record_len=record_len, ramps=r).samples
               for g, (ch, r) in enumerate(zip(channels, channel_ramps))) + noise


def send_by_parts(spec, trial_id: int, snr_db: float, pilots, bins, waveforms):
    """What a trial sends, by the four steps: (channels, bits, ramps,
    impairments, records), as ``harness._send`` returns them, and the
    stacked grids and the noise record they came from."""
    channels, drawn_bits, grids = draw(spec, trial_id, pilots, bins)
    impair, record_len = impairments(spec, trial_id)
    channel_ramps = ramps(spec.frame, channels, impair, record_len)
    noise = draw_noise(seed_stream_by_sequence(spec.seed, trial_id, "noise"),
                       10.0 ** (-snr_db / 10.0), record_len)
    records = transmit(spec.frame, grids, channels, channel_ramps, waveforms,
                       impair, record_len, noise)
    return (channels, drawn_bits, channel_ramps, impair, records), grids, noise


def sync_trial_per_waveform(spec, trial_id: int, snr_db: float) -> dict:
    """:func:`ddlink.harness.sync_trial` with one transmission and one
    estimate by rule per waveform (:func:`transmit_one_waveform`,
    :func:`estimate_sync_by_rule`), from the same draws (:func:`draw`,
    :func:`impairments`, :func:`ramps`) on the link's one grid."""
    frame, pilot = spec.frame, spec.pilot
    channels, _, grids = draw(spec, trial_id, (pilot,),
                              (data_bins(overlay_mask(pilot, frame)),))
    impair, record_len = impairments(spec, trial_id)
    channel_ramps = ramps(frame, channels, impair, record_len)
    true_offset = impair.total_offset(frame.M)
    eta = draw_noise(seed_stream_by_sequence(spec.seed, trial_id, "noise"),
                     10.0 ** (-snr_db / 10.0), record_len)
    out = {}
    for w in spec.waveforms:
        record = transmit_one_waveform(frame, grids, channels, channel_ramps, w,
                                       impair, record_len) + eta
        est = estimate_sync_by_rule(record, frame, spec.pilot.pilot_delay,
                                    pilot_doppler=spec.pilot.pilot_doppler,
                                    threshold=spec.sync.threshold)
        coarse_total = est.coarse_delay + frame.M * est.block_offset
        res = {
            "coarse_err": abs(coarse_total - true_offset),
            "fine_err": abs(est.total_offset(frame.M) - true_offset),
            "cfo_sq_err": (est.cfo - impair.cfo) ** 2,
        }
        if spec.kind == "threshold_sweep":
            for ts in spec.sweep_thresholds:
                fine = (first_peak_row(est.metric, ts) - spec.pilot.pilot_delay
                        - frame.cp_len + frame.M * est.block_offset)
                res[f"fine_err@{ts:g}"] = abs(fine - true_offset)
        out[w.value] = res
    return out
