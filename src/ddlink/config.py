"""Experiment configuration: a flat ``key = value`` text format with dotted
keys, a closed schema (unknown keys are errors, with line numbers), the
typed experiment spec the harness runs from, and the rules a spec meets
before a run's first trial.

One table, :data:`SCHEMA`, holds a row per key: its parser, its default,
the spec fields it sets and the specs that read it. A float key's parser
checks its physical range: a value outside it is an error that names
the key, and inside the ranges every product a trial forms is a normal
float without scaling. :func:`spec_from_config` sets the rows' fields,
the spec dataclasses take their defaults from the rows, and
``ExperimentSpec`` checks the other values of each key, and an uplink
spec builds its allocation from them (``ExperimentSpec.allocation``).
:func:`check` checks what takes more than one key, or a channel draw:
the largest tap delay, which sync reads against the block search, the
CFO range of sync, the guard row that estimated CSI reads, the pilot
guard rectangle each user of an estimated uplink holds, and every key
set away from its default where its row says the spec does not read it,
named with the kind and the setting. :func:`spread_warnings` gives the
``warning:`` lines of a delay spread the CP or the pilot guard does not
cover.

An uplink's bins are a key too (``mu.allocation``), so
:func:`canonical_text`, the echo a run's metadata carries and hashes,
names every setting and parses back to the same config.
"""

import re
from collections import namedtuple
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .chanest import PilotConfig
from .channel import CHANNEL_PROFILES, LtvChannel, make_channel, taps_from_profile
from .frame import FrameConfig
from .modem import Waveform
from .multiuser import Allocation, UserBins, _mu_user_pilot, even_split_allocation
from .sync import BLOCK_STARTS, Impairments

EXPERIMENTS = ("threshold_sweep", "sync_vs_snr", "ber_vs_snr", "mu_uplink")
_SYNC_KINDS = ("sync_vs_snr", "threshold_sweep")
# the kinds of one link, which place the configured pilot and may sync
_LINK_KINDS = (*_SYNC_KINDS, "ber_vs_snr")
_DETECTION_KINDS = ("ber_vs_snr", "mu_uplink")
# the profiles whose taps take their Doppler from the velocity and carrier
_FADING = ("eva", "eva3")


class ConfigError(ValueError):
    pass


def _noise_var(snr_db: float) -> float:
    """Noise variance of a cell at ``snr_db``: unit signal power over it."""
    return 10.0 ** (-snr_db / 10.0)


def _parse_bool(s):
    v = s.strip().lower()
    if v in ("true", "yes", "1", "on"):
        return True
    if v in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _finite(s):
    v = float(s)
    if not np.isfinite(v):
        raise ValueError(f"not a finite number: {s.strip()!r}")
    return v


@dataclass(frozen=True)
class _Range:
    """Parser of a finite float in the physical range [lo, hi] of a key."""

    lo: float
    hi: float
    unit: str = ""

    def __call__(self, s):
        v = _finite(s)
        if not self.lo <= v <= self.hi:
            raise ValueError(f"{v:g}{self.unit} is outside the range "
                             f"{self.lo:g} to {self.hi:g}{self.unit}")
        return v


def _float_list(parse=_finite):
    """Parser of a non-empty comma-separated list of ``parse``d floats."""
    def _parse_float_list(s):
        vals = tuple(parse(p) for p in s.split(",") if p.strip())
        if not vals:
            raise ValueError("empty list")
        return vals
    return _parse_float_list


# The physical range of each float key that has one. Inside the ranges,
# every product a trial forms is a normal float without scaling; the
# comment at each bound names the product it protects. (sync.threshold
# and sweep.thresholds lie in (0, 1], and impair.epsilon in (-N/2, N/2);
# the spec and check() enforce those.)
# noise variance 10**(-snr_db/10) from 1e10 down to 1e-30: noise samples
# stay under about 1e5, so the sync metric's sums of 2N^2 products of
# record samples and the squares of an estimate's noise floor stay far
# inside the float range; 1e-30 is a normal float, and below the band
# solve's rounding floor, which replaces it
_SNR_DB = _Range(-100.0, 300.0, " dB")
# pilot amplitudes from 1e-5 to 1e5: an estimate's gains, received bins
# (a few times 1e5 at most) over the amplitude, stay under about 1e11, so
# the band's products of two gains and the right-hand side's of a gain
# and a record sample stay under about 1e22 and 1e16; custom tap powers
# from 1e-10 to 1e10 sum to a positive finite power to normalize by
_POWER_DB = _Range(-100.0, 100.0, " dB")
# a Doppler bin spacing bandwidth / (M*N), which the Doppler shifts are
# divided by, that stays a positive normal float
_BANDWIDTH_HZ = _Range(1e3, 1e10, " Hz")
# Doppler shifts of at most 1e8 Hz, over that bandwidth: the tap phase
# 2*pi*nu*kappa/(M*N), nu in Doppler bins, turns at most 2*pi*1e5 rad
# per sample kappa, finite over any record that fits in memory
_DOPPLER_HZ = _Range(-1e8, 1e8, " Hz")
# up to low-orbit satellite speeds, and carriers up to 1 THz: the eva and
# eva3 Doppler carrier * velocity / c stays under 2.8e7 Hz, inside the
# range above; a lower carrier only lowers the Doppler
_VELOCITY_KMH = _Range(0.0, 3e4, " km/h")
_CARRIER_HZ = _Range(1.0, 1e12, " Hz")
# at most 1e7 samples at the top bandwidth: a tap delay is an int64 with
# room to spare
_DELAY_NS = _Range(0.0, 1e6, " ns")
# a detection level threshold * noise std from a tenth to a hundred
# noise standard deviations
_THRESHOLD_SIGMA = _Range(0.1, 100.0)


def _parse_int_pair(s):
    parts = [p for p in s.split(",") if p.strip()]
    if len(parts) != 2:
        raise ValueError(f"expected two integers, got {s!r}")
    return int(parts[0]), int(parts[1])


def _parse_draw(s):
    """Fixed number or 'uniform:lo:hi'."""
    s = s.strip()
    if s.lower().startswith("uniform:"):
        _, lo, hi = s.split(":")
        lo, hi = _finite(lo), _finite(hi)
        if hi < lo:
            raise ValueError(f"empty range in {s!r}")
        return ("uniform", lo, hi)
    return ("fixed", _finite(s))


def _parse_offset_draw(s):
    """A :func:`_parse_draw` of timing offset samples: non-negative
    integers."""
    kind, *values = _parse_draw(s)
    if not all(v >= 0 and v == int(v) for v in values):
        raise ValueError(f"not a non-negative integer sample count: "
                         f"{s.strip()!r}")
    return (kind, *(int(v) for v in values))


def _entries(s, what, fields):
    """The ``;``-separated entries of ``s``, empty ones skipped, each a
    tuple of the ``:``-separated values of ``fields``, a dict of each
    field's name and parser."""
    entries = []
    for part in filter(None, (p.strip() for p in s.split(";"))):
        values = part.split(":")
        if len(values) != len(fields):
            raise ValueError(f"{what} {part!r} is not {':'.join(fields)}")
        entries.append(tuple(parse(v) for parse, v in zip(fields.values(), values)))
    if not entries:
        raise ValueError(f"empty {what} list")
    return tuple(entries)


def _parse_taps(s):
    """Semicolon-separated 'delay_ns:power_db:doppler_hz' triples."""
    return _entries(s, "tap", {"delay_ns": _DELAY_NS, "power_db": _POWER_DB,
                               "doppler_hz": _DOPPLER_HZ})


def _bins(s):
    """Comma-separated integer bins; none at all is an empty bin set."""
    try:
        return tuple(int(b) for b in s.split(",") if b.strip())
    except ValueError:
        raise ValueError(f"bins must be integers, got {s.strip()!r}") from None


def _parse_user_bins(s):
    """Semicolon-separated 'delay bins:Doppler bins' entries, one per
    uplink user in user order, each a comma-separated list of integers."""
    return _entries(s, "user", {"delay_bins": _bins, "doppler_bins": _bins})


def _choice(*options):
    def parse(s):
        v = s.strip().lower()
        if v not in options:
            raise ValueError(f"expected one of {options}, got {s!r}")
        return v
    return parse


def _waveforms(s):
    out = []
    for part in s.split(","):
        part = part.strip().lower()
        if not part:
            continue
        try:
            out.append(Waveform(part))
        except ValueError:
            raise ValueError(f"unknown waveform {part!r}") from None
    if not out:
        raise ValueError("empty waveform list")
    return tuple(dict.fromkeys(out))


def _runs_sync(spec) -> bool:
    """Whether the trials of ``spec`` sync (an uplink's never do)."""
    return spec.kind in _SYNC_KINDS or (spec.kind == "ber_vs_snr" and spec.sync.enabled)


# A config key's row. ``parse`` reads its text and checks its range;
# ``default`` is the text of a config that leaves the key out (None:
# required; "": unset, which is None). ``fields`` are the spec attributes
# the key sets (given space-separated), and ``value`` gets them from a
# spec. The specs of ``kinds`` on which ``condition`` (None: any) holds
# read the key; ``setting`` names, after the kind, a spec where it fails.
_Row = namedtuple("_Row", "parse default fields value kinds condition setting")


def _row(parse, default, fields, kinds=EXPERIMENTS, condition=None, setting=""):
    fields = tuple(fields.split())
    return _Row(parse, default, fields, attrgetter(*fields), kinds, condition, setting)


# read where sync runs
_SYNC_RUNS = (_LINK_KINDS, _runs_sync, " without sync.enabled = true")

_WITH_PROFILE = " with channel.profile = {s.channel_profile}"
# read where the profile's Doppler comes from the velocity and carrier
_FADING_READS = (EXPERIMENTS, lambda s: s.channel_profile in _FADING, _WITH_PROFILE)

# every config key's row; every spec reads the rows that name no kinds
SCHEMA = {
    "experiment": _row(_choice(*EXPERIMENTS), None, "kind"),
    "trials": _row(int, "2000", "trials"),
    "seed": _row(int, "0", "seed"),
    "snr_db": _row(_float_list(_SNR_DB), "5,10,15", "snr_db"),
    "waveforms": _row(_waveforms, "otfs,sc_ifdma", "waveforms"),
    "constellation": _row(_choice("qpsk", "16qam"), "16qam", "constellation"),
    "frame.M": _row(int, "32", "frame.M"),
    "frame.N": _row(int, "16", "frame.N"),
    "frame.L_cp": _row(int, "8", "frame.cp_len"),
    "frame.bandwidth_hz": _row(_BANDWIDTH_HZ, "7.68e6", "frame.bandwidth_hz"),
    "channel.profile": _row(_choice(*CHANNEL_PROFILES, "custom"), "eva3",
                            "channel_profile"),
    # an uplink centers each user's pilot in the user's own bins
    "pilot.m_p": _row(int, "4", "pilot.pilot_delay", _LINK_KINDS),
    "pilot.n_p": _row(int, "8", "pilot.pilot_doppler", _LINK_KINDS),
    # a genie uplink sends no pilot, yet keeps these keys: the
    # estimated-CSI uplink made from its config by changing detector.csi
    # alone reuses them
    "pilot.power_db": _row(_POWER_DB, "30", "pilot.power"),
    "pilot.guards": _row(_parse_int_pair, "4,4",
                         "pilot.guard_delay pilot.guard_doppler"),
    "sweep.thresholds": _row(_float_list(), "0.1,0.2,0.3,0.4,0.5,0.6,0.8,1.0",
                             "sweep_thresholds", ("threshold_sweep",)),
    # sync_vs_snr and threshold_sweep sync whatever it says
    "sync.enabled": _row(_parse_bool, "false", "sync.enabled", _LINK_KINDS),
    "sync.threshold": _row(_finite, "0.5", "sync.threshold", *_SYNC_RUNS),
    "impair.theta_d": _row(_parse_offset_draw, "0", "impair.theta_d", *_SYNC_RUNS),
    "impair.theta_t": _row(int, "0", "impair.theta_t", *_SYNC_RUNS),
    "impair.epsilon": _row(_parse_draw, "0", "impair.epsilon", *_SYNC_RUNS),
    "detector.csi": _row(_choice("genie", "estimated"), "genie", "csi",
                         _DETECTION_KINDS),
    "est.threshold_sigma": _row(_THRESHOLD_SIGMA, "3.0", "pilot.detection_threshold",
                                _DETECTION_KINDS, lambda s: s.csi == "estimated",
                                " with detector.csi = genie"),
    "mu.q": _row(int, "2", "mu_users", ("mu_uplink",)),
    "mu.allocation": _row(_parse_user_bins, "", "mu_allocation", ("mu_uplink",)),
    "channel.taps": _row(_parse_taps, "", "custom_taps", EXPERIMENTS,
                         lambda s: s.channel_profile == "custom", _WITH_PROFILE),
    "channel.velocity_kmh": _row(_VELOCITY_KMH, "500", "velocity_kmh", *_FADING_READS),
    "frame.carrier_hz": _row(_CARRIER_HZ, "5.9e9", "frame.carrier_hz", *_FADING_READS),
}

# the keys some spec leaves unread, in the order check() names them
_UNREAD_BY_SOME = [(key, row) for key, row in SCHEMA.items()
                   if row.kinds != EXPERIMENTS or row.condition]


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines, # comments allowed, into each key's
    value (:func:`_resolve`). Lines end at ``\n``, ``\r\n`` or ``\r``,
    as a file read in text mode ends them. Raises ConfigError with line
    numbers on malformed lines and unknown or repeated keys."""
    raw, lines = {}, {}
    for lineno, src in enumerate(re.split(r"\r\n?|\n", text), 1):
        line = src.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {src!r}")
        key, value = (p.strip() for p in line.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} "
                              f"(first set on line {lines[key]})")
        raw[key] = value
        lines[key] = lineno
    return _resolve(raw, lines)


def _resolve(raw: dict, lines: dict) -> dict:
    out = {}
    for key, row in SCHEMA.items():
        text = raw.get(key, row.default)
        if text is None:
            raise ConfigError(f"missing required key {key!r}")
        try:
            out[key] = None if text == "" == row.default else row.parse(text)
        except (ValueError, TypeError) as exc:
            where = f"line {lines[key]}: " if key in lines else ""
            raise ConfigError(f"{where}bad value for {key}: {exc}") from None
    return out


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def canonical_text(cfg: dict) -> str:
    """Deterministic echo of the fully resolved configuration, in the
    config format: :func:`parse_config_text` of it gives ``cfg`` back. A
    fixed draw is written as its value and a uniform one as
    ``uniform:lo:hi``; custom taps and uplink bins as ``;``-separated
    entries of ``:``-separated fields; other lists ``,``-separated."""
    def fmt(v):
        if isinstance(v, tuple):
            if v[:1] == ("fixed",):
                return fmt(v[1])
            if v[:1] == ("uniform",):
                return ":".join(map(fmt, v))
            if v and isinstance(v[0], tuple):   # taps, uplink bins
                return "; ".join(":".join(map(fmt, e)) for e in v)
            return ",".join(map(fmt, v))
        if isinstance(v, Waveform):
            return v.value
        if isinstance(v, bool):
            return "true" if v else "false"
        if v is None:
            return ""
        return repr(v) if isinstance(v, float) else str(v)
    return "".join(f"{k} = {fmt(cfg[k])}\n" for k in sorted(SCHEMA))


# every key at its default, and by the one attribute it sets (pilot.power's in dB)
_DEFAULT_CONFIG = _resolve({"experiment": EXPERIMENTS[0]}, {})
_DEFAULT_OF = {row.fields[0]: _DEFAULT_CONFIG[key] for key, row in SCHEMA.items()
               if len(row.fields) == 1}


@dataclass(frozen=True)
class SyncSettings:
    enabled: bool = _DEFAULT_OF["sync.enabled"]
    threshold: float = _DEFAULT_OF["sync.threshold"]


@dataclass(frozen=True)
class ImpairSettings:
    """Per-trial impairment draws; each entry is ('fixed', x) or
    ('uniform', lo, hi)."""

    theta_d: tuple = _DEFAULT_OF["impair.theta_d"]
    theta_t: int = _DEFAULT_OF["impair.theta_t"]
    epsilon: tuple = _DEFAULT_OF["impair.epsilon"]

    @staticmethod
    def _draw(spec, rng, integer=False):
        if spec[0] == "fixed":
            return int(spec[1]) if integer else spec[1]
        lo, hi = spec[1], spec[2]
        if integer:
            return int(rng.integers(int(lo), int(hi) + 1))
        return float(rng.uniform(lo, hi))

    def draw(self, rng: np.random.Generator):
        """One draw; fixed settings leave ``rng`` unread."""
        return Impairments(
            timing_delay=self._draw(self.theta_d, rng, integer=True),
            timing_blocks=self.theta_t,
            cfo=self._draw(self.epsilon, rng),
        )


def _check_thresholds(key: str, values):
    for v in values:
        if not 0.0 < v <= 1.0:
            raise ConfigError(f"{key} must be in (0, 1], got {v:g}")


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    frame: FrameConfig
    waveforms: tuple
    constellation: str
    snr_db: tuple
    trials: int
    seed: int
    pilot: PilotConfig
    channel_profile: str = _DEFAULT_OF["channel_profile"]
    velocity_kmh: float = _DEFAULT_OF["velocity_kmh"]
    custom_taps: tuple | None = _DEFAULT_OF["custom_taps"]
    sync: SyncSettings = field(default_factory=SyncSettings)
    impair: ImpairSettings = field(default_factory=ImpairSettings)
    csi: str = _DEFAULT_OF["csi"]
    sweep_thresholds: tuple = _DEFAULT_OF["sweep_thresholds"]
    mu_users: int = _DEFAULT_OF["mu_users"]
    # per uplink user, (delay bins, Doppler bins); None for an even split
    mu_allocation: tuple | None = _DEFAULT_OF["mu_allocation"]
    config_echo: str = ""
    # the uplink's bins, built from the two above; None for other kinds
    allocation: Allocation | None = field(init=False, compare=False)

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.mu_users < 1:
            raise ConfigError("mu.q must be >= 1")
        theta_d = self.impair.theta_d[1:]
        if min(theta_d) < 0:
            raise ConfigError("impair.theta_d must be >= 0")
        if not all(float(v).is_integer() for v in theta_d):
            raise ConfigError(f"impair.theta_d must be a whole number of "
                              f"samples, got {', '.join(map(str, theta_d))}")
        for key, draw in (("impair.theta_d", self.impair.theta_d),
                          ("impair.epsilon", self.impair.epsilon)):
            if draw[0] == "uniform" and not draw[1] <= draw[2]:
                raise ConfigError(f"{key}: empty range {draw[1]:g} to {draw[2]:g}")
        if self.impair.theta_t < 0:
            raise ConfigError("impair.theta_t must be >= 0")
        object.__setattr__(self, "allocation", self._allocation())
        _check_thresholds("sync.threshold", (self.sync.threshold,))
        _check_thresholds("sweep.thresholds", self.sweep_thresholds)
        if not self.snr_db:
            raise ConfigError("snr_db must be non-empty")
        if self.channel_profile == "custom" and self.custom_taps is None:
            raise ConfigError("channel.profile = custom requires channel.taps")

    def _allocation(self) -> Allocation | None:
        """The uplink's bins: the ``mu.q`` users' bins ``mu.allocation``
        lists, or an even split of ``mu.q`` users; None for other kinds."""
        if self.kind != "mu_uplink":
            return None
        M, N, users = self.frame.M, self.frame.N, self.mu_allocation
        if users is None:
            try:
                return even_split_allocation(M, N, self.mu_users)
            except ValueError:   # more users than bins
                raise ConfigError(f"mu.q must be <= {min(M, N)} for an even "
                                  f"split of the {M}x{N} grid") from None
        try:
            alloc = Allocation(tuple(UserBins(*u) for u in users), M, N)
        except ValueError as exc:
            raise ConfigError(f"mu.allocation: {exc}") from None
        if alloc.n_users != self.mu_users:
            raise ConfigError(f"mu.q = {self.mu_users} but mu.allocation lists "
                              f"{alloc.n_users} users")
        return alloc

    def draw_channel(self, rng: np.random.Generator) -> LtvChannel:
        """One channel of the spec's profile, its gains and Doppler shifts
        drawn from ``rng``."""
        if self.channel_profile == "custom":
            delays, powers, dopplers = zip(*self.custom_taps)
            return taps_from_profile(delays, powers, self.frame, self.velocity_kmh,
                                     rng, dopplers_hz=dopplers)
        return make_channel(self.channel_profile, self.frame, self.velocity_kmh,
                            rng)


def _largest_tap_delay(spec: ExperimentSpec) -> int:
    """Largest tap delay of the spec's channel, in samples. The tap delays
    of every profile follow from the spec alone (only gains and Doppler
    are drawn), so one draw gives the largest delay of every trial."""
    return spec.draw_channel(np.random.default_rng(0)).n_spread - 1


def reads(spec: ExperimentSpec, key: str) -> bool:
    """Whether the trials of ``spec`` read the config key ``key``."""
    row = SCHEMA[key]
    return spec.kind in row.kinds and (row.condition is None or row.condition(spec))


def check(spec: ExperimentSpec) -> None:
    """The rules ``spec`` meets before a run's first trial, beyond the
    ranges of its own fields. Raises ConfigError where the spec syncs,
    for a one-column grid (no adjacent-sample pair in any metric row), a
    pilot run that can start past the window starts the block search
    compares (``sync.BLOCK_STARTS``), or a CFO outside the range the
    estimate tells apart; for estimated CSI without a guard row ahead of
    the pilot (the noise level comes from it), or with a user's bins
    that cannot hold its pilot's guard rectangle; and for every key set
    away from its default that the spec does not read (:func:`reads`)."""
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
        # sync.cfo_estimate wraps the CFO into [-N/2, N/2)
        for cfo in spec.impair.epsilon[1:]:
            if not abs(cfo) < frame.N / 2:
                raise ConfigError(
                    f"impair.epsilon: a CFO of {cfo:g} Doppler bins is outside "
                    f"(-frame.N/2, frame.N/2) = ({-frame.N / 2:g}, "
                    f"{frame.N / 2:g}), the range sync estimates it in")
    if (spec.kind in _DETECTION_KINDS and spec.csi == "estimated"
            and spec.pilot.guard_delay == 0):
        raise ConfigError("pilot.guards: detector.csi = estimated needs a "
                          "delay guard >= 1, the guard rows ahead of the "
                          "pilot that give the noise level")
    if spec.kind == "mu_uplink" and spec.csi == "estimated":
        for q in range(spec.allocation.n_users):
            try:
                _mu_user_pilot(spec.pilot, spec.allocation, q)
            except ValueError as exc:
                raise ConfigError(f"pilot.guards: {exc}; shrink pilot.guards or "
                                  f"use detector.csi = genie") from None
    unread = [key for key, row in _UNREAD_BY_SOME
              if row.value(spec) != row.value(_DEFAULT) and not reads(spec, key)]
    if unread:
        settings = dict.fromkeys(SCHEMA[key].setting.format(s=spec) for key in unread
                                 if spec.kind in SCHEMA[key].kinds)
        raise ConfigError(f"{', '.join(unread)}: {spec.kind}{' and'.join(settings)} "
                          f"never reads these keys; leave them at their defaults")


def spread_warnings(spec: ExperimentSpec) -> list:
    """``warning:`` lines for a delay spread beyond the CP or the pilot
    delay guard."""
    longest = _largest_tap_delay(spec)
    out = []
    if longest > spec.frame.cp_len:
        out.append(f"warning: largest tap delay {longest} exceeds frame.L_cp "
                   f"= {spec.frame.cp_len}; the channel is no longer cyclic over "
                   "the block, a case the detectors' channel model includes (a "
                   "trial sends one frame, with zeros before it)")
    if ((spec.csi == "estimated" or _runs_sync(spec))
            and longest > spec.pilot.guard_delay):
        out.append(f"warning: largest tap delay {longest} exceeds the pilot "
                   f"delay guard {spec.pilot.guard_delay}; channel estimation "
                   f"and sync do not see the later taps")
    return out


# the config keys behind each FrameConfig and PilotConfig check, by the
# start of its message
_CHECK_KEYS = (
    ("grid dimensions", "frame.M, frame.N"),
    ("cp_len", "frame.L_cp"),
    ("guard widths", "pilot.guards"),
    ("delay guard", "pilot.m_p, pilot.guards"),
    ("Doppler guard", "pilot.n_p, pilot.guards"),
)

# the part of a spec that each dotted attribute of a row's fields sets
_PARTS = {"frame": FrameConfig, "pilot": PilotConfig, "sync": SyncSettings,
          "impair": ImpairSettings}


def spec_from_config(cfg: dict) -> ExperimentSpec:
    """The spec that sets each key's value of ``cfg`` on its row's
    fields; a key of several fields spreads a tuple over them."""
    args, parts = {}, {part: {} for part in _PARTS}
    for key, row in SCHEMA.items():
        value = cfg[key]
        if key == "pilot.power_db":
            value = 10 ** (value / 10.0)
        for path, v in zip(row.fields, value if len(row.fields) > 1 else (value,)):
            part, _, name = path.rpartition(".")
            (parts[part] if part else args)[name] = v
    try:
        args.update({part: make(**parts[part]) for part, make in _PARTS.items()})
        # an uplink places no pilot at pilot.m_p, pilot.n_p
        if args["kind"] in SCHEMA["pilot.m_p"].kinds:
            args["pilot"].validate_fit(args["frame"])
    except ValueError as exc:
        message = str(exc)
        keys = next((k for start, k in _CHECK_KEYS if message.startswith(start)),
                    None)
        raise ConfigError(f"{keys}: {message}" if keys else message) from None
    return ExperimentSpec(**args, config_echo=canonical_text(cfg))


def load_spec(path: str) -> ExperimentSpec:
    return spec_from_config(load_config(path))


# every key at its default, in a spec
_DEFAULT = spec_from_config(_DEFAULT_CONFIG)
