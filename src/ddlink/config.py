"""Experiment configuration: a flat ``key = value`` text format with dotted
keys, a closed schema (unknown keys are errors, with line numbers), the
typed experiment spec the harness runs from, and the rules a spec meets
before a run's first trial.

The rules come in two places. :func:`spec_from_config` and
``ExperimentSpec`` check the range of each key as the spec is built.
:func:`check` checks what takes more than one key, or a channel draw:
the largest tap delay, which sync reads against the block search, the
CFO range of sync, the guard row that estimated CSI reads, and the keys
a spec leaves unread. One table, :data:`READS`, says which kinds read
each key that some spec leaves unread, and on what further setting;
:func:`check` rejects every such key set away from its default where
the spec does not read it, and names the keys, the kind and that
setting. :func:`spread_warnings` gives the ``warning:`` lines of a delay
spread the CP or the pilot guard does not cover.
"""

import math
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .chanest import PilotConfig
from .channel import (CHANNEL_PROFILES, LtvChannel, make_channel,
                      max_doppler_hz, taps_from_profile)
from .frame import FrameConfig
from .modem import Waveform
from .sync import BLOCK_STARTS, Impairments

EXPERIMENTS = ("threshold_sweep", "sync_vs_snr", "ber_vs_snr", "mu_uplink")
_SYNC_KINDS = ("sync_vs_snr", "threshold_sweep")
_DETECTION_KINDS = ("ber_vs_snr", "mu_uplink")
# the profiles whose taps take their Doppler from the velocity and carrier
_FADING = ("eva", "eva3")


class ConfigError(ValueError):
    pass


def _noise_var(snr_db: float) -> float:
    """Noise variance of a cell at ``snr_db``: unit signal power over it."""
    return 10.0 ** (-snr_db / 10.0)


# the whole-dB SNRs whose noise variance is a finite float of normal
# range: a subnormal one loses its precision (at 3233 dB, a BER of 0.17
# where 3200 dB gives the estimated-CSI floor of 0.029)
_SNR_RANGE = (math.ceil(-10 * math.log10(sys.float_info.max)),
              math.floor(-10 * math.log10(sys.float_info.min)))


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


def _parse_float_list(s):
    vals = tuple(_finite(p) for p in s.split(",") if p.strip())
    if not vals:
        raise ValueError("empty list")
    return vals


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


def _parse_taps(s):
    """Semicolon-separated 'delay_ns:power_db:doppler_hz' triples."""
    taps = []
    for part in s.split(";"):
        part = part.strip()
        if not part:
            continue
        fields = part.split(":")
        if len(fields) != 3:
            raise ValueError(f"tap {part!r} is not delay_ns:power_db:doppler_hz")
        taps.append(tuple(_finite(f) for f in fields))
    if not taps:
        raise ValueError("empty tap list")
    return tuple(taps)


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


# key -> (parser, default-as-text or None when required)
SCHEMA = {
    "experiment": (_choice(*EXPERIMENTS), None),
    "trials": (int, "2000"),
    "seed": (int, "0"),
    "snr_db": (_parse_float_list, "5,10,15"),
    "waveforms": (_waveforms, "otfs,sc_ifdma"),
    "constellation": (_choice("qpsk", "16qam"), "16qam"),
    "frame.M": (int, "32"),
    "frame.N": (int, "16"),
    "frame.L_cp": (int, "8"),
    "frame.bandwidth_hz": (_finite, "7.68e6"),
    "frame.carrier_hz": (_finite, "5.9e9"),
    "channel.profile": (_choice(*CHANNEL_PROFILES, "custom"), "eva3"),
    "channel.velocity_kmh": (_finite, "500"),
    "channel.taps": (_parse_taps, ""),
    "pilot.m_p": (int, "4"),
    "pilot.n_p": (int, "8"),
    "pilot.power_db": (_finite, "30"),
    "pilot.guards": (_parse_int_pair, "4,4"),
    "est.threshold_sigma": (_finite, "3.0"),
    "sync.enabled": (_parse_bool, "false"),
    "sync.threshold": (_finite, "0.5"),
    "impair.theta_d": (_parse_offset_draw, "0"),
    "impair.theta_t": (int, "0"),
    "impair.epsilon": (_parse_draw, "0"),
    "detector.csi": (_choice("genie", "estimated"), "genie"),
    "sweep.thresholds": (_parse_float_list, "0.1,0.2,0.3,0.4,0.5,0.6,0.8,1.0"),
    "mu.q": (int, "2"),
    "mu.allocation": (str, ""),
    "mu.relax_disjointness": (_parse_bool, "false"),
}

# keys whose empty default means "not set"
_OPTIONAL_EMPTY = {"channel.taps", "mu.allocation"}


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines into raw strings, # comments allowed.
    Raises ConfigError with line numbers on malformed or unknown keys."""
    raw, lines = {}, {}
    for lineno, src in enumerate(text.splitlines(), 1):
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
    if "experiment" not in raw:
        raise ConfigError("missing required key 'experiment'")
    out = {}
    for key, (parser, default) in SCHEMA.items():
        text = raw.get(key, default)
        if text is None or (text == "" and key in _OPTIONAL_EMPTY):
            out[key] = None
            continue
        try:
            out[key] = parser(text)
        except (ValueError, TypeError) as exc:
            where = f"line {lines[key]}: " if key in lines else ""
            raise ConfigError(f"{where}bad value for {key}: {exc}") from None
    return out


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def canonical_text(cfg: dict) -> str:
    """Deterministic echo of the fully resolved configuration."""
    def fmt(v):
        if isinstance(v, tuple):
            return ",".join(fmt(x) for x in v)
        if isinstance(v, Waveform):
            return v.value
        if isinstance(v, bool):
            return "true" if v else "false"
        if v is None:
            return ""
        return repr(v) if isinstance(v, float) else str(v)
    return "".join(f"{k} = {fmt(cfg[k])}\n" for k in sorted(SCHEMA))


@dataclass(frozen=True)
class SyncSettings:
    enabled: bool = False
    threshold: float = 0.5


@dataclass(frozen=True)
class ImpairSettings:
    """Per-trial impairment draws; each entry is ('fixed', x) or
    ('uniform', lo, hi)."""

    theta_d: tuple = ("fixed", 0)
    theta_t: int = 0
    epsilon: tuple = ("fixed", 0.0)

    @staticmethod
    def _draw(spec, rng, integer=False):
        if spec[0] == "fixed":
            return int(spec[1]) if integer else spec[1]
        lo, hi = spec[1], spec[2]
        if integer:
            return int(rng.integers(int(lo), int(hi) + 1))
        return float(rng.uniform(lo, hi))

    @property
    def _random(self) -> bool:
        """Whether :meth:`draw` reads its generator: some setting is
        uniform."""
        return "uniform" in (self.theta_d[0], self.epsilon[0])

    def draw(self, rng: np.random.Generator | None):
        """One draw; ``rng`` may be None when no setting is uniform."""
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
    channel_profile: str = "eva3"
    velocity_kmh: float = 500.0
    custom_taps: tuple | None = None
    sync: SyncSettings = field(default_factory=SyncSettings)
    impair: ImpairSettings = field(default_factory=ImpairSettings)
    csi: str = "genie"
    sweep_thresholds: tuple = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0)
    mu_users: int = 2
    mu_allocation_path: str | None = None
    mu_relax_disjointness: bool = False
    config_echo: str = ""

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.mu_users < 1:
            raise ConfigError("mu.q must be >= 1")
        most = min(self.frame.M, self.frame.N)
        if (self.kind == "mu_uplink" and not self.mu_allocation_path
                and self.mu_users > most):
            raise ConfigError(f"mu.q must be <= {most} for an even split of "
                              f"the {self.frame.M}x{self.frame.N} grid")
        _check_thresholds("sync.threshold", (self.sync.threshold,))
        _check_thresholds("sweep.thresholds", self.sweep_thresholds)
        if not self.snr_db:
            raise ConfigError("snr_db must be non-empty")
        for snr in self.snr_db:
            try:
                usable = sys.float_info.min <= _noise_var(snr) < math.inf
            except OverflowError:
                usable = False
            if not usable:
                lo, hi = _SNR_RANGE
                raise ConfigError(f"snr_db = {snr:g}: the noise variance "
                                  f"10**(-snr_db/10) is not a finite, normal "
                                  f"float; use snr_db from {lo} to {hi} dB")
        if self.channel_profile == "custom" and self.custom_taps is None:
            raise ConfigError("channel.profile = custom requires channel.taps")
        if self.velocity_kmh < 0:
            raise ConfigError(f"channel.velocity_kmh must be >= 0, "
                              f"got {self.velocity_kmh:g}")
        for delay_ns, _, _ in self.custom_taps or ():
            if delay_ns < 0:
                raise ConfigError(f"channel.taps: tap delay_ns must be >= 0, "
                                  f"got {delay_ns:g}")

    def draw_channel(self, rng: np.random.Generator) -> LtvChannel:
        """One channel of the spec's profile, its gains and Doppler shifts
        drawn from ``rng``."""
        if self.channel_profile == "custom":
            delays, powers, dopplers = zip(*self.custom_taps)
            return taps_from_profile(delays, powers, self.frame, self.velocity_kmh,
                                     rng, dopplers_hz=dopplers)
        return make_channel(self.channel_profile, self.frame, self.velocity_kmh,
                            rng)


def _runs_sync(spec: ExperimentSpec) -> bool:
    """Whether the trials of ``spec`` sync (an uplink's never do)."""
    return spec.kind in _SYNC_KINDS or (spec.kind == "ber_vs_snr"
                                        and spec.sync.enabled)


def _largest_tap_delay(spec: ExperimentSpec) -> int:
    """Largest tap delay of the spec's channel, in samples. The tap delays
    of every profile follow from the spec alone (only gains and Doppler
    are drawn), so one draw gives the largest delay of every trial."""
    return spec.draw_channel(np.random.default_rng(0)).n_spread - 1


# Which specs read a config key: those of ``kinds`` on which
# ``condition`` (None: any) holds; ``setting`` names, after the kind, a
# spec where it fails. ``value`` gives the spec's value of the key.
_Read = namedtuple("_Read", "value kinds condition setting", defaults=(None, ""))

# read where sync runs
_SYNC_RUNS = ((*_SYNC_KINDS, "ber_vs_snr"), _runs_sync, " without sync.enabled = true")

_WITH_PROFILE = " with channel.profile = {s.channel_profile}"
# read where the profile's Doppler comes from the velocity and carrier
_FADING_READS = (EXPERIMENTS, lambda s: s.channel_profile in _FADING, _WITH_PROFILE)

# every key that some spec leaves unread
READS = {
    "sweep.thresholds": _Read(attrgetter("sweep_thresholds"), ("threshold_sweep",)),
    # sync_vs_snr and threshold_sweep sync whatever it says
    "sync.enabled": _Read(attrgetter("sync.enabled"), (*_SYNC_KINDS, "ber_vs_snr")),
    "sync.threshold": _Read(attrgetter("sync.threshold"), *_SYNC_RUNS),
    "impair.theta_d": _Read(attrgetter("impair.theta_d"), *_SYNC_RUNS),
    "impair.theta_t": _Read(attrgetter("impair.theta_t"), *_SYNC_RUNS),
    "impair.epsilon": _Read(attrgetter("impair.epsilon"), *_SYNC_RUNS),
    "detector.csi": _Read(attrgetter("csi"), _DETECTION_KINDS),
    "est.threshold_sigma": _Read(attrgetter("pilot.detection_threshold"),
                                 _DETECTION_KINDS, lambda s: s.csi == "estimated",
                                 " with detector.csi = genie"),
    "mu.q": _Read(attrgetter("mu_users"), ("mu_uplink",)),
    "mu.allocation": _Read(attrgetter("mu_allocation_path"), ("mu_uplink",)),
    "mu.relax_disjointness": _Read(attrgetter("mu_relax_disjointness"), ("mu_uplink",)),
    "channel.taps": _Read(attrgetter("custom_taps"), EXPERIMENTS,
                          lambda s: s.channel_profile == "custom", _WITH_PROFILE),
    "channel.velocity_kmh": _Read(attrgetter("velocity_kmh"), *_FADING_READS),
    "frame.carrier_hz": _Read(attrgetter("frame.carrier_hz"), *_FADING_READS),
    # a genie uplink sends no pilot, yet keeps these keys: the
    # estimated-CSI uplink made from its config by changing detector.csi
    # alone reuses them
    "pilot.m_p": _Read(attrgetter("pilot.pilot_delay"), EXPERIMENTS),
    "pilot.n_p": _Read(attrgetter("pilot.pilot_doppler"), EXPERIMENTS),
    "pilot.power_db": _Read(attrgetter("pilot.power"), EXPERIMENTS),
    "pilot.guards": _Read(attrgetter("pilot.guard_delay", "pilot.guard_doppler"),
                          EXPERIMENTS),
}


def reads(spec: ExperimentSpec, key: str) -> bool:
    """Whether the trials of ``spec`` read the :data:`READS` key ``key``."""
    read = READS[key]
    return spec.kind in read.kinds and (read.condition is None or read.condition(spec))


def check(spec: ExperimentSpec) -> None:
    """The rules ``spec`` meets before a run's first trial, beyond the
    ranges of its own fields. Raises ConfigError for a tap delay whose
    sample count overflows an int64; where the spec syncs, for a
    one-column grid (no adjacent-sample pair in any metric row), a pilot
    run that can start past the window starts the block search compares
    (``sync.BLOCK_STARTS``), or a CFO outside the range the estimate
    tells apart; for an eva or eva3 spec whose largest Doppler shift
    turns a tap ramp's phase over the longest record past the float
    range; for estimated CSI without a guard row ahead of the pilot (the
    noise level comes from it); and for every :data:`READS` key set away
    from its default that the spec does not read."""
    frame = spec.frame
    try:
        longest = _largest_tap_delay(spec)
    except ValueError as exc:
        keys = ("frame.bandwidth_hz, channel.taps"
                if spec.channel_profile == "custom" else "frame.bandwidth_hz")
        raise ConfigError(f"{keys}: {exc}") from None
    record = frame.frame_len
    if _runs_sync(spec):
        if frame.N == 1:
            raise ConfigError("frame.N = 1 leaves the sync timing metric no "
                              "adjacent-sample pair; sync needs frame.N >= 2")
        # the largest theta_d: a fixed value, or the top of its range
        terms = (frame.cp_len, spec.pilot.pilot_delay,
                 int(spec.impair.theta_d[-1]), longest)
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
        # the longest record: the largest offset, two grids and a CP
        record = (int(spec.impair.theta_d[-1]) + frame.M * spec.impair.theta_t
                  + 2 * frame.grid_size + frame.cp_len)
    if spec.channel_profile in _FADING:
        # channel.tap_ramps turns 2 pi nu kappa for each record sample kappa
        nu_hz = max_doppler_hz(frame, spec.velocity_kmh)
        spacing = frame.doppler_spacing
        nu_bins = nu_hz / spacing if spacing else math.inf
        if not math.isfinite(2 * math.pi * nu_bins * record):
            raise ConfigError(
                f"channel.velocity_kmh, frame.carrier_hz: the largest Doppler "
                f"shift, {nu_hz:g} Hz or {nu_bins:g} Doppler bins at "
                f"frame.bandwidth_hz = {frame.bandwidth_hz:g}, puts the tap "
                f"phase 2*pi*nu*kappa of a {record}-sample record beyond the "
                f"float range; lower the velocity or the carrier")
    if (spec.kind in _DETECTION_KINDS and spec.csi == "estimated"
            and spec.pilot.guard_delay == 0):
        raise ConfigError("pilot.guards: detector.csi = estimated needs a "
                          "delay guard >= 1, the guard rows ahead of the "
                          "pilot that give the noise level")
    unread = [key for key, read in READS.items()
              if read.value(spec) != read.value(_DEFAULT) and not reads(spec, key)]
    if unread:
        settings = dict.fromkeys(READS[key].setting.format(s=spec) for key in unread
                                 if spec.kind in READS[key].kinds)
        raise ConfigError(f"{', '.join(unread)}: {spec.kind}{' and'.join(settings)} "
                          f"never reads these keys; leave them at their defaults")


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


# the config keys behind each FrameConfig and PilotConfig check, by the
# start of its message
_CHECK_KEYS = (
    ("grid dimensions", "frame.M, frame.N"),
    ("cp_len", "frame.L_cp"),
    ("bandwidth_hz", "frame.bandwidth_hz"),
    ("carrier_hz", "frame.carrier_hz"),
    ("pilot power", "pilot.power_db"),
    ("guard widths", "pilot.guards"),
    ("detection threshold", "est.threshold_sigma"),
    ("delay guard", "pilot.m_p, pilot.guards"),
    ("Doppler guard", "pilot.n_p, pilot.guards"),
)


def spec_from_config(cfg: dict) -> ExperimentSpec:
    g_delay, g_doppler = cfg["pilot.guards"]
    try:
        frame = FrameConfig(
            M=cfg["frame.M"], N=cfg["frame.N"], cp_len=cfg["frame.L_cp"],
            bandwidth_hz=cfg["frame.bandwidth_hz"], carrier_hz=cfg["frame.carrier_hz"],
        )
        pilot = PilotConfig(
            pilot_delay=cfg["pilot.m_p"], pilot_doppler=cfg["pilot.n_p"],
            power=10 ** (cfg["pilot.power_db"] / 10.0),
            guard_delay=g_delay, guard_doppler=g_doppler,
            detection_threshold=cfg["est.threshold_sigma"],
        )
        pilot.validate_fit(frame)
    except OverflowError:
        raise ConfigError(f"pilot.power_db = {cfg['pilot.power_db']:g} is too "
                          f"large a power") from None
    except ValueError as exc:
        message = str(exc)
        keys = next((k for start, k in _CHECK_KEYS if message.startswith(start)),
                    None)
        raise ConfigError(f"{keys}: {message}" if keys else message) from None
    theta = cfg["impair.theta_t"]
    if theta < 0:
        raise ConfigError("impair.theta_t must be >= 0")
    return ExperimentSpec(
        kind=cfg["experiment"],
        frame=frame,
        waveforms=cfg["waveforms"],
        constellation=cfg["constellation"],
        snr_db=cfg["snr_db"],
        trials=cfg["trials"],
        seed=cfg["seed"],
        channel_profile=cfg["channel.profile"],
        velocity_kmh=cfg["channel.velocity_kmh"],
        custom_taps=cfg["channel.taps"],
        pilot=pilot,
        sync=SyncSettings(
            enabled=cfg["sync.enabled"], threshold=cfg["sync.threshold"]),
        impair=ImpairSettings(theta_d=cfg["impair.theta_d"],
                              theta_t=theta,
                              epsilon=cfg["impair.epsilon"]),
        csi=cfg["detector.csi"],
        sweep_thresholds=cfg["sweep.thresholds"],
        mu_users=cfg["mu.q"],
        mu_allocation_path=cfg["mu.allocation"],
        mu_relax_disjointness=cfg["mu.relax_disjointness"],
        config_echo=canonical_text(cfg),
    )


def load_spec(path: str) -> ExperimentSpec:
    return spec_from_config(load_config(path))


# every key at its default, parsed once
_DEFAULT = spec_from_config(_resolve({"experiment": EXPERIMENTS[0]}, {}))
