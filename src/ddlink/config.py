"""Experiment configuration: a flat ``key = value`` text format with dotted
keys, a closed schema (unknown keys are errors, with line numbers), and the
typed experiment spec the harness runs from.
"""

from dataclasses import dataclass, field

import numpy as np

from .chanest import PilotConfig
from .channel import CHANNEL_PROFILES
from .frame import FrameConfig
from .modem import Waveform

EXPERIMENTS = ("threshold_sweep", "sync_vs_snr", "ber_vs_snr", "mu_uplink")


class ConfigError(ValueError):
    pass


def _parse_bool(s):
    v = s.strip().lower()
    if v in ("true", "yes", "1", "on"):
        return True
    if v in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_float_list(s):
    vals = tuple(float(p) for p in s.split(",") if p.strip())
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
        lo, hi = float(lo), float(hi)
        if hi < lo:
            raise ValueError(f"empty range in {s!r}")
        return ("uniform", lo, hi)
    return ("fixed", float(s))


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
        taps.append((float(fields[0]), float(fields[1]), float(fields[2])))
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
    "frame.bandwidth_hz": (float, "7.68e6"),
    "frame.carrier_hz": (float, "5.9e9"),
    "channel.profile": (_choice(*CHANNEL_PROFILES, "custom"), "eva3"),
    "channel.velocity_kmh": (float, "500"),
    "channel.taps": (_parse_taps, ""),
    "pilot.m_p": (int, "4"),
    "pilot.n_p": (int, "8"),
    "pilot.power_db": (float, "30"),
    "pilot.guards": (_parse_int_pair, "4,4"),
    "est.threshold_sigma": (float, "3.0"),
    "sync.enabled": (_parse_bool, "false"),
    "sync.threshold": (float, "0.5"),
    "sync.search_rows": (int, ""),
    "sync.max_blocks": (int, "2"),
    "impair.theta_d": (_parse_draw, "0"),
    "impair.theta_t": (int, "0"),
    "impair.epsilon": (_parse_draw, "0"),
    "detector.csi": (_choice("genie", "estimated"), "genie"),
    "sweep.thresholds": (_parse_float_list, "0.1,0.2,0.3,0.4,0.5,0.6,0.8,1.0"),
    "mu.q": (int, "2"),
    "mu.allocation": (str, ""),
    "mu.relax_disjointness": (_parse_bool, "false"),
}

# keys whose empty default means "not set"
_OPTIONAL_EMPTY = {"channel.taps", "sync.search_rows", "mu.allocation"}


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
    search_rows: int | None = None
    max_blocks: int = 2


@dataclass(frozen=True)
class ImpairSettings:
    """Per-trial impairment draws; each entry is ('fixed', x) or
    ('uniform', lo, hi)."""

    theta_d: tuple = ("fixed", 0.0)
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

    def draw(self, rng: np.random.Generator):
        from .sync import Impairments
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
    channel_profile: str = "eva3"
    velocity_kmh: float = 500.0
    custom_taps: tuple | None = None
    pilot: PilotConfig = None
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
        if self.pilot is None:
            object.__setattr__(self, "pilot", default_pilot(self.frame))
        if self.channel_profile == "custom" and self.custom_taps is None:
            raise ConfigError("channel.profile = custom requires channel.taps")


def default_pilot(frame: FrameConfig) -> PilotConfig:
    g_delay = min(4, (frame.M - 1) // 2)
    g_doppler = min(4, (frame.N - 1) // 2)
    return PilotConfig(
        pilot_delay=g_delay,
        pilot_doppler=frame.N // 2,
        power=10 ** 3.0,
        guard_delay=g_delay,
        guard_doppler=g_doppler,
    )


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
            enabled=cfg["sync.enabled"], threshold=cfg["sync.threshold"],
            search_rows=cfg["sync.search_rows"], max_blocks=cfg["sync.max_blocks"],
        ),
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
