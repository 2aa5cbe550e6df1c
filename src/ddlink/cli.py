"""Experiment command line: run and validate configs, list channel profiles."""

import argparse
import sys

from .channel import CHANNEL_PROFILES
from .config import ConfigError, load_config, spec_from_config, spread_warnings
from .harness import prepare, run

REFERENCE_SCALE = (128, 32)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddlink",
        description="Delay-Doppler link-level Monte-Carlo experiments "
                    "(OTFS / SC-IFDMA).")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("config", help="path to a flat key=value config file")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the master seed")
    run_p.add_argument("--trials", type=int, default=None,
                       help="override the trial count")
    run_p.add_argument("--out", default=".",
                       help="output directory for results.csv / metadata.txt")
    run_p.add_argument("--parallelism", type=int, default=1,
                       help="worker processes for the trial loop")
    run_p.add_argument("--reference-scale", action="store_true",
                       help="force the 128x32 grid of the reference setup")

    val_p = sub.add_parser("validate", help="check a config and exit")
    val_p.add_argument("config")

    sub.add_parser("list-profiles", help="list built-in channel profiles")
    return parser


def _load(args):
    """The run's spec: the config file with the command-line overrides
    applied to its keys, so the metadata echoes what ran, checked by
    :func:`harness.prepare` so a run cannot fail on it after its first
    trial."""
    cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        cfg["trials"] = args.trials
    if getattr(args, "reference_scale", False):
        grid = (cfg["frame.M"], cfg["frame.N"])
        if (cfg["experiment"] == "mu_uplink" and cfg["mu.allocation"]
                and grid != REFERENCE_SCALE):
            raise ConfigError(
                f"mu.allocation = {cfg['mu.allocation']} lists bins of the "
                f"{grid[0]}x{grid[1]} grid, not of the {REFERENCE_SCALE[0]}x"
                f"{REFERENCE_SCALE[1]} reference grid; drop mu.allocation "
                f"for an even split")
        cfg["frame.M"], cfg["frame.N"] = REFERENCE_SCALE
    spec = spec_from_config(cfg)
    prepare(spec)
    return spec


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list-profiles":
        width = max(len(name) for name in CHANNEL_PROFILES)
        for name, (_, doc) in sorted(CHANNEL_PROFILES.items()):
            print(f"{name:<{width}}  {doc}")
        return 0

    try:
        spec = _load(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2

    for line in spread_warnings(spec):
        print(line, file=sys.stderr)
    if args.command == "validate":
        print(f"ok: {spec.kind}, {len(spec.snr_db)} SNR cells, "
              f"{spec.trials} trials, waveforms "
              f"{','.join(w.value for w in spec.waveforms)}")
        return 0

    if args.parallelism < 1:
        print(f"--parallelism must be >= 1, got {args.parallelism}",
              file=sys.stderr)
        return 2

    try:
        rows = run(spec, out_dir=args.out, parallelism=args.parallelism)
    except (ValueError, OSError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(rows)} rows to {args.out}/results.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
