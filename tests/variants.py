"""One table of run variants: each row is a committed config with config
lines set on top of it, the form in which the golden digests, the CI
runs and the tier-1 replay of CI's run loop all read it.

Pure data and the standard library: this module imports neither ddlink
nor numpy, so a tool that does not import ddlink can read it.

Write every row's config, ``DIR/<name>.cfg``, with
``python tests/variants.py DIR``; each row of :data:`EXIT_2` also gets
``DIR/<name>.message``, the line its ``ddlink validate`` must print.
"""

import re
import sys
from pathlib import Path

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# the 128x32 grid of the reference setup (the committed L_cp stays 8)
REFERENCE = "frame.M = 128\nframe.N = 32\n"


def _bins(lo, hi):
    return ",".join(map(str, range(lo, hi)))


# name: (committed config, lines that replace the config's own setting of
# their keys or are added to it); an empty mu.allocation splits the grid
# evenly, as the config echo writes it
VARIANTS = {
    **{path.stem: (path.stem, "") for path in sorted(CONFIGS.glob("*.cfg"))},
    # the committed link estimates CSI: the same link with genie CSI,
    # where one equalizer call solves the band for both waveforms
    "ber_vs_snr_genie": ("ber_vs_snr", "detector.csi = genie"),
    # the committed link with one waveform, whose rows are the sc_ifdma
    # rows of the two-waveform link
    "ber_vs_snr_sc_ifdma": ("ber_vs_snr", "waveforms = sc_ifdma"),
    # no committed config syncs a link: the link with sync, a random
    # timing offset and CFO, once a block late at two SNRs, and once at
    # every SNR with a wider CFO
    "ber_vs_snr_sync": ("ber_vs_snr", "snr_db = 10,20\nsync.enabled = true\n"
                        "impair.theta_d = uniform:0:6\nimpair.theta_t = 1\n"
                        "impair.epsilon = uniform:-0.3:0.3"),
    "ber_vs_snr_sync_wide_cfo": ("ber_vs_snr", "sync.enabled = true\n"
                                 "impair.theta_d = uniform:0:6\n"
                                 "impair.epsilon = uniform:-0.4:0.4"),
    # from 160 dB to the top of the SNR range, 300 dB, where the noise
    # variance falls below the rounding of the band solve
    "ber_vs_snr_high_snr": ("ber_vs_snr", "snr_db = 160,200,300"),
    "ber_vs_snr_high_snr_genie": ("ber_vs_snr", "snr_db = 160,200,300\n"
                                  "detector.csi = genie"),
    # the uplink with estimated CSI runs one detector call per waveform;
    # it reuses the genie config's pilot.* keys
    "mu_uplink_estimated": ("mu_uplink", "detector.csi = estimated"),
    # the even splits leave no bin out: one solve per genie trial serves
    # both waveforms on every bin
    "mu_uplink_even": ("mu_uplink", "mu.allocation ="),
    "mu_uplink_even_estimated": ("mu_uplink", "mu.allocation =\n"
                                 "detector.csi = estimated"),
    # an even split of three users that leaves bins unallocated
    "mu_uplink_estimated_3users": ("mu_uplink", "mu.allocation =\nmu.q = 3\n"
                                   "detector.csi = estimated\npilot.guards = 2,2"),
    # the users share every Doppler column, each on half the delay rows
    # (the Doppler split is committed)
    "mu_uplink_delay_split": (
        "mu_uplink",
        f"mu.allocation = {_bins(0, 16)}:{_bins(0, 16)}; {_bins(16, 32)}:{_bins(0, 16)}"),
    # the reference grid: a link on the nine-tap eva profile with estimated
    # CSI, and a two-user even-split uplink (2048 unknowns, band half-width
    # 111) with genie and with estimated CSI
    "ber_vs_snr_reference_eva": ("ber_vs_snr", REFERENCE + "channel.profile = eva\n"
                                 "snr_db = 10,20"),
    "mu_uplink_reference": ("mu_uplink", REFERENCE + "mu.allocation =\n"
                            "snr_db = 10,20"),
    "mu_uplink_reference_estimated": ("mu_uplink", REFERENCE + "mu.allocation =\n"
                                      "snr_db = 10,20\ndetector.csi = estimated"),
}

# name: (committed config, lines, what ``ddlink validate`` prints when it
# exits 2)
EXIT_2 = {
    # a value just past its key's range names the key and the line
    "ber_vs_snr_past_snr": (
        "ber_vs_snr", "snr_db = 20,300.001",
        "config error: line 8: bad value for snr_db: 300.001 dB is outside "
        "the range -100 to 300 dB"),
    # a key the kind never reads
    "sync_vs_snr_mu_q": (
        "sync_vs_snr", "mu.q = 3",
        "config error: mu.q: sync_vs_snr never reads these keys"),
    # users may share rows or columns, never a bin: no key lifts the rule
    "mu_uplink_relaxed": (
        "mu_uplink", "mu.relax_disjointness = true",
        "unknown key 'mu.relax_disjointness'"),
}


def with_lines(text, lines):
    """Config ``text`` with each of ``lines`` replacing the config's own
    setting of its key, or added to it."""
    for line in filter(None, lines.split("\n")):
        key = line.split("=", 1)[0].strip()
        text, n = re.subn(rf"^{re.escape(key)} = .*$", line, text, flags=re.M)
        text += "" if n else line + "\n"
    return text


def committed_with(config, lines):
    """The text of ``configs/<config>.cfg`` :func:`with_lines`."""
    return with_lines((CONFIGS / f"{config}.cfg").read_text(), lines)


def config_text(name):
    """The config text of the row ``name`` of either table."""
    config, lines = VARIANTS[name] if name in VARIANTS else EXIT_2[name][:2]
    return committed_with(config, lines)


def write(out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in (*VARIANTS, *EXIT_2):
        (out / f"{name}.cfg").write_text(config_text(name))
    for name, (_, _, message) in EXIT_2.items():
        (out / f"{name}.message").write_text(message + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/variants.py DIR")
    write(sys.argv[1])
