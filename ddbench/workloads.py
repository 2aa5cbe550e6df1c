"""Benchmark workloads: which committed config each one runs, and how.

A workload is a committed ``configs/*.cfg`` plus a few config-key
overrides. It is measured in batches: one batch is one
``ddlink.harness.run`` call, the entry point ``ddlink run`` uses, over
the workload's SNR cells with ``batch_trials`` trials per cell and a
seed derived from the run's ``--seed`` and the batch index. A run
measures whole batches until its time is up, so every SNR cell is
sampled equally and a faster program simply runs more batches.

This module does not import ddlink: the parent process that starts the
measurement processes never loads the program under test.
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    config: str                 # path relative to the checkout root
    batch_trials: int           # trials per SNR cell in one batch
    why: str
    overrides: dict = field(default_factory=dict)   # config key -> parsed value
    reference_scale: bool = False                   # the CLI's --reference-scale
    reference_batches: int = 64                     # batches with recorded rows


WORKLOADS = {w.name: w for w in (
    Workload(
        "link_desk", "configs/ber_vs_snr.cfg", batch_trials=1,
        why="ber_vs_snr at 32x16, estimated CSI, 16-QAM, MMSE: dense "
            "equalize_mmse plus build_dd_matrix are ~97% of a trial, with a "
            "4 MB matrix that fits in L2"),
    Workload(
        "sync_desk", "configs/sync_vs_snr.cfg", batch_trials=20,
        why="sync_vs_snr at 32x16: sync, apply_channel, modem and harness "
            "glue with no DD-matrix build and no equalizer; the bypass "
            "workload for equalizer and channel-model changes"),
    Workload(
        "mu_desk", "configs/mu_uplink.cfg", batch_trials=1,
        why="mu_uplink at 32x16, genie CSI, 2 users: per-user builds spliced "
            "by multiuser.compound_matrix and joint detection by "
            "multiuser.detect_users instead of equalize"),
    # Not listed in BENCHMARK.json: one 128x32 trial takes 5-25 s on a
    # 2-core machine and its cost follows the LSMR iteration count of the
    # drawn channel, so a run of a few tens of seconds is not steady.
    # It is kept for manual before/after runs of reference-scale work.
    Workload(
        "link_ref", "configs/ber_vs_snr.cfg", batch_trials=1,
        why="ber_vs_snr at the 128x32 reference scale with LSMR: the only "
            "workload whose dense matrix (268 MB) is far beyond cache and "
            "the only one that runs equalize_iterative",
        overrides={"eq.method": "iterative", "snr_db": (10.0,)},
        reference_scale=True, reference_batches=2),
)}


def batch_seed(seed: int, batch: int) -> int:
    """Master seed of one batch: distinct for every (seed, batch) pair."""
    return int(np.random.SeedSequence([seed, batch]).generate_state(1)[0])
