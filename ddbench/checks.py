"""Correctness checks on what the program returns.

Per trial, on the detection experiments: the OTFS and SC-IFDMA receivers
see one shared physical record, so their symbol decisions must agree
exactly (the paired-decision identity of the acceptance suite). On the
synchronization experiment: errors are finite, non-negative, and timing
errors are whole samples.

Per batch: the aggregated rows have the expected labels, counts and
ranges, and, for a batch recorded at the seed commit, the exact text
``ddlink run`` would write to results.csv.
"""

import hashlib
import math

import numpy as np

DETECTION = ("ber_vs_snr", "mu_uplink")


def check_trial(kind, out):
    """Reason the trial result is wrong, or None."""
    if kind in DETECTION:
        a, b = out["otfs"], out["sc_ifdma"]
        if not np.array_equal(a["decisions"], b["decisions"]):
            n = int(np.count_nonzero(a["decisions"] != b["decisions"]))
            return f"OTFS and SC-IFDMA decisions differ in {n} symbols"
        for w, r in out.items():
            if not 0 <= r["bit_errors"] <= r["bits"] or r["bits"] <= 0:
                return f"{w}: {r['bit_errors']} bit errors of {r['bits']} bits"
        return None
    for w, r in out.items():
        for key, v in r.items():
            if not (math.isfinite(v) and v >= 0):
                return f"{w}: {key} = {v!r}"
            if key.endswith("_err") and key != "cfo_sq_err" and v != int(v):
                return f"{w}: {key} = {v!r} is not a whole sample count"
    return None


def check_rows(spec, rows):
    """Reason the aggregated rows of one ``harness.run`` call are wrong,
    or None."""
    per_cell = 1 if spec.kind in DETECTION else 3
    expected = len(spec.snr_db) * len(spec.waveforms) * per_cell
    if len(rows) != expected:
        return f"{len(rows)} rows, expected {expected}"
    ber = {}
    for r in rows:
        if (r.experiment != spec.kind or r.trials != spec.trials
                or r.seed != spec.seed or not math.isfinite(r.value)
                or r.value < 0):
            return f"bad row {r}"
        if r.metric == "BER":
            if r.value > 1:
                return f"BER above 1: {r}"
            ber.setdefault(r.snr_db, set()).add(r.value)
    if any(len(v) != 1 for v in ber.values()):
        return "paired waveforms report different BER"
    return None


def rows_digest(csv_text):
    return hashlib.sha256(csv_text.encode()).hexdigest()
