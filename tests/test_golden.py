"""Golden bytes: ``results.csv`` of every committed config, at its own seed
with a few trials per cell, hashed and compared with digests recorded
before the last refactor of the trial pipeline. A refactor that changes
any result row fails here.

The variants cover receive paths the committed configs leave out:
estimated multiuser CSI (on the allocation file, and on an even
split of three users that leaves bins unallocated) and a link with
sync and impairments.

Print the digests of the current code with
``PYTHONPATH=src python tests/test_golden.py``
from the repository root; record them only from a commit whose results are
known good.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from ddlink.chanest import PilotConfig
from ddlink.config import ImpairSettings, SyncSettings, load_spec
from ddlink.harness import rows_to_csv, run

ROOT = Path(__file__).resolve().parent.parent


def _spec(name, trials, **overrides):
    spec = load_spec(str(ROOT / "configs" / f"{name}.cfg"))
    if spec.mu_allocation_path:
        overrides.setdefault("mu_allocation_path",
                             str(ROOT / spec.mu_allocation_path))
    return replace(spec, trials=trials, **overrides)


CASES = {
    "ber_vs_snr": lambda: _spec("ber_vs_snr", 4),
    "sync_vs_snr": lambda: _spec("sync_vs_snr", 8),
    "threshold_sweep": lambda: _spec("threshold_sweep", 8),
    "mu_uplink": lambda: _spec("mu_uplink", 3),
    "mu_uplink_estimated": lambda: _spec("mu_uplink", 3, csi="estimated"),
    "mu_uplink_estimated_3users": lambda: _spec(
        "mu_uplink", 3, csi="estimated", mu_allocation_path="", mu_users=3,
        pilot=PilotConfig(4, 8, 1000.0, 2, 2)),
    "ber_vs_snr_sync": lambda: _spec(
        "ber_vs_snr", 3, snr_db=(10.0, 20.0),
        sync=SyncSettings(enabled=True, threshold=0.5),
        impair=ImpairSettings(theta_d=("uniform", 0, 6), theta_t=1,
                              epsilon=("uniform", -0.3, 0.3))),
}

DIGESTS = {
    "ber_vs_snr": "634d85964522e8b0ff002069309fd52f7af71702fa78f36f4534e208371857de",
    "ber_vs_snr_sync": "7d268a2dd42b62a78446fe8f91d24d4d2ed2a14ed1a1acbccc0a483c506fafb7",
    "mu_uplink": "5d8cc3b781fd8ea3fc9a6c8fe6c7ed9502fb4cffd25a3d49f80c1b11b7a921db",
    "mu_uplink_estimated": "769e4a6be32d46a609547d579f7112da3818c192cef349abac298a52a3615191",
    "mu_uplink_estimated_3users": "c19ac258776f8aec6473a992996f4e24d1fe153f1d93e7bc64527a85f17cacd7",
    "sync_vs_snr": "96b627f6cfed73e0131fb3fbcfb2c3d500fd2416718c70ed4b79dd1cb1bef2d0",
    "threshold_sweep": "e5f07ef6261a9de0247e4e1a59566b9fb508736c99a09e8057dcfc50c996fc0f",
}


def digest(case: str) -> str:
    return hashlib.sha256(rows_to_csv(run(CASES[case]())).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_results_csv_bytes(case):
    assert digest(case) == DIGESTS[case]


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f'    "{case}": "{digest(case)}",')
