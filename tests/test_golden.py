"""Golden bytes: ``results.csv`` of every committed config, at its own seed
with a few trials per cell, hashed and compared with digests recorded
before the last refactor of the trial pipeline. A refactor that changes
any result row fails here.

The variants cover receive paths the committed configs leave out:
the link with genie CSI, estimated multiuser CSI (on the committed
config's bins, and on an even split of three users that leaves bins
unallocated), a link with sync and impairments, and the 128x32
reference grid: a link on the nine-tap ``eva`` profile with estimated
CSI, and a two-user even-split uplink (2048 unknowns, band half-width
111) with genie and with estimated CSI.

Print the digests of the current code with
``PYTHONPATH=src python tests/test_golden.py``
from the repository root, after a header line naming the Python, numpy,
scipy, LAPACK and OpenBLAS that produced them; record them only from a
commit whose results are known good.
"""

import hashlib
import platform
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy

from ddlink._blas import _lapack, _openblas
from ddlink.chanest import PilotConfig
from ddlink.config import ImpairSettings, SyncSettings, load_spec
from ddlink.frame import FrameConfig
from ddlink.harness import rows_to_csv, run

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = FrameConfig(128, 32, cp_len=8)


def _spec(name, trials, **overrides):
    spec = load_spec(str(ROOT / "configs" / f"{name}.cfg"))
    return replace(spec, trials=trials, **overrides)


CASES = {
    "ber_vs_snr": lambda: _spec("ber_vs_snr", 4),
    "sync_vs_snr": lambda: _spec("sync_vs_snr", 8),
    "threshold_sweep": lambda: _spec("threshold_sweep", 8),
    "mu_uplink": lambda: _spec("mu_uplink", 3),
    "mu_uplink_doppler_split": lambda: _spec("mu_uplink_doppler_split", 3),
    "mu_uplink_estimated": lambda: _spec("mu_uplink", 3, csi="estimated"),
    "mu_uplink_estimated_3users": lambda: _spec(
        "mu_uplink", 3, csi="estimated", mu_allocation=None, mu_users=3,
        pilot=PilotConfig(4, 8, 1000.0, 2, 2)),
    "ber_vs_snr_genie": lambda: _spec("ber_vs_snr", 4, csi="genie"),
    "ber_vs_snr_sync": lambda: _spec(
        "ber_vs_snr", 3, snr_db=(10.0, 20.0),
        sync=SyncSettings(enabled=True, threshold=0.5),
        impair=ImpairSettings(theta_d=("uniform", 0, 6), theta_t=1,
                              epsilon=("uniform", -0.3, 0.3))),
    "ber_vs_snr_reference_eva": lambda: _spec(
        "ber_vs_snr", 3, frame=REFERENCE, channel_profile="eva",
        snr_db=(10.0, 20.0)),
    "mu_uplink_reference": lambda: _spec(
        "mu_uplink", 2, frame=REFERENCE, mu_allocation=None,
        snr_db=(10.0, 20.0)),
    "mu_uplink_reference_estimated": lambda: _spec(
        "mu_uplink", 2, frame=REFERENCE, mu_allocation=None,
        csi="estimated", snr_db=(10.0, 20.0)),
}

DIGESTS = {
    "ber_vs_snr": "634d85964522e8b0ff002069309fd52f7af71702fa78f36f4534e208371857de",
    "ber_vs_snr_genie": "84a14cd84e170b5f494e9aa1c2d8e80d091e9b9d261fe6d2242f118faaed60ec",
    "ber_vs_snr_reference_eva": "6b396ebada32214983f31809d518c4deb2443560fb5377d1d1de97c244b06416",
    "ber_vs_snr_sync": "7d268a2dd42b62a78446fe8f91d24d4d2ed2a14ed1a1acbccc0a483c506fafb7",
    "mu_uplink": "5d8cc3b781fd8ea3fc9a6c8fe6c7ed9502fb4cffd25a3d49f80c1b11b7a921db",
    "mu_uplink_doppler_split": "05e5f360bf78d578f5782bbb68b5150b6d66a601c9163e0a71320308bd1050ff",
    "mu_uplink_estimated": "769e4a6be32d46a609547d579f7112da3818c192cef349abac298a52a3615191",
    "mu_uplink_estimated_3users": "c19ac258776f8aec6473a992996f4e24d1fe153f1d93e7bc64527a85f17cacd7",
    "mu_uplink_reference": "503b7f689ebac36c5bbdf6876528f6d26e82235b2b9403842bd9383c530aeef3",
    "mu_uplink_reference_estimated": "f86dd4d70d32120eba8d210755e74088d81bbae15d320694caa95a7adf47840e",
    "sync_vs_snr": "96b627f6cfed73e0131fb3fbcfb2c3d500fd2416718c70ed4b79dd1cb1bef2d0",
    "threshold_sweep": "e5f07ef6261a9de0247e4e1a59566b9fb508736c99a09e8057dcfc50c996fc0f",
}


def digest(case: str) -> str:
    return hashlib.sha256(rows_to_csv(run(CASES[case]())).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_results_csv_bytes(case):
    assert digest(case) == DIGESTS[case]


def environment() -> str:
    """One line naming what produced the digests: the Python, numpy and
    scipy versions, the band solve's LAPACK and the OpenBLAS config."""
    blas = _openblas()
    return (f"# Python {platform.python_version()}, numpy {np.__version__}, "
            f"scipy {scipy.__version__}; LAPACK: {_lapack().source}; "
            f"OpenBLAS: {blas.config if blas else 'none found'}")


if __name__ == "__main__":
    print(environment())
    for case in sorted(CASES):
        print(f'    "{case}": "{digest(case)}",')
