"""Golden bytes: ``results.csv`` of every committed config and of the
variants in ``tests/variants.py`` that cover receive paths the committed
configs leave out, each at its own seed with a few trials per cell
(:data:`TRIALS`), hashed and compared with digests recorded before the
last refactor of the trial pipeline. A refactor that changes any result
row fails here. Each case is its row's config text, read by the config
parser.

Print the digests of the current code with
``PYTHONPATH=src python tests/test_golden.py``
from the repository root, after a header line naming the Python, numpy,
scipy, LAPACK and OpenBLAS that produced them; record them only from a
commit whose results are known good.
"""

import hashlib
import platform

import numpy as np
import pytest
import scipy

from ddlink._blas import _lapack, _openblas
from ddlink.config import parse_config_text, spec_from_config
from ddlink.harness import rows_to_csv, run
from variants import config_text, with_lines

# the trials per cell of each case, a row of the variants table
TRIALS = {
    "ber_vs_snr": 4,
    "ber_vs_snr_genie": 4,
    "ber_vs_snr_reference_eva": 3,
    "ber_vs_snr_sync": 3,
    "mu_uplink": 3,
    "mu_uplink_doppler_split": 3,
    "mu_uplink_estimated": 3,
    "mu_uplink_estimated_3users": 3,
    "mu_uplink_reference": 2,
    "mu_uplink_reference_estimated": 2,
    "sync_vs_snr": 8,
    "threshold_sweep": 8,
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
    text = with_lines(config_text(case), f"trials = {TRIALS[case]}")
    rows = run(spec_from_config(parse_config_text(text)))
    return hashlib.sha256(rows_to_csv(rows).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(TRIALS))
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
    for case in sorted(TRIALS):
        print(f'    "{case}": "{digest(case)}",')
