"""CI's run loop at small scale, over the rows of ``tests/variants.py``:
each row on a desk grid validates, runs serially, reruns from the config
echo in its ``metadata.txt`` and runs over two workers, at 3 trials a
cell, and the three ``results.csv`` files are equal byte for byte; each
exit-2 row exits 2 with its message. A RuntimeWarning fails a run."""

import pytest

from ddlink.cli import REFERENCE_SCALE, main
from ddlink.config import parse_config_text
from variants import EXIT_2, VARIANTS, config_text

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _grid(name):
    cfg = parse_config_text(config_text(name))
    return cfg["frame.M"], cfg["frame.N"]


DESK = sorted(name for name in VARIANTS if _grid(name) != REFERENCE_SCALE)


def _write(tmp_path, name):
    path = tmp_path / f"{name}.cfg"
    path.write_text(config_text(name))
    return str(path)


@pytest.mark.parametrize("name", DESK)
def test_serial_echo_and_two_worker_runs_write_the_same_results(tmp_path, name):
    cfg = _write(tmp_path, name)
    serial, echo, parallel = (tmp_path / run for run in ("serial", "echo", "parallel"))
    assert main(["validate", cfg]) == 0
    assert main(["run", cfg, "--trials", "3", "--out", str(serial)]) == 0
    # the [config] block of a run's metadata is a config that validates
    echo_cfg = tmp_path / "echo.cfg"
    echo_cfg.write_text((serial / "metadata.txt").read_text().split("\n[config]\n")[1])
    assert main(["validate", str(echo_cfg)]) == 0
    assert main(["run", str(echo_cfg), "--out", str(echo)]) == 0
    assert main(["run", cfg, "--trials", "3", "--parallelism", "2",
                 "--out", str(parallel)]) == 0
    first = (serial / "results.csv").read_bytes()
    assert (echo / "results.csv").read_bytes() == first
    assert (parallel / "results.csv").read_bytes() == first


@pytest.mark.parametrize("name", sorted(EXIT_2))
def test_exit_2_rows_print_their_message(tmp_path, capsys, name):
    cfg = _write(tmp_path, name)
    out = tmp_path / "results"
    assert main(["validate", cfg]) == 2
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.count(EXIT_2[name][2]) == 2
    assert not out.exists()
