"""Smoke runs of every workload at one batch through the benchmark's own
command, at each workload's default seed so the rows recorded at the
seed commit are compared too."""

import json
import subprocess
import sys

import pytest

from ddlink.config import load_config
from conftest import ROOT
from workloads import WORKLOADS


def default_seed(workload):
    return load_config(str(ROOT / WORKLOADS[workload].config))["seed"]


def bench(workload, trace):
    out = subprocess.run(
        [sys.executable, "ddbench/run.py", "--workload", workload,
         "--seed", str(default_seed(workload)), "--seconds", "0.01",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, out.stderr
    assert result["attempted"] >= 1
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", ["link_desk", "sync_desk", "mu_desk"])
def test_untraced(workload):
    m = bench(workload, 0)
    assert m["trials_per_s"] > 0 and m["setup_s"] > 0 and m["peak_rss_mb"] > 0


def test_traced_link_desk_is_equalize_and_channel():
    m = bench("link_desk", 1)
    total = sum(v for k, v in m.items() if k.endswith(".self_ms_per_trial"))
    assert m["equalize.self_ms_per_trial"] + m["channel.self_ms_per_trial"] >= 0.9 * total
    assert m["channel.build_dd_matrix.ms_per_call"] > 0
    assert m["chanest.empty_frac.base"] == 2 * m["trace.trials"]
    assert "trace.overhead_frac" in m


def test_traced_sync_desk_builds_no_dd_matrix():
    m = bench("sync_desk", 1)
    assert m["channel.build_dd_matrix.ms_per_call"] == 0
    assert m["channel.dd_matrix_mb_per_trial"] == 0
    assert m["equalize.calls_per_trial"] == 0
    assert m["sync.offset_clamped_frac.base"] == 2 * m["trace.trials"]


def test_traced_mu_desk_builds_under_compound_matrix():
    bench("mu_desk", 1)
    out = ROOT / ".ddbench_out" / f"mu_desk-s{default_seed('mu_desk')}-trace1.json"
    details = json.loads(out.read_text())
    edges = details["runs"][0]["trace"]["edges"]
    assert edges["multiuser.compound_matrix>channel.build_dd_matrix"] > 0
    assert not any(e.startswith("harness.") and e.endswith(">channel.build_dd_matrix")
                   for e in edges)


def test_traced_link_ref_runs_lsmr():
    m = bench("link_ref", 1)
    assert m["equalize.equalize_iterative.ms_per_call"] > 0
    assert m["equalize.lsmr_iterations_mean"] > 0
    assert m["equalize.converged_frac.base"] == 2 * m["trace.trials"]


def test_all_prints_every_metric_with_its_unit():
    out = subprocess.run(
        [sys.executable, "ddbench/run.py", "--workload", "all", "--seed", "3",
         "--seconds", "0.01"], cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stderr
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in bench["workloads"]:
        assert f"\n{w['name']}: " in out.stdout
    for m in bench["end_to_end"]:
        assert out.stdout.count(f" {m['unit']}\n") >= 1
        assert out.stdout.count(f"  {m['name']} ") == len(bench["workloads"])
    assert out.stdout.count("failed_frac") == len(bench["workloads"])
    assert "correct=False" not in out.stdout
