"""Self-checks of the tracer: it puts every function back, and the self
times of a trial's spans add up to the trial's duration."""

from collections import Counter, defaultdict
from dataclasses import replace

import pytest

import ddlink
import ddlink.harness
from ddlink.config import load_spec
from tracer import TRIAL_ENTRIES, Tracer, package_modules, public_functions
from conftest import ROOT


def snapshot():
    return {(m.__name__, k): v for m in package_modules(ddlink)
            for k, v in vars(m).items()}


def test_wrapping_rebinds_every_lookup_and_restores_it():
    before = snapshot()
    original = ddlink.channel.build_dd_matrix
    with Tracer().installed(ddlink):
        wrapped = ddlink.harness.build_dd_matrix
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert ddlink.multiuser.build_dd_matrix is wrapped
        assert ddlink.channel.build_dd_matrix is wrapped
        assert ddlink.build_dd_matrix is wrapped
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_restores_after_an_exception():
    before = snapshot()
    with pytest.raises(RuntimeError):
        with Tracer().installed(ddlink):
            raise RuntimeError("inside the traced block")
    assert all(snapshot()[k] is v for k, v in before.items())


def test_every_public_function_is_found():
    fns = public_functions(ddlink)
    assert "channel.build_dd_matrix" in fns
    assert "harness.link_trial" in fns
    assert not any(name.split(".")[1].startswith("_") for name in fns)


def test_self_times_sum_to_trial_time():
    spec = load_spec(str(ROOT / "configs" / "mu_uplink.cfg"))
    tracer = Tracer()
    with tracer.installed(ddlink):
        ddlink.harness.run(replace(spec, trials=2, snr_db=(10.0,)))
    children = defaultdict(int)
    for _, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            children[parent] += end - start
    self_by_trial, trial_ns = Counter(), {}
    for i, (ni, start, end, parent, trial) in enumerate(tracer.spans):
        if trial < 0:
            continue
        assert start <= end
        self_by_trial[trial] += end - start - children[i]
        if tracer.names[ni] in TRIAL_ENTRIES:
            trial_ns[trial] = end - start
    assert len(trial_ns) == tracer.n_trials == 2
    assert self_by_trial == Counter(trial_ns)

    summary = tracer.summary()
    assert sum(summary["layer_self_ns"].values()) == summary["trial_ns"]
    assert summary["layer_calls"]["harness"] >= 2
    assert summary["edges"]["multiuser.compound_matrix>channel.build_dd_matrix"] == 8
