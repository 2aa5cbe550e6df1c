from dataclasses import replace

import numpy as np
import pytest

from ddlink import chanest, channel, harness, multiuser
from ddlink.chanest import PilotConfig
from ddlink.channel import build_dd_matrix
from ddlink.config import ExperimentSpec, ImpairSettings, SyncSettings
from ddlink.equalize import equalize_mmse
from ddlink.frame import FrameConfig
from ddlink.harness import (link_trial, mu_trial, rows_to_csv, run,
                            seed_stream, sync_trial)
from ddlink.modem import Waveform, demodulate_direct
from ddlink.multiuser import even_split_allocation
from oracles import dense_detect

FRAME = FrameConfig(32, 16, cp_len=8)
PILOT = PilotConfig(4, 8, 1000.0, 4, 4)
BOTH = (Waveform.OTFS, Waveform.SC_IFDMA)


def make_spec(**kw):
    args = dict(kind="ber_vs_snr", frame=FRAME, waveforms=BOTH,
                constellation="16qam", snr_db=(15.0,), trials=2, seed=11,
                channel_profile="eva3", velocity_kmh=500.0, pilot=PILOT,
                csi="estimated")
    args.update(kw)
    return ExperimentSpec(**args)


class TestSeedStream:
    def test_reproducible(self):
        a = seed_stream(3, 17, "noise").standard_normal(32)
        b = seed_stream(3, 17, "noise").standard_normal(32)
        np.testing.assert_array_equal(a, b)

    def test_components_are_decorrelated(self):
        n = 10_000
        draws = {c: seed_stream(0, 0, c).standard_normal(n)
                 for c in ("channel", "noise", "data", "impairment")}
        names = list(draws)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                rho = np.corrcoef(draws[names[i]], draws[names[j]])[0, 1]
                assert abs(rho) < 0.05

    def test_trials_are_distinct(self):
        a = seed_stream(0, 1, "data").standard_normal(16)
        b = seed_stream(0, 2, "data").standard_normal(16)
        assert not np.array_equal(a, b)

    def test_huge_trial_index(self):
        g = seed_stream(0, 2 ** 40 + 5, "channel")
        assert np.isfinite(g.standard_normal(4)).all()

    def test_unknown_component(self):
        with pytest.raises(ValueError):
            seed_stream(0, 0, "weather")


class TestLinkTrial:
    def test_noiseless_identity_channel_is_error_free(self):
        spec = make_spec(channel_profile="single_tap", snr_db=(200.0,), csi="genie")
        out = link_trial(spec, 0, 200.0)
        for w in ("otfs", "sc_ifdma"):
            assert out[w]["bit_errors"] == 0
            assert out[w]["bits"] > 0

    def test_paired_decisions_are_identical(self):
        spec = make_spec()
        for t in range(3):
            out = link_trial(spec, t, 15.0)
            np.testing.assert_array_equal(out["otfs"]["decisions"],
                                          out["sc_ifdma"]["decisions"])
            assert out["otfs"]["bit_errors"] == out["sc_ifdma"]["bit_errors"]

    def test_sync_pipeline_recovers_impairments(self):
        spec = make_spec(channel_profile="single_tap", csi="estimated",
                         snr_db=(30.0,),
                         sync=SyncSettings(enabled=True, threshold=0.5),
                         impair=ImpairSettings(theta_d=("fixed", 5), theta_t=1,
                                               epsilon=("fixed", 0.2)))
        out = link_trial(spec, 1, 30.0)
        assert out["otfs"]["bit_errors"] == 0

    def test_ber_decreases_with_snr(self):
        spec = make_spec(channel_profile="single_tap", csi="genie")
        def ber(snr, trials=6):
            e = b = 0
            for t in range(trials):
                out = link_trial(spec, t, snr)
                e += out["otfs"]["bit_errors"]
                b += out["otfs"]["bits"]
            return e / b
        assert ber(0.0) > ber(20.0)


class TestEqualizerOracle:
    """link_trial's time-domain equalizer against the dense delay-Doppler
    solve, on the exact signal and channel each receiver chain hands it."""

    @staticmethod
    def equalizer_calls(monkeypatch, spec, trials=2):
        calls = []
        real = harness.equalize_time_domain

        def spy(corrected, ch, waveform, noise_var):
            out = real(corrected, ch, waveform, noise_var)
            calls.append((corrected, ch, waveform, noise_var, out.vec))
            return out

        monkeypatch.setattr(harness, "equalize_time_domain", spy)
        for t in range(trials):
            link_trial(spec, t, 15.0)
        assert {c[2] for c in calls} == set(BOTH)
        return calls

    @pytest.mark.parametrize("sync", [False, True])
    @pytest.mark.parametrize("csi", ["genie", "estimated"])
    def test_mmse_matches_dense_solve(self, monkeypatch, csi, sync):
        spec = make_spec(csi=csi)
        if sync:
            spec = replace(spec, sync=SyncSettings(enabled=True, threshold=0.5),
                           impair=ImpairSettings(theta_d=("fixed", 3),
                                                 epsilon=("uniform", -0.2, 0.2)))
        for corrected, ch, w, s2, out in self.equalizer_calls(monkeypatch, spec):
            received = demodulate_direct(corrected, w)
            oracle = equalize_mmse(received, build_dd_matrix(ch, w), s2).vec
            assert np.linalg.norm(out - oracle) <= 1e-10 * np.linalg.norm(oracle)


class TestSyncTrial:
    def test_waveforms_see_same_quality(self):
        spec = make_spec(kind="sync_vs_snr", channel_profile="single_tap",
                         sync=SyncSettings(enabled=True),
                         impair=ImpairSettings(theta_d=("fixed", 4),
                                               epsilon=("uniform", -0.4, 0.4)))
        out = sync_trial(spec, 0, 20.0)
        for w in ("otfs", "sc_ifdma"):
            assert out[w]["fine_err"] == 0
            assert out[w]["cfo_sq_err"] < 1e-3

    def test_threshold_sweep_reports_every_threshold(self):
        spec = make_spec(kind="threshold_sweep", channel_profile="two_tap_biased",
                         waveforms=(Waveform.OTFS,),
                         sweep_thresholds=(0.4, 1.0),
                         sync=SyncSettings(enabled=True),
                         impair=ImpairSettings(theta_d=("fixed", 2)))
        out = sync_trial(spec, 0, 15.0)["otfs"]
        assert "fine_err@0.4" in out and "fine_err@1" in out
        assert out["fine_err@0.4"] <= out["fine_err@1"]


class TestMuTrial:
    def test_paired_decisions_across_waveforms(self):
        spec = make_spec(kind="mu_uplink", channel_profile="single_tap",
                         constellation="qpsk", snr_db=(25.0,), csi="genie")
        alloc = even_split_allocation(FRAME.M, FRAME.N, 2)
        out = mu_trial(spec, 0, 25.0, alloc)
        np.testing.assert_array_equal(out["otfs"]["decisions"],
                                      out["sc_ifdma"]["decisions"])
        assert out["otfs"]["bit_errors"] == 0

    def test_estimated_csi_with_per_user_pilots(self):
        spec = make_spec(kind="mu_uplink", channel_profile="eva3",
                         velocity_kmh=120.0, constellation="qpsk",
                         snr_db=(20.0,), csi="estimated",
                         pilot=PilotConfig(4, 8, 1000.0, 3, 3))
        alloc = even_split_allocation(FRAME.M, FRAME.N, 2)
        errors = bits = 0
        for t in range(3):
            out = mu_trial(spec, t, 20.0, alloc)
            np.testing.assert_array_equal(out["otfs"]["decisions"],
                                          out["sc_ifdma"]["decisions"])
            errors += out["otfs"]["bit_errors"]
            bits += out["otfs"]["bits"]
        assert errors / bits < 0.05

    @staticmethod
    def detector_calls(monkeypatch, spec, alloc, trials=2):
        """Run mu_trial with the joint detector spied on and every dense
        delay-Doppler build made to fail."""
        calls = []
        real = harness.detect_users_time_domain

        def spy(received, channels, alloc, waveform, noise_var):
            out = real(received, channels, alloc, waveform, noise_var)
            calls.append((received, list(channels), waveform, noise_var, out.vec))
            return out

        def no_dd_matrix(*args, **kwargs):
            raise AssertionError("mu_trial built a dense delay-Doppler matrix")

        with monkeypatch.context() as m:
            m.setattr(harness, "detect_users_time_domain", spy)
            for module in (harness, channel, chanest, multiuser):
                m.setattr(module, "build_dd_matrix", no_dd_matrix, raising=False)
            for t in range(trials):
                mu_trial(spec, t, 15.0, alloc)
        assert {c[2] for c in calls} == set(BOTH)
        return calls

    @staticmethod
    def estimated_spec():
        return make_spec(kind="mu_uplink", channel_profile="eva3",
                         velocity_kmh=120.0, constellation="qpsk",
                         csi="estimated", pilot=PilotConfig(4, 8, 1000.0, 3, 3))

    @pytest.mark.parametrize("csi", ["genie", "estimated"])
    def test_detector_matches_dense_compound(self, monkeypatch, csi):
        spec = (self.estimated_spec() if csi == "estimated" else
                make_spec(kind="mu_uplink", constellation="qpsk", csi="genie"))
        alloc = even_split_allocation(FRAME.M, FRAME.N, 2)
        for received, channels, w, s2, out in self.detector_calls(monkeypatch,
                                                                  spec, alloc):
            assert all(ch is not None for ch in channels)
            oracle = dense_detect(received, channels, alloc, w, s2).vec
            assert np.linalg.norm(out - oracle) <= 1e-10 * np.linalg.norm(oracle)

    def test_empty_user_estimate_contributes_zero_columns(self, monkeypatch):
        spec = self.estimated_spec()
        alloc = even_split_allocation(FRAME.M, FRAME.N, 2)
        silenced = harness._mu_user_pilot(spec, alloc, 1)
        real = harness.estimate_channel

        def estimate(received, pc, waveform, **kw):
            est = real(received, pc, waveform, **kw)
            return replace(est, taps=()) if pc == silenced else est

        monkeypatch.setattr(harness, "estimate_channel", estimate)
        for received, channels, w, s2, out in self.detector_calls(monkeypatch,
                                                                  spec, alloc):
            assert channels[0] is not None and channels[1] is None
            assert not np.any(out[alloc.vec_indices(1)])
            oracle = dense_detect(received, channels, alloc, w, s2).vec
            assert np.linalg.norm(out - oracle) <= 1e-10 * np.linalg.norm(oracle)

    def test_guards_must_fit_inside_the_allocation(self):
        from ddlink.config import ConfigError
        spec = make_spec(kind="mu_uplink", csi="estimated",
                         pilot=PilotConfig(4, 8, 1000.0, 4, 4))
        alloc = even_split_allocation(FRAME.M, FRAME.N, 4)  # 4 Doppler bins each
        with pytest.raises(ConfigError, match="guard rectangle"):
            mu_trial(spec, 0, 20.0, alloc)


class TestRun:
    def test_csv_and_metadata_written(self, tmp_path):
        spec = make_spec(kind="sync_vs_snr", channel_profile="single_tap",
                         trials=2, snr_db=(10.0, 20.0),
                         sync=SyncSettings(enabled=True),
                         impair=ImpairSettings(epsilon=("uniform", -0.3, 0.3)))
        rows = run(spec, out_dir=tmp_path)
        text = (tmp_path / "results.csv").read_text()
        assert text.splitlines()[0] == "experiment,waveform,snr_db,metric,value,trials,seed"
        assert len(text.splitlines()) == 1 + len(rows)
        metrics = {r.metric for r in rows}
        assert metrics == {"TO_mean_error", "TO_fine_mean_error", "CFO_MSE"}
        meta = (tmp_path / "metadata.txt").read_text()
        assert "config_hash" in meta and "snr_definition" in meta

    def test_reproducible_csv(self, tmp_path):
        spec = make_spec(trials=2, snr_db=(10.0,))
        a = rows_to_csv(run(spec, out_dir=tmp_path / "a"))
        b = rows_to_csv(run(spec, out_dir=tmp_path / "b"))
        assert a == b
        assert (tmp_path / "a/results.csv").read_bytes() == \
            (tmp_path / "b/results.csv").read_bytes()

    @pytest.mark.parametrize("parallelism", [0, -1])
    def test_parallelism_below_one_rejected(self, parallelism):
        with pytest.raises(ValueError, match="parallelism"):
            run(make_spec(trials=1, snr_db=(10.0,)), parallelism=parallelism)

    @pytest.mark.parametrize("kind", ["ber_vs_snr", "sync_vs_snr",
                                      "threshold_sweep", "mu_uplink"])
    def test_parallel_matches_serial(self, kind):
        # 5 trials over 2 workers: chunks of 3 and 2
        spec = make_spec(kind=kind, channel_profile="single_tap",
                         constellation="qpsk", csi="genie", trials=5,
                         snr_db=(10.0, 20.0), sync=SyncSettings(enabled=True))
        serial = rows_to_csv(run(spec, parallelism=1))
        parallel = rows_to_csv(run(spec, parallelism=2))
        assert serial == parallel

    @pytest.mark.parametrize("kind,name", [("ber_vs_snr", "link_trial"),
                                           ("mu_uplink", "mu_trial")])
    def test_run_leaves_the_trial_decisions_in_place(self, monkeypatch, kind,
                                                     name):
        # ddbench checks the decisions of the dicts the trials returned
        # after run returns
        kept = []
        real = getattr(harness, name)

        def keep(*args):
            kept.append(real(*args))
            return kept[-1]

        monkeypatch.setattr(harness, name, keep)
        run(make_spec(kind=kind, trials=2, snr_db=(10.0, 20.0),
                      channel_profile="single_tap", csi="genie"))
        assert len(kept) == 4
        for out in kept:
            for w in BOTH:
                assert out[w.value]["decisions"].size > 0

    def test_one_worker_pool_per_run(self, monkeypatch):
        pools = []

        class CountedPool(harness.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountedPool)
        spec = make_spec(kind="sync_vs_snr", channel_profile="single_tap",
                         trials=2, snr_db=(10.0, 20.0),
                         sync=SyncSettings(enabled=True))
        run(spec, parallelism=2)
        assert len(pools) == 1

    @pytest.mark.parametrize("kind,name", [("ber_vs_snr", "link_trial"),
                                           ("sync_vs_snr", "sync_trial"),
                                           ("threshold_sweep", "sync_trial"),
                                           ("mu_uplink", "mu_trial")])
    def test_trials_run_through_the_module_attributes(self, monkeypatch, kind,
                                                      name):
        # ddbench times trials by rebinding these attributes; a dispatch
        # that held the functions themselves would bypass the rebinding
        calls = []
        real = getattr(harness, name)

        def spy(spec, trial_id, *args):
            calls.append(trial_id)
            return real(spec, trial_id, *args)

        monkeypatch.setattr(harness, name, spy)
        spec = make_spec(kind=kind, trials=2, snr_db=(10.0, 20.0),
                         channel_profile="single_tap", constellation="qpsk",
                         csi="genie", sync=SyncSettings(enabled=True))
        run(spec)
        assert calls == [0, 1, 2, 3]

    def test_seed_changes_results(self):
        spec_a = make_spec(trials=2)
        spec_b = make_spec(trials=2, seed=99)
        assert rows_to_csv(run(spec_a)) != rows_to_csv(run(spec_b))

    def test_ber_experiment_rows(self):
        spec = make_spec(trials=2, snr_db=(15.0,))
        rows = run(spec)
        assert [r.metric for r in rows] == ["BER", "BER"]
        assert {r.waveform for r in rows} == {"otfs", "sc_ifdma"}
        assert rows[0].value == rows[1].value  # paired construction
