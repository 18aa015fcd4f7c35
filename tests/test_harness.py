import json

import numpy as np
import pytest

from nvbed import cli, harness, heuristics, risk
from nvbed import lab as labmod
from nvbed.heuristics import SurvivalTableCache, make_heuristic
from nvbed.qutrit import ExperimentConfig
from nvbed.smc import load_cloud, sample_prior

TINY = dict(
    trials=1,
    experiments=4,
    particles=200,
    risk_outcomes=32,
    risk_particles=64,
    candidate_m=5,
    seed=3,
)


class CountingCache(SurvivalTableCache):
    def __init__(self):
        super().__init__()
        self.lookups = 0
        self.hits = 0

    def lookup(self, spins, config):
        row = super().lookup(spins, config)
        self.lookups += 1
        self.hits += row is not None
        return row


def tiny_config(heuristic, **overrides):
    return harness.RunConfig(heuristics=[heuristic], **{**TINY, **overrides})


class TestRunTrial:
    def test_same_seed_gives_identical_record(self):
        config = tiny_config("uniform_risk")
        a, _ = harness.run_trial(config, "uniform_risk", 0)
        b, _ = harness.run_trial(config, "uniform_risk", 0)
        assert a.to_json() == b.to_json()

    def test_update_reads_rows_from_the_design_cache(self):
        config = tiny_config("uniform_risk")
        cache = CountingCache()
        policy = make_heuristic(
            "uniform_risk", rabi_m=5, ramsey_m=5, n_outcomes=32, n_particles=64,
            cache=cache,
        )
        record, _ = harness.run_trial(config, "uniform_risk", 0, heuristic=policy)
        assert cache.hits >= 1
        # the harness sizes the same policy through the registry
        default, _ = harness.run_trial(config, "uniform_risk", 0)
        assert record.to_json() == default.to_json()

    def test_offline_sweep_fits_the_trial(self):
        config = tiny_config("alternating_linear")
        record, _ = harness.run_trial(config, "alternating_linear", 0)
        rabi = [s["config"]["pulse_time"] for s in record.steps[0::2]]
        waits = [s["config"]["wait_time"] for s in record.steps[1::2]]
        assert rabi == [250.0, 500.0]
        assert waits == [1000.0, 2000.0]

    def test_design_lags_the_update_by_one_datum(self):
        # experiment n + 2 is designed while experiment n + 1 runs, from the
        # posterior through datum n
        config = tiny_config("alternating_linear", experiments=6)
        seen = {}

        def probe(step_index, cloud):
            seen[step_index] = cloud.last_update_time

        record, _ = harness.run_trial(
            config, "alternating_linear", 0, design_probe=probe
        )
        calibrated = record.calibration["timestamp"] / 3600.0
        times = [s["sim_time_s"] / 3600.0 for s in record.steps]
        assert times == sorted(set(times))
        # design(k) chooses experiment k + 1
        assert seen == {
            k: calibrated if k < 2 else times[k - 2] for k in range(6)
        }


class TestRunConfig:
    def test_removed_key_is_rejected(self):
        with pytest.raises(ValueError, match="pipeline_concurrency"):
            harness.RunConfig.from_dict({"pipeline_concurrency": False})

    def test_zero_experiments_fail_before_any_trial(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"experiments": 0}))
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="experiments"):
            cli.main(["run", "--config", str(path), "--out", str(out)])
        assert not out.exists()

    def test_written_config_loads_back(self, tmp_path):
        config = tiny_config("alternating_linear", out_dir=str(tmp_path))
        harness.run_comparison(config, log=lambda msg: None)
        loaded = harness.RunConfig.from_file(tmp_path / "config.json")
        assert loaded == config


class TestRunComparison:
    def test_resume_reruns_only_missing_trials(self, tmp_path, monkeypatch):
        config = tiny_config("alternating_linear", trials=2, out_dir=str(tmp_path))
        harness.run_comparison(config, log=lambda msg: None)
        curves = (tmp_path / "curves.csv").read_bytes()
        histograms = (tmp_path / "histograms.csv").read_bytes()
        lost = harness._record_path(tmp_path, "alternating_linear", 1)
        lost_bytes = lost.read_bytes()
        lost.unlink()  # interrupted before trial 1 was written

        ran = []
        original = harness.run_trial

        def counting(config, name, trial, **kwargs):
            ran.append(trial)
            return original(config, name, trial, **kwargs)

        monkeypatch.setattr(harness, "run_trial", counting)
        summary = harness.run_comparison(config, log=lambda msg: None)
        assert ran == [1]
        assert summary["completed"] == 2 and not summary["failures"]
        assert lost.read_bytes() == lost_bytes
        assert (tmp_path / "curves.csv").read_bytes() == curves
        assert (tmp_path / "histograms.csv").read_bytes() == histograms

        # ``nvbed curves`` writes the same aggregates from the records
        again = tmp_path / "again"
        again.mkdir()
        assert cli.main(["curves", "--records", str(tmp_path), "--out", str(again)]) == 0
        assert (again / "curves.csv").read_bytes() == curves
        assert (again / "histograms.csv").read_bytes() == histograms

    def test_failing_trial_is_isolated(self, tmp_path, monkeypatch):
        class SecondLabFails(labmod.InProcessLab):
            made = 0

            def __init__(self, system):
                super().__init__(system)
                SecondLabFails.made += 1
                self.broken = SecondLabFails.made == 2

            def run(self, config):
                if self.broken:
                    raise RuntimeError("lab fault")
                return super().run(config)

        config = tiny_config("alternating_linear", trials=3, out_dir=str(tmp_path))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        monkeypatch.setattr(labmod, "InProcessLab", SecondLabFails)
        assert cli.main(["run", "--config", str(path)]) == 1

        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["completed"] == 2
        assert [(f["heuristic"], f["trial"]) for f in summary["failures"]] == [
            ("alternating_linear", 1)
        ]
        assert "lab fault" in summary["failures"][0]["error"]
        assert not harness._record_path(tmp_path, "alternating_linear", 1).exists()
        # the trial after the failure is the one a clean run produces
        monkeypatch.undo()
        clean, _ = harness.run_trial(config, "alternating_linear", 2)
        written = harness._record_path(tmp_path, "alternating_linear", 2)
        assert written.read_text() == clean.to_json() + "\n"

    def test_tcp_lab_from_the_config(self, tmp_path):
        system = labmod.TrueSystem(labmod.default_truth(), np.random.default_rng(5))
        server = labmod.LabServer(system)
        server.serve_in_background()
        try:
            config = tiny_config(
                "alternating_linear", trials=2, out_dir=str(tmp_path),
                lab=f"tcp://{server.address}",
            )
            summary = harness.run_comparison(config, log=lambda msg: None)
        finally:
            server.shutdown()
            server.server_close()
        assert summary["completed"] == 2 and not summary["failures"]
        records = harness.load_records(tmp_path)
        assert [r["truth"] for r in records] == [None, None]
        assert [len(r["steps"]) for r in records] == [4, 4]
        # both trials ran against the one server, which uploaded each
        # distinct waveform once, calibration pulse included
        calibration = ExperimentConfig("rabi", harness.CALIBRATION_PULSE_NS)
        shapes = {labmod.waveform_key(calibration)} | {
            labmod.waveform_key(ExperimentConfig.from_dict(s["config"]))
            for r in records
            for s in r["steps"]
        }
        assert server.system.uploads == len(shapes)
        assert server.system.tracking_count == 2 + sum(
            len(r["tracking_steps"]) for r in records
        )
        assert server.system.clock >= records[-1]["steps"][-1]["sim_time_s"] > 0


class TestRiskHeatmap:
    def test_tiny_grid_runs_the_policy_estimator(self, tmp_path, monkeypatch):
        calls = []
        original = risk.risk_profile

        def recording(cloud, configs, q, rng, **kwargs):
            calls.append(({c.repetitions for c in configs}, cloud))
            return original(cloud, configs, q, rng, **kwargs)

        monkeypatch.setattr(risk, "risk_profile", recording)
        config = harness.HeatmapConfig(
            outcome_sizes=[8, 16],
            particle_sizes=[16, 32],
            reference_outcomes=32,
            reference_particles=32,
            cloud_particles=60,
            candidate_m=2,
            repetitions_seeds=1,
            out_dir=str(tmp_path),
        )
        rows = harness.risk_heatmap(config, log=lambda msg: None)
        assert [(r["n_outcomes"], r["n_particles"]) for r in rows] == [
            (8, 16), (8, 32), (16, 16), (16, 32)
        ]
        lines = (tmp_path / "heatmap.csv").read_text().splitlines()
        assert lines[0] == "n_outcomes,n_particles,seed,log10_mse,seconds"
        assert [line.split(",")[:3] for line in lines[1:]] == [
            [str(r["n_outcomes"]), str(r["n_particles"]), "0"] for r in rows
        ]
        # the reference and every cell ran at the design's size
        policy = heuristics.uniform_risk_heuristic()
        cloud = calls[0][1]
        n = heuristics._repetitions_for(cloud, policy.target_esm, policy.n_max)
        assert len(calls) == 5
        assert all(reps == {n} for reps, _ in calls)


class TestCheckpoints:
    def test_checkpoint_with_spin_version_loads(self, tmp_path):
        spec = harness.RunConfig().prior_spec()
        cloud = sample_prior(spec, 50, np.random.default_rng(0))
        path = tmp_path / "old.npz"
        # the earlier layout also stored the cloud's spin version
        np.savez(
            path,
            format_version=np.int64(1),
            locations=cloud.locations,
            weights=cloud.weights,
            last_update_time=np.float64(0.75),
            spin_version=np.int64(7),
        )
        loaded = load_cloud(path)
        assert np.array_equal(loaded.locations, cloud.locations)
        assert np.array_equal(loaded.weights, cloud.weights)
        assert loaded.last_update_time == 0.75
