import gc
import json
import os
import threading
import weakref

import numpy as np
import pytest

from nvbed import cli, harness, heuristics, qutrit, risk
from nvbed import lab as labmod
from nvbed.heuristics import SurvivalTableCache, make_heuristic
from nvbed.qutrit import ExperimentConfig
from helpers import serve_in_background

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
    """Counts lookups and whole-row hits, and the particles that each whole
    row the update asks for simulates, read from ``simulated``, which a test
    appends each simulation's particle count to."""

    def __init__(self):
        super().__init__()
        self.lookups = 0
        self.hits = 0
        self.simulated = []
        self.rows = []

    def lookup(self, spins, config):
        row = super().lookup(spins, config)
        self.lookups += 1
        self.hits += row is not None
        return row

    def row(self, spins, config):
        done = len(self.simulated)
        out = super().row(spins, config)
        self.rows.append(sum(self.simulated[done:]))
        return out


def tiny_config(heuristic, **overrides):
    return harness.RunConfig(heuristics=[heuristic], **{**TINY, **overrides})


def probed(config, name, probe):
    """The trial's own heuristic, calling ``probe(step, cloud)`` at each of
    its designs before it designs."""
    heuristic = harness._sized_heuristic(config, name)
    design = heuristic.next_experiment

    def next_experiment(cloud, step, rng):
        probe(step, cloud)
        return design(cloud, step, rng)

    heuristic.next_experiment = next_experiment
    return heuristic


class TestRunTrial:
    def test_same_seed_gives_identical_record(self):
        config = tiny_config("uniform_risk")
        a, _ = harness.run_trial(config, "uniform_risk", 0)
        b, _ = harness.run_trial(config, "uniform_risk", 0)
        assert a.to_json() == b.to_json()

    def test_one_or_two_cores_write_the_same_record(self, monkeypatch):
        # the survival tables and the design's stages spread over the cores;
        # at these sizes the full-size stage fans out when it may
        config = tiny_config(
            "uniform_risk", experiments=2, particles=300, risk_outcomes=512,
            risk_particles=256,
        )
        assert 512 * 256 >= risk._POOL_MIN_CELLS
        records = []
        for cores in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
            record, _ = harness.run_trial(config, "uniform_risk", 0)
            records.append(record.to_json())
        assert records[0] == records[1]

    def test_update_reads_rows_from_the_design_cache(self, monkeypatch):
        config = tiny_config("uniform_risk")
        cache = CountingCache()
        policy = make_heuristic(
            "uniform_risk", rabi_m=5, ramsey_m=5, n_outcomes=32, n_particles=64,
            cache=cache,
        )
        simulate = qutrit.survival_table
        trial_thread = threading.get_ident()  # the lab simulates on its own

        def counted(spins, configs):
            if threading.get_ident() == trial_thread:
                cache.simulated.append(len(spins))
            return simulate(spins, configs)

        monkeypatch.setattr(qutrit, "survival_table", counted)
        record, _ = harness.run_trial(config, "uniform_risk", 0, heuristic=policy)
        # every update asks the cache for its row; design drew only some
        # particles, so at least once the update simulated only the rest
        assert len(cache.rows) == cache.lookups >= len(record.steps)
        assert any(0 < n < config.particles for n in cache.rows)
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
            config, "alternating_linear", 0,
            heuristic=probed(config, "alternating_linear", probe),
        )
        calibrated = record.calibration["timestamp"] / 3600.0
        times = [s["sim_time_s"] / 3600.0 for s in record.steps]
        assert times == sorted(set(times))
        # design(k) chooses experiment k + 1
        assert seen == {
            k: calibrated if k < 2 else times[k - 2] for k in range(6)
        }


    def test_failed_trial_frees_its_cloud_without_the_cyclic_gc(self):
        class FirstDesignedRunFails(labmod.InProcessLab):
            calibrated = False

            def run(self, config):
                if self.calibrated:
                    raise RuntimeError("lab fault")
                self.calibrated = True
                return super().run(config)

        config = tiny_config("alternating_linear")
        truth = harness.draw_truth(config, np.random.default_rng(0))
        lab = FirstDesignedRunFails(
            labmod.TrueSystem(truth, np.random.default_rng(1))
        )
        clouds = []
        heuristic = probed(
            config, "alternating_linear",
            lambda step, cloud: clouds.append(weakref.ref(cloud)),
        )
        gc.disable()
        try:
            try:
                harness.run_trial(
                    config, "alternating_linear", 0, lab=lab, heuristic=heuristic
                )
            except RuntimeError:
                pass
            assert clouds and all(ref() is None for ref in clouds)
        finally:
            gc.enable()


class TestRunConfig:
    def test_removed_key_is_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"pipeline_concurrency": False}))
        with pytest.raises(ValueError, match="pipeline_concurrency"):
            harness.RunConfig.from_file(path)

    def test_zero_experiments_fail_before_any_trial(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"experiments": 0}))
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="experiments"):
            cli.main(["run", "--config", str(path), "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("heuristics", ["unifrom_risk"]),
            ("prior", "widest"),
            ("trials", 0),
            ("trials", -1),
            ("particles", 1),
            ("risk_outcomes", 1),
            ("risk_particles", 1),
            ("candidate_m", 0),
            ("n_max", 0),
            ("n_max", 2**53 + 1),
            ("target_esm", 0.0),
            ("calibration_repetitions", 0),
            ("truth_alpha_range", [0.01, 0.015]),
            ("truth_beta_range", [0.02]),
            ("heuristics", []),
            ("heuristics", ["alternating_linear", "alternating_linear"]),
            ("trials", 1.0),
            ("trials", True),
            ("experiments", 4.0),
            ("particles", 200.0),
            ("risk_outcomes", 32.0),
            ("risk_particles", 64.0),
            ("candidate_m", 5.0),
            ("n_max", 1e6),
            ("calibration_repetitions", 3e5),
            ("seed", 3.0),
            ("seed", False),
            ("seed", -1),
            ("rabi_t_max", 0.0),
            ("ramsey_t_max", -1.0),
            ("truth_drift_sigma", -0.1),
            ("truth_drift_correlation", 1.0),
            ("heuristics", 3),
            ("heuristics", [["a"]]),
            ("truth_alpha_range", 5),
            ("target_esm", "x"),
            ("rabi_t_max", None),
            ("lab", 3),
            ("out_dir", 3),
        ],
    )
    def test_bad_value_fails_before_any_output(self, tmp_path, field, value):
        with pytest.raises(ValueError, match=field):
            harness.RunConfig(**{field: value})
        path = tmp_path / "config.json"
        path.write_text(json.dumps({field: value}))
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=field):
            cli.main(["run", "--config", str(path), "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("raw", [["trials"], "trials", 3, None])
    def test_a_config_that_is_no_object_fails_before_any_output(self, tmp_path, raw):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="JSON object"):
            cli.main(["run", "--config", str(path), "--out", str(out)])
        assert not out.exists()

    def test_bad_override_fails_before_any_output(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(TINY))
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="seed"):
            cli.main(["run", "--config", str(path), "--out", str(out), "--seed", "-1"])
        assert not out.exists()

    def test_written_config_loads_back(self, tmp_path):
        config = tiny_config("alternating_linear", out_dir=str(tmp_path))
        harness.run_comparison(config, log=lambda msg: None)
        loaded = harness.RunConfig.from_file(tmp_path / "config.json")
        assert loaded == config
        # a run writes its config, records and aggregates, and nothing else
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.json", "curves.csv", "histograms.csv", "records", "summary.json"
        ]
        assert [p.name for p in (tmp_path / "records").iterdir()] == [
            "alternating_linear__trial_000.json"
        ]


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

    def test_interrupted_record_write_leaves_no_record(self, tmp_path, monkeypatch):
        config = tiny_config("alternating_linear", trials=2, out_dir=str(tmp_path))
        harness.run_comparison(config, log=lambda msg: None)
        cut = harness._record_path(tmp_path, "alternating_linear", 1)
        whole = cut.read_bytes()
        cut.unlink()

        def interrupted(src, dst):
            # the process dies with half the record on disk, before the rename
            with open(src, "r+b") as fh:
                fh.truncate(len(whole) // 2)
            raise KeyboardInterrupt

        monkeypatch.setattr(harness.os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            harness.run_comparison(config, log=lambda msg: None)
        assert not cut.exists()
        assert len(harness.load_records(tmp_path)) == 1

        monkeypatch.undo()
        summary = harness.run_comparison(config, log=lambda msg: None)
        assert summary["completed"] == 2 and not summary["failures"]
        assert cut.read_bytes() == whole

    def test_resume_under_a_changed_config_is_refused(self, tmp_path):
        def outputs():
            return {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

        config = tiny_config("alternating_linear", out_dir=str(tmp_path))
        harness.run_comparison(config, log=lambda msg: None)
        first = outputs()
        changed = tiny_config("alternating_linear", particles=300, out_dir=str(tmp_path))
        with pytest.raises(ValueError, match="particles"):
            harness.run_comparison(changed, log=lambda msg: None)
        assert outputs() == first
        # more trials of the same config extend the run
        more = tiny_config("alternating_linear", trials=2, out_dir=str(tmp_path))
        assert harness.run_comparison(more, log=lambda msg: None)["completed"] == 2
        record = harness._record_path(tmp_path, "alternating_linear", 0)
        assert record.read_bytes() == first[record]

    def test_unreadable_config_is_refused(self, tmp_path):
        (tmp_path / "config.json").write_text("{")
        config = tiny_config("alternating_linear", out_dir=str(tmp_path))
        with pytest.raises(ValueError, match="cannot resume"):
            harness.run_comparison(config, log=lambda msg: None)
        assert not (tmp_path / "records").exists()

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

    def test_disjoint_esm_ranges_still_write_the_summary(self, tmp_path, capsys):
        raw = {
            "trials": 1, "experiments": 2, "particles": 50,
            "heuristics": ["ramsey_sweeps", "uniform_risk"], "candidate_m": 3,
            "risk_outcomes": 8, "risk_particles": 16,
            "calibration_repetitions": 1000, "out_dir": str(tmp_path),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(path)]) == 1
        out = capsys.readouterr().out.strip().splitlines()
        assert out == [
            "completed 2/2 trials, 0 failures; aggregates not written: "
            "trials do not share a common ESM range"
        ]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["completed"] == 2 and not summary["failures"]
        assert summary["aggregates_error"] == "trials do not share a common ESM range"
        assert not (tmp_path / "curves.csv").exists()
        assert cli.main(["curves", "--records", str(tmp_path)]) == 1
        assert "common ESM range" in capsys.readouterr().err

    def test_tcp_lab_from_the_config(self, tmp_path):
        system = labmod.TrueSystem(labmod.default_truth(), np.random.default_rng(5))
        server = labmod.LabServer(system)
        serve_in_background(server)
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
        shapes = {calibration.shape} | {
            ExperimentConfig.from_dict(s["config"]).shape
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

    def tiny_heatmap(self, tmp_path, **overrides):
        sizes = dict(
            outcome_sizes=[8, 16], particle_sizes=[16, 32], reference_outcomes=32,
            reference_particles=32, cloud_particles=60, candidate_m=2,
            repetitions_seeds=1, out_dir=str(tmp_path / "out"),
        )
        return {**sizes, **overrides}

    @pytest.mark.parametrize(
        "field, value",
        [
            ("outcome_sizes", [1, 16]),
            ("outcome_sizes", []),
            ("particle_sizes", [16, 1]),
            ("reference_outcomes", 8),
            ("reference_particles", 16),
            ("cloud_particles", 1),
            ("outcome_sizes", 3),
            ("outcome_sizes", ["a"]),
            ("cloud_particles", "x"),
            ("reference_outcomes", None),
            ("seed", "x"),
            ("candidate_m", 0),
            ("repetitions_seeds", 0),
            ("target_esm", -1),
            ("out_dir", 3),
        ],
    )
    def test_bad_size_fails_before_any_work(self, tmp_path, monkeypatch, field, value):
        monkeypatch.setattr(risk, "risk_profile", None)  # any profile would fail
        raw = self.tiny_heatmap(tmp_path, **{field: value})
        # a reference size of the right type is refused for not dominating
        dominated = field.startswith("reference") and type(value) is int
        match = "dominate" if dominated else field
        with pytest.raises(ValueError, match=match):
            harness.HeatmapConfig(**raw)
        path = tmp_path / "heatmap.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=match):
            cli.main(["heatmap", "--config", str(path)])
        assert not (tmp_path / "out").exists()

    def test_unknown_key_is_named(self, tmp_path):
        path = tmp_path / "heatmap.json"
        path.write_text(json.dumps({**self.tiny_heatmap(tmp_path), "outcomes": [8]}))
        with pytest.raises(ValueError, match="'outcomes'"):
            harness.HeatmapConfig.from_file(path)

    def test_a_config_that_is_no_object_fails_before_any_work(self, tmp_path):
        path = tmp_path / "heatmap.json"
        path.write_text(json.dumps(["outcome_sizes"]))
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="JSON object"):
            cli.main(["heatmap", "--config", str(path), "--out", str(out)])
        assert not out.exists()
