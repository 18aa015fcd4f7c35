import gc
import itertools
import json
import os
import re
import threading
import weakref

import numpy as np
import pytest

from nvbed import cli, harness, heuristics, qutrit, risk, smc
from nvbed import lab as labmod
from nvbed.heuristics import SurvivalTableCache, make_heuristic
from nvbed.measurement import ReferenceRates
from nvbed.qutrit import ExperimentConfig
from nvbed.smc import DriftParams
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
            "uniform_risk", rabi_m=5, ramsey_m=5, n_outcomes=32, n_particles=64
        )
        policy.cache = cache
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


class TestTracking:
    """A tracking request from the update tracks the lab before the next
    experiment is submitted, and resets the cloud's references once the
    update on the datum measured before the track is done, before the next
    design.  That track serves a request the update raises, so it asks for
    no second one."""

    def fire_on(self, calls):
        """A ``should_track`` that answers True on the given 1-based calls."""
        count = itertools.count(1)
        return lambda cloud, spec: next(count) in calls

    def recorded(self, monkeypatch):
        """Lists that the lab's tracks (by lab clock) and the resets (as
        (cloud before, cloud after)) are appended to."""
        tracks, resets = [], []
        track, reset = labmod.TrueSystem.track, smc.reference_reset

        def counting_track(system):
            tracks.append(system.clock)
            track(system)

        def recording_reset(cloud, spec, rng):
            out = reset(cloud, spec, rng)
            resets.append((cloud, out))
            return out

        monkeypatch.setattr(labmod.TrueSystem, "track", counting_track)
        monkeypatch.setattr(smc, "reference_reset", recording_reset)
        return tracks, resets

    def tracked_trial(self, monkeypatch):
        tracks, resets = self.recorded(monkeypatch)
        monkeypatch.setattr(heuristics, "should_track", self.fire_on({2, 3, 5}))
        config = tiny_config("uniform_risk", experiments=7)
        record, _ = harness.run_trial(config, "uniform_risk", 0)
        return record, tracks, resets

    def test_requests_track_before_the_experiment_after_next(self, monkeypatch):
        record, tracks, resets = self.tracked_trial(monkeypatch)
        # once at the trial start, then once per request; a request from the
        # update on datum n tracks before experiment n + 2, which is the next
        # one submitted.  The request of call 3, from the update on datum 3,
        # which was measured before the track at 4, is served by that track.
        assert len(tracks) == 3
        assert record.tracking_steps == [4, 7]
        assert [s["step"] for s in record.steps if s["tracked_before"]] == [4, 7]
        assert len(resets) == 2
        for before, after in resets:
            refs = slice(smc.IDX_ALPHA, smc.IDX_BETA + 1)
            assert np.all(after.locations[:, refs] != before.locations[:, refs])
            assert np.array_equal(after.spin_locations, before.spin_locations)
            assert np.array_equal(
                after.locations[:, smc.IDX_LOG_SIGMA_ALPHA:],
                before.locations[:, smc.IDX_LOG_SIGMA_ALPHA:],
            )
            assert np.array_equal(after.weights, before.weights)

    def test_a_reset_falls_between_the_updates_on_either_side_of_its_track(
        self, monkeypatch
    ):
        events = []  # (kind, simulated seconds) in the order they happen
        track, reset, update = (
            labmod.TrueSystem.track, smc.reference_reset, smc.bayes_update
        )

        def recording_track(system):
            events.append(("track", system.clock))
            track(system)

        def recording_reset(cloud, spec, rng):
            events.append(("reset", None))
            return reset(cloud, spec, rng)

        def recording_update(cloud, datum, config, rng, **kwargs):
            events.append(("update", datum.timestamp))
            return update(cloud, datum, config, rng, **kwargs)

        monkeypatch.setattr(labmod.TrueSystem, "track", recording_track)
        monkeypatch.setattr(smc, "reference_reset", recording_reset)
        monkeypatch.setattr(smc, "bayes_update", recording_update)
        monkeypatch.setattr(heuristics, "should_track", self.fire_on({2, 3, 5}))
        config = tiny_config("alternating_linear", experiments=7)
        harness.run_trial(config, "alternating_linear", 0)
        kinds = [kind for kind, _ in events]
        assert kinds.count("track") == 3 and kinds.count("reset") == 2
        assert kinds.count("update") == 7
        for at, (kind, _) in enumerate(events):
            if kind != "reset":
                continue
            tracked = [clock for k, clock in events[:at] if k == "track"][-1]
            # every datum measured before the track is updated on before the
            # reset, and every datum measured after it only after the reset
            for when, (k, stamp) in enumerate(events):
                if k == "update":
                    assert (when < at) == (stamp <= tracked)

    def test_a_tracked_trial_repeats_exactly(self, monkeypatch):
        first, _, _ = self.tracked_trial(monkeypatch)
        second, _, _ = self.tracked_trial(monkeypatch)
        assert first.tracking_steps == [4, 7]
        assert first.to_json() == second.to_json()

    def test_one_sag_is_tracked_once_and_reset_once(self, monkeypatch):
        """With ``should_track`` as it is, which reads the cloud: the update on
        the sagged datum measured before the track asks for no second one."""

        class SaggingLab(labmod.InProcessLab):
            """Its bright reference falls to 60 % before its third run, the
            second experiment, and stays down until a track."""

            runs = 0

            def run(self, config):
                self.runs += 1
                if self.runs == 3:
                    self.system.alpha *= 0.6
                return super().run(config)

        tracks, resets = self.recorded(monkeypatch)
        system = labmod.TrueSystem(labmod.default_truth(), np.random.default_rng(7))
        config = tiny_config("alternating_linear", experiments=14)
        record, _ = harness.run_trial(
            config, "alternating_linear", 0, lab=SaggingLab(system)
        )
        assert len(record.tracking_steps) == 1 and record.tracking_steps[0] > 3
        # the trial start's and the sag's
        assert len(tracks) == 2
        assert len(resets) == 1


@pytest.mark.parametrize("name", sorted(heuristics.POLICIES))
class TestEveryPolicy:
    """Every registry name runs through the harness."""

    def test_the_harness_sizes_it_by_kind(self, name):
        config = tiny_config(name, experiments=6)
        policy = harness._sized_heuristic(config, name)
        assert type(policy) is heuristics.POLICIES[name]
        if issubclass(heuristics.POLICIES[name], heuristics.RiskMinimizer):
            assert (policy.rabi_m, policy.ramsey_m) == (5, 5)
            assert (policy.n_outcomes, policy.n_particles) == (32, 64)
        else:
            assert (policy.rabi_m, policy.ramsey_m) == (3, 3)
            assert not hasattr(policy, "n_outcomes")

    def test_a_trial_records_its_name(self, name):
        config = tiny_config(name, experiments=2)
        record, _ = harness.run_trial(config, name, 0)
        assert record.heuristic == name
        assert len(record.steps) == 2


@pytest.mark.parametrize(
    "name, weighed",
    [("uniform_risk", list(range(5))), ("magnetometry_risk", [smc.IDX_ZEEMAN])],
)
def test_an_online_policy_weighs_what_its_name_says(name, weighed):
    policy = harness._sized_heuristic(tiny_config(name), name)
    assert np.flatnonzero(np.diag(policy.weights)).tolist() == weighed
    assert np.count_nonzero(policy.weights) == len(weighed)
    # the class's matrix, which every instance shares
    assert not policy.weights.flags.writeable


class TestRunConfig:
    def test_an_unknown_policy_names_the_known_ones(self):
        known = [
            "alternating_linear", "magnetometry_risk", "ramsey_sweeps", "uniform_risk"
        ]
        with pytest.raises(ValueError, match=re.escape(str(known))):
            harness.RunConfig(heuristics=["unifrom_risk"])

    def test_an_unknown_prior_names_the_known_ones(self):
        known = ["wide", "calibrated", "tight"]
        with pytest.raises(ValueError, match=re.escape(str(known))):
            harness.RunConfig(prior="widest")

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
            # pinned ids: pytest names a list value by its place in this list
            pytest.param("heuristics", [], id="heuristics-value14"),
            pytest.param(
                "heuristics", ["alternating_linear"] * 2, id="heuristics-value15"
            ),
            ("trials", 1.0),
            ("trials", True),
            ("experiments", 4.0),
            ("particles", 200.0),
            ("risk_outcomes", 32.0),
            ("risk_particles", 64.0),
            ("candidate_m", 5.0),
            ("seed", 3.0),
            ("seed", False),
            ("seed", -1),
            ("heuristics", 3),
            pytest.param("heuristics", [["a"]], id="heuristics-value33"),
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

    def test_curves_creates_a_missing_out_dir(self, tmp_path):
        config = tiny_config(
            "alternating_linear", trials=2, out_dir=str(tmp_path / "run")
        )
        harness.run_comparison(config, log=lambda msg: None)
        out = tmp_path / "new" / "curves"
        assert not out.parent.exists()
        args = ["curves", "--records", config.out_dir, "--out", str(out)]
        assert cli.main(args) == 0
        for name in ("curves.csv", "histograms.csv"):
            assert (out / name).read_bytes() == (tmp_path / "run" / name).read_bytes()

    def test_interrupted_record_write_leaves_no_record(self, tmp_path, monkeypatch):
        config = tiny_config("alternating_linear", trials=2, out_dir=str(tmp_path))
        harness.run_comparison(config, log=lambda msg: None)
        cut = harness._record_path(tmp_path, "alternating_linear", 1)
        whole = cut.read_bytes()
        cut.unlink()
        replace = os.replace

        def interrupted(src, dst):
            if dst != cut:  # the config's rewrite goes through
                return replace(src, dst)
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

    @pytest.mark.parametrize("name", ["config.json", "summary.json"])
    def test_interrupted_rewrite_keeps_the_file_whole(self, tmp_path, monkeypatch, name):
        config = tiny_config("alternating_linear", trials=2, out_dir=str(tmp_path))
        harness.run_comparison(config, log=lambda msg: None)
        path = tmp_path / name
        whole = path.read_bytes()

        class CutFile:
            """A text file whose writes stop with an interrupt at 40 characters."""

            def __init__(self, fh):
                self.fh, self.room = fh, 40

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: self.room])
                if len(text) > self.room:
                    raise KeyboardInterrupt
                self.room -= len(text)

        def cut_open(file, mode="r", **kwargs):
            fh = open(file, mode, **kwargs)
            if "w" in mode and os.path.basename(file).startswith(name):
                return CutFile(fh)
            return fh

        # a resume is interrupted while it rewrites ``name``
        monkeypatch.setattr(harness, "open", cut_open, raising=False)
        with pytest.raises(KeyboardInterrupt):
            harness.run_comparison(config, log=lambda msg: None)
        assert path.read_bytes() == whole

        monkeypatch.undo()
        summary = harness.run_comparison(config, log=lambda msg: None)
        assert summary["completed"] == 2 and not summary["failures"]
        assert path.read_bytes() == whole
        assert not path.with_name(name + ".partial").exists()

    def test_a_config_with_the_retired_settings_resumes_once_they_are_deleted(
        self, tmp_path
    ):
        config = tiny_config("alternating_linear", trials=2, out_dir=str(tmp_path))
        harness.run_comparison(config, log=lambda msg: None)
        lost = harness._record_path(tmp_path, "alternating_linear", 1)
        lost.unlink()
        # the nine settings a config.json once held, at their old defaults;
        # each is now a constant
        retired = {
            "target_esm": 20.0, "n_max": 1_000_000, "calibration_repetitions": 300_000,
            "rabi_t_max": 500.0, "ramsey_t_max": 2000.0,
            "truth_alpha_range": [0.045, 0.055], "truth_beta_range": [0.018, 0.022],
            "truth_drift_sigma": 0.036, "truth_drift_correlation": 0.7,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**config.to_dict(), **retired}, indent=2))
        with pytest.raises(ValueError, match="unknown config keys") as err:
            harness.run_comparison(config, log=lambda msg: None)
        assert all(repr(key) in str(err.value) for key in retired)
        assert not lost.exists()

        path.write_text(json.dumps(config.to_dict(), indent=2))
        summary = harness.run_comparison(config, log=lambda msg: None)
        assert summary["completed"] == 2 and not summary["failures"]
        fresh, _ = harness.run_trial(config, "alternating_linear", 1)
        assert lost.read_text() == fresh.to_json() + "\n"

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

    def test_disjoint_esm_ranges_still_write_the_summary(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(harness, "CALIBRATION_REPETITIONS", 1000)
        raw = {
            "trials": 1, "experiments": 2, "particles": 50,
            "heuristics": ["ramsey_sweeps", "uniform_risk"], "candidate_m": 3,
            "risk_outcomes": 8, "risk_particles": 16, "out_dir": str(tmp_path),
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


class TestServe:
    def served(self, monkeypatch, *args):
        """The bind address and system ``nvbed serve`` would serve."""
        served = []
        monkeypatch.setattr(labmod, "serve", lambda *call: served.append(call))
        assert cli.main(["serve", *args]) == 0
        [(bind, system)] = served
        return bind, system

    def test_defaults_serve_the_default_truth(self, monkeypatch):
        bind, system = self.served(monkeypatch)
        assert bind == "127.0.0.1:7777"
        assert system.truth == labmod.default_truth()
        expected = np.random.default_rng(0).bit_generator.state
        assert system.rng.bit_generator.state == expected

    @pytest.mark.parametrize(
        "args, refs, sigma",
        [
            (["--alpha", "0.06", "--beta", "0.03", "--drift-sigma", "0.05"],
             (0.06, 0.03), 0.05),
            (["--beta", "0.01"], (0.05, 0.01), 0.036),
            (["--drift-sigma", "0"], (0.05, 0.02), 0.0),
        ],
    )
    def test_overrides_are_applied(self, monkeypatch, args, refs, sigma):
        default = labmod.default_truth()
        _, system = self.served(monkeypatch, "--bind", "0.0.0.0:9", *args)
        assert system.truth.spin == default.spin
        assert system.truth.refs == ReferenceRates(*refs)
        assert system.truth.drift == DriftParams(sigma, sigma, 0.7)

    def test_alpha_below_the_true_dark_rate_is_refused(self, monkeypatch):
        monkeypatch.setattr(labmod, "serve", lambda bind, system: None)
        with pytest.raises(ValueError, match="dark"):
            cli.main(["serve", "--alpha", "0.01"])


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
        cloud = calls[0][1]
        n = heuristics._repetitions_for(cloud)
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
