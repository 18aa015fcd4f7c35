import numpy as np
import pytest

from nvbed import harness
from nvbed.heuristics import SurvivalTableCache, make_heuristic
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


class TestRunConfig:
    def test_removed_key_is_rejected(self):
        with pytest.raises(ValueError, match="pipeline_concurrency"):
            harness.RunConfig.from_dict({"pipeline_concurrency": False})


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
