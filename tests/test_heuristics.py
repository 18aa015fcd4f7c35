import numpy as np
import pytest

from nvbed import qutrit, risk
from nvbed.heuristics import (
    POLICIES,
    AlternatingLinear,
    RamseySweeps,
    RiskMinimizer,
    SurvivalTableCache,
    best_tip_time,
    experiment_set_rabi,
    experiment_set_ramsey,
    make_heuristic,
    should_track,
)
from nvbed.measurement import EsmInputs, ReferenceRates, esm
from nvbed.qutrit import ExperimentConfig
from nvbed.smc import (
    IDX_ALPHA,
    IDX_BETA,
    IDX_RABI,
    ParticleCloud,
    PriorSpec,
    ReferencePrior,
    posterior_refs,
    sample_prior,
)


def single_particle_cloud(**columns):
    loc = np.zeros((1, 10))
    loc[0, IDX_RABI] = columns.get("rabi", 11.55)
    loc[0, IDX_ALPHA] = columns.get("alpha", 0.05)
    loc[0, IDX_BETA] = columns.get("beta", 0.02)
    loc[0, 7:] = -3.0
    return ParticleCloud(loc, np.array([1.0]))


def inference_cloud(rng, k=400):
    spec = PriorSpec(spin="calibrated")
    return sample_prior(spec, k, rng)


class TestExperimentSets:
    def test_rabi_grid_matches_definition(self):
        grid = experiment_set_rabi(500.0, 100)
        times = [c.pulse_time for c in grid]
        assert times == pytest.approx(list(np.arange(1, 101) * 5.0))
        assert all(c.kind == "rabi" for c in grid)
        assert all(c.drive_frequency == 2870.0 for c in grid)

    def test_single_point_set(self):
        grid = experiment_set_rabi(320.0, 1)
        assert len(grid) == 1
        assert grid[0].pulse_time == 320.0

    def test_rabi_grid_strictly_increasing(self):
        times = [c.pulse_time for c in experiment_set_rabi(500.0, 100)]
        steps = np.diff(times)
        assert np.all(steps > 0)
        assert np.allclose(steps, 5.0)

    def test_ramsey_grid_matches_definition(self):
        grid = experiment_set_ramsey(22.0, 2000.0, 100)
        waits = [c.wait_time for c in grid]
        assert waits == pytest.approx(list(np.arange(1, 101) * 20.0))
        assert len(grid) == 100
        assert all(c.pulse_time == 22.0 for c in grid)
        assert all(c.kind == "ramsey" for c in grid)


class TestBestTipTime:
    def test_calibrated_drive_strength(self):
        # 1/(4 * 11.55 MHz) = 21.645 ns -> nearest even is 22
        assert best_tip_time(single_particle_cloud(rabi=11.55)) == 22.0

    def test_exact_grid_point(self):
        assert best_tip_time(single_particle_cloud(rabi=12.5)) == 20.0

    def test_tie_rounds_half_away_from_zero(self):
        # 1/(4 Omega) = 21 ns sits exactly between 20 and 22
        omega = 1e3 / (4 * 21.0)
        assert best_tip_time(single_particle_cloud(rabi=omega)) == 22.0

    def test_floors_at_two_nanoseconds(self):
        assert best_tip_time(single_particle_cloud(rabi=2000.0)) == 2.0

    def test_rejects_nonpositive_drive(self):
        with pytest.raises(ValueError):
            best_tip_time(single_particle_cloud(rabi=0.0))


class TestShouldTrack:
    def prior(self):
        return PriorSpec(
            references=ReferencePrior(
                alpha_mean=0.05, alpha_std=0.001, beta_mean=0.02, beta_std=0.0005
            )
        )

    def test_at_prior_mean_no_tracking(self):
        cloud = single_particle_cloud(alpha=0.05)
        assert not should_track(cloud, self.prior())

    def test_deep_sag_triggers_tracking(self):
        cloud = single_particle_cloud(alpha=0.05 - 6 * 0.001)
        assert should_track(cloud, self.prior())

    def test_boundary_is_strict(self):
        boundary = 0.05 - 5 * 0.001
        cloud = single_particle_cloud(alpha=boundary)
        assert not should_track(cloud, self.prior())


class TestOfflineHeuristics:
    def test_alternating_linear_interleaves(self):
        rng = np.random.default_rng(0)
        cloud = single_particle_cloud(rabi=12.5)
        heuristic = AlternatingLinear()
        seq = [heuristic.next_experiment(cloud, step, rng) for step in range(6)]
        assert [c.kind for c in seq] == ["rabi", "ramsey"] * 3
        assert [c.pulse_time for c in seq[0::2]] == [5.0, 10.0, 15.0]
        assert [c.wait_time for c in seq[1::2]] == [20.0, 40.0, 60.0]

    def test_ramsey_sweeps_repeat_after_one_pass(self):
        rng = np.random.default_rng(1)
        cloud = single_particle_cloud(rabi=12.5)
        heuristic = RamseySweeps(ramsey_m=100)
        waits = [
            heuristic.next_experiment(cloud, step, rng).wait_time
            for step in range(200)
        ]
        assert waits[:100] == waits[100:]
        assert len(set(waits[:100])) == 100

    def test_offline_sequences_are_deterministic(self):
        cloud = single_particle_cloud(rabi=11.55)
        heuristic = AlternatingLinear()
        a = heuristic.next_experiment(cloud, 7, np.random.default_rng(2))
        b = heuristic.next_experiment(cloud, 7, np.random.default_rng(99))
        assert a == b

    def test_repetitions_meet_esm_target(self):
        rng = np.random.default_rng(3)
        cloud = inference_cloud(rng, k=300)
        heuristic = AlternatingLinear()
        config = heuristic.next_experiment(cloud, 0, rng)
        a1, b1, sa1, sb1 = posterior_refs(cloud)

        def esm_at(n):
            return esm(EsmInputs(n * a1, n * b1, n * sa1, n * sb1))

        assert esm_at(config.repetitions) >= 20.0
        if config.repetitions > 1:
            assert esm_at(config.repetitions - 1) < 20.0


class TestRiskHeuristics:
    def test_candidate_union_and_selection(self):
        rng = np.random.default_rng(4)
        cloud = inference_cloud(rng, k=250)
        heuristic = make_heuristic(
            "uniform_risk", rabi_m=12, ramsey_m=12, n_outcomes=64, n_particles=128
        )
        candidates = heuristic.candidate_set(cloud, 1)
        assert len(candidates) == 24
        config = heuristic.next_experiment(cloud, 0, np.random.default_rng(5))
        assert any(
            c.kind == config.kind
            and c.pulse_time == config.pulse_time
            and c.wait_time == config.wait_time
            for c in candidates
        )
        assert heuristic.last_profile is not None
        assert len(heuristic.last_profile) == 24

    def test_weight_scaling_never_changes_selection(self):
        rng = np.random.default_rng(6)
        cloud = inference_cloud(rng, k=250)
        picks = []
        for scale in (1.0, 4.0, 0.25):
            heuristic = make_heuristic(
                "uniform_risk", rabi_m=10, ramsey_m=10, n_outcomes=64, n_particles=128
            )
            heuristic.weights = scale * heuristic.weights
            picks.append(heuristic.next_experiment(cloud, 0, np.random.default_rng(7)))
        assert picks[0] == picks[1] == picks[2]

    def test_magnetometry_under_tight_prior_selects_ramsey(self):
        rng = np.random.default_rng(8)
        cloud = sample_prior(PriorSpec(spin="tight"), 1200, rng)
        heuristic = make_heuristic(
            "magnetometry_risk", rabi_m=20, ramsey_m=20, n_outcomes=192, n_particles=384
        )
        config = heuristic.next_experiment(cloud, 0, np.random.default_rng(9))
        assert config.kind == "ramsey"

    def test_fixed_seed_selection_is_deterministic(self):
        rng = np.random.default_rng(10)
        cloud = inference_cloud(rng, k=200)
        sizes = dict(rabi_m=8, ramsey_m=8, n_outcomes=64, n_particles=96)
        h1 = make_heuristic("magnetometry_risk", **sizes)
        h2 = make_heuristic("magnetometry_risk", **sizes)
        a = h1.next_experiment(cloud, 3, np.random.default_rng(11))
        b = h2.next_experiment(cloud, 3, np.random.default_rng(11))
        assert a == b


class TestRiskRanking:
    def pick(self, monkeypatch, estimates):
        """Candidate chosen when the profile holds these estimates; the sizes
        are below the screen's floor, so every candidate gets the profile."""
        def fake_profile(cloud, configs, q, rng, **kwargs):
            return list(zip(configs, estimates))

        monkeypatch.setattr(risk, "risk_profile", fake_profile)
        cloud = inference_cloud(np.random.default_rng(12), k=50)
        policy = RiskMinimizer(rabi_m=2, ramsey_m=1, n_outcomes=32, n_particles=64)
        chosen = policy._pick(cloud, 0, np.random.default_rng(13), 1)
        return [cfg for cfg, _ in policy.last_profile].index(chosen)

    def test_unreliable_lowest_risk_is_not_chosen(self, monkeypatch):
        estimates = [
            risk.RiskEstimate(0.5, 0.01, 100, 50),
            risk.RiskEstimate(0.1, 0.01, 100, 50, n_dropped=40),
            risk.RiskEstimate(0.3, 0.01, 100, 50),
        ]
        assert self.pick(monkeypatch, estimates) == 2

    def test_all_unreliable_falls_back_to_argmin(self, monkeypatch):
        estimates = [
            risk.RiskEstimate(0.5, 0.01, 100, 50, n_dropped=40),
            risk.RiskEstimate(0.1, 0.01, 100, 50, n_dropped=40),
            risk.RiskEstimate(0.3, 0.01, 100, 50, n_dropped=40),
        ]
        assert self.pick(monkeypatch, estimates) == 1


class TestScreenedPick:
    """The pick of RiskMinimizer through the real paired screen."""

    @staticmethod
    def policy():
        return make_heuristic(
            "uniform_risk", rabi_m=6, ramsey_m=6, n_outcomes=256, n_particles=256
        )

    def test_an_unreliable_candidate_loses_to_a_reliable_survivor(self, monkeypatch):
        cloud = inference_cloud(np.random.default_rng(14), k=300)
        first = self.policy()
        favourite = first._pick(cloud, 0, np.random.default_rng(15), 1000)

        class DropsTheFavourite(risk.NvModel):
            # a tenth of the favourite's outcomes, in the screen and at full
            # size, are ones no particle explains
            def sample_counts(self, locations, config, rng, p):
                counts = super().sample_counts(locations, config, rng, p)
                if config == favourite:
                    counts[: -(-len(counts) // 10), 0] = -1
                return counts

            def log_likelihood_matrix(self, counts, log_rates, out=None):
                table = super().log_likelihood_matrix(counts, log_rates, out)
                table[np.asarray(counts)[:, 0] < 0] = -np.inf
                return table

        monkeypatch.setattr(risk, "NvModel", DropsTheFavourite)
        second = self.policy()
        chosen = second._pick(cloud, 0, np.random.default_rng(15), 1000)
        estimates = dict(second.last_profile)
        # the screen ran, the favourite still looks best, survived it, and lost
        assert any(est.n_outcomes < 256 for est in estimates.values())
        assert estimates[favourite].value < estimates[chosen].value
        assert not estimates[favourite].reliable
        assert estimates[favourite].n_outcomes == 256
        assert estimates[chosen].reliable and chosen != favourite

    def test_fixed_seed_gives_a_fixed_pick_and_profile(self):
        cloud = inference_cloud(np.random.default_rng(16), k=300)
        a, b = self.policy(), self.policy()
        assert a._pick(cloud, 0, np.random.default_rng(17), 1000) == b._pick(
            cloud, 0, np.random.default_rng(17), 1000
        )
        assert a.last_profile == b.last_profile


class TestSurvivalTableCache:
    def grid(self, tip=22.0, repetitions=1000):
        return [
            ExperimentConfig(
                c.kind, c.pulse_time, c.wait_time, c.drive_frequency, repetitions
            )
            for c in experiment_set_rabi(500.0, 6)
            + experiment_set_ramsey(tip, 2000.0, 6)
        ]

    def test_shared_instance_matches_fresh_on_a_second_cloud(self):
        first = inference_cloud(np.random.default_rng(1), k=300)
        second = inference_cloud(np.random.default_rng(2), k=300)
        sizes = dict(rabi_m=6, ramsey_m=6, n_outcomes=32, n_particles=64)
        shared = make_heuristic("uniform_risk", **sizes)
        shared.next_experiment(first, 0, np.random.default_rng(3))
        reused = shared.next_experiment(second, 0, np.random.default_rng(4))
        fresh = make_heuristic("uniform_risk", **sizes)
        expected = fresh.next_experiment(second, 0, np.random.default_rng(4))
        assert reused == expected
        assert [e for _, e in shared.last_profile] == [e for _, e in fresh.last_profile]

    def test_lookup_row_matches_single_config_simulation(self):
        cloud = inference_cloud(np.random.default_rng(14), k=120)
        cache = SurvivalTableCache()
        cache.table(cloud.spin_locations, self.grid(), np.arange(cloud.size))
        for config in self.grid(repetitions=7):
            row = cache.lookup(cloud.spin_locations, config)
            exact = qutrit.survival_table(cloud.spin_locations, [config])[0]
            assert np.allclose(row, exact, rtol=0.0, atol=1e-12)

    def test_changed_spin_columns_miss(self):
        cloud = inference_cloud(np.random.default_rng(15), k=80)
        cache = SurvivalTableCache()
        config = self.grid()[3]
        cache.table(cloud.spin_locations, self.grid(), np.arange(cloud.size))
        copy = cloud.copy()
        copy.locations[:, IDX_ALPHA] *= 1.1  # references are not part of the key
        assert cache.lookup(copy.spin_locations, config) is not None
        cloud.locations[5, IDX_RABI] += 1e-9
        assert cache.lookup(cloud.spin_locations, config) is None

    def test_new_tip_time_simulates_only_new_shapes(self, monkeypatch):
        cloud = inference_cloud(np.random.default_rng(16), k=60)
        cache = SurvivalTableCache()
        calls = []
        real = qutrit.survival_table

        def counted(spins, configs):
            calls.append(len(configs))
            return real(spins, configs)

        monkeypatch.setattr(qutrit, "survival_table", counted)
        every = np.arange(cloud.size)
        cache.table(cloud.spin_locations, self.grid(tip=22.0), every)
        table = cache.table(cloud.spin_locations, self.grid(tip=20.0), every)
        cache.table(cloud.spin_locations, self.grid(tip=22.0), every)
        assert calls == [12, 6]
        assert np.array_equal(
            table, real(cloud.spin_locations, self.grid(tip=20.0))
        )

    # the cache holds entries by (pulse shape, particle)

    @staticmethod
    def counted_cells(monkeypatch):
        cells = []
        real = qutrit.survival_table

        def counted(spins, configs):
            cells.append(len(configs) * len(spins))
            return real(spins, configs)

        monkeypatch.setattr(qutrit, "survival_table", counted)
        return cells

    def test_an_overlapping_call_simulates_only_new_particles(self, monkeypatch):
        spins = inference_cloud(np.random.default_rng(20), k=300).spin_locations
        full = qutrit.survival_table(spins, self.grid())
        cells = self.counted_cells(monkeypatch)
        cache = SurvivalTableCache()
        first = cache.table(spins, self.grid(), np.arange(200))
        second = cache.table(spins, self.grid(), np.arange(100, 300))
        assert cells == [12 * 200, 12 * 100]
        assert np.array_equal(first, full[:, :200])
        assert np.array_equal(second, full[:, 100:])
        # held entries, in any order and repeated, need no simulation
        idx = [250, 3, 3, 120]
        assert np.array_equal(cache.table(spins, self.grid(), idx), full[:, idx])
        assert np.array_equal(cache.table(spins, self.grid(), np.arange(300)), full)
        assert len(cells) == 2

    def test_held_entries_never_change(self):
        # a shape that joins a simulation for the particles it lacks keeps
        # the entries it held, though the grid's kernel rounds differently
        spins = inference_cloud(np.random.default_rng(24), k=300).spin_locations
        grid = self.grid()[:6]
        cache = SurvivalTableCache()
        cache.table(spins, grid, np.arange(100))
        alone = cache.table(spins, grid[3:4], np.arange(100, 150))
        table = cache.table(spins, grid, np.arange(200))
        assert np.array_equal(table[3, 100:150], alone[0])
        assert not np.array_equal(
            alone[0], qutrit.survival_table(spins, grid)[3, 100:150]
        )

    def test_lookup_answers_only_for_a_whole_row(self):
        spins = inference_cloud(np.random.default_rng(21), k=300).spin_locations
        cache = SurvivalTableCache()
        config, other = self.grid()[2], self.grid()[3]
        cache.table(spins, self.grid(), np.arange(150))
        assert cache.lookup(spins, config) is None
        row = cache.table(spins, [config], np.arange(300))[0]
        held = cache.lookup(spins, config)
        assert np.array_equal(held, row)
        assert not held.flags.writeable
        assert cache.lookup(spins, other) is None

    def test_row_simulates_only_the_entries_not_held(self, monkeypatch):
        spins = inference_cloud(np.random.default_rng(23), k=300).spin_locations
        config = self.grid()[4]
        # the held third from the grid's table, the rest from the row's own
        expected = qutrit.survival_table(spins, [config])[0]
        expected[::3] = qutrit.survival_table(spins, self.grid())[4, ::3]
        cells = self.counted_cells(monkeypatch)
        cache = SurvivalTableCache()
        cache.table(spins, self.grid(), np.arange(0, 300, 3))
        row = cache.row(spins, config)
        assert cells == [12 * 100, 200]
        assert np.array_equal(row, expected)
        assert not row.flags.writeable
        assert np.array_equal(cache.row(spins, config), expected)
        assert len(cells) == 2

    def test_an_in_place_spin_change_drops_every_entry(self, monkeypatch):
        cloud = inference_cloud(np.random.default_rng(22), k=80)
        cache = SurvivalTableCache()
        cache.table(cloud.spin_locations, self.grid(), np.arange(cloud.size))
        cloud.locations[5, IDX_RABI] += 1e-9
        cells = self.counted_cells(monkeypatch)
        assert cache.lookup(cloud.spin_locations, self.grid()[0]) is None
        cache.table(cloud.spin_locations, self.grid(), [0, 1])
        assert cells == [12 * 2]


class TestFactory:
    def test_known_names(self):
        for name in (
            "alternating_linear",
            "ramsey_sweeps",
            "uniform_risk",
            "magnetometry_risk",
        ):
            assert type(make_heuristic(name)) is POLICIES[name]

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_heuristic("gradient_descent")
