import os
from functools import partial

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp
from scipy.stats import poisson

from nvbed import qutrit, risk, smc
from nvbed.heuristics import SurvivalTableCache
from nvbed.measurement import ReferenceRates, sample_datum
from nvbed.qutrit import ExperimentConfig
from nvbed.risk import (
    NvModel,
    RiskEstimate,
    magnetometry_weight_matrix,
    mis_risk,
    risk_profile,
    spin_weight_matrix,
    trace_weighted_variance,
    uniform_weight_matrix,
)
from nvbed.smc import (
    IDX_ALPHA,
    IDX_BETA,
    ParticleCloud,
    PriorSpec,
    posterior_cov,
    sample_prior,
)
from helpers import random_rows
from oracles import (
    brute_force_risk,
    stacked_mis_risk,
    three_product_variance_terms,
    unfloored_variance_terms,
    whole_table_mis_risk,
)

CFG = ExperimentConfig("rabi", pulse_time=50.0, repetitions=2000)


def nv_cloud(rng, k=400):
    spec = PriorSpec(spin="calibrated")
    return sample_prior(spec, k, rng)


class TruncatedPoissonToy:
    """Single truncated-Poisson channel with rate x * exposure.

    The outcome space has at most zmax + 1 values, so the Bayes risk can be
    enumerated exactly.
    """

    def __init__(self, zmax=30):
        self.zmax = zmax

    def _log_probs(self, locations, exposure):
        lam = locations[:, 0] * exposure
        z = np.arange(self.zmax + 1)
        table = z * np.log(lam)[:, None] - lam[:, None] - gammaln(z + 1.0)
        return table - logsumexp(table, axis=1, keepdims=True)

    def sample_counts(self, locations, exposure, rng):
        probs = np.exp(self._log_probs(locations, exposure))
        cdf = probs.cumsum(axis=1)
        u = rng.uniform(size=locations.shape[0])
        draws = (u[:, None] > cdf).sum(axis=1)
        return draws[:, None]

    def log_rates(self, locations, exposure):
        # row z holds every particle's log-probability of the outcome z
        return np.ascontiguousarray(self._log_probs(locations, exposure).T)

    def log_likelihood_matrix(self, counts, log_probs, out=None):
        return np.take(log_probs, np.asarray(counts)[:, 0], axis=0, out=out)


class UnderflowingModel(TruncatedPoissonToy):
    """The toy whose outcomes at the given sample indices no particle
    explains: their table rows hold no finite entry, in whichever block of
    rows the estimator forms them."""

    def __init__(self, rows, zmax=30):
        super().__init__(zmax)
        self.rows = list(rows)

    def sample_counts(self, locations, exposure, rng):
        counts = super().sample_counts(locations, exposure, rng)
        counts[self.rows] = -1
        return counts

    def log_likelihood_matrix(self, counts, log_probs, out=None):
        counts = np.asarray(counts)
        table = super().log_likelihood_matrix(np.maximum(counts, 0), log_probs, out)
        table[counts[:, 0] < 0, :] = -np.inf
        return table


class ConstantLikelihoodModel:
    """An experiment that carries no information about any particle."""

    def sample_counts(self, locations, config, rng):
        return np.zeros((locations.shape[0], 1), dtype=int)

    def log_rates(self, locations, config):
        return np.zeros(locations.shape[0])

    def log_likelihood_matrix(self, counts, log_rates, out=None):
        if out is None:
            out = np.empty((np.asarray(counts).shape[0], len(log_rates)))
        out[...] = log_rates
        return out


def enumerated_toy_risk(cloud, exposure, q_scalar, zmax):
    """Exhaustive-enumeration oracle via an independent pmf implementation."""
    x = cloud.locations[:, 0]
    z = np.arange(zmax + 1)
    pmf = poisson.pmf(z[None, :], (x * exposure)[:, None])
    pmf /= pmf.sum(axis=1, keepdims=True)
    risk = 0.0
    for zi in z:
        marginal = float(cloud.weights @ pmf[:, zi])
        post = cloud.weights * pmf[:, zi]
        post /= post.sum()
        mean = post @ x
        var = post @ x**2 - mean**2
        risk += marginal * q_scalar * var
    return risk


def toy_cloud(rng, k=150):
    x = rng.gamma(8.0, 1.0, size=k)[:, None]
    w = rng.uniform(0.5, 1.5, size=k)
    return ParticleCloud(x, w / w.sum())


def mis_alone(
    cloud, config, q, n_outcomes, n_particles, rng, model=None, p_full=None
):
    """One candidate's estimate on its own draws: :func:`risk.draw_shared`
    from ``rng``, then :func:`mis_risk` counting from ``rng``, with the row
    ``p_full`` over the whole cloud sliced at the drawn particles."""
    draws = risk.draw_shared(cloud, q, n_outcomes, n_particles, rng)
    p = None if p_full is None else p_full[draws.particles]
    return mis_risk(draws, config, rng, model, p)


class TestAgainstEnumeration:
    def test_brute_force_matches_enumeration(self):
        rng = np.random.default_rng(0)
        cloud = toy_cloud(rng)
        model = TruncatedPoissonToy(zmax=30)
        exact = enumerated_toy_risk(cloud, 1.5, 1.0, 30)
        est = brute_force_risk(
            cloud, 1.5, np.array([[1.0]]), 4000, np.random.default_rng(1), model
        )
        assert est.value == pytest.approx(exact, abs=3 * est.std_error)

    def test_mis_matches_enumeration(self):
        rng = np.random.default_rng(2)
        cloud = toy_cloud(rng)
        model = TruncatedPoissonToy(zmax=30)
        exact = enumerated_toy_risk(cloud, 1.5, 1.0, 30)
        est = mis_alone(
            cloud, 1.5, np.array([[1.0]]), 4000, cloud.size,
            np.random.default_rng(3), model,
        )
        assert est.value == pytest.approx(exact, abs=3 * est.std_error)
        assert est.std_error < 0.05 * exact


class TestDegenerateInputs:
    def test_zero_weight_matrix_gives_zero_risk(self):
        rng = np.random.default_rng(4)
        cloud = nv_cloud(rng, k=100)
        q = np.zeros((10, 10))
        p = np.full(cloud.size, 0.5)
        bf = brute_force_risk(cloud, CFG, q, 50, np.random.default_rng(5), p_full=p)
        mis = mis_alone(cloud, CFG, q, 50, 64, np.random.default_rng(6), p_full=p)
        assert bf.value == 0.0
        assert mis.value == 0.0

    def test_collapsed_cloud_gives_zero_risk(self):
        rng = np.random.default_rng(7)
        base = nv_cloud(rng, k=60)
        weights = np.zeros(60)
        weights[17] = 1.0
        cloud = ParticleCloud(base.locations, weights)
        p = np.full(cloud.size, 0.5)
        q = uniform_weight_matrix()
        bf = brute_force_risk(cloud, CFG, q, 64, np.random.default_rng(8), p_full=p)
        mis = mis_alone(cloud, CFG, q, 64, 32, np.random.default_rng(9), p_full=p)
        assert bf.value == pytest.approx(0.0, abs=1e-18)
        assert mis.value == pytest.approx(0.0, abs=1e-18)

    def test_uninformative_experiment_returns_prior_variance(self):
        rng = np.random.default_rng(10)
        cloud = nv_cloud(rng, k=200)
        q = uniform_weight_matrix()
        est = mis_alone(
            cloud, CFG, q, 128, cloud.size, np.random.default_rng(11),
            ConstantLikelihoodModel(),
        )
        assert est.value == pytest.approx(trace_weighted_variance(cloud, q), rel=1e-10)
        assert est.std_error == pytest.approx(0.0, abs=1e-12)


class TestEstimatorProperties:
    def test_cross_estimator_agreement_on_nv_model(self):
        rng = np.random.default_rng(12)
        cloud = nv_cloud(rng, k=300)
        q = uniform_weight_matrix()
        p = np.full(cloud.size, 0.37)
        bf = brute_force_risk(cloud, CFG, q, 2000, np.random.default_rng(13), p_full=p)
        mis = mis_alone(cloud, CFG, q, 2000, 300, np.random.default_rng(14), p_full=p)
        combined = np.hypot(bf.std_error, mis.std_error)
        assert abs(bf.value - mis.value) <= 3 * combined

    def test_power_of_two_scaling_is_exact(self):
        rng = np.random.default_rng(15)
        cloud = toy_cloud(rng)
        model = TruncatedPoissonToy()
        q = np.array([[1.0]])
        a, b = (
            mis_alone(cloud, 1.5, w, 200, cloud.size, np.random.default_rng(16), model)
            for w in (q, 4 * q)
        )
        assert b.value == 4 * a.value

    def test_general_scaling_within_roundoff(self):
        rng = np.random.default_rng(17)
        cloud = toy_cloud(rng)
        model = TruncatedPoissonToy()
        q = np.array([[1.0]])
        a = brute_force_risk(cloud, 1.5, q, 200, np.random.default_rng(18), model)
        b = brute_force_risk(cloud, 1.5, 3 * q, 200, np.random.default_rng(18), model)
        assert b.value == pytest.approx(3 * a.value, rel=1e-12)

    def test_fixed_seed_is_deterministic(self):
        rng = np.random.default_rng(19)
        cloud = nv_cloud(rng, k=150)
        q = magnetometry_weight_matrix()
        p = np.full(cloud.size, 0.6)
        a = mis_alone(cloud, CFG, q, 256, 128, np.random.default_rng(20), p_full=p)
        b = mis_alone(cloud, CFG, q, 256, 128, np.random.default_rng(20), p_full=p)
        assert a == b

    def test_underflow_outcomes_are_dropped_and_flagged(self):
        rng = np.random.default_rng(21)
        cloud = toy_cloud(rng, k=40)
        est = mis_alone(
            cloud, 1.5, np.array([[1.0]]), 64, cloud.size,
            np.random.default_rng(22), UnderflowingModel(range(7)),
        )
        assert est.n_dropped == 7
        assert not est.reliable


class TestRiskProfile:
    def test_normalized_uninformative_is_unity(self):
        rng = np.random.default_rng(23)
        cloud = nv_cloud(rng, k=120)
        q = uniform_weight_matrix()
        profile = risk_profile(
            cloud, [CFG], q, np.random.default_rng(24),
            n_outcomes=64, n_particles=cloud.size,
            model=ConstantLikelihoodModel(),
        )
        value = profile[0][1].value / trace_weighted_variance(cloud, q)
        assert value == pytest.approx(1.0, rel=1e-10)

    def test_informative_candidate_improves_on_baseline(self):
        rng = np.random.default_rng(25)
        cloud = toy_cloud(rng, k=200)
        q = np.array([[1.0]])
        profile = risk_profile(
            cloud, [2.0], q, np.random.default_rng(26),
            n_outcomes=1024, n_particles=cloud.size,
            model=TruncatedPoissonToy(),
        )
        assert profile[0][1].value / trace_weighted_variance(cloud, q) < 1.0

    def test_profile_preserves_input_order(self):
        rng = np.random.default_rng(27)
        cloud = toy_cloud(rng, k=80)
        exposures = [0.5, 1.0, 2.0]
        profile = risk_profile(
            cloud, exposures, np.array([[1.0]]), np.random.default_rng(28),
            n_outcomes=128, n_particles=cloud.size, model=TruncatedPoissonToy(),
        )
        assert [cfg for cfg, _ in profile] == exposures

    def test_tight_prior_prefers_ramsey_for_magnetometry(self):
        # With everything calibrated except the Zeeman splitting, some
        # Ramsey wait time must beat every Rabi pulse time on the
        # magnetometry-weighted risk.
        rng = np.random.default_rng(29)
        cloud = sample_prior(PriorSpec(spin="tight"), 1500, rng)
        tip = 22.0  # quarter period at the calibrated drive strength
        candidates = [
            ExperimentConfig("rabi", pulse_time=float(t), repetitions=5000)
            for t in np.linspace(25, 500, 20)
        ] + [
            ExperimentConfig(
                "ramsey", pulse_time=tip, wait_time=float(w), repetitions=5000
            )
            for w in np.linspace(100, 2000, 20)
        ]
        profile = risk_profile(
            cloud,
            candidates,
            magnetometry_weight_matrix(),
            np.random.default_rng(30),
            n_outcomes=256,
            n_particles=512,
            p_table=partial(SurvivalTableCache().table, cloud.spin_locations),
        )
        rabi_best = min(e.value for c, e in profile if c.kind == "rabi")
        ramsey_best = min(e.value for c, e in profile if c.kind == "ramsey")
        assert ramsey_best < rabi_best


class TestProfileSplit:
    """Candidates share one draw set and count from their own child
    streams, so neither the thread they run on nor the length of the
    candidate list changes any candidate's estimate."""

    @staticmethod
    def inputs(n_configs=7):
        cloud = nv_cloud(np.random.default_rng(61), k=300)
        configs = [
            ExperimentConfig("rabi", pulse_time=float(t), repetitions=4667)
            for t in np.linspace(10.0, 200.0, n_configs)
        ]
        return cloud, configs, random_rows(configs, cloud.size, 62)

    @staticmethod
    def profile(cloud, configs, p_table, sizes=(96, 128)):
        return risk_profile(
            cloud, configs, uniform_weight_matrix(), np.random.default_rng(63),
            *sizes, p_table=p_table,
        )

    @staticmethod
    def serial(cloud, configs, p_table):
        """mis_risk on each candidate in turn, on the profile's shared draws."""
        rng = np.random.default_rng(63)
        q = uniform_weight_matrix()
        draws = risk.draw_shared(cloud, q, 96, 128, rng)
        streams = rng.spawn(len(configs))
        rows = p_table(configs, draws.particles)
        return [
            mis_risk(draws, config, stream, p=rows[i])
            for i, (config, stream) in enumerate(zip(configs, streams))
        ]

    def test_profile_equals_a_serial_loop(self):
        cloud, configs, p_table = self.inputs()
        profile = self.profile(cloud, configs, p_table)
        assert [cfg for cfg, _ in profile] == configs
        assert [est for _, est in profile] == self.serial(cloud, configs, p_table)

    def test_a_prefix_profile_is_the_prefix_of_the_profile(self):
        cloud, configs, p_table = self.inputs()
        full = self.profile(cloud, configs, p_table)
        assert self.profile(cloud, configs[:3], p_table) == full[:3]

    def test_one_candidate_profile(self):
        cloud, configs, p_table = self.inputs(n_configs=1)
        (config, est), = self.profile(cloud, configs, p_table)
        assert config == configs[0]
        assert [est] == self.serial(cloud, configs, p_table)

    def test_one_or_two_workers_give_the_same_profile(self, monkeypatch):
        # the small tables run on the calling thread, the large ones fan out
        # when there are two cores; a screen at 512x256 runs one of each
        small, large = (96, 128), (512, 256)
        assert small[0] * small[1] < risk._POOL_MIN_CELLS <= large[0] * large[1]
        cloud, configs, p_table = self.inputs()
        q = uniform_weight_matrix()
        runs = []
        for cores in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
            runs.append([
                self.profile(cloud, configs, p_table, small),
                self.profile(cloud, configs, p_table, large),
                risk.screened_profile(
                    cloud, configs, q, np.random.default_rng(64), *large,
                    p_table=p_table,
                ),
            ])
        assert runs[0] == runs[1]

    def test_moment_columns_are_built_once_per_profile(self, monkeypatch):
        calls = []
        active_block = risk._active_block
        monkeypatch.setattr(
            risk, "_active_block", lambda q: calls.append(q) or active_block(q)
        )
        cloud, configs, p_table = self.inputs()
        self.profile(cloud, configs, p_table)
        assert len(calls) == 1


class TestScreen:
    """The paired screen of screened_profile on a small NV design."""

    N_OUT, N_PAR = 256, 256

    @staticmethod
    def inputs(seed, n_configs=16):
        cloud = nv_cloud(np.random.default_rng(seed), k=400)
        configs = [
            ExperimentConfig("rabi", pulse_time=float(t), repetitions=4667)
            for t in np.linspace(10.0, 300.0, n_configs)
        ]
        p_table = partial(SurvivalTableCache().table, cloud.spin_locations)
        return cloud, configs, p_table

    def screen(self, cloud, configs, p_table, seed, sizes=(N_OUT, N_PAR)):
        """(profile, best, survivors) of screened_profile; survivors are the
        candidates with a full-size estimate."""
        profile, best = risk.screened_profile(
            cloud, configs, uniform_weight_matrix(), np.random.default_rng(seed),
            *sizes, p_table=p_table,
        )
        survivors = [
            i for i, (_, est) in enumerate(profile)
            if (est.n_outcomes, est.n_particles) == sizes
        ]
        return profile, best, survivors

    def screen_estimates(self, cloud, configs, p_table, seed):
        """The screen's own estimates: mis_risk on its shared draws."""
        rng = np.random.default_rng(seed)
        q = uniform_weight_matrix()
        n_out = self.N_OUT // risk.SCREEN_SHRINK
        n_par = self.N_PAR // risk.SCREEN_SHRINK
        draws = risk.draw_shared(cloud, q, n_out, n_par, rng)
        rows = p_table(configs, draws.particles)
        return [
            mis_risk(draws, c, s, p=rows[i])
            for i, (c, s) in enumerate(zip(configs, rng.spawn(len(configs))))
        ]

    @pytest.mark.parametrize("seed", [70, 71, 72])
    def test_the_leader_survives_and_the_rest_keep_screen_estimates(self, seed):
        cloud, configs, p_table = self.inputs(seed)
        profile, best, survivors = self.screen(cloud, configs, p_table, seed)
        screen = self.screen_estimates(cloud, configs, p_table, seed)
        leader = min(
            range(len(configs)), key=lambda i: (risk.rank((configs[i], screen[i])), i)
        )
        assert leader in survivors
        assert 0 < len(survivors) < len(configs)
        assert [cfg for cfg, _ in profile] == configs
        for i, (_, est) in enumerate(profile):
            if i not in survivors:
                assert est == screen[i]
                assert est.n_outcomes == self.N_OUT // risk.SCREEN_SHRINK
        assert best == min(survivors, key=lambda i: (risk.rank(profile[i]), i))

    def test_survivors_get_the_full_profile_on_fresh_draws(self):
        cloud, configs, p_table = self.inputs(73)
        profile, _, survivors = self.screen(cloud, configs, p_table, 73)
        rng = np.random.default_rng(73)
        # the screen's draws and streams come first
        risk.draw_shared(cloud, uniform_weight_matrix(), 32, 32, rng)
        rng.spawn(len(configs))
        full = risk_profile(
            cloud, [configs[i] for i in survivors], uniform_weight_matrix(), rng,
            n_outcomes=self.N_OUT, n_particles=self.N_PAR, p_table=p_table,
        )
        assert [profile[i] for i in survivors] == full

    def test_fixed_seed_gives_a_fixed_screen(self):
        cloud, configs, p_table = self.inputs(74)
        assert self.screen(cloud, configs, p_table, 75) == self.screen(
            cloud, configs, p_table, 75
        )

    def test_the_screen_starts_at_its_floor(self):
        cloud, configs, p_table = self.inputs(76)
        floor = risk.SCREEN_MIN * risk.SCREEN_SHRINK
        assert (self.N_OUT, self.N_PAR) == (floor, floor)
        _, _, survivors = self.screen(cloud, configs, p_table, 77)
        assert len(survivors) < len(configs)
        for sizes in ((floor - 1, floor), (floor, floor - 1)):
            profile, best, survivors = self.screen(
                cloud, configs, p_table, 77, sizes
            )
            assert survivors == list(range(len(configs)))
            assert profile == risk_profile(
                cloud, configs, uniform_weight_matrix(), np.random.default_rng(77),
                *sizes, p_table=p_table,
            )
            assert best == min(survivors, key=lambda i: (risk.rank(profile[i]), i))

    def test_rank(self):
        short = ExperimentConfig("rabi", pulse_time=10.0, repetitions=4667)
        long = ExperimentConfig("rabi", pulse_time=20.0, repetitions=4667)
        low = risk.RiskEstimate(0.1, 0.01, 100, 50)
        high = risk.RiskEstimate(0.2, 0.01, 100, 50)
        dropped = risk.RiskEstimate(0.01, 0.01, 100, 50, n_dropped=40)
        profile = [(short, dropped), (long, high), (long, low), (short, low)]
        assert sorted(range(4), key=lambda i: risk.rank(profile[i])) == [3, 2, 1, 0]
        assert risk._best(profile, [0, 1, 2, 3]) == 3
        assert risk._best(profile, [0, 1]) == 1
        assert risk._best([(short, low), (short, low)], [1, 0]) == 0

    def test_paired_rule(self):
        # the leader (row 0) kept only its first three outcomes, so every
        # pair is taken over those
        lead = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        terms = np.stack(
            [
                lead,
                lead + [0.5, -0.5, 0.2, 0, 0, 0],  # level with the leader
                lead + 0.1,  # behind it on every paired outcome
                lead + [0.2, 9.0, 9.0, 0, 0, 0],  # only one outcome pairs
                lead - 9.0,  # ahead of it
            ]
        )
        kept = np.ones_like(terms, dtype=bool)
        kept[0, 3:] = False
        kept[3, 1:] = False
        assert risk._paired_survivors(terms, kept, 0) == [0, 1, 3, 4]


class TestDrawnRows:
    """A design asks for survival rows only at the particles its draws read."""

    @staticmethod
    def inputs():
        cloud = nv_cloud(np.random.default_rng(90), k=600)
        configs = [
            ExperimentConfig("rabi", pulse_time=float(t), repetitions=4667)
            for t in np.linspace(10.0, 300.0, 12)
        ] + [
            ExperimentConfig("ramsey", 22.0, float(t), repetitions=4667)
            for t in np.linspace(100.0, 1200.0, 12)
        ]
        return cloud, configs

    def test_lazy_rows_give_the_same_profile_and_pick(self):
        cloud, configs = self.inputs()
        spins = cloud.spin_locations
        q = uniform_weight_matrix()
        cache = SurvivalTableCache()
        whole = SurvivalTableCache()
        whole.table(spins, configs)  # every row over the whole cloud
        full = risk.screened_profile(
            cloud, configs, q, np.random.default_rng(91), 256, 256,
            p_table=partial(whole.table, spins),
        )
        lazy = risk.screened_profile(
            cloud, configs, q, np.random.default_rng(91), 256, 256,
            p_table=partial(cache.table, spins),
        )
        assert lazy == full
        profile, _ = lazy
        assert any(est.n_outcomes == 256 // risk.SCREEN_SHRINK for _, est in profile)
        # no row was simulated over the whole cloud
        assert all(cache.lookup(spins, c) is None for c in configs)

    def test_a_row_function_is_asked_at_the_drawn_particles(self):
        cloud, configs = self.inputs()
        asked = []

        def rows(cfgs, particles):
            asked.append((len(cfgs), particles))
            return qutrit.survival_table(cloud.spin_locations[particles], cfgs)

        draws = risk.draw_shared(
            cloud, uniform_weight_matrix(), 64, 128, np.random.default_rng(92)
        )
        risk_profile(
            cloud, configs, uniform_weight_matrix(), np.random.default_rng(92),
            n_outcomes=64, n_particles=128, p_table=rows,
        )
        (n, particles), = asked
        assert n == len(configs)
        assert np.array_equal(particles, draws.particles)
        assert np.array_equal(
            particles, np.union1d(draws.outcome_idx, draws.inner_idx)
        )

    def test_a_row_of_another_length_is_refused(self):
        cloud, configs = self.inputs()
        q = uniform_weight_matrix()
        draws = risk.draw_shared(cloud, q, 64, 128, np.random.default_rng(93))
        # a row over the whole cloud is refused too: shared draws take rows
        # only at their particles
        assert len(draws.particles) < cloud.size
        for n in (len(draws.particles) + 1, cloud.size):
            with pytest.raises(ValueError, match="drawn particles"):
                mis_risk(
                    draws, configs[0], np.random.default_rng(94), p=np.zeros(n)
                )


class TestUsableCores:
    def test_without_affinity_the_core_count_serves(self, monkeypatch):
        cloud, configs = TestDrawnRows.inputs()
        spins = cloud.spin_locations

        def profile_and_table():
            table = qutrit.survival_table(spins, configs)
            profile = risk_profile(
                cloud, configs, uniform_weight_matrix(), np.random.default_rng(94),
                n_outcomes=64, n_particles=128,
                p_table=partial(SurvivalTableCache().table, spins),
            )
            return profile, table

        profile, table = profile_and_table()
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert qutrit.usable_cores() == (os.cpu_count() or 1)
        other_profile, other_table = profile_and_table()
        assert other_profile == profile
        assert np.array_equal(other_table, table)


class TestOneScratchBuffer:
    """The Taylor step and the MIS table blocks work in one scratch buffer
    per thread (qutrit.thread_buffer), and no result is a view of it."""

    @staticmethod
    def one_core(monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

    def test_tables_and_exponentials_outlive_a_full_size_profile(self, monkeypatch):
        self.one_core(monkeypatch)
        cloud, configs = TestDrawnRows.inputs()
        spins = cloud.spin_locations
        rng = np.random.default_rng(95)
        table = qutrit.survival_table(spins, configs)
        # a survival-table block's pulse stack, scaled so that some matrices
        # take no squarings and some take several
        stack = rng.normal(size=(768, 8, 8)) * np.geomspace(1e-3, 10.0, 768)[
            :, None, None
        ]
        exponentials = qutrit.expm(stack)
        kept = table.copy(), exponentials.copy()
        sizes = (512, 256)
        assert sizes[0] * sizes[1] >= risk._POOL_MIN_CELLS
        risk_profile(
            cloud, configs, uniform_weight_matrix(), rng, *sizes,
            p_table=partial(SurvivalTableCache().table, spins),
        )
        assert np.array_equal(table, kept[0])
        assert np.array_equal(exponentials, kept[1])

    def test_a_table_between_stages_leaves_the_design(self, monkeypatch):
        self.one_core(monkeypatch)
        cloud, configs = TestDrawnRows.inputs()
        spins = cloud.spin_locations
        stage = risk.risk_profile

        def design():
            return risk.screened_profile(
                cloud, configs, uniform_weight_matrix(),
                np.random.default_rng(96), 512, 256,
                p_table=partial(SurvivalTableCache().table, spins),
            )

        def stage_then_table(*args, **kwargs):
            profile = stage(*args, **kwargs)
            qutrit.survival_table(spins, configs)
            return profile

        plain = design()
        monkeypatch.setattr(risk, "risk_profile", stage_then_table)
        interleaved = design()
        assert interleaved[1] == plain[1]
        assert interleaved[0] == plain[0]
        for (_, a), (_, b) in zip(interleaved[0], plain[0]):
            assert np.array_equal(a.samples, b.samples, equal_nan=True)


class TestBlockedTable:
    """The block-at-a-time estimator against the whole-table oracle."""

    class RecordingNvModel(NvModel):
        def __init__(self):
            self.outs = []

        def log_likelihood_matrix(self, counts, log_rates, out=None):
            self.outs.append(out)
            return super().log_likelihood_matrix(counts, log_rates, out)

    # mis_risk takes at least two outcomes: the fewest it can be asked for,
    # then a last block of a single row
    @pytest.mark.parametrize("extra_rows", [None, 1])
    @pytest.mark.parametrize("n_reps, shrink", [(4667, 1.0), (1_000_000, 0.03)])
    def test_nv_cloud_matches_the_whole_table(self, n_reps, shrink, extra_rows):
        rng = np.random.default_rng(65)
        base = sample_prior(PriorSpec(), 1500, rng)
        mean = base.locations.mean(axis=0)
        weights = rng.uniform(0.5, 1.5, base.size)
        cloud = ParticleCloud(
            mean + shrink * (base.locations - mean), weights / weights.sum()
        )
        p = np.clip(0.4 + 0.3 * shrink * rng.normal(size=cloud.size), 0.0, 1.0)
        config = ExperimentConfig("rabi", pulse_time=50.0, repetitions=n_reps)
        n_inner = 1024
        rows = risk._block_rows(n_inner)
        n_outcomes = 2 if extra_rows is None else rows + extra_rows
        for q in (uniform_weight_matrix(), magnetometry_weight_matrix()):
            model = self.RecordingNvModel()
            new = mis_alone(
                cloud, config, q, n_outcomes, n_inner, np.random.default_rng(66),
                model, p_full=p,
            )
            old = whole_table_mis_risk(
                cloud, config, q, n_outcomes, n_inner, np.random.default_rng(66),
                p_full=p,
            )
            assert new.value == pytest.approx(old.value, rel=1e-12, abs=0)
            assert new.std_error == pytest.approx(old.std_error, rel=1e-12, abs=0)
            assert (new.n_dropped, new.n_particles) == (old.n_dropped, old.n_particles)
            assert [len(out) for out in model.outs] == (
                [2] if extra_rows is None else [rows, 1]
            )
            # one workspace serves every block
            assert all(np.shares_memory(out, model.outs[0]) for out in model.outs)

    def test_empty_rows_in_two_blocks_are_each_dropped_once(self):
        cloud = toy_cloud(np.random.default_rng(67))
        rows = risk._block_rows(cloud.size)
        n_outcomes = rows + 40
        model = UnderflowingModel([5, rows + 3])
        q = np.array([[1.0]])
        new = mis_alone(
            cloud, 1.5, q, n_outcomes, cloud.size, np.random.default_rng(68), model
        )
        old = whole_table_mis_risk(
            cloud, 1.5, q, n_outcomes, cloud.size, np.random.default_rng(68), model
        )
        assert new.n_dropped == old.n_dropped == 2
        assert new.value == pytest.approx(old.value, rel=1e-12, abs=0)
        assert new.std_error == pytest.approx(old.std_error, rel=1e-12, abs=0)


class TestSurvivalRows:
    def test_nv_model_without_rows_names_them(self):
        cloud = nv_cloud(np.random.default_rng(31), k=50)
        with pytest.raises(ValueError, match=r"as p \(mis_risk\)"):
            mis_alone(
                cloud, CFG, uniform_weight_matrix(), 16, 16, np.random.default_rng(32)
            )
        with pytest.raises(ValueError, match="p_table"):
            NvModel().sample_counts(cloud.locations, CFG, np.random.default_rng(33))

    def test_profile_without_rows_names_them(self, monkeypatch):
        # the NV rows come from the design's cache or the caller, never from
        # a simulation inside the estimator
        def no_simulation(*args):
            raise AssertionError("risk_profile simulated survival rows")

        monkeypatch.setattr(qutrit, "survival_table", no_simulation)
        cloud = nv_cloud(np.random.default_rng(34), k=50)
        with pytest.raises(ValueError, match="p_table"):
            risk_profile(
                cloud, [CFG], uniform_weight_matrix(), np.random.default_rng(35),
                n_outcomes=16, n_particles=16,
            )


def nv_table(n_reps, shrink, seed, n_out=300, n_in=700):
    """A log-likelihood table of the NV model at ``n_reps`` repetitions,
    with inner weights and locations.  The wide-prior cloud is shrunk toward
    its mean by ``shrink``, so that at 1e6 repetitions each posterior still
    spreads over many inner particles."""
    rng = np.random.default_rng(seed)
    cloud = sample_prior(PriorSpec(), 1500, rng)
    mean = cloud.locations.mean(axis=0)
    locations = mean + shrink * (cloud.locations - mean)
    p = np.clip(0.4 + 0.3 * shrink * rng.normal(size=cloud.size), 0.0, 1.0)
    config = ExperimentConfig("rabi", pulse_time=50.0, repetitions=n_reps)
    outcome = rng.choice(cloud.size, n_out)
    counts = NvModel().sample_counts(locations[outcome], config, rng, p=p[outcome])
    inner = rng.choice(cloud.size, n_in, replace=False)
    model = NvModel()
    table = model.log_likelihood_matrix(
        counts, model.log_rates(locations[inner], config, p=p[inner])
    )
    weights = rng.uniform(0.5, 1.5, n_in)
    return table, weights / weights.sum(), locations[inner]


class TestOneProductMoments:
    """The one-product MIS moment kernel against the three-product oracle."""

    @staticmethod
    def compare(table, weights, locations, q, dtype, rtol):
        expected, kept_expected = three_product_variance_terms(
            table, weights, locations, q
        )
        terms, kept = risk._weighted_variance_terms(
            table.copy(), *risk._moment_columns(weights, locations, q)
        )
        assert terms.dtype == dtype
        np.testing.assert_array_equal(kept, kept_expected)
        np.testing.assert_allclose(terms[kept], expected[kept], rtol=rtol, atol=0)
        return kept

    @pytest.mark.parametrize("n_reps, shrink", [(4667, 1.0), (1_000_000, 0.03)])
    @pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12)])
    def test_nv_model_tables(self, n_reps, shrink, dtype, rtol):
        table, weights, locations = nv_table(n_reps, shrink, seed=41)
        for q in (uniform_weight_matrix(), magnetometry_weight_matrix()):
            kept = self.compare(table, weights, locations, q, dtype, rtol)
            assert kept.all()

    @pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12)])
    def test_rows_with_no_finite_entry_are_dropped(self, dtype, rtol):
        table, weights, locations = nv_table(4667, 1.0, seed=43, n_out=40)
        table[[3, 17, 18]] = -np.inf
        table[25, ::2] = -np.inf  # half finite: kept
        kept = self.compare(
            table, weights, locations, uniform_weight_matrix(), dtype, rtol
        )
        assert np.flatnonzero(~kept).tolist() == [3, 17, 18]

    def test_toy_model_table(self):
        rng = np.random.default_rng(45)
        cloud = toy_cloud(rng)
        model = TruncatedPoissonToy()
        counts = model.sample_counts(cloud.locations, 1.5, rng)
        table = model.log_likelihood_matrix(counts, model.log_rates(cloud.locations, 1.5))
        self.compare(
            table, cloud.weights, cloud.locations, np.array([[1.0]]), np.float64, 1e-12
        )

    def test_kernel_consumes_its_table(self):
        table, weights, locations = nv_table(4667, 1.0, seed=47, n_out=20)
        before = table.copy()
        risk._weighted_variance_terms(
            table, *risk._moment_columns(weights, locations, uniform_weight_matrix())
        )
        shifted = before - before.max(axis=1, keepdims=True)
        np.testing.assert_array_equal(table, np.exp(shifted))

    def test_mis_risk_unchanged_at_float64(self, monkeypatch):
        cloud = sample_prior(PriorSpec(), 2000, np.random.default_rng(49))
        q = uniform_weight_matrix()
        p = np.random.default_rng(50).uniform(0.0, 1.0, cloud.size)
        config = ExperimentConfig(
            "ramsey", pulse_time=22.0, wait_time=300.0, repetitions=4667
        )

        def estimates():
            return [
                mis_alone(
                    cloud, config, q, 256, 512, np.random.default_rng(s), p_full=p
                )
                for s in range(51, 55)
            ]

        fused = estimates()
        # the oracle takes the inner set and Q where the kernel takes columns
        monkeypatch.setattr(risk, "_moment_columns", lambda w, loc, q: (w, loc, q))
        monkeypatch.setattr(
            risk, "_weighted_variance_terms", three_product_variance_terms
        )
        for new, old in zip(fused, estimates()):
            assert new.value == pytest.approx(old.value, rel=1e-12, abs=0)
            assert new.std_error == pytest.approx(old.std_error, rel=1e-12, abs=0)
            assert new.n_dropped == old.n_dropped


def posterior_cloud(k, seed):
    """A wide-prior cloud after three Rabi data of one of its particles."""
    rng = np.random.default_rng(seed)
    cloud = sample_prior(PriorSpec(), k, rng)
    truth = cloud.locations[0]
    refs = ReferenceRates(truth[IDX_ALPHA], truth[IDX_BETA])
    for t in (40.0, 120.0, 260.0):
        config = ExperimentConfig("rabi", pulse_time=t, repetitions=5000)
        p = qutrit.survival_table(cloud.spin_locations[:1], [config])[0, 0]
        datum = sample_datum(p, refs, config.repetitions, rng)
        cloud, _ = smc.bayes_update(
            cloud, datum, config, rng,
            lambda spins, config: qutrit.survival_table(spins, [config])[0],
        )
    return cloud


class TestFormedPerCandidate:
    """mis_risk forms only what depends on the candidate, with no stacked
    copies; its estimates are the stacked oracle's, bit for bit."""

    @pytest.mark.parametrize("sizes", [(64, 128), (512, 1024)])
    @pytest.mark.parametrize("posterior", [False, True])
    def test_estimates_equal_the_stacked_ones(self, sizes, posterior):
        if posterior:
            cloud = posterior_cloud(2000, seed=81)
        else:
            cloud = sample_prior(PriorSpec(), 2000, np.random.default_rng(81))
        configs = [
            ExperimentConfig("rabi", pulse_time=t, repetitions=5126)
            for t in (20.0, 75.0, 310.0)
        ] + [
            ExperimentConfig("ramsey", pulse_time=22.0, wait_time=w, repetitions=5126)
            for w in (100.0, 900.0)
        ]
        table = partial(SurvivalTableCache().table, cloud.spin_locations)
        for q in (uniform_weight_matrix(), magnetometry_weight_matrix()):
            draws = risk.draw_shared(cloud, q, *sizes, np.random.default_rng(82))
            assert (draws.n_outcomes, draws.n_inner) == sizes
            rows = table(configs, draws.particles)
            streams = np.random.default_rng(83).spawn(len(configs))
            again = np.random.default_rng(83).spawn(len(configs))
            for config, stream, other, row in zip(configs, streams, again, rows):
                new = mis_risk(draws, config, stream, p=row)
                old = stacked_mis_risk(draws, config, other, row)
                assert new.value == old.value
                assert new.std_error == old.std_error
                assert new.n_dropped == old.n_dropped
                np.testing.assert_array_equal(new.samples, old.samples)

    @staticmethod
    def deep_table(seed):
        """An NV table whose rows each hold entries below -745 and between
        -745 and -708 of their maximum, and whose row 7 is -inf."""
        table, weights, locations = nv_table(4667, 1.0, seed=seed, n_out=60)
        rng = np.random.default_rng(seed + 1)
        deep = rng.uniform(size=table.shape) < 0.2
        deep[np.arange(len(table)), table.argmax(axis=1)] = False
        depth = np.where(
            rng.uniform(size=table.shape) < 0.5,
            rng.uniform(-745.0, -700.0, table.shape),
            rng.uniform(-2000.0, -745.0, table.shape),
        )
        table = np.where(deep, table.max(axis=1, keepdims=True) + depth, table)
        table[7] = -np.inf
        shifted = table[8:] - table[8:].max(axis=1, keepdims=True)
        assert ((shifted > -745) & (shifted < -708)).any(axis=1).all()
        assert (shifted < -745).any(axis=1).all()
        return table, weights, locations

    def test_the_floor_leaves_every_kept_term(self):
        # entries below -745 exp to zero and those between -745 and -708 to
        # subnormals; floored at -700 they add less than an ulp to each moment
        table, weights, locations = self.deep_table(85)
        rows = np.arange(len(table)) != 7
        shifted = table[rows] - table[rows].max(axis=1, keepdims=True)
        for q in (uniform_weight_matrix(), magnetometry_weight_matrix()):
            moments = risk._moment_columns(weights, locations, q)
            assert moments[2] == risk._EXP_FLOOR
            floored = table.copy()
            terms, kept = risk._weighted_variance_terms(floored, *moments)
            expected, kept_expected = unfloored_variance_terms(
                table.copy(), *moments[:2]
            )
            np.testing.assert_array_equal(kept, kept_expected)
            assert np.flatnonzero(~kept).tolist() == [7]
            np.testing.assert_array_equal(terms[kept], expected[kept])
            np.testing.assert_array_equal(
                floored[rows], np.exp(np.maximum(shifted, risk._EXP_FLOOR))
            )

    @pytest.mark.parametrize("tiny", [0.0, 1e-300])
    def test_no_floor_where_the_maximum_may_carry_no_weight(self, tiny):
        # a particle of zero or negligible weight holds the maximum of rows
        # whose every weighted entry is below -700 of it: floored, those
        # rows would be kept on entries raised to exp(-700)
        table, weights, locations = self.deep_table(87)
        weights = weights.copy()
        weights[0] = tiny
        weights /= weights.sum()
        table[30:40, 0] = table[30:40].max(axis=1) + 760.0
        for q in (uniform_weight_matrix(), magnetometry_weight_matrix()):
            moments = risk._moment_columns(weights, locations, q)
            assert moments[2] is None
            terms, kept = risk._weighted_variance_terms(table.copy(), *moments)
            expected, kept_expected = unfloored_variance_terms(
                table.copy(), *moments[:2]
            )
            np.testing.assert_array_equal(kept, kept_expected)
            np.testing.assert_array_equal(terms[kept], expected[kept])
            assert not kept[30:40].any() if tiny == 0.0 else kept[30:40].all()


class TestWeightMatrices:
    def test_spin_weight_matrix_layout(self):
        q = spin_weight_matrix([1, 2, 3, 4, 5])
        assert q.shape == (10, 10)
        assert np.array_equal(np.diag(q)[:5], [1, 2, 3, 4, 5])
        assert np.all(q[5:, :] == 0) and np.all(q[:, 5:] == 0)

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            RiskEstimate(value=-1.0, std_error=0.1, n_outcomes=10, n_particles=10)
        est = RiskEstimate(value=-1e-14, std_error=0.0, n_outcomes=2, n_particles=2)
        assert est.value == 0.0
