import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import poisson

from nvbed import harness, smc
from nvbed.measurement import Datum
from nvbed.qutrit import ExperimentConfig
from nvbed.smc import (
    IDX_ALPHA,
    IDX_ATANH_RHO,
    IDX_BETA,
    IDX_DEPHASING,
    IDX_LOG_SIGMA_ALPHA,
    IDX_LOG_SIGMA_BETA,
    IDX_RABI,
    IDX_ZEEMAN,
    DegenerateUpdateError,
    DriftParams,
    ParticleCloud,
    PriorSpec,
    RedrawLimitError,
    ReferencePrior,
    _check_constraints,
    _sample_drift_chart,
    bayes_update,
    drift_step,
    effective_sample_size,
    empirical_reference_prior,
    liu_west_resample,
    posterior_cov,
    posterior_mean,
    reference_reset,
    sample_prior,
)
from oracles import bayes_update_sequence, invwishart_chart

RABI_CFG = ExperimentConfig("rabi", pulse_time=50.0, repetitions=100)


def make_cloud(rng, k=200, alpha_spread=0.004):
    """Small synthetic cloud around plausible NV values."""
    locations = np.empty((k, 10))
    locations[:, IDX_RABI] = rng.uniform(8, 14, k)
    locations[:, IDX_ZEEMAN] = rng.uniform(0, 6, k)
    locations[:, 2] = rng.uniform(-2, 2, k)
    locations[:, 3] = rng.uniform(1.8, 2.6, k)
    locations[:, IDX_DEPHASING] = rng.uniform(0.1, 0.6, k)
    locations[:, IDX_ALPHA] = rng.normal(0.05, alpha_spread, k).clip(0.03, 0.08)
    locations[:, IDX_BETA] = rng.normal(0.02, alpha_spread / 2, k).clip(0.008, 0.028)
    locations[:, IDX_LOG_SIGMA_ALPHA] = np.log(rng.uniform(0.02, 0.06, k))
    locations[:, IDX_LOG_SIGMA_BETA] = np.log(rng.uniform(0.02, 0.06, k))
    locations[:, IDX_ATANH_RHO] = np.arctanh(rng.uniform(0.4, 0.9, k))
    weights = rng.uniform(0.5, 1.5, k)
    return ParticleCloud(locations, weights / weights.sum())


def constant_survival(value):
    def fn(spins, config):
        return np.full(spins.shape[0], value)

    return fn


class TestModelParameters:
    def test_invalid_drift_rejected(self):
        with pytest.raises(ValueError):
            DriftParams(0.036, 0.036, 1.0)
        with pytest.raises(ValueError):
            DriftParams(-0.1, 0.036, 0.0)


class TestPriorSampling:
    def test_wide_prior_ranges(self):
        rng = np.random.default_rng(0)
        cloud = sample_prior(PriorSpec(), 4000, rng)
        loc = cloud.locations
        assert loc[:, IDX_RABI].min() >= 0 and loc[:, IDX_RABI].max() <= 20
        assert loc[:, IDX_ZEEMAN].min() >= 0 and loc[:, IDX_ZEEMAN].max() <= 10
        assert loc[:, 2].min() >= -5 and loc[:, 2].max() <= 5
        assert loc[:, 3].min() >= 1.5 and loc[:, 3].max() <= 3.5
        # T2* uniform on [1, 20] us
        t2 = 1.0 / loc[:, IDX_DEPHASING]
        assert t2.min() >= 1.0 and t2.max() <= 20.0
        assert np.all(cloud.weights == 1.0 / 4000)
        assert np.all(loc[:, IDX_BETA] > 0)
        assert np.all(loc[:, IDX_BETA] < loc[:, IDX_ALPHA])

    def test_calibrated_prior_moments(self):
        rng = np.random.default_rng(1)
        spec = PriorSpec(spin="calibrated")
        cloud = sample_prior(spec, 40000, rng)
        loc = cloud.locations
        sampled = loc[:, [IDX_RABI, 2, 3, IDX_DEPHASING]].mean(axis=0)
        target = np.array([11.55, -0.86, 2.18, 0.35])
        sigma = np.sqrt(np.diag(smc.CALIBRATED_COV) / 40000)
        assert np.all(np.abs(sampled - target) <= 5 * sigma)
        # zeeman stays wide
        assert loc[:, IDX_ZEEMAN].max() > 8.0

    def test_tight_prior_narrows_zeeman(self):
        rng = np.random.default_rng(2)
        spec = PriorSpec(spin="tight")
        cloud = sample_prior(spec, 5000, rng)
        zee = cloud.locations[:, IDX_ZEEMAN]
        assert zee.std() == pytest.approx(smc.TIGHT_ZEEMAN_STD, rel=0.1)
        assert zee.mean() == pytest.approx(smc.TIGHT_ZEEMAN_MEAN, abs=0.02)

    def test_drift_hyperprior_mean(self):
        rng = np.random.default_rng(3)
        chart = _sample_drift_chart(20000, rng)
        sa2 = np.exp(2 * chart[:, 0])
        sb2 = np.exp(2 * chart[:, 1])
        cross = np.exp(chart[:, 0] + chart[:, 1]) * np.tanh(chart[:, 2])
        target = smc.DRIFT_SCALE / (smc.DRIFT_DOF - 3)
        assert sa2.mean() == pytest.approx(target[0, 0], rel=0.05)
        assert sb2.mean() == pytest.approx(target[1, 1], rel=0.05)
        assert cross.mean() == pytest.approx(target[0, 1], rel=0.05)
        assert target[0, 0] == pytest.approx(0.036**2)
        assert target[0, 1] == pytest.approx(0.7 * 0.036**2)

    @pytest.mark.parametrize("n", [1, 7, 4000])
    def test_drift_chart_matches_invwishart_on_the_same_seed(self, n):
        ours, theirs = np.random.default_rng(29), np.random.default_rng(29)
        chart = _sample_drift_chart(n, ours)
        expected = invwishart_chart(smc.DRIFT_DOF, smc.DRIFT_SCALE, n, theirs)
        np.testing.assert_allclose(chart, expected, rtol=1e-12, atol=0.0)
        # the same draws were taken, so both streams continue identically
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_prior_specs_compare_and_hash_by_value(self):
        assert PriorSpec() == PriorSpec()
        assert PriorSpec(spin="tight") != PriorSpec()
        tight = {PriorSpec(spin="tight"), PriorSpec(spin="tight")}
        assert len(tight) == 1

    def test_a_spin_prior_is_given_by_name(self):
        # the run's "tight" prior, whose moments test_tight_prior_narrows_zeeman checks
        by_run = harness.RunConfig(prior="tight").prior_spec()
        by_name = PriorSpec(spin="tight")
        np.testing.assert_array_equal(
            sample_prior(by_name, 500, np.random.default_rng(5)).locations,
            sample_prior(by_run, 500, np.random.default_rng(5)).locations,
        )
        with pytest.raises(ValueError, match="medium"):
            PriorSpec(spin="medium")

    @pytest.mark.parametrize("name", ["CALIBRATED_MEAN", "CALIBRATED_COV", "DRIFT_SCALE"])
    def test_fixed_prior_arrays_are_read_only(self, name):
        fixed = getattr(smc, name)
        before = fixed.copy()
        with pytest.raises(ValueError, match="read-only"):
            fixed[0] = 1.0
        assert np.array_equal(fixed, before)

    def test_inconsistent_reference_prior_fails(self):
        rng = np.random.default_rng(4)
        bad = ReferencePrior(
            alpha_mean=0.01, alpha_std=1e-5, beta_mean=0.05, beta_std=1e-5
        )
        with pytest.raises(RedrawLimitError):
            sample_prior(PriorSpec(references=bad), 100, rng)

    def test_empirical_reference_prior_moments(self):
        rng = np.random.default_rng(5)
        prior = empirical_reference_prior(15000, 6000, 300_000)
        assert prior.alpha_mean == pytest.approx(0.05)
        assert prior.alpha_std == pytest.approx(3 * math.sqrt(15000) / 300_000)
        draws = prior.sample(40000, rng)
        assert draws[:, 0].mean() == pytest.approx(
            prior.alpha_mean, abs=5 * prior.alpha_std / 200
        )
        assert draws[:, 0].std() == pytest.approx(prior.alpha_std, rel=0.05)
        assert draws[:, 1].mean() == pytest.approx(
            prior.beta_mean, abs=5 * prior.beta_std / 200
        )


class TestEffectiveSampleSize:
    def test_uniform_weights(self):
        cloud = ParticleCloud(np.zeros((40, 10)), np.full(40, 1 / 40))
        assert effective_sample_size(cloud) == pytest.approx(40.0)

    def test_single_surviving_weight(self):
        w = np.zeros(10)
        w[3] = 1.0
        cloud = ParticleCloud(np.zeros((10, 10)), w)
        assert effective_sample_size(cloud) == pytest.approx(1.0)

    def test_hand_value(self):
        cloud = ParticleCloud(np.zeros((3, 10)), np.array([0.5, 0.25, 0.25]))
        assert effective_sample_size(cloud) == pytest.approx(8.0 / 3.0)


@pytest.fixture
def schedule(monkeypatch):
    """Sets the update schedule's ESM per step and resample threshold for
    one test."""

    def set_schedule(esm_per_step, resample_threshold):
        monkeypatch.setattr(smc, "ESM_PER_STEP", esm_per_step)
        monkeypatch.setattr(smc, "RESAMPLE_THRESHOLD", resample_threshold)

    return set_schedule


class TestBayesUpdate:
    def test_constant_likelihood_leaves_weights(self, schedule):
        rng = np.random.default_rng(6)
        cloud = make_cloud(rng, k=50)
        cloud.locations[:, IDX_ALPHA] = 0.05
        cloud.locations[:, IDX_BETA] = 0.02
        datum = Datum(480, 210, 330, repetitions=100)
        schedule(esm_per_step=math.inf, resample_threshold=0.0)
        updated, report = bayes_update(
            cloud, datum, RABI_CFG, rng, constant_survival(0.4)
        )
        assert np.allclose(updated.weights, cloud.weights, rtol=1e-12)
        assert not report.resampled

    def test_two_particle_posterior_matches_direct_arithmetic(self, schedule):
        rng = np.random.default_rng(7)
        locations = np.zeros((2, 10))
        locations[:, IDX_RABI] = 10.0
        locations[:, IDX_ALPHA] = [0.05, 0.06]
        locations[:, IDX_BETA] = [0.02, 0.03]
        locations[:, IDX_LOG_SIGMA_ALPHA:] = -3.0
        cloud = ParticleCloud(locations, np.array([0.5, 0.5]))
        ps = np.array([0.3, 0.7])
        datum = Datum(5, 2, 3, repetitions=100)

        def survival(spins, config):
            return ps

        schedule(esm_per_step=math.inf, resample_threshold=0.0)
        updated, _ = bayes_update(cloud, datum, RABI_CFG, rng, survival)
        n = 100
        likes = np.array(
            [
                poisson.pmf(5, n * a) * poisson.pmf(2, n * b)
                * poisson.pmf(3, n * (b + p * (a - b)))
                for a, b, p in zip(locations[:, IDX_ALPHA], locations[:, IDX_BETA], ps)
            ]
        )
        expected = likes / likes.sum()
        assert np.allclose(updated.weights, expected, rtol=1e-10)

    def test_tempered_single_step_equals_plain(self, schedule):
        rng_a = np.random.default_rng(8)
        rng_b = np.random.default_rng(8)
        cloud = make_cloud(np.random.default_rng(9), k=80)
        datum = Datum(3, 1, 2, repetitions=1)  # tiny ESM forces m = 1
        schedule(esm_per_step=math.inf, resample_threshold=0.0)
        plain, _ = bayes_update(cloud, datum, RABI_CFG, rng_a, constant_survival(0.5))
        schedule(esm_per_step=1e9, resample_threshold=0.0)
        tempered, report = bayes_update(
            cloud, datum, RABI_CFG, rng_b, constant_survival(0.5)
        )
        assert report.substeps == 1
        assert np.array_equal(plain.weights, tempered.weights)

    def test_weights_normalized_after_update(self):
        rng = np.random.default_rng(10)
        cloud = make_cloud(rng, k=300)
        datum = Datum(520, 195, 300, repetitions=100)
        updated, _ = bayes_update(cloud, datum, RABI_CFG, rng, survival_fn=constant_survival(0.5))
        assert abs(updated.weights.sum() - 1.0) <= 1e-12

    def test_sequential_consistency_chain_rule(self, schedule):
        rng = np.random.default_rng(11)
        cloud = make_cloud(rng, k=60)
        data = [Datum(6, 2, 4, repetitions=100), Datum(4, 3, 5, repetitions=100)]
        schedule(esm_per_step=math.inf, resample_threshold=0.0)
        survival = constant_survival(0.45)

        step1, _ = bayes_update(cloud, data[0], RABI_CFG, rng, survival)
        chained, _ = bayes_update(step1, data[1], RABI_CFG, rng, survival)
        joint, _ = bayes_update_sequence(
            cloud, data, [RABI_CFG, RABI_CFG], rng, survival
        )
        assert np.array_equal(chained.weights, joint.weights)

        # independent direct-product oracle
        n = 100
        a = cloud.locations[:, IDX_ALPHA]
        b = cloud.locations[:, IDX_BETA]
        lam = b + 0.45 * (a - b)
        product = cloud.weights.copy()
        for d in data:
            product = product * (
                poisson.pmf(d.bright_counts, n * a)
                * poisson.pmf(d.dark_counts, n * b)
                * poisson.pmf(d.signal_counts, n * lam)
            )
        product /= product.sum()
        assert np.allclose(chained.weights, product, rtol=1e-12)

    def test_resample_triggers_iff_threshold_crossed(self, schedule):
        rng = np.random.default_rng(12)
        cloud = make_cloud(rng, k=100)
        datum = Datum(5, 2, 3, repetitions=100)

        # survival spread out enough to concentrate weight on few particles
        def spiky(spins, config):
            out = np.full(spins.shape[0], 0.999)
            out[:3] = 0.01
            return out

        schedule(esm_per_step=math.inf, resample_threshold=0.5)
        hit, report_hit = bayes_update(
            cloud, Datum(5, 2, 300, repetitions=100), RABI_CFG, rng, spiky
        )
        assert report_hit.resampled
        assert not np.array_equal(hit.spin_locations, cloud.spin_locations)

        schedule(esm_per_step=math.inf, resample_threshold=0.0)
        miss, report_miss = bayes_update(
            cloud, datum, RABI_CFG, rng, constant_survival(0.5)
        )
        assert not report_miss.resampled
        assert np.array_equal(miss.locations, cloud.locations)

    def test_the_schedule_is_read_at_each_call(self, monkeypatch, schedule):
        cloud = make_cloud(np.random.default_rng(30), k=120)
        datum = Datum(520, 195, 300, repetitions=100)
        datum_esm = smc.expected_esm(cloud, datum.repetitions)
        schedule(esm_per_step=datum_esm / 3.5, resample_threshold=0.0)
        _, report = bayes_update(
            cloud, datum, RABI_CFG, np.random.default_rng(0), constant_survival(0.5)
        )
        assert report.substeps == 4 and not report.resampled
        # a = 1 resamples without smoothing: every location is an ancestor's
        schedule(esm_per_step=math.inf, resample_threshold=1.1)
        monkeypatch.setattr(smc, "LIU_WEST_A", 1.0)
        updated, report = bayes_update(
            cloud, datum, RABI_CFG, np.random.default_rng(0), constant_survival(0.5)
        )
        assert report.substeps == 1 and report.resampled
        original = {tuple(row) for row in cloud.locations}
        assert all(tuple(row) in original for row in updated.locations)

    def test_degenerate_update_raises_after_retry(self, schedule):
        # the only particle compatible with the datum carries zero weight
        rng = np.random.default_rng(13)
        locations = np.zeros((2, 10))
        locations[:, IDX_ALPHA] = [0.05, 100_000.0]
        locations[:, IDX_BETA] = 0.02
        locations[:, IDX_LOG_SIGMA_ALPHA:] = -3.0
        cloud = ParticleCloud(locations, np.array([1.0, 0.0]))
        datum = Datum(100_000, 0, 0, repetitions=1)
        schedule(esm_per_step=math.inf, resample_threshold=0.0)
        with pytest.raises(DegenerateUpdateError):
            bayes_update(cloud, datum, RABI_CFG, rng, constant_survival(0.5))


class TestLiuWest:
    def test_a_of_one_is_multinomial(self):
        rng = np.random.default_rng(14)
        cloud = make_cloud(rng, k=150)
        resampled = liu_west_resample(cloud, 1.0, rng)
        original = {tuple(row) for row in cloud.locations}
        assert all(tuple(row) in original for row in resampled.locations)
        assert np.all(resampled.weights == 1.0 / 150)

    def test_mean_preservation(self):
        rng = np.random.default_rng(15)
        cloud = make_cloud(rng, k=10_000)
        before = posterior_mean(cloud)
        var = np.diag(posterior_cov(cloud))
        resampled = liu_west_resample(cloud, 0.98, rng)
        after = posterior_mean(resampled)
        assert np.all(np.abs(after - before) <= 5 * np.sqrt(var / 10_000) + 1e-12)

    def test_covariance_preservation(self):
        rng = np.random.default_rng(16)
        cloud = make_cloud(rng, k=10_000)
        before = np.diag(posterior_cov(cloud))
        resampled = liu_west_resample(cloud, 0.98, rng)
        after = np.diag(posterior_cov(resampled))
        assert np.all(np.abs(after - before) <= 0.1 * before)

    def test_constraints_hold_after_resampling(self):
        rng = np.random.default_rng(17)
        # references hugging the constraint boundary provoke redraws
        cloud = make_cloud(rng, k=500, alpha_spread=0.012)
        resampled = liu_west_resample(cloud, 0.9, rng)
        loc = resampled.locations
        assert np.all(loc[:, IDX_BETA] > 0)
        assert np.all(loc[:, IDX_BETA] < loc[:, IDX_ALPHA])
        assert np.all(loc[:, IDX_RABI] >= 0)

    def test_redraw_limit_on_an_all_invalid_cloud(self):
        # a = 1 copies ancestors, so every proposal stays invalid
        rng = np.random.default_rng(27)
        cloud = make_cloud(rng, k=20)
        cloud.locations[:, IDX_BETA] = cloud.locations[:, IDX_ALPHA] + 0.01
        with pytest.raises(RedrawLimitError, match="Liu-West"):
            liu_west_resample(cloud, 1.0, rng)

    def test_rejects_bad_smoothing_parameter(self):
        rng = np.random.default_rng(18)
        cloud = make_cloud(rng, k=20)
        with pytest.raises(ValueError):
            liu_west_resample(cloud, 0.0, rng)
        with pytest.raises(ValueError):
            liu_west_resample(cloud, 1.2, rng)


class TestDriftStep:
    def test_zero_dt_is_identity(self):
        rng = np.random.default_rng(19)
        cloud = make_cloud(rng, k=50)
        stepped = drift_step(cloud, 0.0, rng)
        assert np.array_equal(stepped.locations, cloud.locations)

    def test_negligible_scales_leave_cloud(self):
        rng = np.random.default_rng(20)
        cloud = make_cloud(rng, k=50)
        cloud.locations[:, IDX_LOG_SIGMA_ALPHA] = -500.0
        cloud.locations[:, IDX_LOG_SIGMA_BETA] = -500.0
        stepped = drift_step(cloud, 1.0, rng)
        assert np.allclose(
            stepped.locations[:, IDX_ALPHA], cloud.locations[:, IDX_ALPHA], atol=1e-100
        )

    def test_variance_grows_at_hyperparameter_rate(self):
        rng = np.random.default_rng(21)
        k = 4000
        locations = np.zeros((k, 10))
        locations[:, IDX_RABI] = 10.0
        locations[:, IDX_ALPHA] = 0.5
        locations[:, IDX_BETA] = 0.1
        sigma = 0.01
        locations[:, IDX_LOG_SIGMA_ALPHA] = math.log(sigma)
        locations[:, IDX_LOG_SIGMA_BETA] = math.log(sigma / 4)
        locations[:, IDX_ATANH_RHO] = math.atanh(0.5)
        cloud = ParticleCloud(locations, np.full(k, 1.0 / k))
        steps, dt = 1000, 0.001
        for _ in range(steps):
            cloud = drift_step(cloud, dt, rng)
        grown = cloud.locations[:, IDX_ALPHA].var()
        assert grown == pytest.approx(steps * dt * sigma**2, rel=0.1)

    def test_constraint_maintained_under_large_drift(self):
        rng = np.random.default_rng(22)
        cloud = make_cloud(rng, k=300)
        cloud.locations[:, IDX_LOG_SIGMA_ALPHA] = math.log(0.5)
        cloud.locations[:, IDX_LOG_SIGMA_BETA] = math.log(0.5)
        stepped = drift_step(cloud, 1.0, rng)
        assert np.all(stepped.locations[:, IDX_BETA] > 0)
        assert np.all(stepped.locations[:, IDX_BETA] < stepped.locations[:, IDX_ALPHA])

    def test_redraw_limit_when_tiny_drift_cannot_reorder(self):
        rng = np.random.default_rng(28)
        cloud = make_cloud(rng, k=20)
        cloud.locations[:, IDX_BETA] = cloud.locations[:, IDX_ALPHA] + 0.01
        cloud.locations[:, IDX_LOG_SIGMA_ALPHA:IDX_ATANH_RHO] = -30.0
        with pytest.raises(RedrawLimitError, match="drift proposals"):
            drift_step(cloud, 1.0, rng)


class TestMoments:
    def test_single_particle(self):
        loc = np.arange(10.0).reshape(1, 10) + 1.0
        cloud = ParticleCloud(loc, np.array([1.0]))
        assert np.array_equal(posterior_mean(cloud), loc[0])
        assert np.allclose(posterior_cov(cloud), 0.0)

    def test_two_symmetric_particles(self):
        x = np.linspace(-1, 1, 10)
        cloud = ParticleCloud(np.vstack([x, -x]), np.array([0.5, 0.5]))
        assert np.allclose(posterior_mean(cloud), 0.0)
        assert np.allclose(posterior_cov(cloud), np.outer(x, x))

    def test_against_extended_precision_oracle(self):
        rng = np.random.default_rng(23)
        cloud = make_cloud(rng, k=500)
        mean = posterior_mean(cloud)
        for col in range(10):
            exact = math.fsum(
                w * v for w, v in zip(cloud.weights, cloud.locations[:, col])
            )
            assert mean[col] == pytest.approx(exact, abs=1e-10 * max(1, abs(exact)))
        cov = posterior_cov(cloud)
        for i, j in ((0, 0), (3, 7), (5, 6)):
            exact = math.fsum(
                w * (xi - mean[i]) * (xj - mean[j])
                for w, xi, xj in zip(
                    cloud.weights, cloud.locations[:, i], cloud.locations[:, j]
                )
            )
            assert cov[i, j] == pytest.approx(exact, abs=1e-10)


class TestReferenceReset:
    def test_spin_columns_and_weights_untouched(self):
        rng = np.random.default_rng(24)
        cloud = make_cloud(rng, k=200)
        spec = PriorSpec()
        reset = reference_reset(cloud, spec, rng)
        assert np.array_equal(reset.locations[:, :5], cloud.locations[:, :5])
        assert np.array_equal(reset.locations[:, 7:], cloud.locations[:, 7:])
        assert np.array_equal(reset.weights, cloud.weights)

    def test_reference_marginals_match_prior(self):
        rng = np.random.default_rng(25)
        cloud = make_cloud(rng, k=20_000)
        prior = empirical_reference_prior(15000, 6000, 300_000)
        reset = reference_reset(cloud, PriorSpec(references=prior), rng)
        alpha = reset.locations[:, IDX_ALPHA]
        assert alpha.mean() == pytest.approx(
            prior.alpha_mean, abs=5 * prior.alpha_std / math.sqrt(20_000)
        )
        assert alpha.std() == pytest.approx(prior.alpha_std, rel=0.05)


# ----------------------------------------------------------------------------
# Properties: the hard constraints hold after every proposal step
# ----------------------------------------------------------------------------

seeds = st.integers(0, 2**32 - 1)


@given(seeds, st.floats(0.5, 1.0), st.floats(1e-3, 0.02))
def test_liu_west_output_satisfies_constraints(seed, a, spread):
    rng = np.random.default_rng(seed)
    cloud = make_cloud(rng, k=100, alpha_spread=spread)
    assert np.all(_check_constraints(liu_west_resample(cloud, a, rng).locations))


@given(seeds, st.floats(1e-3, 10.0), st.floats(math.log(1e-3), math.log(0.5)))
def test_drift_output_satisfies_constraints(seed, dt_hours, log_sigma):
    rng = np.random.default_rng(seed)
    cloud = make_cloud(rng, k=100)
    cloud.locations[:, IDX_LOG_SIGMA_ALPHA:IDX_ATANH_RHO] = log_sigma
    assert np.all(_check_constraints(drift_step(cloud, dt_hours, rng).locations))
