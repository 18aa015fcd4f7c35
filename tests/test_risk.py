import numpy as np
import pytest
from scipy.special import gammaln, logsumexp
from scipy.stats import poisson

from nvbed import qutrit, risk
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
    SpinPrior,
    posterior_cov,
    sample_prior,
)
from oracles import brute_force_risk, three_product_variance_terms

CFG = ExperimentConfig("rabi", pulse_time=50.0, repetitions=2000)


def nv_cloud(rng, k=400):
    spec = PriorSpec(spin=SpinPrior(kind="calibrated"))
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

    def log_likelihood_matrix(self, counts, locations, exposure):
        table = self._log_probs(locations, exposure)
        return table[:, np.asarray(counts)[:, 0]].T


class ConstantLikelihoodModel:
    """An experiment that carries no information about any particle."""

    def sample_counts(self, locations, config, rng):
        return np.zeros((locations.shape[0], 1), dtype=int)

    def log_likelihood_matrix(self, counts, locations, config):
        return np.zeros((np.asarray(counts).shape[0], locations.shape[0]))


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
        est = mis_risk(
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
        mis = mis_risk(cloud, CFG, q, 50, 64, np.random.default_rng(6), p_full=p)
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
        mis = mis_risk(cloud, CFG, q, 64, 32, np.random.default_rng(9), p_full=p)
        assert bf.value == pytest.approx(0.0, abs=1e-18)
        assert mis.value == pytest.approx(0.0, abs=1e-18)

    def test_uninformative_experiment_returns_prior_variance(self):
        rng = np.random.default_rng(10)
        cloud = nv_cloud(rng, k=200)
        q = uniform_weight_matrix()
        est = mis_risk(
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
        mis = mis_risk(cloud, CFG, q, 2000, 300, np.random.default_rng(14), p_full=p)
        combined = np.hypot(bf.std_error, mis.std_error)
        assert abs(bf.value - mis.value) <= 3 * combined

    def test_power_of_two_scaling_is_exact(self):
        rng = np.random.default_rng(15)
        cloud = toy_cloud(rng)
        model = TruncatedPoissonToy()
        q = np.array([[1.0]])
        a = mis_risk(cloud, 1.5, q, 200, cloud.size, np.random.default_rng(16), model)
        b = mis_risk(cloud, 1.5, 4 * q, 200, cloud.size, np.random.default_rng(16), model)
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
        a = mis_risk(cloud, CFG, q, 256, 128, np.random.default_rng(20), p_full=p)
        b = mis_risk(cloud, CFG, q, 256, 128, np.random.default_rng(20), p_full=p)
        assert a == b

    def test_underflow_outcomes_are_dropped_and_flagged(self):
        rng = np.random.default_rng(21)
        cloud = toy_cloud(rng, k=40)

        class UnderflowingModel(TruncatedPoissonToy):
            def log_likelihood_matrix(self, counts, locations, exposure):
                table = super().log_likelihood_matrix(counts, locations, exposure)
                table[:7, :] = -np.inf
                return table

        est = mis_risk(
            cloud, 1.5, np.array([[1.0]]), 64, cloud.size,
            np.random.default_rng(22), UnderflowingModel(),
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
        cloud = sample_prior(PriorSpec(spin=SpinPrior(kind="tight")), 1500, rng)
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
            p_table=qutrit.survival_table(cloud.spin_locations, candidates),
        )
        rabi_best = min(e.value for c, e in profile if c.kind == "rabi")
        ramsey_best = min(e.value for c, e in profile if c.kind == "ramsey")
        assert ramsey_best < rabi_best


class TestSurvivalRows:
    def test_nv_model_without_rows_names_them(self):
        cloud = nv_cloud(np.random.default_rng(31), k=50)
        with pytest.raises(ValueError, match="p_full"):
            mis_risk(
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
    table = NvModel().log_likelihood_matrix(
        counts, locations[inner], config, p=p[inner]
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
            table.copy(), weights, locations, q
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
        table = model.log_likelihood_matrix(counts, cloud.locations, 1.5)
        self.compare(
            table, cloud.weights, cloud.locations, np.array([[1.0]]), np.float64, 1e-12
        )

    def test_kernel_consumes_its_table(self):
        table, weights, locations = nv_table(4667, 1.0, seed=47, n_out=20)
        before = table.copy()
        risk._weighted_variance_terms(table, weights, locations, uniform_weight_matrix())
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
                mis_risk(cloud, config, q, 256, 512, np.random.default_rng(s), p_full=p)
                for s in range(51, 55)
            ]

        fused = estimates()
        monkeypatch.setattr(
            risk, "_weighted_variance_terms", three_product_variance_terms
        )
        for new, old in zip(fused, estimates()):
            assert new.value == pytest.approx(old.value, rel=1e-12, abs=0)
            assert new.std_error == pytest.approx(old.std_error, rel=1e-12, abs=0)
            assert new.n_dropped == old.n_dropped


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
