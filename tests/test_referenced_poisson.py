"""The one referenced-Poisson model against independent implementations.

The likelihood table is checked against SciPy's Poisson log-pmf, and the
samplers against the scalar and per-column draws they replaced.
"""

import numpy as np
import pytest
from scipy.stats import poisson

from nvbed.measurement import Datum, ReferenceRates, log_likelihood, sample_datum
from nvbed.qutrit import ExperimentConfig
from nvbed.risk import NvModel
from nvbed.smc import IDX_ALPHA, IDX_BETA, PriorSpec, sample_prior
from oracles import poisson_logpmf


def hypotheses(k, seed):
    rng = np.random.default_rng(seed)
    cloud = sample_prior(PriorSpec(), k, rng)
    return cloud.locations, rng.uniform(0.0, 1.0, size=k)


def old_rates(locations, p, n):
    """X, Y and Z rates, written out independently of nvbed.measurement."""
    alpha = locations[:, IDX_ALPHA]
    beta = locations[:, IDX_BETA]
    return n * alpha, n * beta, n * (beta + p * (alpha - beta))


@pytest.mark.parametrize("n", [4667, 1_000_000])
class TestLikelihoodTable:
    def test_rows_differ_from_scipy_by_a_constant(self, n):
        locations, p = hypotheses(300, seed=1)
        config = ExperimentConfig("rabi", pulse_time=50.0, repetitions=n)
        model = NvModel()
        counts = model.sample_counts(
            locations[:40], config, np.random.default_rng(2), p=p[:40]
        )
        table = model.log_likelihood_matrix(
            counts, model.log_rates(locations, config, p=p)
        )
        exact = sum(
            poisson.logpmf(counts[:, [c]], rate[None, :])
            for c, rate in enumerate(old_rates(locations, p, n))
        )
        offset = table - exact
        assert np.max(np.abs(offset - offset[:, :1])) <= 1e-8

    def test_single_datum_matches_the_pmf_oracle(self, n):
        locations, p = hypotheses(200, seed=3)
        config = ExperimentConfig("rabi", pulse_time=50.0, repetitions=n)
        counts = NvModel().sample_counts(
            locations[:5], config, np.random.default_rng(4), p=p[:5]
        )
        rates = old_rates(locations, p, n)
        for x, y, z in counts:
            datum = Datum(int(x), int(y), int(z), n)
            value = log_likelihood(
                datum, locations[:, IDX_ALPHA], locations[:, IDX_BETA], p
            )
            exact = sum(poisson_logpmf(c, r) for c, r in zip((x, y, z), rates))
            assert np.max(np.abs(value - exact)) <= 1e-8


class TestSamplingOrder:
    @pytest.mark.parametrize("seed", range(20))
    def test_sample_datum_equals_three_scalar_draws(self, seed):
        refs = ReferenceRates(0.047, 0.019)
        p, n = (seed % 7) / 6.0, 1000 * (seed + 1)
        rng = np.random.default_rng(seed)
        datum = sample_datum(p, refs, n, rng)
        old = np.random.default_rng(seed)
        x = int(old.poisson(n * refs.bright))
        y = int(old.poisson(n * refs.dark))
        z = int(old.poisson(n * (refs.dark + p * (refs.bright - refs.dark))))
        assert datum == Datum(x, y, z, n)
        assert rng.bit_generator.state == old.bit_generator.state

    @pytest.mark.parametrize("seed", range(5))
    def test_model_counts_equal_the_three_column_draw(self, seed):
        locations, p = hypotheses(250, seed=seed)
        config = ExperimentConfig("rabi", pulse_time=50.0, repetitions=4667)
        rng = np.random.default_rng(seed)
        counts = NvModel().sample_counts(locations, config, rng, p=p)
        old = np.random.default_rng(seed)
        rates = old_rates(locations, p, 4667)
        expected = np.column_stack([old.poisson(r) for r in rates])
        assert np.array_equal(counts, expected)
        assert rng.bit_generator.state == old.bit_generator.state
