"""The one referenced-Poisson model against independent implementations.

The likelihood table is checked against SciPy's Poisson log-pmf, the
samplers against the scalar and per-column draws they replaced, and the
rates, rows and table, bit for bit, against the stacked copies they were
once formed through.
"""

import numpy as np
import pytest
from scipy.stats import poisson

from nvbed import measurement
from nvbed.measurement import Datum, ReferenceRates, log_likelihood, sample_datum
from nvbed.qutrit import ExperimentConfig
from nvbed.risk import NvModel
from nvbed.smc import IDX_ALPHA, IDX_BETA, PriorSpec, sample_prior
from oracles import (
    hstacked_log_likelihood_table,
    poisson_logpmf,
    stacked_expected_counts,
    stacked_log_rate_rows,
)


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


class TestFormedWithoutCopies:
    """expected_counts, log_rate_rows and log_likelihood_table write their
    rows into one array each; the numbers are the stacked oracles', bit for
    bit."""

    @pytest.mark.parametrize("n", [1, 4667, 1_000_000])
    def test_rates_rows_and_table_equal_the_stacked_ones(self, n):
        locations, p = hypotheses(300, seed=5)
        alpha, beta = locations[:, IDX_ALPHA], locations[:, IDX_BETA]
        rates = measurement.expected_counts(alpha, beta, p, n)
        np.testing.assert_array_equal(rates, stacked_expected_counts(alpha, beta, p, n))
        rows = measurement.log_rate_rows(rates)
        np.testing.assert_array_equal(rows, stacked_log_rate_rows(rates))
        counts = np.random.default_rng(6).poisson(rates[:, :70]).T
        out = np.empty((70, 300))
        table = measurement.log_likelihood_table(counts, rows, out=out)
        assert table is out
        np.testing.assert_array_equal(
            table, hstacked_log_likelihood_table(counts, rows)
        )

    def test_rates_broadcast_as_the_stacked_ones(self):
        alpha, beta = np.array([0.05, 0.06, 0.2]), np.array([[0.02], [0.03]])
        for args in ((0.05, 0.02, 0.3), (alpha, 0.02, 0.7), (alpha, beta, 0.4)):
            rates = measurement.expected_counts(*args, 4667)
            expected = stacked_expected_counts(*args, 4667)
            assert rates.shape == expected.shape
            np.testing.assert_array_equal(rates, expected)
