import math

import numpy as np
import pytest
from scipy.integrate import quad

from nvbed.measurement import (
    Datum,
    EsmInputs,
    ReferenceRates,
    choose_repetitions,
    esm,
    log_likelihood,
    sample_datum,
)
from oracles import (
    fisher_information,
    fisher_information_inverse,
    interpolated_variance_bound,
    poisson_logpmf,
)


def truncated_support(rate):
    return np.arange(0, int(rate + 10 * math.sqrt(rate) + 20) + 1)


class TestSampling:
    def test_rejects_invalid_probability(self):
        refs = ReferenceRates(0.05, 0.02)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_datum(1.2, refs, 100, rng)
        with pytest.raises(ValueError):
            sample_datum(-0.1, refs, 100, rng)

    def test_signal_rate_endpoints(self):
        # the affine map puts the Z rate at N*alpha for p=1 and N*beta for p=0
        refs = ReferenceRates(0.05, 0.02)
        rng = np.random.default_rng(1)
        n = 200_000
        bright = sample_datum(1.0, refs, n, rng)
        dark = sample_datum(0.0, refs, n, rng)
        assert bright.signal_counts / n == pytest.approx(
            0.05, abs=4 * math.sqrt(n * 0.05) / n
        )
        assert dark.signal_counts / n == pytest.approx(
            0.02, abs=4 * math.sqrt(n * 0.02) / n
        )

    def test_sample_mean_matches_law_of_large_numbers(self):
        refs = ReferenceRates(0.05, 0.02)
        rng = np.random.default_rng(2)
        n = 1
        draws = 100_000
        rate = 0.02 + 0.5 * (0.05 - 0.02)  # 0.035
        zs = np.array(
            [sample_datum(0.5, refs, n, rng).signal_counts for _ in range(draws)]
        )
        mc_sigma = math.sqrt(rate / draws)
        assert zs.mean() == pytest.approx(rate, abs=3 * mc_sigma)


class TestLogLikelihood:
    def test_all_zero_counts(self):
        d = Datum(0, 0, 0, repetitions=50)
        a1, b1, p = 0.05, 0.02, 0.3
        expected = -50 * (a1 + b1 + (b1 + p * (a1 - b1)))
        assert log_likelihood(d, a1, b1, p) == pytest.approx(expected, rel=1e-12)

    def test_zero_count_contribution_is_minus_rate(self):
        assert poisson_logpmf(0, 3.7) == pytest.approx(-3.7)

    def test_against_frozen_arbitrary_precision_value(self):
        # computed once with 60-digit mpmath arithmetic
        d = Datum(231, 97, 160, repetitions=4667)
        value = log_likelihood(d, 0.05, 0.02, 0.37)
        assert value == pytest.approx(-11.123042282298426, abs=1e-10)

    def test_zero_rate_with_positive_count_is_minus_inf(self):
        d = Datum(1, 0, 0, repetitions=1)
        assert log_likelihood(d, 1e-300, 1e-301, 0.0) < -500
        assert poisson_logpmf(3, 0.0) == -np.inf
        assert poisson_logpmf(0, 0.0) == 0.0

    def test_broadcasts_over_hypotheses(self):
        d = Datum(10, 4, 7, repetitions=100)
        a = np.array([0.05, 0.06, 0.2])
        b = np.array([0.02, 0.03, 0.1])
        p = np.array([0.1, 0.5, 0.9])
        out = log_likelihood(d, a, b, p)
        assert out.shape == (3,)
        for i in range(3):
            assert out[i] == pytest.approx(log_likelihood(d, a[i], b[i], p[i]))

    def test_pmf_sums_to_one_on_truncated_support(self):
        for rate in (0.01, 0.5, 7.0, 120.0, 5000.0):
            total = np.exp(poisson_logpmf(truncated_support(rate), rate)).sum()
            assert total == pytest.approx(1.0, abs=1e-9)


class TestEsm:
    def test_zero_contrast_limit(self):
        # alpha_hat == beta_hat is rejected by the type; approach the limit
        value = esm(EsmInputs(50.0, 50.0 - 1e-9))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_direct_formula_value(self):
        assert esm(EsmInputs(50.0, 20.0)) == pytest.approx(900.0 / 210.0)

    def test_perfect_vs_poisson_information_ratio(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            beta = rng.uniform(1.0, 100.0)
            alpha = beta * rng.uniform(1.2, 5.0)
            perfect = esm(EsmInputs(alpha, beta))
            poisson_level = esm(
                EsmInputs(alpha, beta, math.sqrt(alpha), math.sqrt(beta))
            )
            assert abs(perfect / poisson_level - 5.0 / 3.0) <= 1e-12

    def test_monotone_in_contrast_at_fixed_total(self):
        total = 80.0
        values = []
        for contrast in np.linspace(1.0, 70.0, 30):
            values.append(
                esm(
                    EsmInputs(
                        (total + contrast) / 2, (total - contrast) / 2, 2.0, 1.0
                    )
                )
            )
        assert np.all(np.diff(values) >= 0)


class TestChooseRepetitions:
    def test_known_value_with_perfect_knowledge(self):
        n, saturated = choose_repetitions(
            ReferenceRates(0.05, 0.02), (0.0, 0.0), target_esm=20.0, n_max=1_000_000
        )
        assert (n, saturated) == (4667, False)

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            beta = rng.uniform(0.005, 0.05)
            alpha = beta * rng.uniform(1.5, 4.0)
            sigmas = (rng.uniform(0, 2e-4), rng.uniform(0, 2e-4))
            target = rng.uniform(1.0, 40.0)
            n, saturated = choose_repetitions(
                ReferenceRates(alpha, beta), sigmas, target, n_max=10_000_000
            )

            def esm_at(k):
                return esm(
                    EsmInputs(k * alpha, k * beta, k * sigmas[0], k * sigmas[1])
                )

            if saturated:
                assert esm_at(10_000_000) < target
            else:
                assert esm_at(n) >= target
                if n > 1:
                    assert esm_at(n - 1) < target

    def test_tiny_target_floors_at_one(self):
        n, saturated = choose_repetitions(
            ReferenceRates(0.05, 0.02), (0.0, 0.0), target_esm=1e-12, n_max=1_000_000
        )
        assert (n, saturated) == (1, False)

    def test_exact_saturation_boundary(self):
        alpha, beta = 0.05, 0.02
        target = 20.0
        sigma = math.sqrt((alpha - beta) ** 2 / (2 * target))
        n, saturated = choose_repetitions(
            ReferenceRates(alpha, beta), (sigma, 0.0), target, n_max=777
        )
        assert (n, saturated) == (777, True)


def enumerated_expected_loglik(theta_data, theta_eval):
    """E_{d~theta_data}[log L(theta_eval; d)] by truncated enumeration."""
    p0, a0, b0 = theta_data
    p1, a1, b1 = theta_eval
    lam0 = b0 + p0 * (a0 - b0)
    lam1 = b1 + p1 * (a1 - b1)
    total = 0.0
    for rate_data, rate_eval in ((a0, a1), (b0, b1), (lam0, lam1)):
        ks = truncated_support(rate_data)
        weights = np.exp(poisson_logpmf(ks, rate_data))
        total += float(weights @ poisson_logpmf(ks, rate_eval))
    return total


def finite_difference_fisher(p, alpha, beta):
    """-Hessian of theta' -> E[log L(theta')] at theta' = theta."""
    theta = np.array([p, alpha, beta])
    steps = 1e-3 * np.maximum(np.abs(theta), 0.05)
    fisher = np.zeros((3, 3))
    for i in range(3):
        for j in range(i, 3):
            if i == j:
                up = theta.copy()
                up[i] += steps[i]
                down = theta.copy()
                down[i] -= steps[i]
                second = (
                    enumerated_expected_loglik(theta, up)
                    - 2.0 * enumerated_expected_loglik(theta, theta)
                    + enumerated_expected_loglik(theta, down)
                ) / steps[i] ** 2
            else:
                second = 0.0
                for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    shifted = theta.copy()
                    shifted[i] += si * steps[i]
                    shifted[j] += sj * steps[j]
                    second += si * sj * enumerated_expected_loglik(theta, shifted)
                second /= 4.0 * steps[i] * steps[j]
            fisher[i, j] = fisher[j, i] = -second
    return fisher


class TestFisherInformation:
    def test_product_with_closed_form_inverse_is_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            beta = rng.uniform(0.5, 50.0)
            alpha = beta * rng.uniform(1.2, 5.0)
            p = rng.uniform(0.0, 1.0)
            j = fisher_information(p, alpha, beta)
            jinv = fisher_information_inverse(p, alpha, beta)
            assert np.max(np.abs(j @ jinv - np.eye(3))) <= 1e-9

    def test_inverse_reference_diagonal(self):
        jinv = fisher_information_inverse(0.37, 42.0, 13.0)
        assert jinv[1, 1] == pytest.approx(42.0)
        assert jinv[2, 2] == pytest.approx(13.0)
        assert jinv[1, 2] == 0.0

    def test_known_reference_variance_bound(self):
        p, alpha, beta = 0.37, 42.0, 13.0
        j = fisher_information(p, alpha, beta)
        expected = (p * (alpha - beta) + beta) / (alpha - beta) ** 2
        assert 1.0 / j[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_matches_finite_difference_oracle(self):
        for p, alpha, beta in ((0.3, 30.0, 10.0), (0.8, 12.0, 5.0), (0.05, 60.0, 25.0)):
            j = fisher_information(p, alpha, beta)
            j_num = finite_difference_fisher(p, alpha, beta)
            assert np.max(np.abs(j - j_num) / np.abs(j)) <= 1e-4


class TestInterpolatedBound:
    def test_perfect_knowledge_limit(self):
        p, alpha, beta = 0.41, 33.0, 9.0
        j = fisher_information(p, alpha, beta)
        assert interpolated_variance_bound(p, alpha, beta, 0.0, 0.0) == pytest.approx(
            1.0 / j[0, 0], rel=1e-12
        )

    def test_single_reference_draw_limit(self):
        p, alpha, beta = 0.41, 33.0, 9.0
        jinv = fisher_information_inverse(p, alpha, beta)
        value = interpolated_variance_bound(
            p, alpha, beta, math.sqrt(alpha), math.sqrt(beta)
        )
        assert value == pytest.approx(jinv[0, 0], rel=1e-12)

    def test_quadrature_reproduces_esm(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            beta = rng.uniform(1.0, 40.0)
            alpha = beta * rng.uniform(1.3, 4.0)
            sa = rng.uniform(0.0, math.sqrt(alpha))
            sb = rng.uniform(0.0, math.sqrt(beta))
            integral, _ = quad(
                lambda p: interpolated_variance_bound(p, alpha, beta, sa, sb), 0.0, 1.0
            )
            n_esm = esm(EsmInputs(alpha, beta, sa, sb))
            assert integral == pytest.approx(1.0 / (6.0 * n_esm), rel=1e-6)


class TestTypes:
    def test_reference_rate_ordering_enforced(self):
        with pytest.raises(ValueError):
            ReferenceRates(0.02, 0.05)
        with pytest.raises(ValueError):
            ReferenceRates(0.05, 0.0)

    def test_datum_round_trip(self):
        d = Datum(3, 1, 2, 10, 12.5)
        assert Datum.from_dict(d.to_dict()) == d

    def test_esm_inputs_validation(self):
        with pytest.raises(ValueError):
            EsmInputs(10.0, 20.0)
        with pytest.raises(ValueError):
            EsmInputs(10.0, 5.0, -1.0, 0.0)
