"""Reference implementations that only the tests use.

* :func:`brute_force_risk` re-approximates each hypothetical posterior with
  the sampled outcome particles themselves (O(K'^2) likelihood
  evaluations); it cross-checks the MIS estimator of ``nvbed.risk``.
* :func:`bayes_update_sequence` folds :func:`nvbed.smc.bayes_update` over a
  batch of data, each update weighing the particles by ``survival_fn``,
  which it needs as ``bayes_update`` does; it checks the chain rule.
* :func:`build_hamiltonian`, :func:`lindblad_generator` and
  :func:`lindblad_propagator` are one branch's rotating-frame Hamiltonian,
  its complex column-stacking generator and that generator's propagator;
  they mirror the unit convention that ``nvbed.qutrit._coefficients``
  applies, and check ``nvbed.qutrit.expm``, the real-basis images (each
  generator's whole 9x9 image here, of which the kernel keeps only the 8x8
  traceless block, since row 0 and column 0 (on the identity) vanish),
  the blocks the kernel builds from coefficient rows, and the Ramsey
  kernel's weights and wait eigenvalues, which it forms without the 9x9
  propagator or generator.
* :func:`scipy_survival_probability` simulates one hypothesis with SciPy's
  complex ``expm`` of each segment's column-stacking generator; it checks
  the real-basis kernel of ``nvbed.qutrit``.
* :func:`invwishart_chart` draws the drift chart through
  ``scipy.stats.invwishart``; it checks the closed-form draw of
  :func:`nvbed.smc._sample_drift_chart`.
* :func:`poisson_logpmf` is the elementwise Poisson log-pmf through SciPy's
  ``xlogy``/``gammaln``; it checks the likelihood of
  ``nvbed.measurement``.
* :func:`three_product_variance_terms` is the MIS moment kernel as three
  separate products of the Boltzmann table, leaving its input untouched; it
  checks the one-product kernel ``nvbed.risk._weighted_variance_terms``.
* :func:`whole_table_mis_risk` is the MIS estimator over one whole
  (n_outcomes, n_particles) table; it checks the block-at-a-time
  ``nvbed.risk.mis_risk``.
* :func:`stacked_expected_counts`, :func:`stacked_log_rate_rows` and
  :func:`hstacked_log_likelihood_table` are the referenced-Poisson rates and
  likelihood table formed through broadcast, stacked and hstacked copies,
  as ``nvbed.measurement`` once formed them; :func:`unfloored_variance_terms`
  is the one-product moment kernel with no floor under its exponential, and
  :func:`stacked_mis_risk` is one candidate's estimate on shared draws
  through all of them and ``np.mean``/``np.std``.  They check, bit for bit,
  that the estimator forms the same numbers with less bookkeeping.
* :func:`fisher_information`, :func:`fisher_information_inverse` and
  :func:`interpolated_variance_bound` are the closed-form information of
  one referenced triple; they check :func:`nvbed.measurement.esm`.
"""

import math

import numpy as np
from scipy.linalg import expm
from scipy.special import gammaln, xlogy
from scipy.stats import invwishart

from nvbed import qutrit
from nvbed.qutrit import (
    _ANGULAR,
    _DEPHASING_DIAG,
    _RATE,
    SX,
    SZ,
    SZ2,
    ZFS_MHZ,
    SpinParams,
    _coherent,
    _real_image,
)
from nvbed.risk import (
    NvModel,
    RiskEstimate,
    _active_block,
    _block_rows,
    _check_q,
    _downsample,
    _moment_columns,
    _summarize,
    _weighted_variance_terms,
)
from nvbed.smc import IDX_ALPHA, IDX_BETA, UpdateReport, bayes_update
from helpers import one_norms


def _posterior_weight_table(log_table, base_weights):
    """Row-normalized posterior weights; returns (weights, kept_row_mask)."""
    shift = np.max(log_table, axis=1)
    kept = np.isfinite(shift)
    weights = np.zeros_like(log_table)
    if np.any(kept):
        block = np.exp(log_table[kept] - shift[kept, None]) * base_weights
        totals = block.sum(axis=1)
        good = totals > 0
        block[good] /= totals[good, None]
        weights[kept] = block
        kept_idx = np.flatnonzero(kept)
        kept[kept_idx[~good]] = False
    return weights, kept


def brute_force_risk(cloud, config, q, n_outcomes, rng, model=None, p_full=None):
    """Joint-sampling estimate of the Bayes risk.

    Samples ``n_outcomes`` particles from the cloud, one datum from each, and
    averages the Q-weighted squared distance between the generating particle
    and the posterior mean computed over the sampled particle set itself.
    ``p_full`` carries the survival probabilities of the whole cloud; a
    model that ignores them leaves it None and gets nan.
    """
    if n_outcomes < 2:
        raise ValueError("need at least two outcome samples")
    model = model or NvModel()
    q = _check_q(q, cloud.locations.shape[1])
    idx = rng.choice(cloud.size, size=n_outcomes, p=cloud.weights)
    particles = cloud.locations[idx]
    p = np.full(n_outcomes, np.nan) if p_full is None else np.asarray(p_full)[idx]
    counts = model.sample_counts(particles, config, rng, p)
    table = model.log_likelihood_matrix(counts, model.log_rates(particles, config, p))
    weights, kept = _posterior_weight_table(
        table, np.full(n_outcomes, 1.0 / n_outcomes)
    )
    posterior_means = weights @ particles
    deviations = particles - posterior_means
    terms = np.einsum("ij,ij->i", deviations @ q, deviations)
    return _summarize(terms, kept, n_outcomes, n_outcomes)


def three_product_variance_terms(log_table, base_weights, locations, q):
    """Per-outcome Tr[Q Cov(posterior)] without materializing normalized
    weight rows.

    Locations are centered at their weighted mean first, which keeps the
    second-moment/mean-square cancellation at posterior-variance scale.
    Returns ``(terms, kept_row_mask)``.
    """
    n_rows = log_table.shape[0]
    active, q_block = _active_block(np.asarray(q))
    shift = np.max(log_table, axis=1)
    kept = np.isfinite(shift)
    if len(active) == 0 or not np.any(kept):
        return np.zeros(n_rows), kept
    centered = locations[:, active] - base_weights @ locations[:, active]
    quadratic = np.einsum("ij,ij->i", centered @ q_block, centered)
    # rows with no finite entry keep shift 0 so they exp to zero, not nan
    safe_shift = np.where(kept, shift, 0.0)
    boltz = np.exp(log_table - safe_shift[:, None])
    denom = boltz @ base_weights
    first = boltz @ (base_weights[:, None] * centered)
    second = boltz @ (base_weights * quadratic)
    good = denom > 0
    kept &= good
    denom = np.where(good, denom, 1.0)
    means = first / denom[:, None]
    mean_square = np.einsum("ij,ij->i", means @ q_block, means)
    terms = second / denom - mean_square
    return terms, kept


def whole_table_mis_risk(
    cloud,
    config,
    q: np.ndarray,
    n_outcomes: int,
    n_particles: int,
    rng: np.random.Generator,
    model=None,
    p_full=None,
):
    """Maximum-importance-sampling estimate of the Bayes risk.

    Outcomes are drawn from the marginal predictive (via the joint); each
    outcome reweights a fixed inner particle set, and the risk is the mean
    Q-weighted posterior variance over outcomes.  ``p_full`` carries the
    survival probability of every particle of the cloud for ``config``; a
    model that ignores it leaves it None and gets nan.  The table and its
    moments are float64 throughout.

    It draws from ``rng`` in the order of ``nvbed.risk.draw_shared`` and
    then ``nvbed.risk.mis_risk`` on the one stream: the outcome ancestors,
    then the inner set, then the counts, so that on one seed the two
    estimates see the same draws.
    """
    if n_outcomes < 2 or n_particles < 2:
        raise ValueError("need at least two outcomes and two inner particles")
    model = model or NvModel()
    q = _check_q(q, cloud.locations.shape[1])
    outcome_idx = rng.choice(cloud.size, size=n_outcomes, p=cloud.weights)
    inner_idx, inner_weights = _downsample(cloud, n_particles, rng)
    p_full = np.full(cloud.size, np.nan) if p_full is None else np.asarray(p_full)
    counts = model.sample_counts(
        cloud.locations[outcome_idx], config, rng, p_full[outcome_idx]
    )
    inner = cloud.locations[inner_idx]
    table = np.asarray(
        model.log_likelihood_matrix(
            counts, model.log_rates(inner, config, p_full[inner_idx])
        ),
        dtype=float,
    )
    terms, kept = _weighted_variance_terms(
        table, *_moment_columns(inner_weights, inner, q)
    )
    return _summarize(terms, kept, n_outcomes, len(inner_idx))


def stacked_expected_counts(alpha1, beta1, p, repetitions):
    """Expected totals of X, Y and Z on a leading axis of 3, from stacked
    broadcast copies of the three per-shot rates."""
    signal = beta1 + p * (alpha1 - beta1)
    return repetitions * np.stack(np.broadcast_arrays(alpha1, beta1, signal))


def stacked_log_rate_rows(rates):
    """(4, K) rows [log(rates); -sum(rates)], stacked."""
    return np.vstack([np.log(rates), -rates.sum(axis=0)])


def hstacked_log_likelihood_table(counts, log_rates, out=None):
    """(m, K) table [counts, 1] @ log_rates, its ones column hstacked."""
    counts = np.asarray(counts, dtype=float)
    ones = np.ones((len(counts), 1))
    return np.matmul(np.hstack([counts, ones]), log_rates, out=out)


def unfloored_variance_terms(log_table, q_block, columns):
    """The one-product moment kernel of ``nvbed.risk`` with no floor: every
    shifted entry goes to ``np.exp`` as it is, and every row is masked with
    ``np.where``.  Consumes ``log_table``; returns (terms, kept_row_mask)."""
    n_rows = log_table.shape[0]
    shift = np.max(log_table, axis=1)
    kept = np.isfinite(shift)
    if columns is None or not np.any(kept):
        return np.zeros(n_rows), kept
    log_table -= np.where(kept, shift, 0.0)[:, None]
    np.exp(log_table, out=log_table)
    sums = log_table @ columns
    denom, first, second = sums[:, 0], sums[:, 1:-1], sums[:, -1]
    good = denom > 0
    kept &= good
    denom = np.where(good, denom, 1.0)
    means = first / denom[:, None]
    mean_square = np.einsum("ij,ij->i", means @ q_block, means)
    terms = second / denom - mean_square
    return terms, kept


def stacked_mis_risk(draws, config, rng, p):
    """One candidate's NV estimate on the shared ``draws`` of
    ``nvbed.risk.draw_shared``, its counts from ``rng`` and its survival row
    ``p`` at ``draws.particles``: the rates through
    :func:`stacked_expected_counts`, the table through
    :func:`stacked_log_rate_rows` and :func:`hstacked_log_likelihood_table`
    in the estimator's blocks of rows, the terms through
    :func:`unfloored_variance_terms`, and the value and standard error
    through ``np.mean`` and ``np.std``."""
    def rates(locations, at):
        return stacked_expected_counts(
            locations[:, IDX_ALPHA], locations[:, IDX_BETA], p[at],
            config.repetitions,
        )

    outcome_at = np.searchsorted(draws.particles, draws.outcome_idx)
    inner_at = np.searchsorted(draws.particles, draws.inner_idx)
    counts = rng.poisson(rates(draws.outcomes, outcome_at)).T
    log_rates = stacked_log_rate_rows(rates(draws.inner, inner_at))
    rows = _block_rows(draws.n_inner)
    terms = np.empty(draws.n_outcomes)
    kept = np.empty(draws.n_outcomes, dtype=bool)
    for lo in range(0, draws.n_outcomes, rows):
        table = hstacked_log_likelihood_table(counts[lo : lo + rows], log_rates)
        terms[lo : lo + rows], kept[lo : lo + rows] = unfloored_variance_terms(
            table, *draws.moments[:2]
        )
    kept_terms = terms[kept]
    n_kept = len(kept_terms)
    return RiskEstimate(
        value=max(float(kept_terms.mean()), 0.0),
        std_error=float(kept_terms.std(ddof=1) / math.sqrt(n_kept))
        if n_kept > 1 else float("inf"),
        n_outcomes=draws.n_outcomes,
        n_particles=draws.n_inner,
        n_dropped=draws.n_outcomes - n_kept,
        samples=np.where(kept, terms, np.nan),
    )


def bayes_update_sequence(cloud, data, configs, rng, survival_fn):
    """Update on a batch of data jointly.

    By the chain rule the joint update is the composition of the single-datum
    updates, so this folds ``bayes_update``; with resampling disabled the
    result is identical to chaining by hand.
    """
    report = UpdateReport(substeps=0)
    for datum, config in zip(data, configs):
        cloud, rep = bayes_update(cloud, datum, config, rng, survival_fn)
        report.substeps += rep.substeps
        report.resampled |= rep.resampled
        report.n_eff = rep.n_eff
    return cloud, report


def build_hamiltonian(
    params: SpinParams,
    drive_freq: float,
    nitrogen_mi: int,
    amplitude: float,
) -> np.ndarray:
    """Rotating-frame Hamiltonian for one nitrogen branch, in rad/ns.

    Returns ``2*pi*1e-3 * ((zfs_offset + 2870 - drive_freq)*Sz^2
    + (zeeman + hyperfine*mI)*Sz + amplitude*rabi_max*Sx)``.
    """
    if nitrogen_mi not in (-1, 0, 1):
        raise ValueError(f"nitrogen_mi must be -1, 0 or +1, got {nitrogen_mi}")
    if not -1.0 <= amplitude <= 1.0:
        raise ValueError(f"amplitude must be in [-1, 1], got {amplitude}")
    detuning = params.zfs_offset + ZFS_MHZ - drive_freq
    axial = params.zeeman + params.hyperfine * nitrogen_mi
    return _ANGULAR * (
        detuning * SZ2 + axial * SZ + amplitude * params.rabi_max * SX
    )


def lindblad_generator(
    params: SpinParams,
    drive_freq: float,
    nitrogen_mi: int,
    amplitude: float,
) -> np.ndarray:
    """The 9x9 generator C[H] + D[L] with L = sqrt(1/T2*) Sz, in 1/ns."""
    h = build_hamiltonian(params, drive_freq, nitrogen_mi, amplitude)
    return _coherent(h) + (params.dephasing_rate * _RATE) * np.diag(_DEPHASING_DIAG)


def lindblad_propagator(
    params: SpinParams,
    drive_freq: float,
    nitrogen_mi: int,
    amplitude: float,
    duration: float,
) -> np.ndarray:
    """Superoperator propagator exp(duration * (C[H] + D[L])) for a constant
    pulse amplitude held for ``duration`` ns, in the column-stacking basis.

    Computed as U expm(duration * R) U^H with R the generator's whole 9x9
    real image, identity row and column included, unlike the kernel's 8x8
    traceless block.
    """
    if duration < 0:
        raise ValueError(f"duration must be >= 0, got {duration}")
    real = _real_image(lindblad_generator(params, drive_freq, nitrogen_mi, amplitude))
    scaled = duration * real[None]
    return qutrit._U @ qutrit.expm(scaled, one_norms(scaled))[0] @ qutrit._UH


def scipy_survival_probability(params, config):
    """Survival probability of one hypothesis: P[4, 4] of the sequence's
    superoperator, each segment exp(duration * generator) by SciPy, averaged
    over the three mI branches."""

    def segment(mi, amplitude, duration):
        gen = lindblad_generator(params, config.drive_frequency, mi, amplitude)
        return expm(duration * gen)

    total = 0.0
    for mi in (-1, 0, 1):
        sup = segment(mi, 1.0, config.pulse_time)
        if config.kind == "ramsey":
            sup = sup @ segment(mi, 0.0, config.wait_time) @ sup
        total += sup[4, 4].real
    return total / 3.0


def invwishart_chart(dof, scale, n, rng):
    """(log sa, log sb, atanh rho) rows of n inverse-Wishart draws."""
    draws = invwishart.rvs(df=dof, scale=scale, size=n, random_state=rng)
    draws = np.asarray(draws).reshape(n, 2, 2)
    sa = np.sqrt(draws[:, 0, 0])
    sb = np.sqrt(draws[:, 1, 1])
    rho = draws[:, 0, 1] / (sa * sb)
    return np.column_stack([np.log(sa), np.log(sb), np.arctanh(rho)])


def poisson_logpmf(counts, rates):
    """log Poisson pmf, elementwise; -inf where rate is 0 but the count is not."""
    counts = np.asarray(counts, dtype=float)
    rates = np.asarray(rates, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = xlogy(counts, rates) - rates - gammaln(counts + 1.0)
    return out


def fisher_information(p: float, alpha: float, beta: float) -> np.ndarray:
    """Fisher information of one (X, Y, Z) triple in the order (p, alpha, beta)."""
    _check_fisher_args(p, alpha, beta)
    lam = p * (alpha - beta) + beta
    return np.array(
        [
            [
                (alpha - beta) ** 2 / lam,
                p * (alpha - beta) / lam,
                alpha / lam - 1.0,
            ],
            [
                p * (alpha - beta) / lam,
                p**2 / lam + 1.0 / alpha,
                -(p - 1.0) * p / lam,
            ],
            [
                alpha / lam - 1.0,
                -(p - 1.0) * p / lam,
                (p * alpha + (p - 2.0) * (p - 1.0) * beta) / (beta * lam),
            ],
        ]
    )


def fisher_information_inverse(p: float, alpha: float, beta: float) -> np.ndarray:
    """Closed-form inverse of :func:`fisher_information`."""
    _check_fisher_args(p, alpha, beta)
    contrast = alpha - beta
    return np.array(
        [
            [
                (p * (p + 1.0) * alpha + (p - 2.0) * (p - 1.0) * beta) / contrast**2,
                p * alpha / (beta - alpha),
                (p - 1.0) * beta / contrast,
            ],
            [p * alpha / (beta - alpha), alpha, 0.0],
            [(p - 1.0) * beta / contrast, 0.0, beta],
        ]
    )


def interpolated_variance_bound(
    p: float, alpha: float, beta: float, sigma_alpha: float, sigma_beta: float
) -> float:
    """Variance bound on estimating p with partial prior reference knowledge.

    Interpolates between perfect reference knowledge (sigma -> 0, giving
    1/J_pp) and the knowledge contained in a single (X, Y) reference draw
    (sigma_alpha^2 -> alpha, sigma_beta^2 -> beta, giving (J^-1)_pp).
    """
    _check_fisher_args(p, alpha, beta)
    sa2 = sigma_alpha**2
    sb2 = sigma_beta**2
    return (
        beta + p * (alpha - beta + p * sa2 + (p - 2.0) * sb2) + sb2
    ) / (alpha - beta) ** 2


def _check_fisher_args(p, alpha, beta):
    if not 0.0 < beta < alpha:
        raise ValueError(f"need 0 < beta < alpha, got beta={beta}, alpha={alpha}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
