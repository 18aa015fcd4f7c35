"""Bayes-risk evaluation of candidate experiments.

The risk of a candidate configuration is the expected Q-weighted posterior
mean-squared error after observing one more datum.  The
maximum-importance-sampling (MIS) estimator samples hypothetical outcomes
from the joint particle/datum distribution and reweights a fixed
down-sampled inner cloud once per sampled outcome (O(K*K') evaluations,
O(K') outcome samples).

The estimator is generic over an outcome model exposing

    sample_counts(locations, config, rng, p) -> (n, c) count array
    log_rates(locations, config, p) -> the candidate's likelihood factor
        over K particles, formed once per candidate
    log_likelihood_matrix(counts, log_rates, out=None) -> (n, K) float64
        table, written into ``out`` when one is given

where ``p`` holds each particle's survival probability under the candidate,
so that small analytically tractable models, which may ignore ``p``, can
stand in for the NV model in verification.  A table row may differ from the
exact log-likelihood by a constant of that row, which the estimator's
row-max shift cancels.  The estimator never holds the whole (n_outcomes, K)
table: it asks for one block of outcome rows at a time, into its thread's
scratch buffer (:func:`nvbed.qutrit.thread_buffer`), which it shifts and
exponentiates in place.  The NV model (the referenced-Poisson triple of
:mod:`nvbed.measurement`) forms its rates from ``p``, sliced from rows the
caller supplies.

Every estimate is one :func:`mis_risk` call on one :class:`SharedDraws`:
:func:`draw_shared` takes the outcome ancestors, then the inner set with
its moment columns, and the estimate then draws its Poisson counts.  The
candidates of one design share the first two (common random numbers) and
each draws only its counts, from its own child stream, so the noise the
ranking sees is that of risk *differences*, which the shared draws make
small.

What does not depend on the candidate is formed once per draw set: the
drawn locations, the moment columns, and where each drawn particle sits in
the survival row.  A candidate forms only its own numbers, each into one
array: its rates at the outcome ancestors and their counts, the (4, K')
log-rate rows of the inner set, each block of table rows in its thread's
workspace, and the sums of its estimate.  None of it goes through
broadcast, stacked or concatenated copies, and the estimate's mean and
standard deviation are two sums, not ``np.mean`` and ``np.std``: at the
screen's 64x128, that bookkeeping cost more than the arithmetic.

Every stage of a design is one :func:`risk_profile` call, the only code
that draws, spawns the candidates' streams and asks for survival rows.  It
takes them from a function ``p_table(configs, particles)``, asked once its
draws are known and only at the particles they read
(``SharedDraws.particles``).  Its candidates run on the calling thread when
their tables are small (``_POOL_MIN_CELLS``), else spread over the cores by
:func:`nvbed.qutrit.fan_out`, as the survival tables are; the profile does
not depend on where they run.

:func:`screened_profile` is the design's profile.  Its screen is a
:func:`risk_profile` of every candidate at 1/``SCREEN_SHRINK`` of the
outcomes and inner particles, whose leader is the one :func:`rank` puts
first (reliable first, then risk, then evolution time).  A candidate
survives when its mean excess risk over the leader, paired over the shared
outcome ancestors that both kept, is at most ``SCREEN_SPREAD`` paired
standard errors; only the survivors are scored again by :func:`risk_profile`
at full size, on a fresh shared draw set, and the pick is the survivor
:func:`rank` puts first.  Below ``SCREEN_MIN`` screened outcomes or inner
particles there is no screen: every candidate survives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import measurement, smc
from .qutrit import fan_out, thread_buffer
from .smc import IDX_ALPHA, IDX_BETA, ParticleCloud


@dataclass(frozen=True)
class RiskEstimate:
    """A sampled Bayes-risk value with its Monte Carlo standard error, and
    the per-outcome terms it averages as ``samples``, NaN where an outcome
    was dropped; estimates on one shared draw set pair them outcome by
    outcome.  ``samples`` take no part in equality."""

    value: float
    std_error: float
    n_outcomes: int
    n_particles: int
    n_dropped: int = 0
    samples: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.value < 0 and self.value > -1e-12:
            object.__setattr__(self, "value", 0.0)
        if self.value < 0:
            raise ValueError(f"risk must be nonnegative, got {self.value}")

    @property
    def reliable(self) -> bool:
        """False when more than 5% of sampled outcomes underflowed."""
        return self.n_dropped <= 0.05 * self.n_outcomes


def spin_weight_matrix(diagonal) -> np.ndarray:
    """A 10x10 weight matrix with the given diagonal over the five spin
    parameters and zeros for reference and drift coordinates."""
    diagonal = np.asarray(diagonal, dtype=float)
    if diagonal.shape != (5,):
        raise ValueError("expected five spin-parameter weights")
    q = np.zeros((smc.N_PARAMS, smc.N_PARAMS))
    q[:5, :5] = np.diag(diagonal)
    return q


def uniform_weight_matrix() -> np.ndarray:
    return spin_weight_matrix([1.0, 1.0, 1.0, 1.0, 1.0])


def magnetometry_weight_matrix() -> np.ndarray:
    return spin_weight_matrix([0.0, 1.0, 0.0, 0.0, 0.0])


def _check_q(q: np.ndarray, dim: int) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape != (dim, dim):
        raise ValueError(f"weight matrix must be {dim}x{dim}, got {q.shape}")
    if not np.allclose(q, q.T):
        raise ValueError("weight matrix must be symmetric")
    return q


class NvModel:
    """Referenced-Poisson outcome model over full 10-parameter hypotheses.

    The model never simulates: every call takes the survival probability of
    each particle at hand through ``p``, sliced from a candidate's row at the
    drawn particles (``p`` of :func:`mis_risk`, a row of ``p_table`` of
    :func:`risk_profile`).  Its likelihood is two calls: :meth:`log_rates`
    once per candidate, then :meth:`log_likelihood_matrix` once per block of
    outcome rows.
    """

    def _rates(self, locations, config, p):
        return measurement.expected_counts(
            locations[:, IDX_ALPHA], locations[:, IDX_BETA], p, config.repetitions
        )

    def sample_counts(self, locations, config, rng, p) -> np.ndarray:
        # every X, then every Y, then every Z, as rows of (X, Y, Z)
        return rng.poisson(self._rates(locations, config, p)).T

    def log_rates(self, locations, config, p) -> np.ndarray:
        """(4, K) rows [log rates; -rate sum] of these particles."""
        return measurement.log_rate_rows(self._rates(locations, config, p))

    def log_likelihood_matrix(self, counts, log_rates, out=None) -> np.ndarray:
        """(n_outcomes, K) joint log-likelihood table, each row short of its
        outcome's sum(log c!), written into ``out`` when one is given.

        That constant cancels in the risk: :func:`_weighted_variance_terms`
        shifts every row by its maximum before exponentiating.
        """
        return measurement.log_likelihood_table(counts, log_rates, out)


def _active_block(q):
    """Indices touched by the weight matrix, and the reduced block."""
    active = np.flatnonzero(np.any(q != 0, axis=0) | np.any(q != 0, axis=1))
    return active, q[np.ix_(active, active)]


# floor of the shifted log table before its exponential.  numpy's exp slows
# sharply where it returns a subnormal or zero: on a 64x128 table, an entry
# near -720 took about 100 ns and one below -745 13 ns, against 1 ns above
# -708 (x86 host with AVX-512).  Raised to the floor, the entries of a row
# add at most exp(-700) times the weight sum to its normalizer, which holds
# at least the weight of the row's maximum, exp(0) = 1.  So an inner set
# takes the floor only when each weight is at least _FLOOR_MIN_SHARE of
# their sum, so that what the floor adds is less than an ulp of the
# normalizer; a set with a zero or tinier weight is not floored.
_EXP_FLOOR = -700.0
_FLOOR_MIN_SHARE = 2.0**53 * math.exp(_EXP_FLOOR)


def _moment_columns(weights, locations, q):
    """``(q_block, columns, floor)`` of an inner set under the weight
    matrix Q.

    Locations are centered at their weighted mean first, which keeps the
    kernel's second-moment/mean-square cancellation at posterior-variance
    scale; ``columns`` are [w, w * centered, w * quadratic] over the
    coordinates Q touches, or None when it touches none.  ``floor`` is
    ``_EXP_FLOOR`` when every weight is at least ``_FLOOR_MIN_SHARE`` of
    their sum, else None.  A shared draw set builds them once for every
    candidate it serves.
    """
    active, q_block = _active_block(np.asarray(q))
    floor = _EXP_FLOOR if weights.min() >= _FLOOR_MIN_SHARE * weights.sum() else None
    if len(active) == 0:
        return q_block, None, floor
    centered = locations[:, active] - weights @ locations[:, active]
    quadratic = np.einsum("ij,ij->i", centered @ q_block, centered)
    columns = np.column_stack(
        [weights, weights[:, None] * centered, weights * quadratic]
    )
    return q_block, columns, floor


def _weighted_variance_terms(log_table, q_block, columns, floor):
    """Per-outcome Tr[Q Cov(posterior)] without materializing normalized
    weight rows.

    Consumes the float64 ``log_table``: each row is shifted by its maximum,
    raised to ``floor`` unless it is None and exponentiated in place.  The
    normalizer and the first and second moments come from one product of
    the exponentiated table with the moment ``columns``; ``q_block``,
    ``columns`` and ``floor`` are those of :func:`_moment_columns`.
    Returns (terms, kept_row_mask); only a row that is kept has a
    meaningful term.
    """
    n_rows = log_table.shape[0]
    shift = np.max(log_table, axis=1)
    kept = np.isfinite(shift)
    if columns is None or not np.any(kept):
        return np.zeros(n_rows), kept
    # rows with no finite entry keep shift 0 so they exp to zero, not nan
    log_table -= np.where(kept, shift, 0.0)[:, None]
    if floor is not None:
        np.maximum(log_table, floor, out=log_table)
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


# bytes of one block of MIS table rows: small enough to stay in a core's L2
# cache through its fill, shift, exponential and moment product, and large
# enough that the kernel's per-block Python work stays small (512 outcomes
# over 1024 inner particles make two blocks of 256 rows)
_MIS_BLOCK_BYTES = 1 << 21


def _block_rows(n_particles: int) -> int:
    """Outcome rows per block of an MIS table over ``n_particles`` columns."""
    return max(1, _MIS_BLOCK_BYTES // (8 * n_particles))


def _downsample(cloud: ParticleCloud, k: int, rng):
    """Indices and weights of an inner particle set of size <= k.

    Prefers weighted sampling without replacement (keeping renormalized
    weights); falls back to with-replacement sampling with uniform weights
    when too few particles carry weight.
    """
    if k >= cloud.size:
        return np.arange(cloud.size), cloud.weights
    nonzero = np.count_nonzero(cloud.weights)
    if nonzero >= k:
        idx = rng.choice(cloud.size, size=k, replace=False, p=cloud.weights)
        weights = cloud.weights[idx]
        return idx, weights / weights.sum()
    idx = rng.choice(cloud.size, size=k, replace=True, p=cloud.weights)
    return idx, np.full(k, 1.0 / k)


class SharedDraws:
    """The random draws that the candidates of one design share.

    Formed once, when the draws are: the outcome ancestors and their
    locations, the down-sampled inner set with its locations and its moment
    columns under Q, and ``particles``, which lists, sorted and once each,
    every particle the draws read, with the place of each ancestor and
    inner particle in it.  Formed per candidate, by :meth:`terms`: its
    survival entries at those places, its rates and Poisson counts, its
    inner log-rate rows and its table, block by block, in the calling
    thread's workspace.  ``n_inner`` is the inner set's size, which is
    smaller than the size asked for when the cloud is.  Build one with
    :func:`draw_shared`.
    """

    def __init__(self, cloud, q, outcome_idx, inner_idx, inner_weights):
        self.n_outcomes = len(outcome_idx)
        self.n_inner = len(inner_idx)
        self.outcome_idx = outcome_idx
        self.inner_idx = inner_idx
        self.outcomes = cloud.locations[outcome_idx]
        self.inner = cloud.locations[inner_idx]
        self.moments = _moment_columns(inner_weights, self.inner, q)
        self.particles, where = np.unique(
            np.concatenate([outcome_idx, inner_idx]), return_inverse=True
        )
        self._outcome_at, self._inner_at = np.split(where, [self.n_outcomes])
        self._block = _block_rows(self.n_inner)
        self._workspace_size = max(self._block * self.n_inner, _MIS_BLOCK_BYTES // 8)

    def terms(self, model, config, rng, p) -> tuple:
        """Per-outcome posterior terms and kept mask of one candidate, whose
        counts at the shared outcome ancestors come from ``rng`` and whose
        survival row at :attr:`particles` is ``p``.

        The model's ``log_rates`` runs once; its ``log_likelihood_matrix``
        fills one cache-sized block of outcome rows at a time into this
        thread's workspace, whose moments are taken before the next block is
        formed.  The table and its moments are float64 throughout.
        """
        counts = model.sample_counts(self.outcomes, config, rng, p[self._outcome_at])
        log_rates = model.log_rates(self.inner, config, p[self._inner_at])
        n_inner, rows = self.n_inner, self._block
        buffer = thread_buffer(self._workspace_size)
        terms = np.empty(self.n_outcomes)
        kept = np.empty(self.n_outcomes, dtype=bool)
        for lo in range(0, self.n_outcomes, rows):
            hi = min(lo + rows, self.n_outcomes)
            out = buffer[: (hi - lo) * n_inner].reshape(hi - lo, n_inner)
            table = model.log_likelihood_matrix(counts[lo:hi], log_rates, out=out)
            terms[lo:hi], kept[lo:hi] = _weighted_variance_terms(table, *self.moments)
        return terms, kept


def draw_shared(
    cloud: ParticleCloud,
    q: np.ndarray,
    n_outcomes: int,
    n_particles: int,
    rng: np.random.Generator,
) -> SharedDraws:
    """One design's shared draws: ``n_outcomes`` outcome ancestors, then an
    inner set of at most ``n_particles``, both from ``rng``."""
    if n_outcomes < 2 or n_particles < 2:
        raise ValueError("need at least two outcomes and two inner particles")
    q = _check_q(q, cloud.locations.shape[1])
    outcome_idx = rng.choice(cloud.size, size=n_outcomes, p=cloud.weights)
    inner = _downsample(cloud, n_particles, rng)
    return SharedDraws(cloud, q, outcome_idx, *inner)


def mis_risk(
    draws: SharedDraws, config, rng: np.random.Generator, p, model=None
) -> RiskEstimate:
    """Maximum-importance-sampling estimate of the Bayes risk of ``config``
    on the shared ``draws`` of :func:`draw_shared`.

    Outcomes are drawn from the marginal predictive (via the joint): the
    draws' outcome ancestors, each with its Poisson counts from ``rng``.
    Each outcome reweights the draws' inner set, and the risk is the mean
    Q-weighted posterior variance over outcomes.  ``p`` carries the
    survival probability of every particle the draws read
    (``draws.particles``), in that order; a row of another length is
    refused.  ``model`` is the outcome model, :class:`NvModel` when None.
    """
    p = np.asarray(p)
    if len(p) != len(draws.particles):
        raise ValueError(
            f"a survival row of {len(p)} entries is not at the "
            f"{len(draws.particles)} drawn particles"
        )
    terms, kept = draws.terms(model or NvModel(), config, rng, p)
    return _summarize(terms, kept, draws.n_outcomes, draws.n_inner)


def _summarize(terms, kept, n_outcomes, n_particles) -> RiskEstimate:
    """The estimate of one candidate's per-outcome ``terms``, of which the
    ``kept`` ones count.  The mean and the standard deviation are the
    reductions ``np.mean`` and ``np.std(ddof=1)`` perform, written out: a
    sum, then a sum of squared deviations from the mean.  On a screen's 64
    terms they took 6.8 us against 20.6 us for the two calls."""
    kept_terms = terms[kept]
    n_kept = len(kept_terms)
    if n_kept == 0:
        raise ValueError("every sampled outcome underflowed; cloud too degenerate")
    mean = kept_terms.sum() / n_kept
    if n_kept > 1:
        deviations = kept_terms - mean
        deviations *= deviations
        variance = deviations.sum() / (n_kept - 1)
        std_error = math.sqrt(variance) / math.sqrt(n_kept)
    else:
        std_error = float("inf")
    return RiskEstimate(
        value=max(float(mean), 0.0),
        std_error=std_error,
        n_outcomes=n_outcomes,
        n_particles=n_particles,
        n_dropped=n_outcomes - n_kept,
        samples=np.where(kept, terms, np.nan),
    )


def trace_weighted_variance(cloud: ParticleCloud, q: np.ndarray) -> float:
    """sigma_Q^2 = Tr[Q Cov(cloud)], the no-experiment baseline."""
    q = _check_q(q, cloud.locations.shape[1])
    return float(np.trace(q @ smc.posterior_cov(cloud)))


# cells (outcomes x inner particles) of one candidate's MIS table from which
# a profile fans its candidates out (qutrit.fan_out); smaller tables run on
# the calling thread, where spreading them costs more than the second core
# saves.  Fanning out every stage, the 64x128 screens included, read
# online_wide setup_s 0.162-0.191 s against 0.146-0.161 s and
# s_per_experiment 0.061-0.070 s against 0.057-0.065 s, worse in each of 4
# pairs of 55 s perfbench runs (2-core host, 1 BLAS thread).  The benchmark
# has no stage between 2^13 and 2^19 cells; there the line rests on profile
# timings against a workers-only pool: 40 candidates at 256x512 (2^17) took
# 29.7 ms on the calling thread against 24.4 ms, and at 128x512 17.6
# against 23.6 ms.
_POOL_MIN_CELLS = 1 << 17


def risk_profile(
    cloud: ParticleCloud,
    configs: list,
    q: np.ndarray,
    rng: np.random.Generator,
    n_outcomes: int,
    n_particles: int,
    p_table,
    model=None,
) -> list:
    """Risk of every candidate against the same cloud snapshot: one stage
    of a design.

    Returns ``[(config, RiskEstimate), ...]`` in input order.  One shared
    draw set (:func:`draw_shared`) comes from ``rng`` first; then each
    candidate takes the next child of ``rng.spawn`` for its counts, and its
    estimate is :func:`mis_risk` on the shared draws.  ``p_table(configs,
    particles)`` returns the survival rows of ``configs`` at the particle
    indices ``particles``, as a bound
    :meth:`nvbed.heuristics.SurvivalTableCache.table` does; the profile
    calls it once, after its draws, with the particles they read.  ``model``
    is the outcome model, :class:`NvModel` when None.

    Below ``_POOL_MIN_CELLS`` cells per table the candidates run on the
    calling thread; from there on :func:`nvbed.qutrit.fan_out` spreads
    them, one unit each, over the cores.  Since no stream is shared between
    them, the profile is the same wherever the candidates run, and a
    profile of the first few candidates is the first few entries of the
    whole profile.
    """
    if not configs:
        raise ValueError("candidate list is empty")
    model = model or NvModel()
    draws = draw_shared(cloud, q, n_outcomes, n_particles, rng)
    streams = rng.spawn(len(configs))
    rows = p_table(configs, draws.particles)
    estimates = [None] * len(configs)

    def run(share):
        for i in share:
            # the module global, so that a wrapped mis_risk sees every call
            estimates[i] = mis_risk(draws, configs[i], streams[i], rows[i], model)

    if draws.n_outcomes * draws.n_inner < _POOL_MIN_CELLS:
        run(range(len(configs)))
    else:
        fan_out(run, range(len(configs)))
    return list(zip(configs, estimates))


# The screen of :func:`screened_profile` scores every candidate at
# 1/SCREEN_SHRINK of the outcomes and of the inner particles (64x128 at the
# paper's 512x1024), and keeps for the full-size profile each candidate
# whose mean paired excess risk over the leader is at most SCREEN_SPREAD
# paired standard errors.  With fewer than SCREEN_MIN screened outcomes or
# inner particles the rule rests on too few pairs, and on an inner set too
# small to stand for the posterior, so the design skips the screen.
SCREEN_SHRINK = 8
SCREEN_SPREAD = 2.0
SCREEN_MIN = 32


def rank(pair) -> tuple:
    """Ranking key of a ``(config, RiskEstimate)`` pair, best first:
    reliable estimates (few dropped MIS outcomes), then lower risk, then
    shorter total evolution time; ties go to the lower candidate index."""
    config, estimate = pair
    return (not estimate.reliable, estimate.value, config.evolution_time)


def _best(profile: list, among) -> int:
    """Index of the best entry of ``profile`` among ``among`` by :func:`rank`."""
    return min(among, key=lambda i: (rank(profile[i]), i))


def _paired_survivors(terms: np.ndarray, kept: np.ndarray, leader: int) -> list:
    """Indices of the candidates the leader has not beaten.

    ``terms`` and ``kept`` are (candidates, outcomes) over shared outcome
    ancestors.  Each candidate's excess over the leader is paired outcome by
    outcome, over the outcomes both kept; with fewer than two such
    outcomes the pair says nothing and the candidate survives.
    """
    both = kept & kept[leader]
    n = both.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        excess = np.where(both, terms - terms[leader], 0.0)
        mean = excess.sum(axis=1) / n
        spread = np.where(both, excess - mean[:, None], 0.0)
        std_error = np.sqrt((spread**2).sum(axis=1) / (n - 1) / n)
        beaten = (n >= 2) & (mean > SCREEN_SPREAD * std_error)
    return np.flatnonzero(~beaten).tolist()


def screened_profile(
    cloud: ParticleCloud,
    configs: list,
    q: np.ndarray,
    rng: np.random.Generator,
    n_outcomes: int,
    n_particles: int,
    p_table,
    model=None,
) -> tuple:
    """A design's profile and pick: a paired screen of every candidate, then
    the full :func:`risk_profile` of the survivors.

    The screen is :func:`risk_profile` of every candidate on ``rng`` at
    1/``SCREEN_SHRINK`` of the sizes.  The leader, which :func:`rank` puts
    first, and every candidate within ``SCREEN_SPREAD`` standard errors of
    it, paired over the estimates' ``samples``, survive; they go through
    :func:`risk_profile` at ``n_outcomes`` x ``n_particles`` on a fresh draw
    set from ``rng``.  When either screened size would fall below
    ``SCREEN_MIN``, there is no screen and every candidate survives.
    ``model`` and ``p_table`` are as for :func:`risk_profile`, so rows are
    simulated only where a stage's draws read them.

    Returns ``(profile, best)``: ``profile`` lists every candidate in input
    order, survivors with their full estimate and the rest with their
    screen estimate (the estimate's ``n_outcomes`` and ``n_particles`` tell
    which), and ``best`` is the index of the survivor :func:`rank` puts
    first.
    """
    profile = [None] * len(configs)
    survivors = list(range(len(configs)))
    n_screen = n_outcomes // SCREEN_SHRINK
    n_inner = n_particles // SCREEN_SHRINK
    if min(n_screen, n_inner) >= SCREEN_MIN:
        profile = risk_profile(
            cloud, configs, q, rng, n_outcomes=n_screen, n_particles=n_inner,
            model=model, p_table=p_table,
        )
        samples = np.stack([estimate.samples for _, estimate in profile])
        leader = _best(profile, survivors)
        survivors = _paired_survivors(samples, ~np.isnan(samples), leader)
    full = risk_profile(
        cloud, [configs[i] for i in survivors], q, rng, n_outcomes=n_outcomes,
        n_particles=n_particles, model=model, p_table=p_table,
    )
    for i, pair in zip(survivors, full):
        profile[i] = pair
    return profile, _best(profile, survivors)
