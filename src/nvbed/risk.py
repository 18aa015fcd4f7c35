"""Bayes-risk evaluation of candidate experiments.

The risk of a candidate configuration is the expected Q-weighted posterior
mean-squared error after observing one more datum.  The
maximum-importance-sampling (MIS) estimator samples hypothetical outcomes
from the joint particle/datum distribution and reweights a fixed
down-sampled inner cloud once per sampled outcome (O(K*K') evaluations,
O(K') outcome samples).

The estimator is generic over an outcome model exposing

    sample_counts(locations, config, rng) -> (n, c) count array
    log_rates(locations, config) -> the candidate's likelihood factor over K
        particles, formed once per candidate
    log_likelihood_matrix(counts, log_rates, out=None) -> (n, K) float64
        table, written into ``out`` when one is given

so that small analytically tractable models can stand in for the NV model
in verification.  A table row may differ from the exact log-likelihood by
a constant of that row, which the estimator's row-max shift cancels.  The
estimator never holds the whole (n_outcomes, K) table: it asks for one
block of outcome rows at a time, into a per-thread workspace that it
shifts and exponentiates in place.  The NV model (the referenced-Poisson
triple of :mod:`nvbed.measurement`) also takes each particle's survival
probability as ``p=``, from rows the caller supplies.

:func:`risk_profile` evaluates its candidates on a thread pool as wide as
the cores this process may run on.  Each candidate draws from its own child
stream, so the profile does not depend on how the candidates are split
between threads.
"""

from __future__ import annotations

import math
import mmap
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import measurement, smc
from .smc import IDX_ALPHA, IDX_BETA, ParticleCloud


@dataclass(frozen=True)
class RiskEstimate:
    """A sampled Bayes-risk value with its Monte Carlo standard error."""

    value: float
    std_error: float
    n_outcomes: int
    n_particles: int
    n_dropped: int = 0

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
    each particle at hand through ``p``, sliced by the caller from a
    full-cloud row (``p_full`` of :func:`mis_risk`, ``p_table`` of
    :func:`risk_profile`).  Its likelihood is two calls: :meth:`log_rates`
    once per candidate, then :meth:`log_likelihood_matrix` once per block of
    outcome rows.
    """

    def _rates(self, locations, config, p=None):
        if p is None:
            raise ValueError(
                "NvModel needs the survival probabilities p of these particles; "
                "pass the full-cloud row as p_full (mis_risk) or p_table "
                "(risk_profile)"
            )
        return measurement.expected_counts(
            locations[:, IDX_ALPHA], locations[:, IDX_BETA], p, config.repetitions
        )

    def sample_counts(self, locations, config, rng, p=None) -> np.ndarray:
        # every X, then every Y, then every Z, as rows of (X, Y, Z)
        return rng.poisson(self._rates(locations, config, p)).T

    def log_rates(self, locations, config, p=None) -> np.ndarray:
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


def _weighted_variance_terms(log_table, base_weights, locations, q):
    """Per-outcome Tr[Q Cov(posterior)] without materializing normalized
    weight rows.

    Consumes the float64 ``log_table``: each row is shifted by its maximum
    and exponentiated in place.  Locations are centered at their weighted
    mean first, which keeps the second-moment/mean-square cancellation at
    posterior-variance scale.  The normalizer and the first and second
    moments come from one product of the exponentiated table with the
    columns [w, w * centered, w * quadratic]; returns (terms, kept_row_mask).
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
    log_table -= np.where(kept, shift, 0.0)[:, None]
    np.exp(log_table, out=log_table)
    columns = np.column_stack(
        [base_weights, base_weights[:, None] * centered, base_weights * quadratic]
    )
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
_workspace = threading.local()


def _block_rows(n_particles: int) -> int:
    """Outcome rows per block of an MIS table over ``n_particles`` columns."""
    return max(1, _MIS_BLOCK_BYTES // (8 * n_particles))


def _block_buffer(size: int) -> np.ndarray:
    """This thread's float64 workspace of ``size`` entries, reused across
    blocks and candidates.

    The workspace is an anonymous memory map, not a malloc'd array: malloc
    would place it in the thread's own arena, which keeps the memory after
    the thread ends, and a profile's workers then raised the process's peak
    resident memory by about 7 MB at paper scale.
    """
    buffer = getattr(_workspace, "buffer", None)
    if buffer is None or buffer.size < size:
        entries = max(size, _MIS_BLOCK_BYTES // 8)
        buffer = np.frombuffer(mmap.mmap(-1, 8 * entries), dtype=float)
        _workspace.buffer = buffer
    return buffer[:size]


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


def mis_risk(
    cloud: ParticleCloud,
    config,
    q: np.ndarray,
    n_outcomes: int,
    n_particles: int,
    rng: np.random.Generator,
    model=None,
    p_full=None,
) -> RiskEstimate:
    """Maximum-importance-sampling estimate of the Bayes risk.

    Outcomes are drawn from the marginal predictive (via the joint); each
    outcome reweights a fixed inner particle set, and the risk is the mean
    Q-weighted posterior variance over outcomes.  ``p_full`` carries the
    survival probability of every particle of the cloud for ``config``; the
    NV model requires it, and outcome models that take no rows are called
    without it.  The model's ``log_rates`` runs once; its
    ``log_likelihood_matrix`` fills one cache-sized block of outcome rows at
    a time into this thread's workspace, whose moments are taken before the
    next block is formed.  The table and its moments are float64 throughout.
    """
    if n_outcomes < 2 or n_particles < 2:
        raise ValueError("need at least two outcomes and two inner particles")
    model = model or NvModel()
    q = _check_q(q, cloud.locations.shape[1])
    outcome_idx = rng.choice(cloud.size, size=n_outcomes, p=cloud.weights)
    p_full = None if p_full is None else np.asarray(p_full)
    extra_out = {} if p_full is None else {"p": p_full[outcome_idx]}
    counts = model.sample_counts(cloud.locations[outcome_idx], config, rng, **extra_out)
    inner_idx, inner_weights = _downsample(cloud, n_particles, rng)
    inner = cloud.locations[inner_idx]
    extra_in = {} if p_full is None else {"p": p_full[inner_idx]}
    log_rates = model.log_rates(inner, config, **extra_in)
    n_inner = len(inner_idx)
    rows = _block_rows(n_inner)
    buffer = _block_buffer(rows * n_inner)
    terms = np.empty(n_outcomes)
    kept = np.empty(n_outcomes, dtype=bool)
    for lo in range(0, n_outcomes, rows):
        hi = min(lo + rows, n_outcomes)
        out = buffer[: (hi - lo) * n_inner].reshape(hi - lo, n_inner)
        table = model.log_likelihood_matrix(counts[lo:hi], log_rates, out=out)
        terms[lo:hi], kept[lo:hi] = _weighted_variance_terms(
            table, inner_weights, inner, q
        )
    return _summarize(terms, kept, n_outcomes, n_inner)


def _summarize(terms, kept, n_outcomes, n_particles) -> RiskEstimate:
    kept_terms = terms[kept]
    n_kept = len(kept_terms)
    if n_kept == 0:
        raise ValueError("every sampled outcome underflowed; cloud too degenerate")
    value = float(kept_terms.mean())
    if n_kept > 1:
        std_error = float(kept_terms.std(ddof=1) / math.sqrt(n_kept))
    else:
        std_error = float("inf")
    return RiskEstimate(
        value=max(value, 0.0),
        std_error=std_error,
        n_outcomes=n_outcomes,
        n_particles=n_particles,
        n_dropped=n_outcomes - n_kept,
    )


def trace_weighted_variance(cloud: ParticleCloud, q: np.ndarray) -> float:
    """sigma_Q^2 = Tr[Q Cov(cloud)], the no-experiment baseline."""
    q = _check_q(q, cloud.locations.shape[1])
    return float(np.trace(q @ smc.posterior_cov(cloud)))


def risk_profile(
    cloud: ParticleCloud,
    configs: list,
    q: np.ndarray,
    rng: np.random.Generator,
    n_outcomes: int = 512,
    n_particles: int = 1024,
    model=None,
    p_table=None,
) -> list:
    """Risk of every candidate against the same cloud snapshot.

    Returns ``[(config, RiskEstimate), ...]`` in input order.  Each candidate
    consumes its own child random stream, so results are reproducible for a
    fixed candidate order and seed.  The candidates run on a thread pool
    with one worker per core this process may run on; since no stream is
    shared, the results are the same however the candidates are split, and
    equal those of calling :func:`mis_risk` on each in turn.
    ``p_table`` holds the survival probabilities, one row per candidate, over
    the full cloud; the NV model requires it (see
    :meth:`nvbed.heuristics.SurvivalTableCache.table`).
    """
    if not configs:
        raise ValueError("candidate list is empty")
    streams = rng.spawn(len(configs))

    def estimate(i):
        p_full = None if p_table is None else p_table[i]
        # the module global, so that a wrapped mis_risk sees every call
        return mis_risk(
            cloud, configs[i], q, n_outcomes, n_particles, streams[i], model, p_full
        )

    workers = min(len(configs), len(os.sched_getaffinity(0)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        estimates = list(pool.map(estimate, range(len(configs))))
    return list(zip(configs, estimates))
