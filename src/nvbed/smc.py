"""Sequential Monte Carlo inference over the ten-parameter NV model.

A hypothesis vector has the layout

    0 rabi_max        MHz
    1 zeeman          MHz
    2 zfs_offset      MHz
    3 hyperfine       MHz
    4 dephasing_rate  1/us
    5 alpha1          photons/shot (bright reference)
    6 beta1           photons/shot (dark reference)
    7 log(sigma_alpha)   reference drift scale, per sqrt(hour)
    8 log(sigma_beta)
    9 atanh(rho)         drift correlation

The drift hyperparameters live in a log/atanh chart so that the Gaussian
smoothing of Liu-West resampling can never produce a negative scale or an
invalid correlation; :class:`DriftParams` converts to natural units.

Constraints enforced on every particle: 0 < beta1 < alpha1, rabi_max >= 0,
dephasing_rate >= 0.  Proposals that violate them are redrawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measurement import Datum, EsmInputs, ReferenceRates, esm, log_likelihood
from .qutrit import ExperimentConfig, SpinParams

N_PARAMS = 10
SPIN_SLICE = slice(0, 5)
IDX_RABI, IDX_ZEEMAN, IDX_ZFS, IDX_HYPERFINE, IDX_DEPHASING = range(5)
IDX_ALPHA, IDX_BETA = 5, 6
IDX_LOG_SIGMA_ALPHA, IDX_LOG_SIGMA_BETA, IDX_ATANH_RHO = 7, 8, 9

# posterior moments of the calibration run, ordered
# (rabi_max, zfs_offset, hyperfine, dephasing_rate), in MHz and MHz^2
CALIBRATED_MEAN = np.array([11.55, -0.86, 2.18, 0.35])
CALIBRATED_COV = np.array(
    [
        [2.56e-05, 1.02e-03, 7.67e-07, 3.80e-05],
        [1.02e-03, 1.06e-01, 1.97e-04, 2.50e-03],
        [7.67e-07, 1.97e-04, 7.51e-05, -1.02e-04],
        [3.80e-05, 2.50e-03, -1.02e-04, 1.01e-03],
    ]
)
_CALIBRATED_COLUMNS = [IDX_RABI, IDX_ZFS, IDX_HYPERFINE, IDX_DEPHASING]
# The spin priors, by name, over the five spin columns.  "wide" uses the
# uniform ranges of the first heuristic comparison, the Zeeman splitting
# uniform on ZEEMAN_RANGE; "calibrated" keeps that Zeeman prior but draws the
# other four parameters from the calibration posterior CALIBRATED_MEAN,
# CALIBRATED_COV; "tight" additionally narrows the Zeeman splitting to a
# normal of mean TIGHT_ZEEMAN_MEAN and deviation TIGHT_ZEEMAN_STD.
SPIN_PRIORS = ("wide", "calibrated", "tight")
# uniform Zeeman range (MHz) of the "wide" and "calibrated" spin priors
ZEEMAN_RANGE = (0.0, 10.0)
# "tight" only: the Zeeman prior is no longer widened.  The calibration run
# marginalized the Zeeman splitting out, so these values (MHz) are a
# plausible stand-in for a previously measured field.
TIGHT_ZEEMAN_MEAN = 2.0
TIGHT_ZEEMAN_STD = 0.1

# inverse-Wishart hyperprior on the per-hour reference drift covariance; its
# mean, DRIFT_SCALE / (DRIFT_DOF - 3), has scales 0.036 and correlation 0.7
DRIFT_DOF = 30.0
DRIFT_SCALE = (DRIFT_DOF - 3.0) * np.array(
    [[0.036**2, 0.7 * 0.036**2], [0.7 * 0.036**2, 0.036**2]]
)
for _fixed in (CALIBRATED_MEAN, CALIBRATED_COV, DRIFT_SCALE):
    _fixed.setflags(write=False)

# The update's schedule.  An update is split into m tempered sub-updates
# with likelihood exponent 1/m, where m = max(1, ceil(expected ESM of the
# datum / ESM_PER_STEP)); ESM_PER_STEP = math.inf gives the single plain
# update.  Liu-West resampling with a = LIU_WEST_A runs between sub-updates
# (and after the final one) whenever n_eff drops below RESAMPLE_THRESHOLD * K.
ESM_PER_STEP = 10.0
RESAMPLE_THRESHOLD = 0.5
LIU_WEST_A = 0.98


class DegenerateUpdateError(RuntimeError):
    """Every particle weight underflowed during a Bayes update."""


class RedrawLimitError(RuntimeError):
    """Constraint rejection failed to produce valid particles."""


@dataclass(frozen=True)
class DriftParams:
    """Reference random-walk hyperparameters in natural units."""

    sigma_alpha: float
    sigma_beta: float
    correlation: float

    def __post_init__(self):
        if self.sigma_alpha < 0 or self.sigma_beta < 0:
            raise ValueError("drift scales must be nonnegative")
        if not -1.0 < self.correlation < 1.0:
            raise ValueError("correlation must lie in (-1, 1)")


@dataclass(frozen=True)
class ModelParameters:
    """One full hypothesis: spin system, references, drift hyperparameters."""

    spin: SpinParams
    refs: ReferenceRates
    drift: DriftParams


@dataclass
class ParticleCloud:
    """Weighted hypotheses approximating the posterior.

    Only resampling changes the spin columns (0-4); drift and tracking
    resets move the reference columns alone.  Survival caches therefore key
    on the spin columns' contents.
    """

    locations: np.ndarray  # (K, 10)
    weights: np.ndarray  # (K,), nonnegative, summing to 1
    last_update_time: float = 0.0  # simulated hours

    def __post_init__(self):
        self.locations = np.atleast_2d(np.asarray(self.locations, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        if self.locations.shape[0] != self.weights.shape[0]:
            raise ValueError("locations and weights disagree on particle count")
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")
        total = self.weights.sum()
        if not math.isfinite(total) or total <= 0:
            raise ValueError("weights must have a positive finite sum")
        if abs(total - 1.0) > 1e-12:
            self.weights = self.weights / total

    @property
    def size(self) -> int:
        return self.locations.shape[0]

    @property
    def spin_locations(self) -> np.ndarray:
        return self.locations[:, SPIN_SLICE]

    def copy(self) -> "ParticleCloud":
        return ParticleCloud(
            self.locations.copy(), self.weights.copy(), self.last_update_time
        )


def _references_ordered(refs: np.ndarray) -> np.ndarray:
    """Row mask of 0 < beta1 < alpha1 over (n, 2) (alpha1, beta1) rows."""
    return (refs[:, 1] > 0) & (refs[:, 1] < refs[:, 0])


def _check_constraints(locations: np.ndarray) -> np.ndarray:
    """Boolean validity mask for the hard parameter constraints."""
    return (
        (locations[:, IDX_RABI] >= 0)
        & (locations[:, IDX_DEPHASING] >= 0)
        & _references_ordered(locations[:, IDX_ALPHA:IDX_BETA + 1])
    )


# ----------------------------------------------------------------------------
# Priors
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class ReferencePrior:
    """Independent Gamma priors on the per-shot reference rates."""

    alpha_mean: float
    alpha_std: float
    beta_mean: float
    beta_std: float

    def __post_init__(self):
        if min(self.alpha_mean, self.alpha_std, self.beta_mean, self.beta_std) <= 0:
            raise ValueError("gamma prior moments must be positive")

    def _shape_scale(self, mean, std):
        return (mean / std) ** 2, std**2 / mean

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        ka, ta = self._shape_scale(self.alpha_mean, self.alpha_std)
        kb, tb = self._shape_scale(self.beta_mean, self.beta_std)
        out = np.empty((n, 2))
        out[:, 0] = rng.gamma(ka, ta, size=n)
        out[:, 1] = rng.gamma(kb, tb, size=n)
        return out


def empirical_reference_prior(
    bright_counts: int, dark_counts: int, repetitions: int
) -> ReferencePrior:
    """Reference prior from a reference-only experiment with N repetitions:
    Gamma with mean X/N and standard deviation 3*sqrt(X)/N (same for Y)."""
    if bright_counts <= 0 or dark_counts <= 0:
        raise ValueError("reference-only experiment returned zero counts")
    n = float(repetitions)
    return ReferencePrior(
        alpha_mean=bright_counts / n,
        alpha_std=3.0 * math.sqrt(bright_counts) / n,
        beta_mean=dark_counts / n,
        beta_std=3.0 * math.sqrt(dark_counts) / n,
    )


# fallback reference prior for offline experiments without a calibration run
DEFAULT_REFERENCE_PRIOR = empirical_reference_prior(15000, 6000, 300_000)


@dataclass(frozen=True)
class PriorSpec:
    """The prior :func:`sample_prior` draws from: a spin prior named in
    ``SPIN_PRIORS`` and a Gamma prior on the references.  The drift columns
    always come from the inverse-Wishart hyperprior ``DRIFT_DOF``,
    ``DRIFT_SCALE``."""

    spin: str = "wide"
    references: ReferencePrior = DEFAULT_REFERENCE_PRIOR

    def __post_init__(self):
        if self.spin not in SPIN_PRIORS:
            raise ValueError(
                f"unknown spin prior {self.spin!r}; choose from {list(SPIN_PRIORS)}"
            )


MAX_REDRAW_ROUNDS = 1000


def _redraw(propose, valid, n: int, what: str) -> np.ndarray:
    """n proposals, redrawing the rows that break a constraint.

    ``propose(rows)`` returns one proposal per index in the ascending index
    array ``rows``; ``valid(proposals)`` is a row mask.  All n rows are
    proposed once, then only the invalid rows are proposed again, for up to
    ``MAX_REDRAW_ROUNDS`` rounds; :class:`RedrawLimitError` carries ``what``.
    """
    out = propose(np.arange(n))
    for _ in range(MAX_REDRAW_ROUNDS):
        bad = np.flatnonzero(~valid(out))
        if bad.size == 0:
            return out
        out[bad] = propose(bad)
    raise RedrawLimitError(what)


def _sample_spin(prior: str, n: int, rng: np.random.Generator) -> np.ndarray:
    out = np.empty((n, 5))
    if prior == "wide":
        out[:, IDX_RABI] = rng.uniform(0.0, 20.0, size=n)
        out[:, IDX_ZEEMAN] = rng.uniform(*ZEEMAN_RANGE, size=n)
        out[:, IDX_ZFS] = rng.uniform(-5.0, 5.0, size=n)
        out[:, IDX_HYPERFINE] = rng.uniform(1.5, 3.5, size=n)
        out[:, IDX_DEPHASING] = 1.0 / rng.uniform(1.0, 20.0, size=n)
        return out
    out[:, _CALIBRATED_COLUMNS] = _redraw(
        lambda rows: rng.multivariate_normal(
            CALIBRATED_MEAN, CALIBRATED_COV, size=rows.size
        ),
        lambda four: (four[:, 0] > 0) & (four[:, 3] > 0),
        n,
        "calibrated spin prior kept producing negative rates",
    )
    if prior == "calibrated":
        out[:, IDX_ZEEMAN] = rng.uniform(*ZEEMAN_RANGE, size=n)
    else:
        out[:, IDX_ZEEMAN] = _redraw(
            lambda rows: rng.normal(
                TIGHT_ZEEMAN_MEAN, TIGHT_ZEEMAN_STD, size=rows.size
            ),
            lambda zee: zee >= 0,
            n,
            "tight Zeeman prior kept producing negatives",
        )
    return out


def _sample_references(
    prior: ReferencePrior, n: int, rng: np.random.Generator
) -> np.ndarray:
    return _redraw(
        lambda rows: prior.sample(rows.size, rng),
        _references_ordered,
        n,
        "reference prior is inconsistent with 0 < beta1 < alpha1 "
        f"(means {prior.alpha_mean}, {prior.beta_mean})",
    )


def _sample_drift_chart(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n drift covariances from the hyperprior and return
    (log sa, log sb, atanh rho) rows.

    Consumes the same variates as ``scipy.stats.invwishart.rvs(DRIFT_DOF,
    DRIFT_SCALE, n, rng)``, in the same order: the Bartlett factor
    A = [[a, 0], [b, c]] with b ~ N(0, 1), a^2 ~ chi2(dof - 1) and
    c^2 ~ chi2(dof).  The covariance is S = L L^T with L = C A^-1 and C the
    Cholesky factor of the scale, so in closed form sa = L00, sb is the norm
    of row 1 of L, and rho = L10 / sb.
    """
    b = rng.normal(size=(n, 1))[:, 0]
    chi = rng.chisquare(df=(DRIFT_DOF - 1.0) + np.arange(2.0), size=(n, 2)) ** 0.5
    a, c = chi[:, 0], chi[:, 1]
    chol = np.linalg.cholesky(DRIFT_SCALE)
    sa = chol[0, 0] / a
    l10 = (chol[1, 0] - chol[1, 1] * b / c) / a
    sb = np.hypot(l10, chol[1, 1] / c)
    return np.column_stack([np.log(sa), np.log(sb), np.arctanh(l10 / sb)])


def sample_prior(spec: PriorSpec, k: int, rng: np.random.Generator) -> ParticleCloud:
    """Draw K i.i.d. particles from the prior with uniform weights."""
    if k < 2:
        raise ValueError("need at least two particles")
    locations = np.empty((k, N_PARAMS))
    locations[:, SPIN_SLICE] = _sample_spin(spec.spin, k, rng)
    locations[:, IDX_ALPHA:IDX_BETA + 1] = _sample_references(spec.references, k, rng)
    locations[:, IDX_LOG_SIGMA_ALPHA:] = _sample_drift_chart(k, rng)
    return ParticleCloud(locations, np.full(k, 1.0 / k))


# ----------------------------------------------------------------------------
# Moments and diagnostics
# ----------------------------------------------------------------------------


def effective_sample_size(cloud: ParticleCloud) -> float:
    """1 / sum(w_i^2), between 1 and K."""
    return float(1.0 / np.sum(cloud.weights**2))


def posterior_mean(cloud: ParticleCloud) -> np.ndarray:
    return cloud.weights @ cloud.locations


def posterior_cov(cloud: ParticleCloud) -> np.ndarray:
    mean = posterior_mean(cloud)
    centered = cloud.locations - mean
    cov = (centered * cloud.weights[:, None]).T @ centered
    return 0.5 * (cov + cov.T)


def posterior_refs(cloud: ParticleCloud) -> tuple:
    """(mean alpha1, mean beta1, std alpha1, std beta1) of the current cloud."""
    mean = posterior_mean(cloud)
    cov = posterior_cov(cloud)
    return (
        float(mean[IDX_ALPHA]),
        float(mean[IDX_BETA]),
        float(math.sqrt(max(cov[IDX_ALPHA, IDX_ALPHA], 0.0))),
        float(math.sqrt(max(cov[IDX_BETA, IDX_BETA], 0.0))),
    )


def expected_esm(cloud: ParticleCloud, repetitions: int) -> float:
    """Expected ESM of a datum with N repetitions under the current posterior."""
    a1, b1, sa1, sb1 = posterior_refs(cloud)
    if not 0.0 <= b1 < a1:
        return 0.0
    n = float(repetitions)
    return esm(EsmInputs(n * a1, n * b1, n * sa1, n * sb1))


# ----------------------------------------------------------------------------
# Updates
# ----------------------------------------------------------------------------


@dataclass
class UpdateReport:
    substeps: int = 1
    resampled: bool = False
    n_eff: float = 0.0
    retried: bool = False


def bayes_update(
    cloud: ParticleCloud,
    datum: Datum,
    config: ExperimentConfig,
    rng: np.random.Generator,
    survival_fn,
) -> tuple:
    """Multiply particle weights by the datum likelihood and renormalize.

    ``survival_fn(spin_locations, config) -> p`` gives the quantum model's
    survival probability of every particle; the harness passes its policy's
    ``SurvivalTableCache.row``, so inference itself simulates nothing.  Returns
    ``(cloud, UpdateReport)``; raises :class:`DegenerateUpdateError` when all
    weights underflow even after retrying with a finer tempering schedule.
    The schedule is ``ESM_PER_STEP``, ``RESAMPLE_THRESHOLD``, ``LIU_WEST_A``.
    """
    datum_esm = expected_esm(cloud, datum.repetitions)
    m = max(1, math.ceil(datum_esm / ESM_PER_STEP))
    try:
        return _tempered_update(cloud, datum, config, rng, survival_fn, m)
    except DegenerateUpdateError:
        result, report = _tempered_update(
            cloud, datum, config, rng, survival_fn, 2 * m
        )
        report.retried = True
        return result, report


def _log_likelihoods(cloud, datum, config, survival_fn):
    p = survival_fn(cloud.spin_locations, config)
    return log_likelihood(
        datum, cloud.locations[:, IDX_ALPHA], cloud.locations[:, IDX_BETA], p
    )


def _tempered_update(cloud, datum, config, rng, survival_fn, m):
    current = cloud.copy()
    report = UpdateReport(substeps=m)
    logl = _log_likelihoods(current, datum, config, survival_fn)
    for step in range(m):
        current.weights = _reweight(current.weights, logl / m)
        n_eff = effective_sample_size(current)
        if n_eff < RESAMPLE_THRESHOLD * current.size:
            current = liu_west_resample(current, LIU_WEST_A, rng)
            report.resampled = True
            if step + 1 < m:
                logl = _log_likelihoods(current, datum, config, survival_fn)
    report.n_eff = effective_sample_size(current)
    return current, report


def _reweight(weights, logl):
    shift = np.max(logl)
    if not math.isfinite(shift):
        raise DegenerateUpdateError("all particles have zero likelihood")
    scaled = weights * np.exp(logl - shift)
    total = scaled.sum()
    if total <= 0 or not math.isfinite(total):
        raise DegenerateUpdateError("all weights underflowed in the update")
    return scaled / total


# ----------------------------------------------------------------------------
# Resampling and drift
# ----------------------------------------------------------------------------


def _noise_transform(cov: np.ndarray) -> np.ndarray:
    """Matrix B with B @ B.T = cov, tolerant of semidefinite covariances."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(cov)
        vals = np.clip(vals, 0.0, None)
        return vecs * np.sqrt(vals)


def liu_west_resample(
    cloud: ParticleCloud, a: float, rng: np.random.Generator
) -> ParticleCloud:
    """Kernel resampling that preserves the first two posterior moments.

    Ancestors are drawn by weight; each new location is
    a * ancestor + (1 - a) * mean + noise with covariance (1 - a^2) * Cov.
    Proposals violating the parameter constraints are redrawn.
    """
    if not 0.0 < a <= 1.0:
        raise ValueError(f"a must be in (0, 1], got {a}")
    k = cloud.size
    mean = posterior_mean(cloud)
    shrink = None
    if a < 1.0:
        shrink = _noise_transform((1.0 - a * a) * posterior_cov(cloud))

    def propose(rows):
        ancestors = rng.choice(k, size=rows.size, p=cloud.weights)
        new = a * cloud.locations[ancestors] + (1.0 - a) * mean
        if shrink is not None:
            new += rng.standard_normal((rows.size, N_PARAMS)) @ shrink.T
        return new

    locations = _redraw(
        propose, _check_constraints, k, "Liu-West proposals kept violating constraints"
    )
    return ParticleCloud(locations, np.full(k, 1.0 / k), cloud.last_update_time)


def drift_step(
    cloud: ParticleCloud, dt_hours: float, rng: np.random.Generator
) -> ParticleCloud:
    """Random-walk the reference coordinates of every particle by dt hours.

    Each particle is perturbed with the bivariate normal built from its own
    drift hyperparameters; proposals breaking 0 < beta1 < alpha1 are redrawn
    per particle.  dt = 0 is the identity.
    """
    if dt_hours < 0:
        raise ValueError("dt_hours must be nonnegative")
    if dt_hours == 0.0:
        return cloud.copy()
    out = cloud.copy()
    sa = np.exp(out.locations[:, IDX_LOG_SIGMA_ALPHA]) * math.sqrt(dt_hours)
    sb = np.exp(out.locations[:, IDX_LOG_SIGMA_BETA]) * math.sqrt(dt_hours)
    rho = np.tanh(out.locations[:, IDX_ATANH_RHO])
    base = out.locations[:, [IDX_ALPHA, IDX_BETA]]

    def propose(idx):
        z1 = rng.standard_normal(len(idx))
        z2 = rng.standard_normal(len(idx))
        d_alpha = sa[idx] * z1
        d_beta = sb[idx] * (rho[idx] * z1 + np.sqrt(1.0 - rho[idx] ** 2) * z2)
        return base[idx] + np.column_stack([d_alpha, d_beta])

    out.locations[:, IDX_ALPHA:IDX_BETA + 1] = _redraw(
        propose,
        _references_ordered,
        cloud.size,
        "drift proposals kept violating 0 < beta1 < alpha1",
    )
    return out


def reference_reset(
    cloud: ParticleCloud, spec: PriorSpec, rng: np.random.Generator
) -> ParticleCloud:
    """Redraw only the reference coordinates from the prior after a tracking
    operation; all other coordinates and all weights stay fixed."""
    out = cloud.copy()
    out.locations[:, IDX_ALPHA:IDX_BETA + 1] = _sample_references(
        spec.references, cloud.size, rng
    )
    return out
