"""Referenced-Poisson data model for room-temperature NV readout.

A single experiment with N repetitions yields a count triple d = (X, Y, Z):

    X ~ Poisson(N * alpha1)                        bright reference
    Y ~ Poisson(N * beta1)                         dark reference
    Z ~ Poisson(N * (beta1 + p * (alpha1 - beta1)))  signal

with per-shot rates 0 < beta1 < alpha1 and survival probability p.

This module is the one home of that model: the lab samples from it, the SMC
update weighs by it and the Bayes-risk estimator integrates over it, all
through the three rates of :func:`expected_counts`.  Sampling is
``rng.poisson`` of those rates, and :func:`log_likelihood_table` leaves out
sum(log c!), which is constant along each of its rows;
:func:`log_likelihood` adds it back for a single datum.

The effective-strong-measurement (ESM) metric converts a referenced triple
into the equivalent number of two-outcome projective measurements.  Its
inputs are *total* expected counts (already multiplied by N) and the
standard deviations of those totals; callers convert per-shot quantities
via alpha_hat = N * alpha1, sigma_alpha = N * sigma1_alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ReferenceRates:
    """Per-shot expected photon counts for the bright and dark references."""

    bright: float
    dark: float

    def __post_init__(self):
        if not 0.0 < self.dark < self.bright:
            raise ValueError(
                f"need 0 < dark < bright, got dark={self.dark}, bright={self.bright}"
            )


@dataclass(frozen=True)
class Datum:
    """One measured count triple with its repetition count and timestamp (s)."""

    bright_counts: int
    dark_counts: int
    signal_counts: int
    repetitions: int
    timestamp: float = 0.0

    def __post_init__(self):
        if min(self.bright_counts, self.dark_counts, self.signal_counts) < 0:
            raise ValueError("counts must be nonnegative")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")

    def to_dict(self) -> dict:
        return {
            "X": self.bright_counts,
            "Y": self.dark_counts,
            "Z": self.signal_counts,
            "N": self.repetitions,
            "timestamp": self.timestamp,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Datum":
        """The datum of a JSON-style dict, whose counts and ``N`` must be
        ``int`` (a ``bool`` is not one) and whose timestamp, if given, a
        finite ``int`` or ``float``."""
        counts = [d[key] for key in ("X", "Y", "Z", "N")]
        if not all(type(v) is int for v in counts):
            raise ValueError(f"counts and N must be ints, got {counts!r}")
        timestamp = d.get("timestamp", 0.0)
        if type(timestamp) not in (int, float) or not math.isfinite(timestamp):
            raise ValueError(f"timestamp must be a finite number, got {timestamp!r}")
        return cls(*counts, timestamp=float(timestamp))


@dataclass(frozen=True)
class EsmInputs:
    """Total expected reference counts and their standard deviations."""

    alpha_hat: float
    beta_hat: float
    sigma_alpha: float = 0.0
    sigma_beta: float = 0.0

    def __post_init__(self):
        if not self.alpha_hat > self.beta_hat >= 0.0:
            raise ValueError(
                f"need alpha_hat > beta_hat >= 0, got {self.alpha_hat}, {self.beta_hat}"
            )
        if self.sigma_alpha < 0 or self.sigma_beta < 0:
            raise ValueError("sigmas must be nonnegative")


def expected_counts(alpha1, beta1, p, repetitions) -> np.ndarray:
    """Expected totals of X, Y and Z on a leading axis of 3; the trailing
    axes broadcast over arrays of hypothesis values.

    Each row is written into one new array, with the arithmetic of
    N * [alpha1, beta1, beta1 + p * (alpha1 - beta1)] and no broadcast
    copies, since the risk estimator forms it once per candidate."""
    rates = np.empty((3, *np.broadcast(alpha1, beta1, p).shape))
    np.multiply(alpha1, repetitions, out=rates[0, ...])
    np.multiply(beta1, repetitions, out=rates[1, ...])
    signal = rates[2, ...]
    np.subtract(alpha1, beta1, out=signal)
    signal *= p
    signal += beta1
    signal *= repetitions
    return rates


def log_rate_rows(rates) -> np.ndarray:
    """(4, K) rows [log(rates); -sum(rates)] of K rate columns, the factor of
    :func:`log_likelihood_table` that depends on the hypotheses only.
    Admissible rates are positive (0 < beta1 < alpha1, p in [0, 1]), so the
    log is finite.  The sum runs X + Y, then + Z."""
    rows = np.empty((4, rates.shape[1]))
    np.log(rates, out=rows[:3])
    total = rows[3]
    np.add(rates[0], rates[1], out=total)
    total += rates[2]
    np.negative(total, out=total)
    return rows


def log_likelihood_table(counts, log_rates, out=None) -> np.ndarray:
    """(m, K) log-likelihoods of m count triples under the K columns of
    :func:`log_rate_rows`, each row short of its triple's sum(log c!).

    One product, [counts, 1] @ [log(rates); -sum(rates)], forms the table
    in a single pass over it, written into ``out`` when one is given."""
    design = np.empty((len(counts), 4))
    design[:, :3] = counts
    design[:, 3] = 1.0
    return np.matmul(design, log_rates, out=out)


def sample_datum(
    p: float,
    refs: ReferenceRates,
    repetitions: int,
    rng: np.random.Generator,
    timestamp: float = 0.0,
) -> Datum:
    """Draw one (X, Y, Z) triple for survival probability ``p``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    rates = expected_counts(refs.bright, refs.dark, p, repetitions)
    x, y, z = map(int, rng.poisson(rates))
    return Datum(x, y, z, repetitions, timestamp)


def log_likelihood(datum: Datum, alpha1, beta1, p):
    """Joint log-likelihood of one datum given per-shot rates and survival p.

    ``alpha1``, ``beta1`` and ``p`` may be arrays of hypothesis values; the
    result broadcasts over them.
    """
    counts = (datum.bright_counts, datum.dark_counts, datum.signal_counts)
    rates = expected_counts(alpha1, beta1, p, datum.repetitions)
    out = log_likelihood_table([counts], log_rate_rows(rates.reshape(3, -1)))[0]
    out = out.reshape(rates.shape[1:]) - sum(math.lgamma(c + 1) for c in counts)
    if out.ndim == 0:
        return float(out)
    return out


def esm(inputs: EsmInputs) -> float:
    """Number of effective strong measurements carried by one triple."""
    contrast = inputs.alpha_hat - inputs.beta_hat
    total = inputs.alpha_hat + inputs.beta_hat
    return contrast**2 / (
        3.0 * total + 2.0 * (inputs.sigma_alpha**2 + inputs.sigma_beta**2)
    )


def choose_repetitions(
    per_shot: ReferenceRates,
    per_shot_sigmas: tuple,
    target_esm: float,
    n_max: int,
) -> tuple:
    """Smallest repetition count whose expected ESM reaches ``target_esm``.

    Totals scale as alpha_hat = N*alpha1, sigma_alpha = N*sigma1_alpha, so
    ESM(N) = N*delta^2 / (3*s + 2*N*sigma2) with delta = alpha1 - beta1,
    s = alpha1 + beta1 and sigma2 = sigma1_alpha^2 + sigma1_beta^2.  When
    delta^2 <= 2*target*sigma2 the target is unreachable for any N and
    ``n_max`` is returned with ``saturated=True``.

    Returns ``(n, saturated)``.
    """
    if target_esm <= 0:
        raise ValueError("target_esm must be positive")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    delta = per_shot.bright - per_shot.dark
    total = per_shot.bright + per_shot.dark
    sigma2 = per_shot_sigmas[0] ** 2 + per_shot_sigmas[1] ** 2
    headroom = delta**2 - 2.0 * target_esm * sigma2
    if headroom <= 0.0:
        return n_max, True
    n = math.ceil(3.0 * target_esm * total / headroom)
    n = max(n, 1)
    if n > n_max:
        return n_max, True
    return n, False
