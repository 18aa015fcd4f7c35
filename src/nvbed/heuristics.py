"""Experiment-design policies for the heuristic comparison.

Two offline policies sweep predetermined grids (alternating Rabi/Ramsey, and
back-to-back Ramsey sweeps); two online policies pick the candidate that
minimizes the sampled Bayes risk under a uniform or magnetometry-focused
weight matrix.  All policies choose the repetition count so that the
expected ESM of the next datum hits a common target, which keeps heuristics
comparable independent of reference brightness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import qutrit, risk, smc
from .measurement import ReferenceRates, choose_repetitions
from .qutrit import ExperimentConfig
from .smc import IDX_RABI, ParticleCloud, PriorSpec

DEFAULT_TARGET_ESM = 20.0
DEFAULT_N_MAX = 1_000_000


def experiment_set_rabi(
    t_max: float, m: int, drive_frequency: float = qutrit.ZFS_MHZ
) -> list:
    """Rabi configurations with pulse times t_max/m, 2*t_max/m, ..., t_max."""
    if m < 1:
        raise ValueError("m must be >= 1")
    step = t_max / m
    return [
        ExperimentConfig("rabi", pulse_time=step * k, drive_frequency=drive_frequency)
        for k in range(1, m + 1)
    ]


def experiment_set_ramsey(
    t_p: float, t_max: float, m: int, drive_frequency: float = qutrit.ZFS_MHZ
) -> list:
    """Ramsey configurations with wait times t_max/m, ..., t_max at fixed t_p."""
    if m < 1:
        raise ValueError("m must be >= 1")
    step = t_max / m
    return [
        ExperimentConfig(
            "ramsey",
            pulse_time=t_p,
            wait_time=step * k,
            drive_frequency=drive_frequency,
        )
        for k in range(1, m + 1)
    ]


def best_tip_time(cloud: ParticleCloud) -> float:
    """Quarter-period pulse time 1/(4 * Omega_hat) rounded to the nearest 2 ns.

    Omega_hat is the current posterior mean of the drive strength; ties
    (odd nanosecond values) round half away from zero.  The result is always
    a positive even number of nanoseconds.
    """
    omega = float(smc.posterior_mean(cloud)[IDX_RABI])
    if omega <= 0:
        raise ValueError(f"posterior mean drive strength must be positive, got {omega}")
    raw = 1e3 / (4.0 * omega)  # MHz -> ns
    rounded = 2.0 * math.floor(raw / 2.0 + 0.5)
    return max(rounded, 2.0)


def should_track(cloud: ParticleCloud, spec: PriorSpec) -> bool:
    """True when the bright-reference estimate has sagged more than five
    prior standard deviations below the prior mean (strict inequality)."""
    posterior_alpha = float(smc.posterior_mean(cloud)[smc.IDX_ALPHA])
    prior = spec.references
    return posterior_alpha < prior.alpha_mean - 5.0 * prior.alpha_std


def _repetitions_for(cloud: ParticleCloud, target_esm: float, n_max: int) -> int:
    a1, b1, sa1, sb1 = smc.posterior_refs(cloud)
    if not 0.0 < b1 < a1:
        return n_max
    n, _ = choose_repetitions(ReferenceRates(a1, b1), (sa1, sb1), target_esm, n_max)
    return n


class SurvivalTableCache:
    """Survival rows of one spin block, keyed by pulse shape.

    A survival row is a pure function of the five spin columns and the
    pulse shape ``(kind, pulse_time, wait_time, drive_frequency)``;
    repetition counts do not enter.  The cache keeps a copy of the spin
    block its rows belong to, and a row is valid exactly while the caller's
    spin columns equal that copy, so clouds that share a lineage, a copy or
    nothing at all never see each other's rows.  Design fills the cache
    through :meth:`table`; the Bayes update reads the executed
    configuration's row back through :meth:`lookup`.
    """

    def __init__(self):
        self._spins = None
        self._rows = {}

    @staticmethod
    def _shape(config: ExperimentConfig) -> tuple:
        return (
            config.kind, config.pulse_time, config.wait_time, config.drive_frequency
        )

    def _holds(self, spins: np.ndarray) -> bool:
        return self._spins is not None and np.array_equal(self._spins, spins)

    def table(self, spins: np.ndarray, configs: list) -> np.ndarray:
        """(len(configs), K) survival table over the (K, 5) spin block.

        Only shapes not yet held for this spin block are simulated, in one
        :func:`qutrit.survival_table` call; a new spin block drops every row.
        """
        if not self._holds(spins):
            self._spins = np.array(spins)
            self._rows = {}
        missing = {
            self._shape(c): c for c in configs if self._shape(c) not in self._rows
        }
        if missing:
            fresh = qutrit.survival_table(spins, list(missing.values()))
            fresh.setflags(write=False)  # rows are handed out as views
            self._rows.update(zip(missing, fresh))
        return np.stack([self._rows[self._shape(c)] for c in configs])

    def lookup(self, spins: np.ndarray, config: ExperimentConfig):
        """Cached survival row of this pulse shape over the (K, 5) spin
        block, or None."""
        if not self._holds(spins):
            return None
        return self._rows.get(self._shape(config))


@dataclass
class Heuristic:
    """Base policy: grids, ESM targeting, and the shared config plumbing.

    Every policy takes the same grid sizes, so one registry can size them
    all; Ramsey sweeps use only the Ramsey grid.  ``cache`` holds the
    survival rows the policy simulated, for the Bayes update to read back.
    """

    name: str = "base"
    target_esm: float = DEFAULT_TARGET_ESM
    n_max: int = DEFAULT_N_MAX
    drive_frequency: float = qutrit.ZFS_MHZ
    rabi_t_max: float = 500.0
    rabi_m: int = 100
    ramsey_t_max: float = 2000.0
    ramsey_m: int = 100
    cache: SurvivalTableCache = field(default_factory=SurvivalTableCache)

    def next_experiment(
        self, cloud: ParticleCloud, step: int, rng: np.random.Generator
    ) -> ExperimentConfig:
        config = self._pick(cloud, step, rng)
        n = _repetitions_for(cloud, self.target_esm, self.n_max)
        return ExperimentConfig(
            kind=config.kind,
            pulse_time=config.pulse_time,
            wait_time=config.wait_time,
            drive_frequency=config.drive_frequency,
            repetitions=n,
        )

    def rabi_grid(self) -> list:
        return experiment_set_rabi(self.rabi_t_max, self.rabi_m, self.drive_frequency)

    def ramsey_grid(self, cloud: ParticleCloud) -> list:
        """Ramsey grid at the cloud's current best tip time."""
        return experiment_set_ramsey(
            best_tip_time(cloud), self.ramsey_t_max, self.ramsey_m, self.drive_frequency
        )

    def _pick(self, cloud, step, rng) -> ExperimentConfig:
        raise NotImplementedError


@dataclass
class AlternatingLinear(Heuristic):
    """Offline alternation between a Rabi sweep and a Ramsey sweep.

    Even steps take the next Rabi pulse time, odd steps the next Ramsey wait
    time; each family advances through its grid and wraps around.  The Ramsey
    pulse time follows the current best tip time.
    """

    name: str = "alternating_linear"

    def _pick(self, cloud, step, rng):
        cursor = step // 2
        if step % 2 == 0:
            return self.rabi_grid()[cursor % self.rabi_m]
        return self.ramsey_grid(cloud)[cursor % self.ramsey_m]


@dataclass
class RamseySweeps(Heuristic):
    """Offline back-to-back sweeps through one Ramsey wait-time grid."""

    name: str = "ramsey_sweeps"

    def _pick(self, cloud, step, rng):
        return self.ramsey_grid(cloud)[step % self.ramsey_m]


@dataclass
class RiskMinimizer(Heuristic):
    """Online policy: pick the candidate minimizing the MIS Bayes risk.

    Candidates are the union of the Rabi grid and the Ramsey grid built at
    the current best tip time.  Reliable estimates (few dropped MIS
    outcomes) rank ahead of unreliable ones; ties break toward the shortest
    total evolution time, then the lowest candidate index.
    """

    name: str = "risk"
    weights: np.ndarray = field(default_factory=risk.uniform_weight_matrix)
    n_outcomes: int = 512
    n_particles: int = 1024
    last_profile: list = field(default=None, repr=False)

    def candidate_set(self, cloud: ParticleCloud) -> list:
        return self.rabi_grid() + self.ramsey_grid(cloud)

    def sized_candidates(self, cloud: ParticleCloud) -> list:
        """The candidates at the repetition count the next experiment gets."""
        n = _repetitions_for(cloud, self.target_esm, self.n_max)
        return [
            ExperimentConfig(c.kind, c.pulse_time, c.wait_time, c.drive_frequency, n)
            for c in self.candidate_set(cloud)
        ]

    def _pick(self, cloud, step, rng):
        sized = self.sized_candidates(cloud)
        profile = risk.risk_profile(
            cloud,
            sized,
            self.weights,
            rng,
            n_outcomes=self.n_outcomes,
            n_particles=self.n_particles,
            p_table=self.cache.table(cloud.spin_locations, sized),
        )
        self.last_profile = profile
        best = min(
            range(len(profile)),
            key=lambda i: (
                not profile[i][1].reliable,
                profile[i][1].value,
                profile[i][0].evolution_time,
                i,
            ),
        )
        return profile[best][0]


def uniform_risk_heuristic(**kwargs) -> RiskMinimizer:
    return RiskMinimizer(
        name="uniform_risk", weights=risk.uniform_weight_matrix(), **kwargs
    )


def magnetometry_risk_heuristic(**kwargs) -> RiskMinimizer:
    return RiskMinimizer(
        name="magnetometry_risk", weights=risk.magnetometry_weight_matrix(), **kwargs
    )


# the online policies, which also take ``n_outcomes`` and ``n_particles``
RISK_HEURISTICS = {
    "uniform_risk": uniform_risk_heuristic,
    "magnetometry_risk": magnetometry_risk_heuristic,
}
HEURISTIC_FACTORIES = {
    "alternating_linear": AlternatingLinear,
    "ramsey_sweeps": RamseySweeps,
    **RISK_HEURISTICS,
}


def make_heuristic(name: str, **kwargs) -> Heuristic:
    """The named policy; keyword arguments set its fields (grid sizes,
    ESM target, and for the online policies the MIS sizes)."""
    try:
        factory = HEURISTIC_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown heuristic {name!r}; choose from {sorted(HEURISTIC_FACTORIES)}"
        ) from None
    return factory(**kwargs)
