"""Experiment-design policies for the heuristic comparison.

``POLICIES`` maps each name to its policy class.  Two offline policies sweep
fixed grids (alternating Rabi/Ramsey, and back-to-back Ramsey sweeps); two
online policies pick the candidate that minimizes the sampled Bayes risk
under their class's uniform or magnetometry weight matrix.  All policies choose the repetition count so that the
expected ESM of the next datum hits one common target, ``TARGET_ESM``, which
keeps heuristics comparable independent of reference brightness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import qutrit, risk, smc
from .measurement import ReferenceRates, choose_repetitions
from .qutrit import ExperimentConfig
from .smc import IDX_RABI, ParticleCloud, PriorSpec

# expected ESM each experiment aims at, and the cap on its repetition count
TARGET_ESM = 20.0
N_MAX = 1_000_000
# longest Rabi pulse and longest Ramsey wait (ns) of the grids
RABI_T_MAX = 500.0
RAMSEY_T_MAX = 2000.0


def experiment_set_rabi(t_max: float, m: int) -> list:
    """Rabi configurations with pulse times t_max/m, 2*t_max/m, ..., t_max."""
    if m < 1:
        raise ValueError("m must be >= 1")
    step = t_max / m
    return [ExperimentConfig("rabi", pulse_time=step * k) for k in range(1, m + 1)]


def experiment_set_ramsey(t_p: float, t_max: float, m: int) -> list:
    """Ramsey configurations with wait times t_max/m, ..., t_max at fixed t_p."""
    if m < 1:
        raise ValueError("m must be >= 1")
    step = t_max / m
    return [
        ExperimentConfig("ramsey", pulse_time=t_p, wait_time=step * k)
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


def _repetitions_for(cloud: ParticleCloud) -> int:
    a1, b1, sa1, sb1 = smc.posterior_refs(cloud)
    if not 0.0 < b1 < a1:
        return N_MAX
    n, _ = choose_repetitions(ReferenceRates(a1, b1), (sa1, sb1), TARGET_ESM, N_MAX)
    return n


class SurvivalTableCache:
    """Survival entries of one spin block, held by (pulse shape, particle).

    A survival entry is a pure function of one particle's five spin columns
    and the pulse shape (``ExperimentConfig.shape``).  The cache keeps a
    copy of the spin block its entries belong to, and an entry is valid
    exactly while the caller's spin columns equal that copy, so clouds that
    share a lineage, a copy or nothing at all never see each other's
    entries.  Each pulse shape has one row over the spin block, nan wherever
    no entry is held; the kernel never returns nan
    (``qutrit._clamp_probability`` raises on it), so nan marks exactly the
    entries not yet simulated.  Design fills the cache through
    :meth:`table`, at the particles its draws read; the Bayes update takes
    the executed configuration's whole row through :meth:`row`, which
    simulates only the entries design left out.  :meth:`lookup` is a pure
    read that answers only for a whole row.
    """

    def __init__(self):
        self._spins = None
        self._rows = {}  # shape -> row over the spin block, nan where not held

    def _holds(self, spins: np.ndarray) -> bool:
        return self._spins is not None and np.array_equal(self._spins, spins)

    def _fill(self, spins: np.ndarray, configs: list, at) -> np.ndarray:
        """The rows of ``configs`` at the particles ``at``, after one
        :func:`qutrit.survival_table` call has simulated every entry they lack,
        over the shapes that lack any and the particles that any lacks."""
        if not self._holds(spins):
            self._spins = np.array(spins)
            self._rows = {}
        k = len(self._spins)
        for c in configs:
            if c.shape not in self._rows:
                self._rows[c.shape] = np.full(k, np.nan)
        rows = [self._rows[c.shape] for c in configs]
        table = np.stack([row[at] for row in rows])
        lacks = np.isnan(table)
        missing = {c.shape: c for c, m in zip(configs, lacks.any(axis=1)) if m}
        if missing:
            lacking = np.zeros(k, dtype=bool)
            lacking[at] = lacks.any(axis=0)  # a repeated particle lacks alike
            cols = np.flatnonzero(lacking)
            fresh = qutrit.survival_table(self._spins[cols], list(missing.values()))
            for shape, values in zip(missing, fresh):
                had = self._rows[shape][cols]
                self._rows[shape][cols] = np.where(np.isnan(had), values, had)
            table = np.stack([row[at] for row in rows])
        return table

    def table(self, spins: np.ndarray, configs: list, particles) -> np.ndarray:
        """(len(configs), len(particles)) survival table over the (K, 5) spin
        block, at the particle indices ``particles``, ``np.arange(K)`` for all.

        Only entries not yet held for this spin block are simulated; a new
        spin block drops every entry.
        """
        return self._fill(spins, configs, np.asarray(particles, dtype=np.intp))

    def lookup(self, spins: np.ndarray, config: ExperimentConfig):
        """Survival row of this pulse shape over the (K, 5) spin block, read
        only, if every particle's entry is held; otherwise None."""
        row = self._rows.get(config.shape) if self._holds(spins) else None
        if row is None or np.isnan(row).any():
            return None
        view = row.view()
        view.setflags(write=False)
        return view

    def row(self, spins: np.ndarray, config: ExperimentConfig) -> np.ndarray:
        """The whole survival row, read only: :meth:`lookup`'s row, or, when
        that misses, the row after one simulation of the entries not held."""
        whole = self.lookup(spins, config)
        if whole is None:
            whole = self._fill(spins, [config], slice(None))[0]
            whole.setflags(write=False)
        return whole


@dataclass
class Heuristic:
    """Base policy: grids, ESM targeting, and the shared config plumbing.

    Every policy takes the same grid sizes, so one registry can size them
    all; Ramsey sweeps use only the Ramsey grid.  Grids are driven at
    ``qutrit.ZFS_MHZ``.  ``cache`` is the one store of survival entries that
    design and update share: the online policies fill it, and the harness
    hands its :meth:`SurvivalTableCache.row` to :func:`smc.bayes_update`,
    which completes the executed configuration's row from it.
    """

    rabi_m: int = 100
    ramsey_m: int = 100
    cache: SurvivalTableCache = field(default_factory=SurvivalTableCache, init=False)

    def next_experiment(
        self, cloud: ParticleCloud, step: int, rng: np.random.Generator
    ) -> ExperimentConfig:
        """The next pulse, at the repetition count that meets ``TARGET_ESM``."""
        n = _repetitions_for(cloud)
        return replace(self._pick(cloud, step, rng, n), repetitions=n)

    def rabi_grid(self) -> list:
        return experiment_set_rabi(RABI_T_MAX, self.rabi_m)

    def ramsey_grid(self, cloud: ParticleCloud) -> list:
        """Ramsey grid at the cloud's current best tip time."""
        return experiment_set_ramsey(best_tip_time(cloud), RAMSEY_T_MAX, self.ramsey_m)

    def _pick(self, cloud, step, rng, repetitions) -> ExperimentConfig:
        """The next experiment, to run ``repetitions`` times."""
        raise NotImplementedError


class AlternatingLinear(Heuristic):
    """Offline alternation between a Rabi sweep and a Ramsey sweep.

    Even steps take the next Rabi pulse time, odd steps the next Ramsey wait
    time; each family advances through its grid and wraps around.  The Ramsey
    pulse time follows the current best tip time.
    """

    def _pick(self, cloud, step, rng, repetitions):
        cursor = step // 2
        if step % 2 == 0:
            return self.rabi_grid()[cursor % self.rabi_m]
        return self.ramsey_grid(cloud)[cursor % self.ramsey_m]


class RamseySweeps(Heuristic):
    """Offline back-to-back sweeps through one Ramsey wait-time grid."""

    def _pick(self, cloud, step, rng, repetitions):
        return self.ramsey_grid(cloud)[step % self.ramsey_m]


@dataclass
class RiskMinimizer(Heuristic):
    """Online policy: pick the candidate minimizing the MIS Bayes risk.

    Candidates are the union of the Rabi grid and the Ramsey grid built at
    the current best tip time.  :func:`nvbed.risk.screened_profile` runs
    two stages, each one :func:`nvbed.risk.risk_profile` on its own shared
    draws: a cheap screen of them all, then the survivors (those the leader
    has not beaten by ``risk.SCREEN_SPREAD`` paired standard errors) at
    ``n_outcomes`` x ``n_particles``.  It picks the best survivor by
    :func:`nvbed.risk.rank`: reliable estimates rank ahead of unreliable
    ones; ties break toward the shortest total evolution time, then the
    lowest candidate index.  Sizes too small for the screen
    (``risk.SCREEN_MIN``) skip it, and every candidate survives.
    ``last_profile`` lists every candidate with its full or, for the
    screened-out, its screen estimate.

    The profile asks ``cache`` for survival rows after each of its draws,
    and only at the particles those draws read: every candidate at the
    screen's, then the survivors at the full-size draws'.  The cache
    simulates only the entries it does not hold, so a design simulates a
    few hundred of a paper-scale cloud's particles for most candidates, and
    the update later completes just the executed configuration's row.
    """

    # the five spin parameters weighed alike; every instance shares it
    weights = risk.uniform_weight_matrix()
    n_outcomes: int = 512
    n_particles: int = 1024
    last_profile: list = field(default=None, init=False, repr=False)

    def candidate_set(self, cloud: ParticleCloud, repetitions: int) -> list:
        """The Rabi and Ramsey grids, each candidate at ``repetitions``."""
        return [
            replace(c, repetitions=repetitions)
            for c in self.rabi_grid() + self.ramsey_grid(cloud)
        ]

    def _pick(self, cloud, step, rng, repetitions):
        sized = self.candidate_set(cloud, repetitions)
        profile, best = risk.screened_profile(
            cloud,
            sized,
            self.weights,
            rng,
            n_outcomes=self.n_outcomes,
            n_particles=self.n_particles,
            p_table=partial(self.cache.table, cloud.spin_locations),
        )
        self.last_profile = profile
        return profile[best][0]


class MagnetometryRisk(RiskMinimizer):
    """Online policy whose Bayes risk weighs only the Zeeman splitting."""

    weights = risk.magnetometry_weight_matrix()


for _shared in (RiskMinimizer.weights, MagnetometryRisk.weights):
    _shared.setflags(write=False)

# every policy by name; the online ones are the RiskMinimizer classes
POLICIES = {
    "alternating_linear": AlternatingLinear,
    "ramsey_sweeps": RamseySweeps,
    "uniform_risk": RiskMinimizer,
    "magnetometry_risk": MagnetometryRisk,
}


def make_heuristic(name: str, **sizes) -> Heuristic:
    """The named policy of ``POLICIES``; keywords set its sizes (grid sizes,
    and for the online policies the MIS sizes)."""
    try:
        policy = POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown heuristic {name!r}; choose from {sorted(POLICIES)}"
        ) from None
    return policy(**sizes)
