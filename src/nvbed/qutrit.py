"""Spin-1 simulation of the NV ground-state manifold under bang-bang microwave control.

The electron spin is driven in the rotating frame of the applied microwave
frequency; the static nitrogen-14 enters only through its projection mI,
so a hypothesis is simulated as three independent 3-level systems (one per
mI branch) and the survival probability is their uniform average.

Unit convention, applied in exactly one place (``build_hamiltonian`` and the
dephasing entry of ``lindblad_generator``, mirrored coefficient by
coefficient in ``_real_generators``):

* frequencies in MHz, dephasing rates in 1/us,
* times in ns,
* generators therefore in rad/ns (a factor ``2*pi*1e-3`` on Hamiltonian
  coefficients) and 1/ns (a factor ``1e-3`` on dephasing, no ``2*pi``),

so that ``exp(duration_ns * generator)`` needs no further conversion.

Superoperators use the column-stacking convention: ``vec(rho)[3*c + r]``
holds ``rho[r, c]``, and ``vec(A @ X @ B) == kron(B.T, A) @ vec(X)``.
Basis ordering is (|+1>, |0>, |-1>), so the |0><0| population sits at
vectorized index 4.

Propagators are computed in a real basis.  The generator maps Hermitian
operators to Hermitian operators, so in the orthonormal Hermitian operator
basis B_a (the three diagonal units |i><i|, then (|i><j| + |j><i|)/sqrt(2)
and i(|i><j| - |j><i|)/sqrt(2) for i < j) it is a real 9x9 matrix
R = U^H L U, where the columns of the unitary U are vec(B_a).  Hence
exp(t L) = U exp(t R) U^H, and since |0><0| is itself basis element 1, the
survival probability of a pulse is exp(t R)[1, 1].  :func:`expm` is the one
exponential every path uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ZFS_MHZ = 2870.0  # nominal zero-field splitting; zfs_offset is relative to this
# largest repetition count a configuration holds: every count up to it is an
# exact float, and at per-shot rates below 1000 its Poisson rates stay below
# numpy's limit of about 9.2e18
MAX_REPETITIONS = 2**53

# MHz -> rad/ns and (1/us) -> (1/ns)
_ANGULAR = 2.0 * math.pi * 1e-3
_RATE = 1e-3

SZ = np.diag([1.0, 0.0, -1.0]).astype(complex)
SZ2 = SZ @ SZ
SX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / math.sqrt(2.0)
_I3 = np.eye(3, dtype=complex)

_MI_BRANCHES = (-1, 0, 1)

# diagonal dephasing profile: -(m_r - m_c)^2 / 2 at vec index 3*c + r
_M = np.array([1.0, 0.0, -1.0])
_DEPHASING_DIAG = np.array(
    [-0.5 * (_M[k % 3] - _M[k // 3]) ** 2 for k in range(9)]
)


def _hermitian_basis() -> np.ndarray:
    """Unitary whose columns are vec(B_a) of the real basis (module docstring)."""
    elements = []
    for i in range(3):
        b = np.zeros((3, 3), dtype=complex)
        b[i, i] = 1.0
        elements.append(b)
    pairs = ((0, 1), (0, 2), (1, 2))
    for phase in (1.0, 1j):
        for i, j in pairs:
            b = np.zeros((3, 3), dtype=complex)
            b[i, j] = phase / math.sqrt(2.0)
            b[j, i] = np.conj(phase) / math.sqrt(2.0)
            elements.append(b)
    return np.column_stack([b.flatten(order="F") for b in elements])


_U = _hermitian_basis()
_UH = _U.conj().T
# real-basis index of |0><0|; row 4 of U (its vec index) is the unit vector
# there, so P[4, :] = P_real[1, :] U^H and P[:, 4] = U P_real[:, 1]
_P0_REAL = 1


def _real_image(superop: np.ndarray) -> np.ndarray:
    """U^H S U for a Hermiticity-preserving superoperator S; real up to roundoff."""
    return (_UH @ superop @ _U).real


def _coherent(h: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> -i [h, rho]."""
    return -1j * (np.kron(_I3, h) - np.kron(h.conj(), _I3))


# Real images of the generator's four terms, one row each:
# detuning * Sz^2, axial * Sz, drive * Sx (all rad/ns) and the dephasing
# rate (1/ns).  A generator is its (4,) coefficient vector times this.
_R_TERMS = np.stack(
    [
        _real_image(_coherent(SZ2)),
        _real_image(_coherent(SZ)),
        _real_image(_coherent(SX)),
        _real_image(np.diag(_DEPHASING_DIAG)),
    ]
).reshape(4, 81)

# Taylor coefficients 1/k! of the degree-16 polynomial that expm evaluates on
# matrices scaled to 1-norm <= _THETA, where the remainder
# _THETA^17 / 17! is below 5e-17, under double-precision roundoff
_TAYLOR = [1.0 / math.factorial(k) for k in range(17)]
_THETA = 0.78
# matrices per evaluation block, so that the polynomial's work arrays stay
# small and cache-resident whatever the stack size
_EXPM_BLOCK = 1024


class SimulationAccuracyError(RuntimeError):
    """A computed probability left [0, 1] by more than roundoff allows."""


@dataclass(frozen=True)
class SpinParams:
    """Hamiltonian and decoherence coefficients of one hypothesis.

    rabi_max, zeeman, zfs_offset and hyperfine are in MHz (zfs_offset is the
    deviation from the 2870 MHz zero-field splitting); dephasing_rate is
    1/T2* in 1/us.
    """

    rabi_max: float
    zeeman: float
    zfs_offset: float
    hyperfine: float
    dephasing_rate: float

    def __post_init__(self):
        values = (
            self.rabi_max,
            self.zeeman,
            self.zfs_offset,
            self.hyperfine,
            self.dephasing_rate,
        )
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"spin parameters must be finite, got {values}")
        if self.rabi_max < 0:
            raise ValueError(f"rabi_max must be >= 0, got {self.rabi_max}")
        if self.dephasing_rate < 0:
            raise ValueError(
                f"dephasing_rate must be >= 0, got {self.dephasing_rate}"
            )

    def as_array(self) -> np.ndarray:
        return np.array(
            [
                self.rabi_max,
                self.zeeman,
                self.zfs_offset,
                self.hyperfine,
                self.dephasing_rate,
            ]
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """A Rabi or Ramsey pulse description plus its repetition count.

    Times are in ns, the drive frequency in MHz.  Rabi experiments apply a
    single resonant pulse of length ``pulse_time``; Ramsey experiments apply
    pulse - wait - pulse with amplitudes (1, 0, 1).
    """

    kind: str  # "rabi" | "ramsey"
    pulse_time: float
    wait_time: float = 0.0
    drive_frequency: float = ZFS_MHZ
    repetitions: int = 1

    def __post_init__(self):
        if self.kind not in ("rabi", "ramsey"):
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        timing = (self.pulse_time, self.wait_time, self.drive_frequency)
        if not all(math.isfinite(v) for v in timing):
            raise ValueError(f"times and drive frequency must be finite, got {timing}")
        if not self.pulse_time > 0:
            raise ValueError(f"pulse_time must be positive, got {self.pulse_time}")
        if self.wait_time < 0:
            raise ValueError(f"wait_time must be >= 0, got {self.wait_time}")
        if self.kind == "rabi" and self.wait_time != 0:
            raise ValueError("Rabi experiments have no wait segment")
        if not 1 <= self.repetitions <= MAX_REPETITIONS:
            raise ValueError(
                f"repetitions must be in [1, 2**53], got {self.repetitions}"
            )

    @property
    def evolution_time(self) -> float:
        """Total microwave-sequence duration in ns."""
        if self.kind == "rabi":
            return self.pulse_time
        return 2.0 * self.pulse_time + self.wait_time

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "pulse_time": self.pulse_time,
            "wait_time": self.wait_time,
            "drive_frequency": self.drive_frequency,
            "repetitions": self.repetitions,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        return cls(
            kind=d["kind"],
            pulse_time=float(d["pulse_time"]),
            wait_time=float(d.get("wait_time", 0.0)),
            drive_frequency=float(d.get("drive_frequency", ZFS_MHZ)),
            repetitions=int(d.get("repetitions", 1)),
        )


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

    Computed as U expm(duration * R) U^H with R the generator's real image.
    """
    if duration < 0:
        raise ValueError(f"duration must be >= 0, got {duration}")
    real = _real_image(lindblad_generator(params, drive_freq, nitrogen_mi, amplitude))
    return _U @ expm(duration * real[None])[0] @ _UH


def _taylor_exp(x: np.ndarray) -> np.ndarray:
    """Degree-16 Taylor polynomial of exp at each matrix of the (m, n, n)
    stack ``x``, in Paterson-Stockmeyer form: p = B0 + X4 (B1 + X4 (B2 +
    X4 (B3 + c16 X4))) with Bi = c(4i) + ... + c(4i+3) X^3, six products."""
    c = _TAYLOR
    x2 = x @ x
    x3 = x2 @ x
    x4 = x2 @ x2

    def part(k):
        out = c[k + 1] * x + c[k + 2] * x2
        out += c[k + 3] * x3
        out.reshape(len(x), -1)[:, :: x.shape[-1] + 1] += c[k]
        return out

    acc = part(12)
    acc += c[16] * x4
    for k in (8, 4, 0):
        acc = x4 @ acc
        acc += part(k)
    return acc


def expm(stack: np.ndarray) -> np.ndarray:
    """Matrix exponential of every matrix in a real (..., n, n) stack.

    Scaling and squaring: each matrix is scaled by 2^-s to 1-norm at most
    ``_THETA``, its degree-16 Taylor polynomial is evaluated, and the result
    is squared s times.  s is chosen per matrix; matrices are sorted by s so
    that every squaring round acts on a leading slice of a block.
    """
    a = np.asarray(stack, dtype=float)
    n = a.shape[-1]
    flat = a.reshape(-1, n, n)
    norms = np.abs(flat).sum(axis=1).max(axis=1)
    squarings = np.ceil(np.log2(np.maximum(norms / _THETA, 1.0))).astype(np.intp)
    order = None
    if len(flat) and squarings.min() != squarings.max():
        order = np.argsort(-squarings, kind="stable")
        squarings = squarings[order]
    out = np.empty(flat.shape)
    for lo in range(0, len(flat), _EXPM_BLOCK):
        rows = slice(lo, lo + _EXPM_BLOCK)
        s = squarings[rows]
        block = flat[rows] if order is None else flat[order[rows]]
        prop = _taylor_exp(block * np.ldexp(1.0, -s)[:, None, None])
        for j in range(int(s[0])):
            m = int(np.count_nonzero(s > j))
            prop[:m] = prop[:m] @ prop[:m]
        if order is None:
            out[rows] = prop
        else:
            out[order[rows]] = prop
    return out.reshape(a.shape)


def _clamp_probability(p, context: str):
    """Clamp to [0, 1]; excursions beyond roundoff indicate an integration bug."""
    p = np.asarray(p)
    excess = max(float(np.max(p - 1.0, initial=0.0)), float(np.max(-p, initial=0.0)))
    if not excess <= 1e-6:  # a nan entry makes the excess nan
        raise SimulationAccuracyError(
            f"{context}: probability left [0, 1] by {excess:.3e}"
        )
    return np.clip(p, 0.0, 1.0)


def survival_probability(params: SpinParams, config: ExperimentConfig) -> float:
    """Probability of finding the electron back in |0> after the sequence,
    averaged uniformly over the three static nitrogen projections."""
    return float(survival_table(params.as_array()[None, :], [config])[0, 0])


# ----------------------------------------------------------------------------
# Batched evaluation over many hypotheses.
#
# The particle filter needs p(x, e) for thousands of hypotheses at once, and
# the risk-based design heuristics need it for every candidate in a grid of
# configurations.  Every pulse propagator is one call of ``expm`` on the
# stack of real-basis generators of all hypotheses and mI branches, built
# directly from the four precomputed real images ``_R_TERMS``.  The
# structured grids of the design heuristics admit two fast paths:
#   * a Rabi family on an arithmetic pulse-time grid composes powers of the
#     single-step propagator, applied to the real |0><0| state, and
#   * Ramsey wait segments have a diagonal generator in the column-stacking
#     basis.  Its three population entries have eigenvalue 0, and each of
#     the other six pairs with its complex conjugate, in eigenvalue and in
#     weight, so the wait-time curve of a hypothesis is a constant plus the
#     real part of a 3-term complex exponential sum.  On an arithmetic wait
#     grid each term advances by one complex multiply per step.
# ----------------------------------------------------------------------------


def _real_generators(
    spins: np.ndarray, drive_freq: float, amplitude: float, duration: float
) -> np.ndarray:
    """duration times the real-basis generators of all hypotheses and mI
    branches, shape (3K, 9, 9), branch-major.

    ``spins`` is (K, 5) with columns (rabi_max, zeeman, zfs_offset,
    hyperfine, dephasing_rate).
    """
    k = spins.shape[0]
    coeffs = np.empty((3, k, 4))
    coeffs[:, :, 0] = _ANGULAR * (spins[:, 2] + ZFS_MHZ - drive_freq)
    coeffs[:, :, 1] = _ANGULAR * (
        spins[:, 1] + np.multiply.outer(_MI_BRANCHES, spins[:, 3])
    )
    coeffs[:, :, 2] = _ANGULAR * amplitude * spins[:, 0]
    coeffs[:, :, 3] = _RATE * spins[:, 4]
    coeffs *= duration
    return (coeffs.reshape(3 * k, 4) @ _R_TERMS).reshape(3 * k, 9, 9)


def _wait_eigenvalues(spins: np.ndarray, drive_freq: float) -> np.ndarray:
    """Diagonal of the zero-amplitude generator, shape (3, K, 9), in 1/ns."""
    spins = np.atleast_2d(np.asarray(spins, dtype=float))
    k = spins.shape[0]
    detuning = _ANGULAR * (spins[:, 2] + ZFS_MHZ - drive_freq)
    gamma = _RATE * spins[:, 4]
    out = np.zeros((3, k, 9), dtype=complex)
    m_r = _M[np.arange(9) % 3]
    m_c = _M[np.arange(9) // 3]
    for b, mi in enumerate(_MI_BRANCHES):
        axial = _ANGULAR * (spins[:, 1] + spins[:, 3] * mi)
        h_r = detuning[:, None] * m_r[None, :] ** 2 + axial[:, None] * m_r[None, :]
        h_c = detuning[:, None] * m_c[None, :] ** 2 + axial[:, None] * m_c[None, :]
        out[b] = -1j * (h_r - h_c) + gamma[:, None] * _DEPHASING_DIAG[None, :]
    return out


def _arithmetic_step(times: np.ndarray):
    """If the n times are positive integer multiples of the smallest one, none
    beyond 4 n + 64 of it, return (step, rows), where ``rows`` maps each
    multiple to the indices of the times at it; otherwise None."""
    step = float(np.min(times))
    if step <= 0:
        return None
    mult = times / step
    rounded = np.rint(mult)
    if np.max(np.abs(mult - rounded)) > 1e-9 or np.max(rounded) > 4 * len(times) + 64:
        return None
    rows: dict = {}
    for i, m in enumerate(rounded.astype(int)):
        rows.setdefault(int(m), []).append(i)
    return step, rows


def _survival_rabi_family(
    spins: np.ndarray, pulse_times: np.ndarray, drive_freq: float
) -> np.ndarray:
    """Survival probabilities for a family of Rabi pulse times, (n_times, K)."""
    k = spins.shape[0]
    out = np.empty((len(pulse_times), 3 * k))
    arith = _arithmetic_step(np.asarray(pulse_times, dtype=float))
    if arith is not None:
        step, rows = arith
        prop = expm(_real_generators(spins, drive_freq, 1.0, step))
        state = prop[:, :, _P0_REAL, None]
        for power in range(1, max(rows) + 1):
            if power > 1:
                state = prop @ state
            if power in rows:
                out[rows[power]] = state[:, _P0_REAL, 0]
    else:
        for i, t_p in enumerate(pulse_times):
            prop = expm(_real_generators(spins, drive_freq, 1.0, float(t_p)))
            out[i] = prop[:, _P0_REAL, _P0_REAL]
    return out.reshape(len(pulse_times), 3, k).mean(axis=1)


# vec indices of the populations |i><i| and of three coherences whose
# conjugate partners (vec 1, 2 and 5) complete the wait generator's diagonal
_POPULATIONS = [0, 4, 8]
_COHERENCES = [3, 6, 7]


def _ramsey_weights(
    spins: np.ndarray, pulse_time: float, drive_freq: float
) -> np.ndarray:
    """w_j = P[4, j] * P[j, 4] of each hypothesis's pulse propagator P,
    shape (3K, 9), branch-major.  Only row and column 4 of
    P = U P_real U^H are formed, from row and column 1 of P_real."""
    pulse = expm(_real_generators(spins, drive_freq, 1.0, float(pulse_time)))
    return (pulse[:, _P0_REAL, :] @ _UH) * (pulse[:, :, _P0_REAL] @ _U.T)


def _survival_ramsey_family(
    spins: np.ndarray, pulse_time: float, wait_times: np.ndarray, drive_freq: float
) -> np.ndarray:
    """Survival probabilities for a family of Ramsey wait times at a fixed
    pulse time, (n_waits, K).

    With W(t) = exp(lambda * t) the diagonal wait propagator,
    p(t) = sum_j w_j W_j(t) = c + Re sum_{j in 3, 6, 7} 2 w_j exp(lambda_j t),
    where c sums the population weights (lambda = 0).  On an arithmetic wait
    grid exp(lambda_j * m * step) is z_j^m with z_j = exp(lambda_j * step).
    """
    k = spins.shape[0]
    weights = _ramsey_weights(spins, pulse_time, drive_freq)
    const = weights[:, _POPULATIONS].real.sum(axis=1)
    terms = 2.0 * weights[:, _COHERENCES]
    lam = _wait_eigenvalues(spins, drive_freq).reshape(3 * k, 9)[:, _COHERENCES]
    out = np.empty((len(wait_times), 3 * k))
    arith = _arithmetic_step(np.asarray(wait_times, dtype=float))
    if arith is not None:
        step, rows = arith
        z = np.exp(lam * step)
        for power in range(1, max(rows) + 1):
            terms *= z
            if power in rows:
                out[rows[power]] = const + terms.real.sum(axis=1)
    else:
        for i, t_w in enumerate(wait_times):
            out[i] = const + (terms * np.exp(lam * float(t_w))).real.sum(axis=1)
    return out.reshape(len(wait_times), 3, k).mean(axis=1)


def survival_table(spins: np.ndarray, configs: list) -> np.ndarray:
    """Survival probabilities for every (config, hypothesis) pair.

    ``spins`` is (K, 5); returns (len(configs), K).  Configurations are
    grouped into Rabi families by drive frequency and Ramsey families by
    (pulse_time, drive frequency) so the grid fast paths apply.
    """
    spins = np.atleast_2d(np.asarray(spins, dtype=float))
    out = np.empty((len(configs), spins.shape[0]))
    groups: dict = {}
    for idx, cfg in enumerate(configs):
        if cfg.kind == "rabi":
            key = ("rabi", cfg.drive_frequency)
        else:
            key = ("ramsey", cfg.pulse_time, cfg.drive_frequency)
        groups.setdefault(key, []).append(idx)
    for key, indices in groups.items():
        if key[0] == "rabi":
            times = np.array([configs[i].pulse_time for i in indices])
            table = _survival_rabi_family(spins, times, key[1])
        else:
            times = np.array([configs[i].wait_time for i in indices])
            table = _survival_ramsey_family(spins, key[1], times, key[2])
        out[indices] = table
    return _clamp_probability(out, "survival_table")


def survival_probabilities(spins: np.ndarray, config: ExperimentConfig) -> np.ndarray:
    """Survival probability of a single configuration for each hypothesis row."""
    return survival_table(spins, [config])[0]
