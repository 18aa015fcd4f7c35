"""Spin-1 simulation of the NV ground-state manifold under bang-bang microwave control.

The electron spin is driven in the rotating frame of the applied microwave
frequency; the static nitrogen-14 enters only through its projection mI,
so a hypothesis is simulated as three independent 3-level systems (one per
mI branch) and the survival probability is their uniform average.

Unit convention, applied where the runtime builds its generators
(``_real_generators`` for pulses, ``_wait_eigenvalues`` for the diagonal
wait generator) and mirrored coefficient by coefficient by the Hamiltonian
and Lindblad-generator oracles of the tests:

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
operators to Hermitian operators, so in an orthonormal Hermitian operator
basis B_a it is a real 9x9 matrix R = U^H L U, where the columns of the
unitary U are vec(B_a).  The basis is B_0 = I/sqrt(3), the traceless
diagonals diag(1, 0, -1)/sqrt(2) and B_2 = diag(1, -2, 1)/sqrt(6), then
(|i><j| + |j><i|)/sqrt(2) and i(|i><j| - |j><i|)/sqrt(2) for i < j.  Both
terms of the generator preserve the trace and annihilate the identity, so
row 0 and column 0 of R vanish: R = 0 (+) R8, and
exp(t L) = U (1 (+) exp(t R8)) U^H.  Every pulse is therefore an 8x8
exponential of the traceless block R8.  Since
|0><0| = B_0/sqrt(3) - 2 B_2/sqrt(6), the survival probability of a pulse
is 1/3 + (2/3) exp(t R8)[d, d], with d the block index of B_2.
:func:`expm` is the one exponential every path uses.
"""

from __future__ import annotations

import math
import mmap
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

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
    elements = [
        np.eye(3) / math.sqrt(3.0),
        np.diag([1.0, 0.0, -1.0]) / math.sqrt(2.0),
        np.diag([1.0, -2.0, 1.0]) / math.sqrt(6.0),
    ]
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
# |0><0| = B_0/sqrt(3) - 2 B_2/sqrt(6): its coefficients on the identity and
# on B_2, which is index _D of the traceless block.  They are also row 4 of U
# (the vec index of |0><0|), the only nonzero entries there.
_P0_I = 1.0 / math.sqrt(3.0)
_P0_D = -2.0 / math.sqrt(6.0)
_D = 1


def _real_image(superop: np.ndarray) -> np.ndarray:
    """U^H S U for a Hermiticity-preserving superoperator S; real up to roundoff."""
    return (_UH @ superop @ _U).real


def _coherent(h: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> -i [h, rho]."""
    return -1j * (np.kron(_I3, h) - np.kron(h.conj(), _I3))


# Traceless blocks of the real images of the generator's four terms, one
# row each: detuning * Sz^2, axial * Sz, drive * Sx (all rad/ns) and the
# dephasing rate (1/ns).  A generator's block R8 is its (4,) coefficient
# vector times this.  Row and column 0 of each 9x9 image vanish (the trace
# is preserved and the identity annihilated), so dropping them is exact.
_R_TERMS = np.stack(
    [
        _real_image(_coherent(SZ2)),
        _real_image(_coherent(SZ)),
        _real_image(_coherent(SX)),
        _real_image(np.diag(_DEPHASING_DIAG)),
    ]
)[:, 1:, 1:].reshape(4, 64)

# Taylor coefficients 1/k! of the degree-16 polynomial that expm evaluates on
# matrices scaled to 1-norm <= _THETA, where the remainder
# _THETA^17 / 17! is below 5e-17, under double-precision roundoff
_TAYLOR = [1.0 / math.factorial(k) for k in range(17)]
_THETA = 0.78


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

    @property
    def shape(self) -> tuple:
        """Every field but ``repetitions``: the key of every store of survival
        rows or waveforms, which do not depend on the repetition count.

        Spelled out rather than read from ``dataclasses.fields``: a design
        reads it hundreds of times, and a test holds it to the fields."""
        return (self.kind, self.pulse_time, self.wait_time, self.drive_frequency)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """The config of a JSON-style dict, whose times, drive frequency and
        repetition count must be numbers (int or float, not bool or str)."""
        timing = {
            "pulse_time": d["pulse_time"],
            "wait_time": d.get("wait_time", 0.0),
            "drive_frequency": d.get("drive_frequency", ZFS_MHZ),
        }
        for name, value in timing.items():
            if type(value) not in (int, float):
                raise ValueError(f"{name} must be a number, got {value!r}")
        repetitions = d.get("repetitions", 1)
        if type(repetitions) not in (int, float) or repetitions != int(repetitions):
            raise ValueError(
                f"repetitions must be an integral number, got {repetitions!r}"
            )
        return cls(
            kind=d["kind"],
            **{name: float(value) for name, value in timing.items()},
            repetitions=int(repetitions),
        )


_SCRATCH = threading.local()


def thread_buffer(size: int) -> np.ndarray:
    """The first ``size`` entries of this thread's float64 scratch buffer,
    which is kept and replaced only by a larger one.

    The Taylor step of :func:`expm` and the MIS table blocks of
    :mod:`nvbed.risk` both work in it.  No caller holds a view of the
    scratch across a call that may take it: ``expm`` copies its result out
    before it returns, and a risk profile asks for its survival rows before
    any estimate.

    The buffer is an anonymous memory map, not a malloc'd array: malloc
    would place it in the thread's arena, which keeps the memory after the
    thread ends.  A malloc'd buffer read online_wide peak_rss_mb
    64.1-65.1 MB against 60.4-61.1 MB mapped (3 pairs of 55 s perfbench
    runs, 2-core host).
    """
    buffer = getattr(_SCRATCH, "buffer", None)
    if buffer is None or buffer.size < size:
        buffer = np.frombuffer(mmap.mmap(-1, 8 * size), dtype=float)
        _SCRATCH.buffer = buffer
    return buffer[:size]


# The Taylor step works on arrays each thread keeps (thread_buffer).  A
# fresh array per operation cost more than its arithmetic, since each freed
# array went back to the system and the next one faulted its pages in
# again: on one block the Taylor step took 3.0 ms with a new array per
# operation, 2.4 ms with six new arrays per call and 1.3 ms on kept arrays,
# and offline_wide s_per_experiment read 0.072-0.078 s with a new array per
# operation against 0.050-0.052 s on kept ones (two 30 s perfbench runs
# each; 2-core x86 host, one BLAS thread).
def _taylor_exp(x: np.ndarray) -> np.ndarray:
    """Degree-16 Taylor polynomial of exp at each matrix of the (m, n, n)
    stack ``x``, in Paterson-Stockmeyer form: p = B0 + X4 (B1 + X4 (B2 +
    X4 (B3 + c16 X4))) with Bi = c(4i) + ... + c(4i+3) X^3, six products.

    Every product and sum is written into this thread's scratch buffer, and
    so is the result: it is valid until the thread's next call.
    """
    c = _TAYLOR
    x2, x3, x4, acc, part, term = thread_buffer(6 * x.size).reshape(6, *x.shape)
    np.matmul(x, x, out=x2)
    np.matmul(x2, x, out=x3)
    np.matmul(x2, x2, out=x4)
    diagonal = part.reshape(len(x), -1)[:, :: x.shape[-1] + 1]
    for k in (12, 8, 4, 0):
        # part = c(k) + c(k+1) X + c(k+2) X^2 + c(k+3) X^3
        np.multiply(x, c[k + 1], out=part)
        part += np.multiply(x2, c[k + 2], out=term)
        part += np.multiply(x3, c[k + 3], out=term)
        diagonal += c[k]
        if k == 12:
            np.multiply(x4, c[16], out=acc)
            acc += part
        else:
            np.matmul(x4, acc, out=term)
            np.add(term, part, out=acc)
    return acc


def expm(stack: np.ndarray) -> np.ndarray:
    """Matrix exponential of every matrix in a real (..., n, n) stack.

    Scaling and squaring: each matrix is scaled by 2^-s to 1-norm at most
    ``_THETA``, its degree-16 Taylor polynomial is evaluated, and the result
    is squared s times.  s is chosen per matrix; matrices are sorted by s so
    that every squaring round acts on a leading slice of the stack.  A
    matrix with a nan or inf entry comes out non-finite and leaves the
    others as they would be without it.
    """
    a = np.asarray(stack, dtype=float)
    n = a.shape[-1]
    flat = a.reshape(-1, n, n)
    if not len(flat):
        return np.empty(a.shape)
    # column sums by einsum: a sum over the middle axis took 3.5x as long.
    # The largest is taken along the long axis of a transposed copy: numpy
    # reduces n entries per matrix one row at a time, and on 768 8x8
    # matrices .max(axis=1) took 54 us against 9 us for the copy and its
    # reduction (2-core x86 host); the maximum is exact either way
    norms = np.ascontiguousarray(np.einsum("mij->mj", np.abs(flat)).T).max(axis=0)
    # a non-finite matrix takes no squarings: its exponential is non-finite
    # anyway, and its nan or inf count, cast to an integer, would stop the
    # squaring of every other matrix in the stack
    norms[~np.isfinite(norms)] = 0.0
    squarings = np.ceil(np.log2(np.maximum(norms / _THETA, 1.0))).astype(np.intp)
    order = np.argsort(-squarings, kind="stable")
    squarings = squarings[order]
    # the scaled copy is the squarings' workspace, then the result
    work = flat[order]
    work *= np.ldexp(1.0, -squarings)[:, None, None]
    prop = _taylor_exp(work)
    for j in range(int(squarings[0])):
        m = int(np.count_nonzero(squarings > j))
        np.matmul(prop[:m], prop[:m], out=work[:m])
        prop[:m] = work[:m]
    work[order] = prop
    return work.reshape(a.shape)


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
# stack of 8x8 traceless blocks of the real-basis generators of all
# hypotheses and mI branches, built directly from the four precomputed
# blocks ``_R_TERMS``.  The structured grids of the design heuristics admit
# two fast paths:
#   * a Rabi family on an arithmetic pulse-time grid composes powers of the
#     single-step block propagator, applied to its column d (the traceless
#     part of |0><0|), and
#   * Ramsey wait segments have a diagonal generator in the column-stacking
#     basis.  Its three population entries have eigenvalue 0, and each of
#     the other six pairs with its complex conjugate, in eigenvalue and in
#     weight, so the wait-time curve of a hypothesis is a constant plus the
#     real part of a 3-term complex exponential sum.  On an arithmetic wait
#     grid each term advances by one complex multiply per step.
#
# A table splits its hypotheses into blocks of ``_SURVIVAL_BLOCK`` and runs
# these family kernels on each block, spread by ``fan_out`` over one thread
# per core, the calling thread among them.  Every step of the kernels acts
# on each hypothesis alone (its own generators, its own propagator and
# powers, its own branch mean), so an entry does not depend on which other
# hypotheses share its block or its call: the table is bit-identical to one
# computed block by block on one thread, and a table over a subset of the
# hypotheses is the matching columns of the whole table.
# ----------------------------------------------------------------------------

# hypotheses per block of a survival table.  A block's pulse stack (3 x 256
# real 8x8 matrices) and its Taylor work arrays stay in a core's cache, and
# a paper-scale cloud of 4000 makes 16 blocks to share between the cores.
# Smaller blocks pay more per-block Python work: at 128 the update-only
# tables of an offline sweep ran slower.
_SURVIVAL_BLOCK = 256


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the platform
    reports one (Linux), else the machine's core count.  The most threads
    :func:`fan_out` uses."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def fan_out(run, units) -> None:
    """``run(units[t::n])`` for t < n = min(:func:`usable_cores`,
    len(units)): the calling thread runs ``units[0::n]`` and a pool of
    n - 1 workers the other shares; with n = 1 no pool starts.  An
    exception in any share is raised here.

    The calling thread takes a share: on workers only, offline_wide
    peak_rss_mb rose to 55.1-55.2 MB from 53.0-53.4 MB and setup_s to
    4.4-4.9 ms from 3.8-4.2 ms (single 20 s perfbench runs, seed 2101,
    2-core host).  Each thread assumes one BLAS thread (:mod:`nvbed.cli`).
    """
    threads = max(1, min(usable_cores(), len(units)))
    if threads == 1:
        run(units)
        return
    with ThreadPoolExecutor(max_workers=threads - 1) as pool:
        shares = [pool.submit(run, units[t::threads]) for t in range(1, threads)]
        run(units[::threads])
        for share in shares:
            share.result()


def _real_generators(
    spins: np.ndarray, drive_freq: float, amplitude: float, duration: float
) -> np.ndarray:
    """duration times the traceless blocks R8 of the real-basis generators
    of all hypotheses and mI branches, shape (3K, 8, 8), branch-major.

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
    return (coeffs.reshape(3 * k, 4) @ _R_TERMS).reshape(3 * k, 8, 8)


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
    """If the n times are positive integer multiples of a step that divides
    the smallest one, none beyond 4 n + 64 of it, return (step, rows) for
    the longest such step, where ``rows`` maps each multiple to the indices
    of the times at it; otherwise None.

    A grid's step is its smallest time, and a subset of a grid, such as the
    survivors of a design's screen, finds the grid's step again: its entries
    then come from the same powers as the whole grid's.
    """
    smallest = float(np.min(times))
    if smallest <= 0:
        return None
    limit = 4 * len(times) + 64
    for divisor in range(1, limit + 1):
        step = smallest / divisor
        mult = times / step
        rounded = np.rint(mult)
        if np.max(rounded) > limit:  # a shorter step only needs more powers
            return None
        if np.max(np.abs(mult - rounded)) <= 1e-9:
            rows: dict = {}
            for i, m in enumerate(rounded.astype(int)):
                rows.setdefault(int(m), []).append(i)
            return step, rows
    return None


def _steps(times: np.ndarray) -> list:
    """The (step, rows) pairs that a family steps through: the times' one
    arithmetic step (:func:`_arithmetic_step`), or, when they have none,
    each time as its own step, taken once."""
    arith = _arithmetic_step(times)
    if arith is not None:
        return [arith]
    return [(float(t), {1: [i]}) for i, t in enumerate(times)]


def _survival_rabi_family(
    spins: np.ndarray, pulse_times: np.ndarray, drive_freq: float
) -> np.ndarray:
    """Survival probabilities for a family of Rabi pulse times, (n_times, K).

    Each power of the step's block propagator E = exp(step R8) advances the
    8-vector column d of the previous power; the branch's survival at that
    power is 1/3 + (2/3) E^m[d, d] (module docstring).
    """
    k = spins.shape[0]
    out = np.empty((len(pulse_times), 3 * k))
    for step, rows in _steps(np.asarray(pulse_times, dtype=float)):
        prop = expm(_real_generators(spins, drive_freq, 1.0, step))
        state = prop[:, :, _D, None]
        for power in range(1, max(rows) + 1):
            if power > 1:
                state = prop @ state
            if power in rows:
                out[rows[power]] = _P0_I**2 + _P0_D**2 * state[:, _D, 0]
    return out.reshape(len(pulse_times), 3, k).mean(axis=1)


# vec indices of the populations |i><i| and of three coherences whose
# conjugate partners (vec 1, 2 and 5) complete the wait generator's diagonal
_POPULATIONS = [0, 4, 8]
_COHERENCES = [3, 6, 7]


def _ramsey_weights(
    spins: np.ndarray, pulse_time: float, drive_freq: float
) -> np.ndarray:
    """w_j = P[4, j] * P[j, 4] of each hypothesis's pulse propagator P,
    shape (3K, 9), branch-major.

    Only row and column 4 of P = U (1 (+) E) U^H are formed, with E the 8x8
    block propagator.  Row 4 of U holds the coefficients of |0><0|, _P0_I
    on B_0 and _P0_D on B_2, so P[4, :] = (_P0_I, _P0_D E[d, :]) U^H and
    P[:, 4] = U (_P0_I, _P0_D E[:, d]): only row d and column d of E enter.
    """
    block = expm(_real_generators(spins, drive_freq, 1.0, float(pulse_time)))
    row = _P0_I * _UH[0] + (_P0_D * block[:, _D, :]) @ _UH[1:]
    col = _P0_I * _U[:, 0] + (_P0_D * block[:, :, _D]) @ _U[:, 1:].T
    return row * col


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
    for step, rows in _steps(np.asarray(wait_times, dtype=float)):
        z = np.exp(lam * step)
        stepped = terms.copy()
        for power in range(1, max(rows) + 1):
            stepped *= z
            if power in rows:
                out[rows[power]] = const + stepped.real.sum(axis=1)
    return out.reshape(len(wait_times), 3, k).mean(axis=1)


def survival_table(spins: np.ndarray, configs: list) -> np.ndarray:
    """Survival probabilities for every (config, hypothesis) pair.

    ``spins`` is (K, 5); returns (len(configs), K).  Configurations are
    grouped into Rabi families by drive frequency and Ramsey families by
    (pulse_time, drive frequency) so the grid fast paths apply.  The
    hypotheses run in blocks of ``_SURVIVAL_BLOCK``, spread over one thread
    per core; each entry is the same, bit for bit, however the blocks are
    split between threads, and equals the entry of any table over a subset
    of the hypotheses that holds it.
    """
    spins = np.atleast_2d(np.asarray(spins, dtype=float))
    k = spins.shape[0]
    out = np.empty((len(configs), k))
    groups: dict = {}
    for idx, cfg in enumerate(configs):
        if cfg.kind == "rabi":
            key = ("rabi", cfg.drive_frequency)
        else:
            key = ("ramsey", cfg.pulse_time, cfg.drive_frequency)
        groups.setdefault(key, []).append(idx)

    def run(blocks):
        for cols in blocks:
            block = spins[cols]
            for key, indices in groups.items():
                if key[0] == "rabi":
                    times = np.array([configs[i].pulse_time for i in indices])
                    table = _survival_rabi_family(block, times, key[1])
                else:
                    times = np.array([configs[i].wait_time for i in indices])
                    table = _survival_ramsey_family(block, key[1], times, key[2])
                out[indices, cols] = table

    fan_out(run, [
        slice(lo, lo + _SURVIVAL_BLOCK) for lo in range(0, k, _SURVIVAL_BLOCK)
    ])
    return _clamp_probability(out, "survival_table")


def survival_probabilities(spins: np.ndarray, config: ExperimentConfig) -> np.ndarray:
    """Survival probability of a single configuration for each hypothesis row."""
    return survival_table(spins, [config])[0]
