"""Spin-1 simulation of the NV ground-state manifold under bang-bang microwave control.

The electron spin is driven in the rotating frame of the applied microwave
frequency; the static nitrogen-14 enters only through its projection mI,
so a hypothesis is simulated as three independent 3-level systems (one per
mI branch) and the survival probability is their uniform average.

Unit convention, applied where the runtime builds its generators
(``_coefficients``, whose rows also give ``_ramsey_terms`` the eigenvalues
of the diagonal wait generator) and mirrored coefficient by coefficient by
the Hamiltonian and Lindblad-generator oracles of the tests:

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
:func:`expm` is the one exponential every path uses: scaling and squaring
around the degree-18 Taylor polynomial in five matrix products of Bader,
Blanes and Casas (2019), on matrices scaled to 1-norm at most 1.09.  The
survival kernel builds its blocks from coefficients and takes their
squarings from a bound on the norm that the coefficients give.
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
# their 1-norms, 1, 2, 2.639 and 2: by the triangle inequality
# |c| @ _TERM_NORMS bounds the 1-norm of the block c @ _R_TERMS
_TERM_NORMS = np.abs(_R_TERMS.reshape(4, 8, 8)).sum(axis=1).max(axis=1)

# Bader, Blanes and Casas (Mathematics 7, 1174, 2019): row i holds B(i+1)'s
# coefficients on I, A, A^2, A^3 and A^6, and with A9 = B1 B5 + B4 the five
# products of T18 = B2 + (B3 + A9) A9 make the degree-18 Taylor polynomial,
# each coefficient within 1e-15 relative of 1/k!.  expm evaluates it on
# matrices scaled to 1-norm <= _THETA, where the remainder _THETA^19 / 19!
# is below 5e-17, under double-precision roundoff
_COEF18 = np.array([
    [0.0, -0.10036558103014462, -0.00802924648241157, -0.00089213849804573, 0.0],
    [0.0, 0.3978497494996451, 1.3678377846041172, 0.49828962252538267,
     -6.378981945947233e-04],
    [-10.967639605296206, 1.680158138789062, 0.05717798464788655,
     -0.0069821012248805206, 3.349750170860705e-05],
    [-0.09043168323908106, -0.06764045190713819, 0.06759613017704597,
     0.029555257042931552, -1.391802575160607e-05],
    [0.0, 0.0, -0.09233646193671186, -0.016936493900208172, -1.400867981820361e-05],
])
_THETA = 1.09


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

    :func:`expm` and the MIS table blocks of :mod:`nvbed.risk` both work
    in it, in at most 2 MiB at paper scale.  No caller holds a view of the
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


# expm works on arrays each thread keeps (thread_buffer).  A fresh array
# per operation cost more than its arithmetic, since each freed array went
# back to the system and the next one faulted its pages in again: on one
# block the degree-16 Taylor step that came before took 3.0 ms with a new
# array per operation and 1.3 ms on kept arrays, and offline_wide
# s_per_experiment read 0.072-0.078 s against 0.050-0.052 s (two 30 s
# perfbench runs each).  On kept arrays one expm of a 150-hypothesis block
# now takes 425 us, 569 us in that degree-16 form (fastest of 200; 2-core
# x86 host, one BLAS thread).
def _taylor_exp(powers: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Degree-18 Taylor polynomial of exp at each matrix A of the stack
    ``powers[0]``, written over ``terms[1]`` and returned.  ``powers``
    (4, m, n, n) takes A^2, A^3 and A^6, and ``terms`` B1 ... B5."""
    x, x2, x3, x6 = powers
    np.matmul(x, x, out=x2)
    np.matmul(x2, x, out=x3)
    np.matmul(x3, x3, out=x6)
    m, n = x.shape[:2]
    np.matmul(_COEF18[:, 1:], powers.reshape(4, -1), out=terms.reshape(5, -1))
    terms.reshape(5, m, n * n)[2:4, :, :: n + 1] += _COEF18[2:4, :1, None]
    b1, b2, b3, b4, b5 = terms
    a9 = np.matmul(b1, b5, out=x)
    a9 += b4
    b3 += a9
    b2 += np.matmul(b3, a9, out=x2)
    return b2


def expm(stack: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Matrix exponential of every matrix in a real (..., n, n) stack.

    Scaling and squaring: each matrix is scaled by 2^-s to 1-norm at most
    ``_THETA``, its degree-18 Taylor polynomial is evaluated in five
    products, and the result is squared s times.  s is chosen per matrix
    from ``norms`` (shape ``stack.shape[:-2]``), each the matrix's 1-norm or
    an upper bound on it; a bound can only add squarings (Al-Mohy and
    Higham 2009).  Matrices are sorted by s so that every squaring round
    acts on a leading slice of the stack.  A nan or inf norm takes no
    squarings, so a matrix with a nan or inf entry comes out non-finite and
    leaves the others as they would be without it.
    """
    a = np.asarray(stack, dtype=float)
    n = a.shape[-1]
    flat = a.reshape(-1, n, n)
    m = len(flat)
    if not m:
        return np.empty(a.shape)
    powers, terms = np.split(thread_buffer(9 * m * n * n).reshape(9, m, n, n), [4])
    # a non-finite matrix takes no squarings: its exponential is non-finite
    # anyway, and its nan or inf count, cast to an integer, would stop the
    # squaring of every other matrix in the stack
    norms = np.where(np.isfinite(norms), norms, 0.0).reshape(m)
    squarings = np.ceil(np.log2(np.maximum(norms / _THETA, 1.0))).astype(np.intp)
    order = np.argsort(-squarings, kind="stable")
    squarings = squarings[order]
    np.take(flat, order, axis=0, out=powers[0], mode="clip")
    powers[0] *= np.ldexp(1.0, -squarings)[:, None, None]
    prop, spare = _taylor_exp(powers, terms), powers[0]
    # squarings alternate between two buffers, and each round's finished
    # tail, [count(s > j), done), is written to the result once
    out = np.empty((m, n, n))
    done = m
    for j in range(int(squarings[0]) + 1):
        live = int(np.count_nonzero(squarings > j))
        out[order[live:done]] = prop[live:done]
        if not live:
            break
        np.matmul(prop[:live], prop[:live], out=spare[:live])
        prop, spare = spare, prop
        done = live
    return out.reshape(a.shape)


def _clamp_probability(p):
    """Clamp a survival table to [0, 1]; a larger excursion is a kernel bug."""
    p = np.asarray(p)
    excess = max(float(np.max(p - 1.0, initial=0.0)), float(np.max(-p, initial=0.0)))
    if not excess <= 1e-6:  # a nan entry makes the excess nan
        raise SimulationAccuracyError(
            f"survival_table: probability left [0, 1] by {excess:.3e}"
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
# configurations.  A pulse's generators, for all hypotheses and mI
# branches, are rows of four coefficients times the four precomputed
# blocks ``_R_TERMS``, and their exponentials one call of ``expm``, which
# takes each block's squarings from a bound the coefficients give.  The
# structured grids of the design heuristics admit two fast paths:
#   * a Rabi family on an arithmetic pulse-time grid composes powers of the
#     single-step block propagator, applied to its column d (the traceless
#     part of |0><0|), and
#   * Ramsey wait segments have a diagonal generator in the column-stacking
#     basis.  Its three population entries have eigenvalue 0, and each of
#     the other six pairs with its complex conjugate, in eigenvalue and in
#     weight, so the wait-time curve of a hypothesis is a constant plus the
#     real part of a 3-term complex exponential sum.  The constant and the
#     three weights come from row d and column d of the pulse's block
#     propagator, the eigenvalues from the coefficients.  On an arithmetic
#     wait grid each term advances by one complex multiply per step.
#
# A table splits its hypotheses into blocks of ``_SURVIVAL_BLOCK`` and runs
# these family kernels on each block, spread by ``fan_out`` over one thread
# per core, the calling thread among them.  Every step of the kernels acts
# on each hypothesis alone (its own coefficients, squarings, propagator and
# powers, its own branch mean), so an entry does not depend on which other
# hypotheses share its block or its call: the table is bit-identical to one
# computed block by block on one thread, and a table over a subset of the
# hypotheses is the matching columns of the whole table.  At K = 4000 on
# two threads, rows took a median 14.9 ms (5 ns Rabi), 14.0 ms (25 ns) and
# 18.1 ms (Ramsey), against 16.8, 16.8 and 21.5 ms when each block's
# squarings came from its blocks' own norms and each block planned its
# steps (31 interleaved runs; 2-core x86 host, one BLAS thread).
# ----------------------------------------------------------------------------

# hypotheses per block of a survival table.  A block's workspace (9 x 3 x
# 150 8x8 matrices, 2.07 MB) fits the 2 MiB thread_buffer holds for an MIS
# block (risk._MIS_BLOCK_BYTES), so it never grows the buffer, and a core's
# cache.  One thread, fastest of 9 (2-core x86 host, 2 MiB L2 per core): at
# blocks of 100, 128 and 150 a K = 4000 5 ns Rabi row took 13.8, 14.2 and
# 13.7 ms, a Ramsey row 19.9, 19.3 and 19.4 ms, and the 200-candidate
# design grid at K = 1500 63.9, 61.0 and 60.9 ms.
_SURVIVAL_BLOCK = 150


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
    2-core host).  A pool kept for the life of the process, whose workers
    keep their :func:`thread_buffer`, read offline_wide s_per_experiment
    0.0359 against 0.0380 s, better in 8 of 10 alternating 55 s pairs and
    inside the quartiles (0.0339-0.0429 s), so each call starts its own.
    Each thread assumes one BLAS thread (:mod:`nvbed.cli`).
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


def _coefficients(spins: np.ndarray, drive_freq: float) -> np.ndarray:
    """(3K, 4) coefficients (detuning, axial, drive, rate) per ns of the
    pulse generators R8 = row @ ``_R_TERMS`` of all hypotheses and mI
    branches, branch-major, from the (K, 5) ``spins`` (rabi_max, zeeman,
    zfs_offset, hyperfine, dephasing_rate)."""
    k = spins.shape[0]
    coeffs = np.empty((3, k, 4))
    coeffs[:, :, 0] = _ANGULAR * (spins[:, 2] + ZFS_MHZ - drive_freq)
    coeffs[:, :, 1] = _ANGULAR * (
        spins[:, 1] + np.multiply.outer(_MI_BRANCHES, spins[:, 3])
    )
    coeffs[:, :, 2] = _ANGULAR * spins[:, 0]
    coeffs[:, :, 3] = _RATE * spins[:, 4]
    return coeffs.reshape(3 * k, 4)


def _propagators(coeffs: np.ndarray) -> np.ndarray:
    """exp(c @ _R_TERMS) for the (m, 4) rows c, as an (m, 8, 8) stack.  The
    squarings come from the bound |c| @ ``_TERM_NORMS`` on each 1-norm: on
    the wide prior it was a median 1.15 times the norm, and added one to
    12-23% of 5-100 ns pulses."""
    blocks = (coeffs @ _R_TERMS).reshape(-1, 8, 8)
    return expm(blocks, np.abs(coeffs) @ _TERM_NORMS)


def _steps(times: np.ndarray) -> tuple:
    """A family's plan, (steps, sources): each (step, reads) pair reads the
    powers ``reads`` of its step, rising, into a row each of the family's
    table, and sources[i] is the row of time i.  If the n times are integer
    multiples of a step that divides the smallest one, none beyond 4 n + 64
    of it, the longest such step takes them all; else each time is a step
    of its own.  A subset of a grid, such as the survivors of a design's
    screen, finds the grid's step again, and so the grid's entries."""
    smallest = float(np.min(times))
    limit = 4 * len(times) + 64
    for divisor in range(1, limit + 1 if smallest > 0 else 1):
        step = smallest / divisor
        mult = times / step
        rounded = np.rint(mult)
        if np.max(rounded) > limit:  # a shorter step only needs more powers
            break
        if np.max(np.abs(mult - rounded)) <= 1e-9:
            reads, sources = np.unique(rounded.astype(int), return_inverse=True)
            return [(step, reads.tolist())], sources
    return [(float(t), [1]) for t in times], np.arange(len(times))


def _survival_rabi_family(coeffs: np.ndarray, steps: list) -> np.ndarray:
    """Survival probabilities of a family of Rabi pulse times, (reads, K):
    a row per read of its steps (:func:`_steps`), from a block's
    coefficients (:func:`_coefficients`).

    Each power of the step's block propagator E = exp(step R8) advances the
    8-vector column d of the previous power; the branch's survival at that
    power is 1/3 + (2/3) E^m[d, d] (module docstring).
    """
    m = len(coeffs)
    out = np.empty((sum(len(reads) for _, reads in steps), m))
    row = 0
    for step, reads in steps:
        prop = _propagators(coeffs * step)
        state, power = prop[:, :, _D, None], 1
        for read in reads:
            for power in range(power + 1, read + 1):
                state = prop @ state
            out[row] = state[:, _D, 0]
            row += 1
    out *= _P0_D**2
    out += _P0_I**2
    return out.reshape(len(out), 3, -1).mean(axis=1)


# vec indices of the populations |i><i| and of three coherences whose
# conjugate partners (vec 1, 2 and 5) complete the wait generator's diagonal
_POPULATIONS = [0, 4, 8]
_COHERENCES = [3, 6, 7]
# real E[:, d] -> P[j, 4] - 1/3 at the populations, then Re and Im P[j, 4]
# at the coherences, for P = U (1 (+) E) U^H (see _ramsey_terms)
_WAIT_PROJECTION = _P0_D * np.vstack(
    [_U[_POPULATIONS + _COHERENCES, 1:].real, _U[_COHERENCES, 1:].imag]
)
# a coefficient row times [j] is Re and Im of the wait generator's
# eigenvalue at coherence j: -i (h_r - h_c) - (m_r - m_c)^2 rate / 2 with
# h_m = detuning m^2 + axial m, at (r, c) = (0, 1), (0, 2) and (1, 2)
_WAIT_EIGENVALUES = np.zeros((3, 4, 2))
_WAIT_EIGENVALUES[:, :2, 1] = [[-1.0, -1.0], [0.0, -2.0], [1.0, -1.0]]
_WAIT_EIGENVALUES[:, 3, 0] = [-0.5, -2.0, -0.5]


def _ramsey_terms(coeffs: np.ndarray, pulse_time: float) -> tuple:
    """(c, w, lam), shapes (3K,), (3, 3K) and (3, 3K), from a block's
    coefficients (:func:`_coefficients`): a Ramsey wait t survives with
    c + Re sum_j 2 w_j exp(lam_j t), j over coherences.

    With P the pulse propagator, w_j = P[4, j] P[j, 4] and lam_j is the wait
    generator's entry, from the coefficients; c sums w over the
    populations.  Row 4 of U holds _P0_I on B_0 and _P0_D on B_2, so with E
    the 8x8 block propagator P[:, 4] = U (_P0_I, _P0_D E[:, d]) and P[4, :]
    is the conjugate of the same with row d of E.
    """
    prop = _propagators(coeffs * pulse_time)
    ends = np.stack([prop[:, :, _D], prop[:, _D, :]])
    col, row = _WAIT_PROJECTION @ ends.transpose(0, 2, 1)
    const = ((1.0 / 3.0 + row[:3]) * (1.0 / 3.0 + col[:3])).sum(axis=0)
    weights = (row[3:6] - 1j * row[6:]) * (col[3:6] + 1j * col[6:])
    lam = (coeffs @ _WAIT_EIGENVALUES).view(complex)[..., 0]
    return const, weights, lam


def _survival_ramsey_family(
    coeffs: np.ndarray, pulse_time: float, steps: list
) -> np.ndarray:
    """Survival probabilities of a family of Ramsey wait times at a fixed
    pulse time, (reads, K): a row per read of its steps (:func:`_steps`),
    from a block's coefficients (:func:`_coefficients`).

    p(t) = c + Re sum_j 2 w_j exp(lam_j t) (:func:`_ramsey_terms`).  On an
    arithmetic wait grid exp(lam_j * m * step) is z_j^m with
    z_j = exp(lam_j * step).
    """
    const, weights, lam = _ramsey_terms(coeffs, pulse_time)
    out = np.empty((sum(len(reads) for _, reads in steps), len(coeffs)))
    row = 0
    for step, reads in steps:
        z = np.exp(lam * step)
        stepped, power = 2.0 * weights, 0
        for read in reads:
            for power in range(power + 1, read + 1):
                stepped *= z
            out[row] = const + stepped.real.sum(axis=0)
            row += 1
    return out.reshape(len(out), 3, -1).mean(axis=1)


def survival_table(spins: np.ndarray, configs: list) -> np.ndarray:
    """Survival probabilities for every (config, hypothesis) pair.

    ``spins`` is (K, 5); returns (len(configs), K).  Configurations are
    grouped into Rabi families by drive frequency and Ramsey families by
    (pulse_time, drive frequency), each planned once, so the grid fast paths
    apply.  The hypotheses run in blocks of ``_SURVIVAL_BLOCK``, spread over
    one thread per core; each entry is the same, bit for bit, however the
    blocks are split between threads, and equals the entry of any table
    over a subset of the hypotheses that holds it.
    """
    spins = np.atleast_2d(np.asarray(spins, dtype=float))
    k = spins.shape[0]
    out = np.empty((len(configs), k))
    groups: dict = {}
    for idx, cfg in enumerate(configs):
        if cfg.kind == "rabi":
            key, time = ("rabi", cfg.drive_frequency), cfg.pulse_time
        else:
            key, time = ("ramsey", cfg.pulse_time, cfg.drive_frequency), cfg.wait_time
        groups.setdefault(key, []).append((idx, time))
    plans = [
        ([i for i, _ in group], key, *_steps(np.array([t for _, t in group])))
        for key, group in groups.items()
    ]

    def run(blocks):
        for cols in blocks:
            block = spins[cols]
            for indices, key, steps, sources in plans:
                coeffs = _coefficients(block, key[-1])
                if key[0] == "rabi":
                    table = _survival_rabi_family(coeffs, steps)
                else:
                    table = _survival_ramsey_family(coeffs, key[1], steps)
                out[indices, cols] = table[sources]

    fan_out(run, [
        slice(lo, lo + _SURVIVAL_BLOCK) for lo in range(0, k, _SURVIVAL_BLOCK)
    ])
    return _clamp_probability(out)
