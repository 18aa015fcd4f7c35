"""The real-basis propagator kernel against references that do not share it.

``qutrit.expm`` is checked against SciPy's ``expm`` and against closed-form
exponentials of normal matrices; the kernel's 8x8 traceless blocks against
the complex generators of ``tests/oracles.py``; ``survival_table`` against
the SciPy segment path there, and its blocks and threads against the
family kernels run on one thread, and its sign symmetries at the centre
drive; ``qutrit.fan_out``, which spreads the kernels' work over the cores,
by the units each thread runs; hypothesis drives the physical invariants of
the propagator.
"""

import math
import os
import subprocess
import sys
import threading
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm

from nvbed import qutrit, risk, smc
from nvbed.heuristics import experiment_set_rabi, experiment_set_ramsey
from nvbed.qutrit import (
    ExperimentConfig,
    SpinParams,
    survival_probability,
    survival_table,
)
from helpers import one_norms
from oracles import (
    lindblad_generator,
    lindblad_propagator,
    scipy_survival_probability,
)

NORMS = 10.0 ** np.arange(-3, 4)
BLOCK = qutrit._SURVIVAL_BLOCK


def relative_frobenius(a, b):
    return np.linalg.norm(a - b, axis=(-2, -1)) / np.linalg.norm(b, axis=(-2, -1))


def scaled_to_norms(stack, norms):
    """Each matrix of ``stack`` scaled to the 1-norm in ``norms``."""
    return stack * (norms / one_norms(stack))[:, None, None]


def rotation_blocks(re, im, exp=False):
    """blockdiag([[a, -b], [b, a]] for four (a, b), then re[4]), or with
    ``exp`` its exact exponential: e^a [[cos b, -sin b], [sin b, cos b]]."""
    out = np.zeros((9, 9))
    for i, (a, b) in enumerate(zip(re[:4], im)):
        c, s = (np.cos(b), np.sin(b)) if exp else (a, b)
        out[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = [[c, -s], [s, c]]
        if exp:
            out[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] *= np.exp(a)
    out[8, 8] = np.exp(re[4]) if exp else re[4]
    return out


def cores(monkeypatch, n):
    """Make ``n`` cores usable to this process, as its CPU affinity."""
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: set(range(n)), raising=False
    )


def random_spins(rng, k):
    """Rows drawn from the wide prior's box: drive up to 20 MHz."""
    return np.column_stack(
        [
            rng.uniform(0, 20, k),
            rng.uniform(0, 10, k),
            rng.uniform(-5, 5, k),
            rng.uniform(1.5, 3.5, k),
            1.0 / rng.uniform(1, 20, k),
        ]
    )


class TestExpm:
    def test_matches_scipy_on_random_stacks(self):
        # up to norm 1e2; beyond it SciPy's own error reaches the bound
        # (next test)
        rng = np.random.default_rng(51)
        norms = np.repeat(NORMS[:-1], 20)
        stack = scaled_to_norms(rng.normal(size=(len(norms), 9, 9)), norms)
        err = relative_frobenius(
            qutrit.expm(stack, one_norms(stack)), scipy_expm(stack)
        )
        assert err.max() <= 1e-12
        # A Gaussian matrix's spectral radius is about a third of its
        # 1-norm, so too few squarings pass unseen on it.  A symmetric one
        # with nonnegative entries has its largest eigenvalue near the norm
        # (0.71-0.91 of it here).  SciPy is off by up to 1.4e-12 on these
        # at norm 10, so the reference is their eigendecomposition.
        square = np.abs(rng.normal(size=(len(norms), 9, 9)))
        stack = scaled_to_norms(square + square.transpose(0, 2, 1), norms)
        values, vectors = np.linalg.eigh(stack)
        exact = (vectors * np.exp(values)[:, None, :]) @ vectors.transpose(0, 2, 1)
        err = relative_frobenius(qutrit.expm(stack, one_norms(stack)), exact)
        assert err.max() <= 1e-12

    @staticmethod
    def normal_stack(rng, norms):
        """Normal 9x9 matrices at the given 1-norms, whose spectral radius
        is near the norm, and their exact exponentials."""
        stack, exact = [], []
        for norm in norms:
            q, _ = np.linalg.qr(rng.normal(size=(9, 9)))
            re = rng.uniform(-0.05, 0.01, size=5)
            im = rng.uniform(-1.0, 1.0, size=4)
            unit = q @ rotation_blocks(re, im) @ q.T
            scale = norm / np.abs(unit).sum(axis=0).max()
            stack.append(scale * unit)
            exact.append(q @ rotation_blocks(scale * re, scale * im, exp=True) @ q.T)
        return np.array(stack), np.array(exact)

    def test_matches_closed_form_on_normal_matrices_up_to_norm_1e3(self):
        # At norm 1e3 SciPy is off by up to 2.6e-12 against 40-digit
        # arithmetic on real NV generators, so it is no reference there.
        stack, exact = self.normal_stack(np.random.default_rng(53), np.repeat(NORMS, 6))
        err = relative_frobenius(qutrit.expm(stack, one_norms(stack)), exact)
        assert err.max() <= 1e-12

    def test_keeps_the_stack_shape_and_leaves_its_input(self):
        rng = np.random.default_rng(57)
        stack = rng.normal(size=(2, 3, 9, 9))
        before = stack.copy()
        out = qutrit.expm(stack, one_norms(stack))
        assert out.shape == stack.shape
        np.testing.assert_array_equal(stack, before)
        # the result is the caller's: the next call's scratch work leaves it
        kept = out.copy()
        qutrit.expm(2.0 * stack, 2.0 * one_norms(stack))
        np.testing.assert_array_equal(out, kept)
        np.testing.assert_allclose(out[1, 2], scipy_expm(stack[1, 2]), rtol=1e-12)
        empty, zeros = np.zeros((0, 9, 9)), np.zeros((4, 9, 9))
        assert qutrit.expm(empty, one_norms(empty)).shape == (0, 9, 9)
        identities = np.tile(np.eye(9), (4, 1, 1))
        np.testing.assert_array_equal(qutrit.expm(zeros, one_norms(zeros)), identities)

    def test_a_non_finite_matrix_leaves_the_others_exact(self):
        # the nan or inf 1-norm of one matrix must not set the squarings of
        # the stack: each finite matrix keeps its own, and the non-finite
        # ones come out non-finite
        rng = np.random.default_rng(58)
        norms = np.array([5.0, 0.3, 40.0, 2.0, 7.0])
        stack = scaled_to_norms(rng.normal(size=(5, 9, 9)), norms)
        stack[1, 2, 6] = np.nan
        stack[3, 0, 4] = np.inf
        with np.errstate(invalid="ignore"):
            out = qutrit.expm(stack, one_norms(stack))
        finite = [0, 2, 4]
        err = relative_frobenius(out[finite], scipy_expm(stack[finite]))
        assert err.max() <= 1e-12
        assert not np.isfinite(out[1]).all() and not np.isfinite(out[3]).all()

    def test_a_bound_on_each_norm_only_adds_squarings(self):
        # the survival kernel takes squarings from bounds up to several
        # times the 1-norm; a matrix bounded by nan or inf, as a non-finite
        # matrix is, takes none and leaves the others exact
        rng = np.random.default_rng(60)
        norms = np.repeat(NORMS, 6)
        stack, exact = self.normal_stack(rng, norms)
        bounds = norms * rng.uniform(1.0, 8.0, size=len(norms))
        err = relative_frobenius(qutrit.expm(stack, bounds), exact)
        assert err.max() <= 1e-12
        stack[[4, 31], 2, 6] = np.nan, np.inf
        bounds[[4, 31]] = np.nan, np.inf
        with np.errstate(invalid="ignore"):
            out = qutrit.expm(stack, bounds)
        finite = np.isfinite(stack).all(axis=(1, 2))
        assert relative_frobenius(out[finite], exact[finite]).max() <= 1e-12
        assert not np.isfinite(out[~finite]).all(axis=(1, 2)).any()

    def test_the_five_product_form_is_the_degree_18_taylor_polynomial(self):
        # the only check on where _COEF18 came from: expanded exactly as a
        # scalar polynomial, T18 = B2 + (B3 + A9) A9 with A9 = B1 B5 + B4
        # must hold 1/k! for every k <= 18 and nothing beyond, and the
        # remainder at the scaling bound must be below double roundoff
        def poly(row):  # exact coefficients of x^0 ... x^24
            coeffs = [Fraction(0)] * 25
            for power, c in zip((0, 1, 2, 3, 6), row):
                coeffs[power] = Fraction(float(c))
            return coeffs

        def add(p, q):
            return [a + b for a, b in zip(p, q)]

        def mul(p, q):  # exact here: no product reaches past x^24
            return [sum(p[i] * q[k - i] for i in range(k + 1)) for k in range(25)]

        b1, b2, b3, b4, b5 = (poly(row) for row in qutrit._COEF18)
        a9 = add(mul(b1, b5), b4)
        t18 = add(b2, mul(add(b3, a9), a9))
        assert all(c == 0 for c in t18[19:])
        for k in range(19):
            assert abs(float(t18[k] * math.factorial(k)) - 1.0) <= 1e-14, k
        assert qutrit._THETA**19 / math.factorial(19) < 5e-17

    def test_propagator_matches_scipy_of_the_complex_generator(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            params = SpinParams(*random_spins(rng, 1)[0])
            mi = int(rng.choice([-1, 0, 1]))
            amplitude, duration = rng.uniform(-1, 1), rng.uniform(0, 500)
            gen = lindblad_generator(params, 2871.0, mi, amplitude)
            np.testing.assert_allclose(
                lindblad_propagator(params, 2871.0, mi, amplitude, duration),
                scipy_expm(duration * gen),
                rtol=0,
                atol=1e-12,
            )


class TestTracelessBlock:
    """The kernel exponentiates only the 8x8 traceless block of each real
    generator; row 0 and column 0 of the 9x9 image, on B_0 = I/sqrt(3),
    must vanish for that to be exact."""

    # one unit coefficient per term of the generator: detuning * Sz^2,
    # axial * Sz, drive * Sx and the dephasing rate
    TERMS = [
        SpinParams(0.0, 0.0, 1.0, 0.0, 0.0),
        SpinParams(0.0, 1.0, 0.0, 0.0, 0.0),
        SpinParams(1.0, 0.0, 0.0, 0.0, 0.0),
        SpinParams(0.0, 0.0, 0.0, 0.0, 1.0),
    ]

    def test_the_basis_starts_with_the_identity_and_holds_the_population(self):
        u = qutrit._U
        np.testing.assert_allclose(u.conj().T @ u, np.eye(9), rtol=0, atol=1e-15)
        np.testing.assert_allclose(u[:, 0], np.eye(3).flatten() / np.sqrt(3.0))
        # row 4 of U, the vec index of |0><0|, holds its coefficients
        row = np.zeros(9)
        row[[0, 1 + qutrit._D]] = qutrit._P0_I, qutrit._P0_D
        np.testing.assert_array_equal(u[4], row)

    def test_every_term_preserves_trace_and_annihilates_the_identity(self):
        for params in self.TERMS:
            gen = lindblad_generator(params, qutrit.ZFS_MHZ, 0, 1.0)
            image = qutrit._real_image(gen)
            image /= np.abs(image).max()
            assert np.abs(image[0]).max() <= 1e-15
            assert np.abs(image[:, 0]).max() <= 1e-15
            # the generator is real in the basis: nothing was lost to .real
            unit = qutrit._UH @ gen @ qutrit._U
            assert np.abs(unit.imag).max() <= 1e-15 * np.abs(unit).max()

    def test_blocks_match_the_complex_generators(self):
        # a pulse's block is its coefficient row times the four term blocks,
        # and |row| @ _TERM_NORMS bounds the block's 1-norm, which sets its
        # squarings
        rng = np.random.default_rng(52)
        spins = random_spins(rng, 4)
        drive, duration = 2871.5, 33.0
        coeffs = duration * qutrit._coefficients(spins, drive)
        assert coeffs.shape == (12, 4)
        blocks = (coeffs @ qutrit._R_TERMS).reshape(12, 8, 8)
        for b, mi in enumerate(qutrit._MI_BRANCHES):
            for i, row in enumerate(spins):
                gen = lindblad_generator(SpinParams(*row), drive, mi, 1.0)
                image = duration * qutrit._real_image(gen)
                np.testing.assert_allclose(
                    blocks[4 * b + i], image[1:, 1:], rtol=0, atol=1e-14
                )
        bounds = np.abs(coeffs) @ qutrit._TERM_NORMS
        assert np.all(np.abs(blocks).sum(axis=1).max(axis=1) <= bounds)


class TestSurvivalAgainstScipy:
    """survival_table on 50 wide-prior spins against the SciPy segment path."""

    @staticmethod
    def check(configs, seed, rows=slice(None), k=50):
        """The whole table is simulated; the oracle checks ``rows`` of it."""
        spins = random_spins(np.random.default_rng(seed), k)
        table = survival_table(spins, configs)[rows]
        expected = np.array(
            [
                [scipy_survival_probability(SpinParams(*row), cfg) for row in spins]
                for cfg in configs[rows]
            ]
        )
        np.testing.assert_allclose(table, expected, rtol=0, atol=1e-12)

    def test_rabi_grid_5_to_500_ns(self):
        # 100 powers of the 5 ns step; every fifth one is checked
        configs = [ExperimentConfig("rabi", pulse_time=5.0 * i) for i in range(1, 101)]
        self.check(configs, 61, rows=slice(0, None, 5))
        self.check(configs, 61, rows=slice(4, None, 5))

    def test_ramsey_waits_to_2000_ns_at_two_tip_times(self):
        configs = [
            ExperimentConfig("ramsey", pulse_time=t_p, wait_time=float(w))
            for t_p in (12.5, 40.0)
            for w in np.linspace(0.0, 2000.0, 11)
        ]
        self.check(configs, 67)

    def test_detuned_drive(self):
        configs = [
            ExperimentConfig("rabi", pulse_time=t, drive_frequency=2873.5)
            for t in (20.0, 40.0, 60.0, 260.0)
        ] + [
            ExperimentConfig(
                "ramsey", pulse_time=22.0, wait_time=w, drive_frequency=2866.0
            )
            for w in (0.0, 333.5, 1740.0)
        ]
        self.check(configs, 71)

    def test_non_arithmetic_rabi_grid(self):
        configs = [ExperimentConfig("rabi", pulse_time=t) for t in (7.3, 19.1, 101.7)]
        self.check(configs, 73)

    def test_ramsey_design_grid_20_to_2000_ns_at_two_tip_times(self):
        # the design's candidates: 100 powers of the 20 ns step per tip
        # time; every fifth row and the last one are checked
        configs = [
            ExperimentConfig("ramsey", pulse_time=t_p, wait_time=20.0 * i)
            for t_p in (12.0, 40.0)
            for i in range(1, 101)
        ]
        self.check(configs, 79, rows=slice(0, None, 5))
        self.check(configs, 79, rows=slice(-1, None))

    def test_ramsey_grid_with_gaps_and_repeats(self):
        # skipped powers, a repeated wait, and [2, 5, 9] steps, which are no
        # multiples of their smallest wait: halving it finds the 37.5 ns
        # step, so they too take the power path
        step = 37.5
        for multiples in ([1, 2, 5, 5, 9], [2, 5, 9]):
            configs = [
                ExperimentConfig("ramsey", pulse_time=22.0, wait_time=step * m)
                for m in multiples
            ]
            self.check(configs, 83)

    def test_ramsey_grid_at_the_limit_of_powers(self):
        # 3 waits: at most 4 * 3 + 64 = 76 powers of the step
        waits = np.array([1.0, 30.0, 76.0]) * 26.0
        assert len(qutrit._steps(waits)[0]) == 1
        assert len(qutrit._steps(np.append(waits[:-1], 77.0 * 26.0))[0]) == 3
        configs = [
            ExperimentConfig("ramsey", pulse_time=14.0, wait_time=w) for w in waits
        ]
        self.check(configs, 89)

    def test_repeated_rabi_pulse_times(self):
        configs = [
            ExperimentConfig("rabi", pulse_time=t) for t in (10.0, 20.0, 20.0, 30.0)
        ]
        self.check(configs, 97)


class TestSignSymmetry:
    """Every design candidate drives at ``qutrit.ZFS_MHZ``, and there the
    table does not see the sign of zfs_offset, zeeman or hyperfine: a
    posterior over them is exactly mirror-symmetric, which is what a fold
    onto one sign would rest on.  One MHz off the centre the zfs_offset
    mirror breaks, so the fold holds only for centre-driven candidates."""

    SPINS = random_spins(np.random.default_rng(9), 50)
    # the design's grids: 5-500 ns pulses, and 20-2000 ns waits at 22 ns
    GRID = experiment_set_rabi(500.0, 100) + experiment_set_ramsey(22.0, 2000.0, 100)

    @staticmethod
    def flipped(spins, column):
        out = spins.copy()
        out[:, column] *= -1.0
        return out

    @pytest.mark.parametrize(
        "column",
        [smc.IDX_ZFS, smc.IDX_ZEEMAN, smc.IDX_HYPERFINE],
        ids=["zfs_offset", "zeeman", "hyperfine"],
    )
    def test_the_centre_drive_sees_no_sign(self, column):
        table = survival_table(self.SPINS, self.GRID)
        mirror = survival_table(self.flipped(self.SPINS, column), self.GRID)
        np.testing.assert_allclose(mirror, table, rtol=0, atol=1e-13)

    def test_an_offset_drive_sees_the_sign_of_zfs_offset(self):
        grid = [
            replace(c, drive_frequency=qutrit.ZFS_MHZ + 1.0) for c in self.GRID
        ]
        table = survival_table(self.SPINS, grid)
        mirror = survival_table(self.flipped(self.SPINS, smc.IDX_ZFS), grid)
        # every hypothesis moves somewhere on the grid, by 0.006 at the least
        assert np.all(np.abs(mirror - table).max(axis=0) > 1e-3)


class TestSurvivalBlocks:
    """``survival_table`` splits its hypotheses into blocks of
    ``qutrit._SURVIVAL_BLOCK`` on one thread per core; no entry depends on
    the split or on which other hypotheses share the call."""

    FAMILIES = {
        "rabi grid": [
            ExperimentConfig("rabi", pulse_time=5.0 * k) for k in range(1, 21)
        ],
        "ramsey grid": [
            ExperimentConfig("ramsey", pulse_time=22.0, wait_time=100.0 * k)
            for k in range(1, 21)
        ],
        "non-arithmetic pair": [
            ExperimentConfig("rabi", pulse_time=37.0),
            ExperimentConfig("rabi", pulse_time=101.3),
        ],
    }

    @staticmethod
    def serial(spins, configs):
        """The family kernel over every hypothesis at once, on this thread."""
        first = configs[0]
        coeffs = qutrit._coefficients(spins, first.drive_frequency)
        if first.kind == "rabi":
            steps, rows = qutrit._steps(np.array([c.pulse_time for c in configs]))
            table = qutrit._survival_rabi_family(coeffs, steps)
        else:
            steps, rows = qutrit._steps(np.array([c.wait_time for c in configs]))
            table = qutrit._survival_ramsey_family(coeffs, first.pulse_time, steps)
        return qutrit._clamp_probability(table[rows])

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    # either side of one block and of two, and four whole blocks, at the
    # kernel's block size B; 255-257 straddle the block of 256 it once used
    @pytest.mark.parametrize("k", sorted({
        1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 4 * BLOCK, 255, 256, 257,
    }))
    def test_every_split_equals_the_serial_kernel(self, monkeypatch, family, k):
        spins = random_spins(np.random.default_rng(k), k)
        configs = self.FAMILIES[family]
        serial = self.serial(spins, configs)
        for n in (1, 2, 3):
            cores(monkeypatch, n)
            assert np.array_equal(survival_table(spins, configs), serial)

    def test_a_subset_gives_the_matching_columns(self):
        rng = np.random.default_rng(110)
        spins = random_spins(rng, 600)
        configs = [c for family in self.FAMILIES.values() for c in family]
        full = survival_table(spins, configs)
        for idx in (np.sort(rng.choice(600, 300, replace=False)), [599, 3, 3, 270]):
            assert np.array_equal(survival_table(spins[idx], configs), full[:, idx])

    def test_more_threads_than_cores_lose_no_block(self, monkeypatch):
        # blocks write disjoint columns of one table: with four threads on
        # nine blocks and switches forced every microsecond, a lost or
        # misplaced block would show
        spins = random_spins(np.random.default_rng(112), 8 * BLOCK + 5)
        configs = self.FAMILIES["ramsey grid"]
        serial = self.serial(spins, configs)
        cores(monkeypatch, 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert np.array_equal(survival_table(spins, configs), serial)
        finally:
            sys.setswitchinterval(interval)

    def test_the_calling_thread_takes_every_cores_th_block(self, monkeypatch):
        ran = []
        family = qutrit._survival_rabi_family

        def recorded(coeffs, steps):
            # three mI branches of each hypothesis
            ran.append((threading.get_ident(), len(coeffs) // 3))
            return family(coeffs, steps)

        monkeypatch.setattr(qutrit, "_survival_rabi_family", recorded)
        cores(monkeypatch, 2)
        block = qutrit._SURVIVAL_BLOCK
        spins = random_spins(np.random.default_rng(111), 2 * block + 88)
        survival_table(spins, self.FAMILIES["rabi grid"])
        caller = threading.get_ident()
        assert sorted(n for t, n in ran if t == caller) == [88, block]
        assert [n for t, n in ran if t != caller] == [block]

    def test_a_blocks_workspace_fits_the_mis_scratch(self, monkeypatch):
        # the thread buffer already holds risk._MIS_BLOCK_BYTES for an MIS
        # block; a survival block asking no more cannot grow it
        asked = []
        buffer = qutrit.thread_buffer

        def recorded(size):
            asked.append(size)
            return buffer(size)

        monkeypatch.setattr(qutrit, "thread_buffer", recorded)
        cores(monkeypatch, 1)
        spins = random_spins(np.random.default_rng(115), qutrit._SURVIVAL_BLOCK)
        survival_table(spins, [c for family in self.FAMILIES.values() for c in family])
        assert asked and 8 * max(asked) <= risk._MIS_BLOCK_BYTES


class TestFanOut:
    """``qutrit.fan_out`` spreads shares of its units over at most one
    thread per usable core, the calling thread among them."""

    @staticmethod
    def record(monkeypatch, n_cores, units):
        """(thread, unit) of every unit run by one fan_out."""
        cores(monkeypatch, n_cores)
        ran = []
        qutrit.fan_out(
            lambda share: ran.extend((threading.get_ident(), u) for u in share),
            units,
        )
        return ran

    @pytest.mark.parametrize("n_cores", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_units", [0, 1, 2, 3, 7])
    def test_every_unit_runs_once_and_the_caller_takes_every_nth(
        self, monkeypatch, n_cores, n_units
    ):
        units = range(10, 10 + n_units)
        ran = self.record(monkeypatch, n_cores, units)
        assert sorted(u for _, u in ran) == list(units)
        n = max(1, min(n_cores, n_units))
        caller = threading.get_ident()
        assert [u for t, u in ran if t == caller] == list(units[0::n])
        assert len({t for t, _ in ran}) <= n

    def test_one_core_or_one_unit_starts_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("fan_out started a pool")

        monkeypatch.setattr(qutrit, "ThreadPoolExecutor", no_pool)
        caller = threading.get_ident()
        for n_cores, units in ((1, range(5)), (4, range(1)), (4, range(0))):
            ran = self.record(monkeypatch, n_cores, units)
            assert ran == [(caller, u) for u in units]

    @pytest.mark.parametrize("failing", [0, 1], ids=["caller", "worker"])
    def test_an_exception_in_any_share_is_raised(self, monkeypatch, failing):
        cores(monkeypatch, 2)

        def run(share):
            if failing in share:
                raise ValueError(f"share of unit {failing}")

        with pytest.raises(ValueError, match=f"share of unit {failing}"):
            qutrit.fan_out(run, range(4))


def test_a_subset_of_a_grid_takes_the_grid_step():
    # a design's survivors are a subset of its grid; their entries come from
    # the same step powers as the whole grid's, bit for bit
    spins = random_spins(np.random.default_rng(113), 40)
    rabi = [ExperimentConfig("rabi", pulse_time=5.0 * k) for k in range(1, 101)]
    ramsey = [
        ExperimentConfig("ramsey", pulse_time=22.0, wait_time=20.0 * k)
        for k in range(1, 101)
    ]
    for grid, picks in ((rabi, [6, 7]), (rabi, [34, 9, 70, 9]), (ramsey, [1, 4, 8])):
        full = survival_table(spins, grid)
        assert np.array_equal(survival_table(spins, [grid[i] for i in picks]), full[picks])
    times = np.array([35.0, 40.0, 500.0])  # 100 powers of 5 ns: over 4 * 3 + 64
    assert qutrit._steps(times[:2])[0] == [(5.0, [7, 8])]
    assert len(qutrit._steps(times)[0]) == 3


def test_non_arithmetic_ramsey_waits_against_scipy():
    # no step that divides the smallest wait fits within 4 * 3 + 64 powers,
    # so each wait is its own step
    waits = (75.0, 190.3, 337.5)
    assert len(qutrit._steps(np.array(waits))[0]) == 3
    configs = [ExperimentConfig("ramsey", pulse_time=22.0, wait_time=w) for w in waits]
    TestSurvivalAgainstScipy.check(configs, 114)


def test_non_finite_survival_raises():
    # a non-finite spin row makes a non-finite survival entry, which must
    # not pass the [0, 1] clamp as a probability; the other rows of its
    # family still get their own entries
    spins = random_spins(np.random.default_rng(103), 3)
    spins[1, 0] = np.nan
    configs = [
        ExperimentConfig("rabi", pulse_time=20.0),
        ExperimentConfig("ramsey", pulse_time=20.0, wait_time=100.0),
    ]
    for config in configs:
        with np.errstate(all="ignore"), pytest.raises(qutrit.SimulationAccuracyError):
            survival_table(spins, [config])
    with np.errstate(all="ignore"):
        coeffs = qutrit._coefficients(spins, 2870.0)
        steps, _ = qutrit._steps(np.array([20.0, 40.0]))
        family = qutrit._survival_rabi_family(coeffs, steps)
    assert np.isnan(family[:, 1]).all()
    finite = [0, 2]
    grid = [ExperimentConfig("rabi", pulse_time=t) for t in (20.0, 40.0)]
    np.testing.assert_array_equal(family[:, finite], survival_table(spins[finite], grid))


def test_long_pulse_relaxes_to_the_mixed_state():
    # with dephasing, every traceless mode of a driven pulse decays, so a
    # pulse far past T2* leaves the maximally mixed state, survival 1/3;
    # the 8x8 block decays to zero however long the pulse
    spins = random_spins(np.random.default_rng(103), 5)
    assert np.all(spins[:, 4] > 0)
    for t in (1e8, 1e300):
        configs = [
            ExperimentConfig("rabi", pulse_time=t),
            ExperimentConfig("ramsey", pulse_time=t, wait_time=100.0),
        ]
        table = survival_table(spins, configs)
        np.testing.assert_allclose(table, 1.0 / 3.0, rtol=0, atol=1e-12)


def test_ramsey_terms_pair_up_with_their_conjugates():
    """On the oracle's 9x9 pulse propagator P and wait generator G, the
    populations (vec 0, 4, 8) wait with eigenvalue 0, and coherences 3, 6
    and 7 are the conjugates of 1, 2 and 5, in eigenvalue and in weight
    w_j = P[4, j] P[j, 4]; the kernel's constant, coherence weights and
    eigenvalues are those of the oracle."""
    spins = random_spins(np.random.default_rng(101), 40)
    pulse, drive = 22.0, 2871.0
    coeffs = qutrit._coefficients(spins, drive)
    const, weights, lam = qutrit._ramsey_terms(coeffs, pulse)
    assert qutrit._POPULATIONS == [0, 4, 8] and qutrit._COHERENCES == [3, 6, 7]
    for b, mi in enumerate(qutrit._MI_BRANCHES):
        for i, row in enumerate(spins):
            params = SpinParams(*row)
            prop = lindblad_propagator(params, drive, mi, 1.0, pulse)
            wait = lindblad_generator(params, drive, mi, 0.0)
            eigenvalues = np.diag(wait)
            assert np.array_equal(wait, np.diag(eigenvalues))
            w = prop[4, :] * prop[:, 4]
            for values in (w, eigenvalues):
                np.testing.assert_allclose(
                    values[[3, 6, 7]], np.conj(values[[1, 2, 5]]), rtol=0, atol=1e-14
                )
            assert np.all(eigenvalues[[0, 4, 8]] == 0)
            at = b * len(spins) + i
            assert abs(const[at] - w[[0, 4, 8]].real.sum()) <= 1e-14
            np.testing.assert_allclose(
                weights[:, at], w[[3, 6, 7]], rtol=0, atol=1e-14
            )
            np.testing.assert_allclose(
                lam[:, at], eigenvalues[[3, 6, 7]], rtol=0, atol=1e-14
            )


TABLE_DIGEST = """
import hashlib
import numpy as np
from nvbed.qutrit import ExperimentConfig, survival_table

rng = np.random.default_rng(116)
k = 700
spins = np.column_stack([
    rng.uniform(0, 20, k), rng.uniform(0, 10, k), rng.uniform(-5, 5, k),
    rng.uniform(1.5, 3.5, k), 1.0 / rng.uniform(1, 20, k),
])
configs = [ExperimentConfig("rabi", pulse_time=5.0 * m) for m in range(1, 41)]
configs += [ExperimentConfig("rabi", pulse_time=t) for t in (37.0, 101.3)]
configs += [
    ExperimentConfig("ramsey", pulse_time=22.0, wait_time=20.0 * m)
    for m in range(1, 41)
]
configs += [ExperimentConfig("ramsey", pulse_time=t, wait_time=190.3) for t in (12.0, 40.0)]
print(hashlib.sha256(survival_table(spins, configs).tobytes()).hexdigest())
"""


def test_tables_do_not_depend_on_the_blas_thread_count():
    # the kernel's products and its coefficient GEMM run through BLAS, and
    # nothing pins its thread count outside the benchmark: each entry must
    # come out the same on one BLAS thread as on several
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    digests = []
    for threads in ("1", "4"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        result = subprocess.run(
            [sys.executable, "-c", TABLE_DIGEST],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        digests.append(result.stdout)
    assert len(digests[0]) == 65 and digests[0] == digests[1]


# ----------------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------------

spin_params = st.builds(
    SpinParams,
    rabi_max=st.floats(0.0, 20.0),
    zeeman=st.floats(0.0, 10.0),
    zfs_offset=st.floats(-5.0, 5.0),
    hyperfine=st.floats(0.0, 3.5),
    dephasing_rate=st.floats(0.0, 1.0),
)
rabi_configs = st.builds(
    ExperimentConfig,
    kind=st.just("rabi"),
    pulse_time=st.floats(1e-3, 500.0),
    drive_frequency=st.floats(2860.0, 2880.0),
)
ramsey_configs = st.builds(
    ExperimentConfig,
    kind=st.just("ramsey"),
    pulse_time=st.floats(1e-3, 60.0),
    wait_time=st.floats(0.0, 2000.0),
    drive_frequency=st.floats(2860.0, 2880.0),
)
segments = st.tuples(
    spin_params,
    st.floats(2860.0, 2880.0),
    st.sampled_from([-1, 0, 1]),
    st.floats(-1.0, 1.0),
    st.floats(0.0, 800.0),
)
VEC_IDENTITY = np.eye(3).flatten(order="F")


@given(spin_params, st.one_of(rabi_configs, ramsey_configs))
def test_survival_probability_is_a_probability(params, config):
    p = survival_probability(params, config)
    assert 0.0 <= p <= 1.0
    assert p == pytest.approx(scipy_survival_probability(params, config), abs=1e-11)


@given(segments)
def test_propagator_preserves_trace(segment):
    prop = lindblad_propagator(*segment)
    assert np.max(np.abs(VEC_IDENTITY @ prop - VEC_IDENTITY)) <= 1e-11


@given(segments, st.lists(st.floats(-1.0, 1.0), min_size=18, max_size=18))
def test_output_state_is_hermitian_with_unit_trace(segment, entries):
    a = np.reshape(entries[:9], (3, 3)) + 1j * np.reshape(entries[9:], (3, 3))
    rho = a @ a.conj().T + 1e-3 * np.eye(3)
    rho /= np.trace(rho)
    vec = lindblad_propagator(*segment) @ rho.flatten(order="F")
    out = vec.reshape(3, 3, order="F")
    assert abs(np.trace(out) - 1.0) <= 1e-11
    assert np.max(np.abs(out - out.conj().T)) <= 1e-11
