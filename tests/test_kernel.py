"""The real-basis propagator kernel against references that do not share it.

``qutrit.expm`` is checked against SciPy's ``expm`` and against closed-form
exponentials of normal matrices; ``survival_table`` against the SciPy
segment path in ``tests/oracles.py``, and its blocks and threads against
the family kernels run on one thread; hypothesis drives the physical
invariants of the propagator.
"""

import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm

from nvbed import qutrit
from nvbed.qutrit import (
    ExperimentConfig,
    SpinParams,
    survival_probability,
    survival_table,
)
from oracles import (
    lindblad_generator,
    lindblad_propagator,
    scipy_survival_probability,
)

NORMS = 10.0 ** np.arange(-3, 4)


def relative_frobenius(a, b):
    return np.linalg.norm(a - b, axis=(-2, -1)) / np.linalg.norm(b, axis=(-2, -1))


def scaled_to_norms(stack, norms):
    """Each matrix of ``stack`` scaled to the 1-norm in ``norms``."""
    one_norms = np.abs(stack).sum(axis=-2).max(axis=-1)
    return stack * (norms / one_norms)[:, None, None]


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
        err = relative_frobenius(qutrit.expm(stack), scipy_expm(stack))
        assert err.max() <= 1e-12

    def test_matches_closed_form_on_normal_matrices_up_to_norm_1e3(self):
        # At norm 1e3 SciPy is off by up to 2.6e-12 against 40-digit
        # arithmetic on real NV generators, so it is no reference there.
        rng = np.random.default_rng(53)
        stack, exact = [], []
        for norm in np.repeat(NORMS, 6):
            q, _ = np.linalg.qr(rng.normal(size=(9, 9)))
            re = rng.uniform(-0.05, 0.01, size=5)
            im = rng.uniform(-1.0, 1.0, size=4)
            unit = q @ rotation_blocks(re, im) @ q.T
            scale = norm / np.abs(unit).sum(axis=0).max()
            stack.append(scale * unit)
            exact.append(q @ rotation_blocks(scale * re, scale * im, exp=True) @ q.T)
        err = relative_frobenius(qutrit.expm(np.array(stack)), np.array(exact))
        assert err.max() <= 1e-12

    def test_keeps_the_stack_shape_and_leaves_its_input(self):
        rng = np.random.default_rng(57)
        stack = rng.normal(size=(2, 3, 9, 9))
        before = stack.copy()
        out = qutrit.expm(stack)
        assert out.shape == stack.shape
        np.testing.assert_array_equal(stack, before)
        np.testing.assert_allclose(out[1, 2], scipy_expm(stack[1, 2]), rtol=1e-12)
        assert qutrit.expm(np.zeros((0, 9, 9))).shape == (0, 9, 9)
        identities = np.tile(np.eye(9), (4, 1, 1))
        np.testing.assert_array_equal(qutrit.expm(np.zeros((4, 9, 9))), identities)

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
        assert qutrit._arithmetic_step(waits) is not None
        assert qutrit._arithmetic_step(np.append(waits[:-1], 77.0 * 26.0)) is None
        configs = [
            ExperimentConfig("ramsey", pulse_time=14.0, wait_time=w) for w in waits
        ]
        self.check(configs, 89)

    def test_repeated_rabi_pulse_times(self):
        configs = [
            ExperimentConfig("rabi", pulse_time=t) for t in (10.0, 20.0, 20.0, 30.0)
        ]
        self.check(configs, 97)


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
        if first.kind == "rabi":
            times = np.array([c.pulse_time for c in configs])
            table = qutrit._survival_rabi_family(spins, times, first.drive_frequency)
        else:
            waits = np.array([c.wait_time for c in configs])
            table = qutrit._survival_ramsey_family(
                spins, first.pulse_time, waits, first.drive_frequency
            )
        return qutrit._clamp_probability(table, "serial")

    @staticmethod
    def cores(monkeypatch, n):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(n)), raising=False
        )

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("k", [1, 255, 256, 257, 600])
    def test_every_split_equals_the_serial_kernel(self, monkeypatch, family, k):
        spins = random_spins(np.random.default_rng(k), k)
        configs = self.FAMILIES[family]
        serial = self.serial(spins, configs)
        for n in (1, 2, 3):
            self.cores(monkeypatch, n)
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
        spins = random_spins(np.random.default_rng(112), 8 * 256 + 5)
        configs = self.FAMILIES["ramsey grid"]
        serial = self.serial(spins, configs)
        self.cores(monkeypatch, 4)
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

        def recorded(spins, times, drive_freq):
            ran.append((threading.get_ident(), len(spins)))
            return family(spins, times, drive_freq)

        monkeypatch.setattr(qutrit, "_survival_rabi_family", recorded)
        self.cores(monkeypatch, 2)
        spins = random_spins(np.random.default_rng(111), 600)  # blocks 256, 256, 88
        survival_table(spins, self.FAMILIES["rabi grid"])
        caller = threading.get_ident()
        assert sorted(n for t, n in ran if t == caller) == [88, 256]
        assert [n for t, n in ran if t != caller] == [256]


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
    assert qutrit._arithmetic_step(times[:2])[0] == 5.0
    assert qutrit._arithmetic_step(times) is None


def test_non_arithmetic_ramsey_waits_against_scipy():
    # no step that divides the smallest wait fits within 4 * 3 + 64 powers,
    # so each wait is its own step
    waits = (75.0, 190.3, 337.5)
    assert qutrit._arithmetic_step(np.array(waits)) is None
    configs = [ExperimentConfig("ramsey", pulse_time=22.0, wait_time=w) for w in waits]
    TestSurvivalAgainstScipy.check(configs, 114)


def test_non_finite_survival_raises():
    # a pulse far past any physical length overflows the kernel to nan,
    # which must not pass the [0, 1] clamp as a probability
    spins = random_spins(np.random.default_rng(103), 3)
    config = ExperimentConfig("rabi", pulse_time=1e300)
    with np.errstate(all="ignore"), pytest.raises(qutrit.SimulationAccuracyError):
        survival_table(spins, [config])


def test_ramsey_terms_pair_up_with_their_conjugates():
    """Populations (vec 0, 4, 8) wait with eigenvalue 0; coherences 3, 6
    and 7 are the conjugates of 1, 2 and 5, in eigenvalue and in weight."""
    spins = random_spins(np.random.default_rng(101), 200)
    weights = qutrit._ramsey_weights(spins, 22.0, 2871.0)
    lam = qutrit._wait_eigenvalues(spins, 2871.0).reshape(-1, 9)
    for values in (weights, lam):
        partners = np.conj(values[:, [1, 2, 5]])
        np.testing.assert_allclose(values[:, [3, 6, 7]], partners, rtol=0, atol=1e-14)
    assert np.all(lam[:, [0, 4, 8]] == 0)
    assert qutrit._POPULATIONS == [0, 4, 8] and qutrit._COHERENCES == [3, 6, 7]


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
