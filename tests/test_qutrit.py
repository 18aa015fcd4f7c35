import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import expm

from nvbed.qutrit import (
    SX,
    SZ,
    ExperimentConfig,
    SpinParams,
    survival_probability,
    survival_table,
)
from oracles import build_hamiltonian, lindblad_generator, lindblad_propagator

TWO_PI_NS = 2.0 * math.pi * 1e-3


def spin(rabi=0.0, zeeman=0.0, zfs=0.0, hyperfine=0.0, invt2=0.0):
    return SpinParams(rabi, zeeman, zfs, hyperfine, invt2)


def random_spin(rng):
    return SpinParams(
        rabi_max=rng.uniform(0, 20),
        zeeman=rng.uniform(0, 10),
        zfs_offset=rng.uniform(-5, 5),
        hyperfine=rng.uniform(1.5, 3.5),
        dephasing_rate=rng.uniform(0.05, 1.0),
    )


def random_config(rng):
    kind = rng.choice(["rabi", "ramsey"])
    if kind == "rabi":
        return ExperimentConfig("rabi", pulse_time=rng.uniform(1, 500))
    return ExperimentConfig(
        "ramsey", pulse_time=rng.uniform(2, 60), wait_time=rng.uniform(0, 2000)
    )


class TestHamiltonian:
    def test_all_zero_parameters_give_zero_matrix(self):
        h = build_hamiltonian(spin(), drive_freq=2870.0, nitrogen_mi=0, amplitude=0.0)
        assert np.allclose(h, 0.0)

    def test_pure_drive_is_scaled_sx(self):
        h = build_hamiltonian(spin(rabi=1.0), 2870.0, 0, 1.0)
        assert np.allclose(h, TWO_PI_NS * SX)

    def test_sz_coefficient_combines_zeeman_and_hyperfine(self):
        # zeeman 2 MHz with the mI=-1 hyperfine branch at A=2.18 MHz
        h = build_hamiltonian(
            spin(zeeman=2.0, hyperfine=2.18), 2870.0, -1, 0.0
        )
        assert np.allclose(h, TWO_PI_NS * (2.0 - 2.18) * SZ, atol=1e-15)

    def test_hermitian_for_random_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            h = build_hamiltonian(
                random_spin(rng),
                rng.uniform(2860, 2880),
                int(rng.choice([-1, 0, 1])),
                rng.uniform(-1, 1),
            )
            assert np.allclose(h, h.conj().T)

    def test_rejects_bad_amplitude_and_mi(self):
        with pytest.raises(ValueError):
            build_hamiltonian(spin(), 2870.0, 0, 1.5)
        with pytest.raises(ValueError):
            build_hamiltonian(spin(), 2870.0, 2, 0.0)


class TestPropagator:
    def test_zero_duration_is_identity(self):
        prop = lindblad_propagator(spin(rabi=5.0, invt2=0.2), 2870.0, 0, 1.0, 0.0)
        assert np.allclose(prop, np.eye(9))

    def test_dephasing_leaves_populations_unchanged(self):
        prop = lindblad_propagator(spin(invt2=0.5), 2870.0, 0, 0.0, 400.0)
        rho = np.diag([0.2, 0.5, 0.3]).astype(complex)
        evolved = (prop @ rho.flatten(order="F")).reshape(3, 3, order="F")
        assert np.allclose(evolved, rho, atol=1e-12)

    def test_coherence_decay_matches_eigendecomposition_oracle(self):
        # Dissipator-only evolution: the (+1, -1) coherence must decay at the
        # rate given by dense diagonalization of D[L] (gamma = 2 * invT2 here).
        invt2 = 0.35
        gen = lindblad_generator(spin(invt2=invt2), 2870.0, 0, 0.0)
        eigvals = np.linalg.eigvals(gen)
        fastest = -np.min(eigvals.real)
        # brute-force oracle: the fastest decay eigenvalue is the (+1,-1) rate
        assert math.isclose(fastest, 2 * invt2 * 1e-3, rel_tol=1e-9)
        rho = np.zeros((3, 3), dtype=complex)
        rho[0, 2] = rho[2, 0] = 0.5
        rho[0, 0] = rho[2, 2] = 0.5
        vec = rho.flatten(order="F")
        for t in (10.0, 100.0, 1000.0):
            evolved = (expm(t * gen) @ vec).reshape(3, 3, order="F")
            assert math.isclose(
                abs(evolved[0, 2]), 0.5 * math.exp(-fastest * t), rel_tol=1e-9
            )

    def test_trace_preservation_random(self):
        rng = np.random.default_rng(11)
        vec_id = np.eye(3, dtype=complex).flatten(order="F")
        for _ in range(25):
            prop = lindblad_propagator(
                random_spin(rng),
                rng.uniform(2860, 2880),
                int(rng.choice([-1, 0, 1])),
                rng.uniform(-1, 1),
                rng.uniform(0, 800),
            )
            assert np.max(np.abs(vec_id @ prop - vec_id)) <= 1e-9

    def test_output_state_hermitian_unit_trace(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            rho = a @ a.conj().T
            rho /= np.trace(rho)
            prop = lindblad_propagator(
                random_spin(rng), 2872.0, 1, 0.8, rng.uniform(0, 500)
            )
            out = (prop @ rho.flatten(order="F")).reshape(3, 3, order="F")
            assert abs(np.trace(out) - 1.0) <= 1e-9
            assert np.max(np.abs(out - out.conj().T)) <= 1e-9

    def test_composition_for_constant_amplitude(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            params = random_spin(rng)
            t1, t2 = rng.uniform(5, 200, size=2)
            p1 = lindblad_propagator(params, 2870.0, 0, 1.0, t1)
            p2 = lindblad_propagator(params, 2870.0, 0, 1.0, t2)
            p12 = lindblad_propagator(params, 2870.0, 0, 1.0, t1 + t2)
            assert np.linalg.norm(p12 - p2 @ p1) <= 1e-8


class TestSurvivalProbability:
    def test_vanishing_pulse_time_gives_unity(self):
        p = survival_probability(
            spin(rabi=11.55, zeeman=2.0, hyperfine=2.18, invt2=0.35),
            ExperimentConfig("rabi", pulse_time=1e-6),
        )
        assert p == pytest.approx(1.0, abs=1e-6)

    def test_ideal_rabi_matches_closed_form(self):
        # |0> expanded in the Sx eigenbasis gives p = cos^2(2 pi Omega t).
        omega = 11.55
        for t_p in np.linspace(1.0, 120.0, 50):
            p = survival_probability(
                spin(rabi=omega), ExperimentConfig("rabi", pulse_time=float(t_p))
            )
            expected = math.cos(2 * math.pi * omega * t_p * 1e-3) ** 2
            assert abs(p - expected) <= 1e-6
        # quarter-period null
        p_null = survival_probability(
            spin(rabi=omega), ExperimentConfig("rabi", pulse_time=1e3 / (4 * omega))
        )
        assert p_null == pytest.approx(0.0, abs=1e-9)

    def test_ramsey_against_step_integration_oracle(self):
        # Brute-force oracle: piecewise evolution with dt = 0.1 ns dense
        # matrix exponentials, amplitudes (1, 0, 1).
        params = spin(rabi=11.55, zeeman=2.5, zfs=-0.8, hyperfine=2.18, invt2=0.35)
        t_p = 22.0
        for t_w in (40.0, 250.0, 900.0):
            total = 0.0
            for mi in (-1, 0, 1):
                rho = np.zeros((3, 3), dtype=complex)
                rho[1, 1] = 1.0
                vec = rho.flatten(order="F")
                for amp, duration in ((1.0, t_p), (0.0, t_w), (1.0, t_p)):
                    gen = lindblad_generator(params, 2870.0, mi, amp)
                    steps = max(1, int(round(duration / 0.1)))
                    step_prop = expm((duration / steps) * gen)
                    for _ in range(steps):
                        vec = step_prop @ vec
                total += vec.reshape(3, 3, order="F")[1, 1].real
            oracle = total / 3.0
            cfg = ExperimentConfig("ramsey", pulse_time=t_p, wait_time=t_w)
            assert survival_probability(params, cfg) == pytest.approx(oracle, abs=1e-9)

    def test_ramsey_oscillates_at_zeeman_controlled_frequency(self):
        params = spin(rabi=11.55, zeeman=3.0)
        t_p = 1e3 / (4 * 11.55)
        waits = np.linspace(0.0, 2000.0, 400)
        probs = np.array(
            [
                survival_probability(
                    params, ExperimentConfig("ramsey", pulse_time=t_p, wait_time=max(w, 1e-9))
                )
                for w in waits
            ]
        )
        spectrum = np.abs(np.fft.rfft(probs - probs.mean()))
        freqs = np.fft.rfftfreq(len(waits), d=(waits[1] - waits[0]) * 1e-3)  # MHz
        peak = freqs[int(np.argmax(spectrum))]
        # phase accumulates between |+1> and |-1>: frequency 2 * zeeman
        assert peak == pytest.approx(2 * 3.0, abs=freqs[1])

    def test_probability_in_unit_interval_randomized(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            p = survival_probability(random_spin(rng), random_config(rng))
            assert 0.0 <= p <= 1.0

    def test_branches_identical_when_hyperfine_vanishes(self):
        params = spin(rabi=8.0, zeeman=4.0, zfs=1.0, hyperfine=0.0, invt2=0.2)
        cfg = ExperimentConfig("ramsey", pulse_time=30.0, wait_time=500.0)
        per_branch = [
            lindblad_propagator(params, 2870.0, mi, 1.0, 30.0) for mi in (-1, 0, 1)
        ]
        for prop in per_branch[1:]:
            assert np.allclose(prop, per_branch[0], atol=1e-12)
        # and the averaged probability equals any single branch
        assert survival_probability(params, cfg) == pytest.approx(
            survival_probability(
                SpinParams(8.0, 4.0, 1.0, 0.0, 0.2), cfg
            )
        )


class TestBatchedEvaluation:
    def test_single_config_batch_matches_scalar_path(self):
        rng = np.random.default_rng(31)
        spins = np.array([random_spin(rng).as_array() for _ in range(12)])
        for cfg in (
            ExperimentConfig("rabi", pulse_time=137.0),
            ExperimentConfig("ramsey", pulse_time=22.0, wait_time=640.0),
        ):
            batch = survival_table(spins, [cfg])[0]
            for i in range(spins.shape[0]):
                scalar = survival_probability(SpinParams(*spins[i]), cfg)
                assert batch[i] == pytest.approx(scalar, abs=1e-10)

    def test_table_matches_scalar_on_mixed_grid(self):
        rng = np.random.default_rng(37)
        spins = np.array([random_spin(rng).as_array() for _ in range(6)])
        configs = [
            ExperimentConfig("rabi", pulse_time=float(t)) for t in (5, 10, 15, 25)
        ] + [
            ExperimentConfig("ramsey", pulse_time=22.0, wait_time=float(w))
            for w in (20, 333.5, 1740)
        ]
        table = survival_table(spins, configs)
        assert table.shape == (len(configs), 6)
        for c, cfg in enumerate(configs):
            for i in range(6):
                assert table[c, i] == pytest.approx(
                    survival_probability(SpinParams(*spins[i]), cfg), abs=1e-9
                )

    def test_table_handles_non_arithmetic_rabi_grid(self):
        rng = np.random.default_rng(41)
        spins = np.array([random_spin(rng).as_array() for _ in range(4)])
        configs = [
            ExperimentConfig("rabi", pulse_time=t) for t in (7.3, 19.1, 101.7)
        ]
        table = survival_table(spins, configs)
        for c, cfg in enumerate(configs):
            for i in range(4):
                assert table[c, i] == pytest.approx(
                    survival_probability(SpinParams(*spins[i]), cfg), abs=1e-9
                )


class TestConfigValidation:
    def test_rabi_with_wait_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig("rabi", pulse_time=10.0, wait_time=5.0)

    def test_evolution_time(self):
        assert ExperimentConfig("rabi", pulse_time=10.0).evolution_time == 10.0
        assert (
            ExperimentConfig("ramsey", pulse_time=10.0, wait_time=100.0).evolution_time
            == 120.0
        )

    def test_round_trip_dict(self):
        cfg = ExperimentConfig("ramsey", 22.0, 640.0, 2870.0, 4667)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_shape_is_every_field_but_repetitions(self):
        cfg = ExperimentConfig("ramsey", 22.0, 640.0, 2871.5, 4667)
        assert cfg.shape == ("ramsey", 22.0, 640.0, 2871.5)
        assert ExperimentConfig("ramsey", 22.0, 640.0, 2871.5, 3).shape == cfg.shape
        assert ExperimentConfig("ramsey", 22.0, 640.0, 2870.0, 4667).shape != cfg.shape

    def test_shape_follows_the_fields(self):
        # shape is spelled out; a new field must join it, in field order, or
        # configs that differ in it would share survival rows and waveforms
        cfg = ExperimentConfig("ramsey", 22.0, 640.0, 2871.5, 4667)
        names = [f.name for f in dataclasses.fields(cfg) if f.name != "repetitions"]
        assert cfg.shape == tuple(getattr(cfg, name) for name in names)

    @pytest.mark.parametrize("value", [2.9, True, "500", None])
    def test_from_dict_takes_only_integral_repetitions(self, value):
        with pytest.raises(ValueError, match="integral"):
            ExperimentConfig.from_dict(
                {"kind": "rabi", "pulse_time": 20.0, "repetitions": value}
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("pulse_time", "22"),
            ("pulse_time", True),
            ("wait_time", "640"),
            ("wait_time", False),
            ("drive_frequency", "2870"),
            ("drive_frequency", True),
            ("pulse_time", None),
        ],
    )
    def test_from_dict_takes_only_numeric_timing(self, field, value):
        d = {"kind": "ramsey", "pulse_time": 22.0, "wait_time": 640.0, "repetitions": 5}
        with pytest.raises(ValueError, match=field):
            ExperimentConfig.from_dict({**d, field: value})

    def test_from_dict_takes_integer_timing(self):
        cfg = ExperimentConfig.from_dict(
            {"kind": "ramsey", "pulse_time": 22, "wait_time": 640,
             "drive_frequency": 2870, "repetitions": 5}
        )
        assert cfg == ExperimentConfig("ramsey", 22.0, 640.0, 2870.0, 5)
        assert type(cfg.pulse_time) is float and type(cfg.drive_frequency) is float

    def test_from_dict_takes_an_integral_float(self):
        cfg = ExperimentConfig.from_dict(
            {"kind": "rabi", "pulse_time": 20.0, "repetitions": 500.0}
        )
        assert cfg.repetitions == 500 and type(cfg.repetitions) is int
