"""Behaviour gate: small trials of every policy and prior make the records
``behaviour_gate.json`` holds.

Each step's config must be the same, field for field, and its posterior
mean and variance the same within ``RTOL`` relative.  Rounding moves the
moments by far less: a changed order of floating-point operations moved
them by at most 4.2e-13 on these trials, and by 4.1e-11 over 64
paper-scale picks.  Anything that changes a draw moves them by far more: one
particle of 300 resampled to another moves a mean by about a 300th of the
posterior's spread.  A change that moves records on purpose rewrites the
file with ``python tests/behaviour_gate.py`` and lists the moved picks.
"""

import json

import numpy as np
import pytest

import behaviour_gate

RTOL = 1e-9
FIXTURE = json.loads(behaviour_gate.FIXTURE.read_text())


def first_difference(got: list, held: list):
    """Where and how the first step of ``got`` that differs from ``held``
    differs, or None."""
    if len(got) != len(held):
        return f"{len(got)} steps against {len(held)}"
    for n, (step, expected) in enumerate(zip(got, held), start=1):
        if step["config"] != expected["config"]:
            return f"step {n}: config {step['config']} against {expected['config']}"
        for key in ("posterior_mean", "posterior_variance"):
            a, b = np.array(step[key]), np.array(expected[key])
            change = np.abs(a - b) / np.abs(b)
            if not change.max() <= RTOL:
                at = int(np.argmax(change))
                moved, had = float(a[at]), float(b[at])
                return f"step {n}: {key}[{at}] {moved!r} against {had!r}"
    return None


def test_the_gate_runs_what_its_fixture_holds():
    assert FIXTURE["run"] == behaviour_gate.RUN
    assert sorted(FIXTURE["records"]) == sorted(
        f"{policy}/{prior}" for policy, prior in behaviour_gate.cases()
    )


@pytest.mark.parametrize("policy, prior", behaviour_gate.cases())
def test_the_trial_makes_the_held_record(policy, prior):
    held = FIXTURE["records"][f"{policy}/{prior}"]
    assert first_difference(behaviour_gate.steps(policy, prior), held) is None


def test_a_moved_pick_or_moment_is_named():
    held = FIXTURE["records"]["uniform_risk/wide"]
    moved = json.loads(json.dumps(held))
    moved[3]["posterior_variance"][2] *= 1.0 + 10 * RTOL
    assert first_difference(moved, held).startswith("step 4: posterior_variance[2]")
    moved[1]["config"]["repetitions"] += 1
    assert first_difference(moved, held).startswith("step 2: config")
    assert first_difference(held[:-1], held) == "6 steps against 7"
    assert first_difference(held, held) is None
