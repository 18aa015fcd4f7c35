"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracing.py`` swaps module and class attributes of ``nvbed`` for
timing wrappers by name.  Entering its ``Instrumentation`` here makes a
renamed or removed attribute fail the unit tests, not only traced
benchmark runs.
"""

import importlib.util
import os
import sys
import threading
from pathlib import Path

import numpy as np

from nvbed import heuristics, lab, risk
from nvbed.qutrit import ExperimentConfig
from nvbed.smc import PriorSpec, sample_prior
from helpers import random_rows

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_instrumentation_wraps_and_restores_every_name(monkeypatch):
    tracing = load_tracing(monkeypatch)
    recorder = tracing.SpanRecorder("names")
    with tracing.Instrumentation(recorder) as instrumentation:
        swapped = list(instrumentation._saved)
        assert swapped
        for owner, attribute, original in swapped:
            assert owner.__dict__[attribute] is not original, attribute
        # the lab simulates through the module global the tracer wraps
        system = lab.TrueSystem(lab.default_truth(), np.random.default_rng(0))
        system.execute(ExperimentConfig("rabi", 20.0, repetitions=10))
        assert recorder.spans[0].name == "lab.simulate"
    for owner, attribute, original in swapped:
        assert owner.__dict__[attribute] is original, attribute


def test_profile_workers_call_the_wrapped_names(monkeypatch):
    # risk_profile's threads must reach mis_risk and the model's table through
    # the attributes the tracer swaps, or the per-layer risk metrics go blank;
    # with two cores large tables fan out to the caller and one worker, small
    # ones run on the caller only
    tracing = load_tracing(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    cloud = sample_prior(PriorSpec(), 256, np.random.default_rng(0))
    configs = [
        ExperimentConfig("rabi", float(t), repetitions=500) for t in range(10, 90, 10)
    ]
    p_table = random_rows(configs, cloud.size, 1)
    assert 16 * 32 < risk._POOL_MIN_CELLS <= 512 * 256
    for n_outcomes, n_particles, fans_out in ((512, 256, True), (16, 32, False)):
        recorder = tracing.SpanRecorder("names")
        with tracing.Instrumentation(recorder):
            profile = risk.risk_profile(
                cloud, configs, risk.uniform_weight_matrix(), np.random.default_rng(2),
                n_outcomes=n_outcomes, n_particles=n_particles, p_table=p_table,
            )
        assert len(profile) == 8
        names = [span.name for span in recorder.spans]
        assert names.count("risk.risk_profile") == 1
        assert names.count("risk.mis_risk") == 8
        assert recorder.counters["risk.outcomes"] == 8 * n_outcomes
        tables = [s for s in recorder.spans if s.name == "risk.log_likelihood_matrix"]
        threads = {span.thread for span in tables}
        assert tables
        if fans_out:
            assert len(threads) == 2 and threading.get_ident() in threads
        else:
            assert threads == {threading.get_ident()}


def test_the_tracer_sees_every_screen_estimate(monkeypatch):
    # the design's screen estimates each candidate through risk.mis_risk, so
    # the per-layer risk metrics count the screen as well as the survivors
    tracing = load_tracing(monkeypatch)
    recorder = tracing.SpanRecorder("names")
    cloud = sample_prior(PriorSpec(), 300, np.random.default_rng(3))
    n_full = 256
    policy = heuristics.make_heuristic(
        "uniform_risk", rabi_m=8, ramsey_m=8, n_outcomes=n_full, n_particles=n_full
    )
    with tracing.Instrumentation(recorder):
        policy.next_experiment(cloud, 0, np.random.default_rng(4))
    profile = policy.last_profile
    n_screen = n_full // risk.SCREEN_SHRINK
    survivors = sum(est.n_outcomes == n_full for _, est in profile)
    assert len(profile) == 16 and survivors >= 1
    names = [span.name for span in recorder.spans]
    assert names.count("risk.mis_risk") == len(profile) + survivors
    assert recorder.counters["risk.outcomes"] == (
        len(profile) * n_screen + survivors * n_full
    )
