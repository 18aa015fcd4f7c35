"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracing.py`` swaps module and class attributes of ``nvbed`` for
timing wrappers by name.  Entering its ``Instrumentation`` here makes a
renamed or removed attribute fail the unit tests, not only traced
benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from nvbed import lab
from nvbed.qutrit import ExperimentConfig

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
