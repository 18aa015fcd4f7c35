"""Span recorder and per-layer instrumentation for the traced benchmark run.

The traced run swaps public functions of the ``nvbed`` modules for timing
wrappers (module attributes only; no source file is edited), records one
span per call, and folds the spans into per-layer metrics.  Spans stay in
memory and are written out once, when the run ends.

A span has a name, host start and end times (``time.perf_counter``), the
index of its parent span and the id ``(workload, trial, step)`` that was
current when it opened.  Each thread keeps its own parent stack, because the
harness runs ``lab.run`` on its executor thread; the first span on any
thread hangs under the trial's root span.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps

import numpy as np

from nvbed import harness, heuristics, qutrit, risk, smc
from nvbed import lab as labmod

# Main-thread spans that make up a loop step's own work (update, drift,
# design, tracking); everything else in a step is waiting on the lab.
BUSY_SPANS = (
    "smc.drift_step",
    "smc.bayes_update",
    "smc.reference_reset",
    "heuristics.next_experiment",
    "lab.track",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    span_id: tuple
    thread: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory spans with a per-thread parent stack."""

    def __init__(self, workload: str):
        self.workload = workload
        self.trial = 0
        self.step = 0
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.root: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        span = Span(
            name,
            time.perf_counter(),
            float("nan"),
            parent,
            (self.workload, self.trial, self.step),
            threading.get_ident(),
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        try:
            yield index
        finally:
            span.end = time.perf_counter()
            stack.pop()

    @contextmanager
    def trial_root(self):
        """Root span of the next trial; spans on other threads hang under it."""
        self.trial += 1
        self.step = 0
        with self.span("harness.run_trial") as index:
            self.root = index
            yield index

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def ancestors(self, index: int):
        parent = self.spans[index].parent
        while parent is not None:
            yield self.spans[parent]
            parent = self.spans[parent].parent

    def self_seconds(self, index: int) -> float:
        """Span duration minus the part of it that child spans cover."""
        span = self.spans[index]
        children = sorted(
            (s.start, s.end) for s in self.spans if s.parent == index
        )
        covered, cursor = 0.0, span.start
        for start, end in children:
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        return span.seconds - covered

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "index": index,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "id": list(s.span_id),
                            "thread": s.thread,
                        }
                    )
                    + "\n"
                )


def _matrices(array) -> int:
    shape = np.shape(array)
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


class Instrumentation:
    """Swaps nvbed functions for span-recording wrappers while active.

    Counters ride on the same wrappers, so each ratio is measured where the
    work happens.  ``with Instrumentation(recorder):`` installs the wrappers
    and restores every original attribute on exit.
    """

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._saved: list = []

    def __enter__(self):
        rec = self.recorder

        def after_survival_table(index, args, result):
            spins, configs = args[0], args[1]
            rec.count("qutrit.survival_table.cells", len(configs) * np.shape(spins)[0])

        def after_expm(index, args, result):
            # the lab's scalar simulation is reported as lab.simulate
            if not any(a.name == "lab.simulate" for a in rec.ancestors(index)):
                rec.count("qutrit.expm.calls")
                rec.count("qutrit.expm.matrices", _matrices(args[0]))
                rec.count("qutrit.expm.s", rec.spans[index].seconds)

        def after_bayes_update(index, args, result):
            report = result[1]
            rec.count("smc.substeps", report.substeps)
            rec.count("smc.resampled", int(report.resampled))
            rec.count("smc.retried", int(report.retried))

        def after_lookup(index, args, result):
            rec.count("heuristics.lookup.hits", int(result is not None))

        def after_mis_risk(index, args, result):
            rec.count("risk.outcomes", result.n_outcomes)
            rec.count("risk.dropped_outcomes", result.n_dropped)

        def after_next_experiment(index, args, result):
            profile = getattr(args[0], "last_profile", None)
            if profile:
                chosen = [est for cfg, est in profile if cfg == result]
                if chosen and not chosen[0].reliable:
                    rec.count("risk.unreliable_picks")

        targets = [
            (qutrit, "survival_table", "qutrit.survival_table", after_survival_table),
            (qutrit, "expm", "qutrit.expm", after_expm),
            (smc, "bayes_update", "smc.bayes_update", after_bayes_update),
            (smc, "liu_west_resample", "smc.liu_west_resample", None),
            (smc, "drift_step", "smc.drift_step", None),
            (smc, "reference_reset", "smc.reference_reset", None),
            (smc, "sample_prior", "smc.sample_prior", None),
            # smc binds measurement.log_likelihood by name at import
            (smc, "log_likelihood", "measurement.log_likelihood", None),
            (
                heuristics.Heuristic,
                "next_experiment",
                "heuristics.next_experiment",
                after_next_experiment,
            ),
            (heuristics.SurvivalTableCache, "table", "heuristics.table", None),
            (heuristics.SurvivalTableCache, "lookup", "heuristics.lookup", after_lookup),
            (risk, "risk_profile", "risk.risk_profile", None),
            (risk, "mis_risk", "risk.mis_risk", after_mis_risk),
            (
                risk.NvModel,
                "log_likelihood_matrix",
                "risk.log_likelihood_matrix",
                None,
            ),
            # lab binds qutrit.survival_probability by name at import
            (labmod, "survival_probability", "lab.simulate", None),
            (harness, "calibrate_reference_prior", "harness.calibration", None),
        ]
        for owner, attribute, name, after in targets:
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name, after))
        return self

    def _wrap(self, fn, name, after):
        rec = self.recorder

        @wraps(fn)
        def wrapper(*args, **kwargs):
            with rec.span(name) as index:
                result = fn(*args, **kwargs)
            if after is not None:
                after(index, args, result)
            return result

        return wrapper

    def __exit__(self, *exc):
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()


# ----------------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------------

# name -> (unit, which direction is better)
PER_LAYER = {
    "qutrit.survival_table.s": ("s", "lower"),
    "qutrit.survival_table.design_s": ("s", "lower"),
    "qutrit.survival_table.update_s": ("s", "lower"),
    "qutrit.survival_table.cells": ("count", "lower"),
    "qutrit.survival_table.ns_per_cell": ("ns", "lower"),
    "qutrit.expm.calls": ("count", "lower"),
    "qutrit.expm.matrices": ("count", "lower"),
    "qutrit.expm.s": ("s", "lower"),
    "smc.bayes_update.calls": ("count", "lower"),
    "smc.bayes_update.s": ("s", "lower"),
    "smc.bayes_update.self_s": ("s", "lower"),
    "smc.substeps": ("count", "lower"),
    "smc.resampled": ("count", "lower"),
    "smc.retried": ("count", "lower"),
    "smc.liu_west_resample.s": ("s", "lower"),
    "smc.drift_step.s": ("s", "lower"),
    "smc.sample_prior.s": ("s", "lower"),
    "measurement.log_likelihood.s": ("s", "lower"),
    "heuristics.next_experiment.calls": ("count", "lower"),
    "heuristics.next_experiment.s": ("s", "lower"),
    "heuristics.table.calls": ("count", "lower"),
    "heuristics.table.rebuilds": ("count", "lower"),
    "heuristics.table.hit_ratio": ("ratio", "higher"),
    "heuristics.lookup.calls": ("count", "lower"),
    "heuristics.lookup.hits": ("count", "higher"),
    "risk.risk_profile.s": ("s", "lower"),
    "risk.mis_risk.calls": ("count", "lower"),
    "risk.mis_risk.s": ("s", "lower"),
    "risk.log_likelihood_matrix.s": ("s", "lower"),
    "risk.outcomes": ("count", "lower"),
    "risk.dropped_outcomes": ("count", "lower"),
    "risk.unreliable_picks": ("count", "lower"),
    "lab.run.calls": ("count", "lower"),
    "lab.run.ms_p50": ("ms", "lower"),
    "lab.track.calls": ("count", "lower"),
    "lab.waveform_hits": ("count", "higher"),
    "lab.simulate.s": ("s", "lower"),
    "lab.sim_s_per_experiment": ("s", "lower"),
    "harness.step_s_p50": ("s", "lower"),
    "harness.step_samples": ("count", "higher"),
    "harness.lab_duty": ("ratio", "higher"),
    "harness.step.busy_s": ("s", "lower"),
    "harness.step.wait_s": ("s", "lower"),
    "harness.setup.calibration_s": ("s", "lower"),
    "harness.setup.design_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
    "trace.base_s_per_experiment": ("s", "lower"),
    "trace.traced_s_per_experiment": ("s", "lower"),
}


def layer_metrics(rec: SpanRecorder, trial: dict) -> dict:
    """Per-layer metrics of one traced trial.

    ``trial`` carries the lab wrapper's host stamps: ``loop_start`` (the
    first designed experiment reaching the lab), ``ended`` and
    ``experiments``.  Times are seconds per trial unless the name says
    otherwise.
    """
    spans = rec.spans
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(index)

    def total(name, where=lambda i: True):
        return sum(spans[i].seconds for i in by_name.get(name, ()) if where(i))

    def calls(name, where=lambda i: True):
        return sum(1 for i in by_name.get(name, ()) if where(i))

    def under(index, name):
        return any(a.name == name for a in rec.ancestors(index))

    main = spans[rec.root].thread
    loop_start, ended = trial["loop_start"], trial["ended"]
    n_exp = trial["experiments"]
    counter = rec.counters.get

    table_s = total("qutrit.survival_table")
    cells = counter("qutrit.survival_table.cells", 0)
    table_calls = calls("heuristics.table")
    rebuilds = sum(
        1
        for i in by_name.get("qutrit.survival_table", ())
        if spans[i].parent is not None and spans[spans[i].parent].name == "heuristics.table"
    )
    busy = sum(
        spans[i].seconds
        for name in BUSY_SPANS
        for i in by_name.get(name, ())
        if spans[i].thread == main and spans[i].start >= loop_start
    )
    run_ms = [spans[i].seconds * 1e3 for i in by_name.get("lab.run", ())]
    bayes = by_name.get("smc.bayes_update", ())
    return {
        "qutrit.survival_table.s": table_s,
        "qutrit.survival_table.design_s": total(
            "qutrit.survival_table",
            lambda i: under(i, "heuristics.next_experiment"),
        ),
        "qutrit.survival_table.update_s": total(
            "qutrit.survival_table", lambda i: under(i, "smc.bayes_update")
        ),
        "qutrit.survival_table.cells": cells,
        "qutrit.survival_table.ns_per_cell": table_s / cells * 1e9 if cells else 0.0,
        "qutrit.expm.calls": counter("qutrit.expm.calls", 0),
        "qutrit.expm.matrices": counter("qutrit.expm.matrices", 0),
        "qutrit.expm.s": counter("qutrit.expm.s", 0.0),
        "smc.bayes_update.calls": len(bayes),
        "smc.bayes_update.s": total("smc.bayes_update"),
        "smc.bayes_update.self_s": sum(rec.self_seconds(i) for i in bayes),
        "smc.substeps": counter("smc.substeps", 0),
        "smc.resampled": counter("smc.resampled", 0),
        "smc.retried": counter("smc.retried", 0),
        "smc.liu_west_resample.s": total("smc.liu_west_resample"),
        "smc.drift_step.s": total("smc.drift_step"),
        "smc.sample_prior.s": total("smc.sample_prior"),
        "measurement.log_likelihood.s": total("measurement.log_likelihood"),
        "heuristics.next_experiment.calls": calls("heuristics.next_experiment"),
        "heuristics.next_experiment.s": total("heuristics.next_experiment"),
        "heuristics.table.calls": table_calls,
        "heuristics.table.rebuilds": rebuilds,
        "heuristics.table.hit_ratio": (
            (table_calls - rebuilds) / table_calls if table_calls else 0.0
        ),
        "heuristics.lookup.calls": calls("heuristics.lookup"),
        "heuristics.lookup.hits": counter("heuristics.lookup.hits", 0),
        "risk.risk_profile.s": total("risk.risk_profile"),
        "risk.mis_risk.calls": calls("risk.mis_risk"),
        "risk.mis_risk.s": total("risk.mis_risk"),
        "risk.log_likelihood_matrix.s": total("risk.log_likelihood_matrix"),
        "risk.outcomes": counter("risk.outcomes", 0),
        "risk.dropped_outcomes": counter("risk.dropped_outcomes", 0),
        "risk.unreliable_picks": counter("risk.unreliable_picks", 0),
        "lab.run.calls": len(run_ms),
        "lab.run.ms_p50": statistics.median(run_ms) if run_ms else 0.0,
        "lab.track.calls": calls("lab.track"),
        "lab.waveform_hits": counter("lab.waveform_hits", 0),
        "lab.simulate.s": total("lab.simulate"),
        "lab.sim_s_per_experiment": trial["sim_s"] / n_exp,
        "harness.step.busy_s": busy / n_exp,
        "harness.step.wait_s": ((ended - loop_start) - busy) / n_exp,
        "harness.setup.calibration_s": total("harness.calibration"),
        "harness.setup.design_s": total(
            "heuristics.next_experiment", lambda i: spans[i].start < loop_start
        ),
    }
