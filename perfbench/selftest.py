"""Tiny-scale self-test of the benchmark (not part of the unit-test suite).

    python3 perfbench/selftest.py

Runs every workload at K=200 particles, 4 experiments and 5+5 candidates,
untraced and traced, and checks that

* every metric named in BENCHMARK.json is emitted, in its unit,
* the survival-table, expm and risk counters are nonzero where the
  workload exercises them and zero where it does not,
* untraced and traced repeats give the same record digest, and
* the digest check flags a perturbed record.

``heuristics.lookup.calls`` is only required to be emitted: at the seed it
reads 0 on every workload, because the update never asks the design table
for its row (ROADMAP item 3).  Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import run  # pins BLAS threads and puts this checkout's src on the path
import tracing
from nvbed import harness

TINY = dict(
    particles=200, experiments=4, grid_m=5, risk_outcomes=32, risk_particles=64
)
# counters that must be > 0 on the online (risk) workloads and 0 offline
DESIGN_COUNTERS = (
    "heuristics.table.calls",
    "qutrit.survival_table.design_s",
    "risk.mis_risk.calls",
    "risk.outcomes",
)
ALWAYS_NONZERO = (
    "qutrit.expm.calls",
    "qutrit.expm.matrices",
    "qutrit.survival_table.cells",
    "smc.bayes_update.calls",
    "heuristics.next_experiment.calls",
    "lab.run.calls",
)


def check(condition: bool, message: str, failures: list) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def main() -> int:
    failures: list = []
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    check(
        declared == {k: u for k, (u, _) in run.END_TO_END.items()},
        "BENCHMARK.json end_to_end matches run.END_TO_END",
        failures,
    )
    declared_layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(
        declared_layers == {k: u for k, (u, _) in tracing.PER_LAYER.items()},
        "BENCHMARK.json per_layer matches tracing.PER_LAYER",
        failures,
    )
    check(
        [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
        "BENCHMARK.json workloads match run.WORKLOADS",
        failures,
    )

    for name, full in run.WORKLOADS.items():
        workload = replace(full, **TINY)
        plain = run.measure(name, workload, 5, 0.0, 0)
        traced = run.measure(name, workload, 5, 0.0, 1)
        trials = plain["trials"] + traced["trials"]
        check(
            # min_truths fresh ones, the closing repeat, base and traced
            len(trials) == workload.min_truths + 3,
            f"{name}: all trials completed",
            failures,
        )
        check(
            plain["failed"] == traced["failed"] == 0, f"{name}: nothing failed", failures
        )
        check(not run.check_trials(trials), f"{name}: trial checks pass", failures)
        check(
            set(plain["metrics"]) == set(run.END_TO_END),
            f"{name}: every end-to-end metric emitted",
            failures,
        )
        layers = traced["metrics"]
        check(
            set(layers) == set(tracing.PER_LAYER),
            f"{name}: every per-layer metric emitted",
            failures,
        )
        online = full.heuristic != "alternating_linear"
        for counter in DESIGN_COUNTERS:
            value = layers.get(counter, 0)
            check(
                (value > 0) == online,
                f"{name}: {counter} = {value:g} ({'nonzero' if online else 'zero'})",
                failures,
            )
        for counter in ALWAYS_NONZERO:
            value = layers.get(counter, 0)
            check(value > 0, f"{name}: {counter} = {value:g} (nonzero)", failures)
        check(
            "heuristics.lookup.calls" in layers,
            f"{name}: heuristics.lookup.calls emitted "
            f"({layers.get('heuristics.lookup.calls')})",
            failures,
        )

    # the digest check must catch a record that differs in one count
    workload = replace(run.WORKLOADS["offline_wide"], **TINY)
    record, _ = harness.run_trial(
        run.run_config(workload, 5), workload.heuristic, 0
    )
    good = run.record_digest(record)
    record.steps[-1]["datum"]["Z"] += 1
    bad = run.record_digest(record)
    trials = [
        {"index": 0, "complete": True, "final_risk": 0.0, "prior_risk": 1.0, "digest": d}
        for d in (good, bad)
    ]
    check(
        "trial records differ between repeats" in run.check_trials(trials),
        "digest check flags a perturbed record",
        failures,
    )

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
