"""The records the behaviour gate holds, and the command that rewrites them.

    PYTHONPATH=src python tests/behaviour_gate.py

runs one trial of each policy on each spin prior, at K = 300 particles,
7 experiments, 512x1024 MIS, 8 candidates per grid and seed 11, and writes
each step's config, posterior mean and posterior variance to
``behaviour_gate.json`` beside this file.  ``test_behaviour_gate.py`` runs
the same trials and compares them with that file.  Rewrite it only in a
change that moves records on purpose, and list the picks it moved.
"""

import json
import sys
from pathlib import Path

from nvbed import harness, heuristics, smc

FIXTURE = Path(__file__).resolve().parent / "behaviour_gate.json"
RUN = dict(
    trials=1, experiments=7, particles=300, risk_outcomes=512, risk_particles=1024,
    candidate_m=8, seed=11,
)


def cases() -> list:
    """(policy, prior) of every trial the gate holds."""
    return [
        (policy, prior) for policy in heuristics.POLICIES for prior in smc.SPIN_PRIORS
    ]


def steps(policy: str, prior: str) -> list:
    """Config, posterior mean and posterior variance of each step of the
    trial of ``policy`` on ``prior``."""
    config = harness.RunConfig(heuristics=[policy], prior=prior, **RUN)
    record, _ = harness.run_trial(config, policy, 0)
    keys = ("config", "posterior_mean", "posterior_variance")
    return [{key: step[key] for key in keys} for step in record.steps]


def main() -> int:
    records = {f"{policy}/{prior}": steps(policy, prior) for policy, prior in cases()}
    # one line per step, so that a moved record shows as moved lines
    trials = ",\n".join(
        f" {json.dumps(name)}: [\n  " + ",\n  ".join(map(json.dumps, record)) + "\n ]"
        for name, record in records.items()
    )
    FIXTURE.write_text(
        f'{{"run": {json.dumps(RUN)},\n"records": {{\n{trials}\n}}}}\n'
    )
    print(f"wrote {len(records)} trials to {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
