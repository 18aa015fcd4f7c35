"""The package runs with numpy alone: SciPy is a test dependency only."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

TRIALS_WITHOUT_SCIPY = """
import importlib.abc
import sys


class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is not installed")
        return None


sys.meta_path.insert(0, NoScipy())
from nvbed import harness

for name in ("alternating_linear", "uniform_risk"):
    config = harness.RunConfig(
        heuristics=[name], trials=1, experiments=3, particles=50,
        risk_outcomes=16, risk_particles=32, candidate_m=4, seed=5,
    )
    record, _ = harness.run_trial(config, name, 0)
    assert len(record.steps) == 3, record
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
print("ok")
"""


def test_offline_and_online_trials_run_without_scipy():
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    result = subprocess.run(
        [sys.executable, "-c", TRIALS_WITHOUT_SCIPY],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"
