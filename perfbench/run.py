"""Benchmark of the nvbed online experiment-design loop.

    python3 perfbench/run.py --workload online_wide --seed 3 --seconds 55 --trace 0

Each run is a closed loop with one client: the trial loop of
``nvbed.harness.run_trial``, with at most one experiment in flight.  The
truth and the simulated lab are built from ``--seed``; the engine sees only
the lab's data.  The run does one untimed tiny warm-up trial, then runs
trials with fresh truths drawn from the seed until ``--seconds`` have
passed, then the first trial once more, and checks that

* every trial finishes all its experiments,
* the repeat produces the same SHA-256 of ``TrialRecord.to_json()``, and
* the final Tr[Q Cov] of the spin block is below the prior's.

``--trace 0`` reports the end-to-end metrics (tracing off).  ``--trace 1``
runs the trial once untraced and once with the span recorder of
``tracing.py`` wrapped around every layer, requires equal record digests,
and reports the per-layer metrics.  The last line of standard output is one
JSON object; a fuller record (environment, per-trial samples, spans) is
written under ``perfbench/out/``.  See README.md in this directory.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# One BLAS thread: the harness already overlaps the lab thread with the
# engine, and a pinned count keeps runs on a shared 2-core host steady.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# the program under test is this checkout's source tree, never an install
if not (SRC / "nvbed" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no nvbed sources under {SRC}")
sys.path.insert(0, str(SRC))

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import nvbed  # noqa: E402
from nvbed import harness, make_heuristic, risk, smc  # noqa: E402
from nvbed import lab as labmod  # noqa: E402

if Path(nvbed.__file__).resolve().parent != SRC / "nvbed":
    raise SystemExit(f"perfbench: imported nvbed from {nvbed.__file__}")


@dataclass(frozen=True)
class Workload:
    heuristic: str
    prior: str
    particles: int
    experiments: int
    # A run draws trials 0, 1, 2, ... from its seed, each with its own truth,
    # lab stream and engine streams, until ``--seconds`` are used up, and
    # always at least ``min_truths`` of them.
    min_truths: int
    grid_m: int = 100  # points per Rabi/Ramsey grid (sweep or candidates)
    risk_outcomes: int = 512
    risk_particles: int = 1024

    def policy(self):
        """The design policy, built through the public registry.

        Passing it to ``run_trial`` keeps the paper's 100-point grids for
        the offline sweep too; the harness would otherwise size that sweep
        from the (short) experiment count, and its coarse Rabi grid aliases.
        """
        sizes = dict(rabi_m=self.grid_m, ramsey_m=self.grid_m)
        if self.heuristic.endswith("_risk"):
            sizes.update(
                n_outcomes=self.risk_outcomes, n_particles=self.risk_particles
            )
        return make_heuristic(self.heuristic, **sizes)


# Why each workload was chosen is recorded in BENCHMARK.json.  How much work
# a trial needs depends on its truth: an update runs one or more survival
# simulations, and their cost grows with the drive strengths the posterior
# holds.  So a run averages over many short trials, each with a fresh truth,
# rather than repeating a few long ones.  Online, a paper-scale trial costs
# ~3.5 s of set-up plus ~1.5 s per experiment; with 3 experiments the loop
# holds one design, which always rebuilds the survival table (the first
# update on the wide prior always resamples), whereas the next design reuses
# it on about half the seeds.
WORKLOADS = {
    "offline_wide": Workload("alternating_linear", "wide", 4000, 10, 2),
    "online_wide": Workload("uniform_risk", "wide", 4000, 3, 2),
}

# Extra set-up-only samples after each trial, when set-up is cheap enough.
SETUP_PROBE_SECONDS = 0.5
SETUP_PROBES_MAX = 10

# name -> (unit, which direction is better)
END_TO_END = {
    "s_per_experiment": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "completed_fraction": ("ratio", "higher"),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------------
# Labs and trials
# ----------------------------------------------------------------------------


class TimedLab:
    """Lab wrapper passed as ``run_trial(lab=...)``.

    Stamps the host time at which each run request reaches the lab; the
    first request of a trial is the calibration run, the rest are designed
    experiments.  With a recorder it also opens ``lab.run``/``lab.track``
    spans and advances the span id's step.
    """

    def __init__(self, lab, recorder=None):
        self.lab = lab
        self.recorder = recorder
        self.arrivals: list[float] = []
        self.data: list = []

    def run(self, config):
        self.arrivals.append(time.perf_counter())
        if self.recorder is None:
            datum = self.lab.run(config)
        else:
            self.recorder.step = len(self.arrivals) - 1
            with self.recorder.span("lab.run"):
                datum = self.lab.run(config)
            if self.lab.last_cache_hit:
                self.recorder.count("lab.waveform_hits")
        self.data.append(datum)
        return datum

    def track(self):
        if self.recorder is None:
            self.lab.track()
        else:
            with self.recorder.span("lab.track"):
                self.lab.track()


class _SetUpDone(Exception):
    """Ends a set-up probe when its first designed experiment arrives."""


class SetUpProbe(TimedLab):
    def run(self, config):
        if self.arrivals:  # past the calibration run
            self.arrivals.append(time.perf_counter())
            raise _SetUpDone
        return super().run(config)


def _rng(seed: int, index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, index, stream]))


def run_config(workload: Workload, seed: int) -> harness.RunConfig:
    return harness.RunConfig(
        heuristics=[workload.heuristic],
        prior=workload.prior,
        trials=1,
        experiments=workload.experiments,
        particles=workload.particles,
        seed=seed,
    )


def _start(workload, seed, index, lab_type, recorder=None):
    """Config and a fresh in-process lab, wrapped, for trial ``index``."""
    config = run_config(workload, seed)
    truth = harness.draw_truth(config, _rng(seed, index, 0))
    system = labmod.TrueSystem(truth, _rng(seed, index, 1))
    return config, lab_type(labmod.InProcessLab(system), recorder)


def record_digest(record) -> str:
    return hashlib.sha256(record.to_json().encode()).hexdigest()


def run_one(workload, seed, index, recorder=None, instrumentation=None) -> dict:
    """Trial ``index`` of the workload; returns its host stamps and checks."""
    config, probe = _start(workload, seed, index, TimedLab, recorder)
    with instrumentation or nullcontext():
        # built inside, so a traced design cache binds the traced kernel
        policy = workload.policy()
        with recorder.trial_root() if recorder else nullcontext():
            started = time.perf_counter()
            record, cloud = harness.run_trial(
                config, workload.heuristic, index, lab=probe, heuristic=policy
            )
            ended = time.perf_counter()

    q = risk.uniform_weight_matrix()
    prior = smc.sample_prior(
        config.prior_spec(), config.particles, _rng(seed, index, 4)
    )
    n_exp = config.experiments
    arrivals = probe.arrivals  # [calibration, experiment 1, ..., experiment E]
    stamps = [d.timestamp for d in probe.data]
    lab_s = [b - a for a, b in zip(stamps, stamps[1:])]
    host_s = [b - a for a, b in zip(arrivals[1:], arrivals[2:])] + [
        ended - arrivals[-1]
    ]
    return {
        "index": index,
        "digest": record_digest(record),
        "complete": len(record.steps) == n_exp and len(arrivals) == n_exp + 1,
        "final_risk": risk.trace_weighted_variance(cloud, q),
        "prior_risk": risk.trace_weighted_variance(prior, q),
        "setup_s": arrivals[1] - started,
        "s_per_experiment": (ended - arrivals[1]) / n_exp,
        "host_s": host_s,  # per experiment: host time until the next arrives
        # share of lab time spent taking data if the lab were real: d is an
        # experiment's simulated duration, h the host time until the next
        "lab_duty": sum(lab_s) / sum(max(d, h) for d, h in zip(lab_s, host_s)),
        "loop_start": arrivals[1],
        "ended": ended,
        "experiments": n_exp,
        "sim_s": stamps[-1] - stamps[0],
    }


def time_setup(workload, seed, index) -> float:
    """Host seconds from ``run_trial`` to the first designed experiment."""
    config, probe = _start(workload, seed, index, SetUpProbe)
    policy = workload.policy()
    started = time.perf_counter()
    try:
        harness.run_trial(
            config, workload.heuristic, index, lab=probe, heuristic=policy
        )
    except _SetUpDone:
        return probe.arrivals[1] - started
    raise RuntimeError("set-up probe ran a whole trial")


def warm_up(workload: Workload) -> None:
    """Untimed tiny trial, so imports and lazy SciPy set-up are paid here."""
    tiny = replace(
        workload, particles=200, experiments=3, grid_m=5,
        risk_outcomes=32, risk_particles=64,
    )
    run_one(tiny, 0, 0)


# ----------------------------------------------------------------------------
# Metrics and checks
# ----------------------------------------------------------------------------


def check_trials(trials: list) -> list:
    """Names of the correctness checks the completed trials fail."""
    failed = []
    if not all(t["complete"] for t in trials):
        failed.append("trial ended before all its experiments")
    if any(len(set(digests)) > 1 for digests in _by_index(trials, "digest")):
        failed.append("trial records differ between repeats")
    if not all(t["final_risk"] < t["prior_risk"] for t in trials):
        failed.append("final Tr[Q Cov] not below the prior's")
    return failed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _by_index(trials: list, key: str) -> list:
    """``key`` of the runs of each distinct trial, grouped by trial."""
    groups: dict = {}
    for t in trials:
        groups.setdefault(t["index"], []).append(t[key])
    return list(groups.values())


def end_to_end(trials: list, setups: list, attempted: int, failed: int) -> dict:
    return {
        "s_per_experiment": statistics.mean(t["s_per_experiment"] for t in trials),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "completed_fraction": (attempted - failed) / attempted,
    }


def loop_figures(trials: list) -> dict:
    """Step median and lab duty: reported, but multimodal across seeds."""
    steps = [step for t in trials for step in t["host_s"][:-1]]
    return {
        "harness.step_s_p50": statistics.median(steps),
        "harness.step_samples": len(steps),
        "harness.lab_duty": statistics.median(t["lab_duty"] for t in trials),
    }


def measure(name, workload, seed, seconds, trace) -> dict:
    """Run the trials and set-up probes; returns the run's results."""
    trials, setups = [], []
    attempted = failed = 0

    def attempt(fn, *args, **kwargs):
        nonlocal attempted, failed
        attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # noqa: BLE001 - a failure is counted, not fatal
            traceback.print_exc()
            failed += 1
            return None

    def trial(index, **kwargs):
        result = attempt(run_one, workload, seed, index, **kwargs)
        if result is not None:
            trials.append(result)
            setups.append(result["setup_s"])
        return result

    out = {"trials": trials, "recorder": None}
    if not trace:
        deadline, index, spent = time.perf_counter() + seconds, 0, []
        # a fresh truth per trial while there is time for it and for the
        # closing repeat; ``spent`` holds each trial's wall time with probes
        while index < workload.min_truths or (
            time.perf_counter() + 2 * statistics.median(spent) < deadline
        ):
            begun = time.perf_counter()
            if trial(index) is not None:
                # cheap set-ups get extra samples between trials
                spare = int(SETUP_PROBE_SECONDS / max(trials[-1]["setup_s"], 1e-3))
                for _ in range(min(spare, SETUP_PROBES_MAX)):
                    setup = attempt(time_setup, workload, seed, index)
                    if setup is not None:
                        setups.append(setup)
            spent.append(time.perf_counter() - begun)
            index += 1
        # the first trial once more, for the record-digest check; it is
        # timed like the others
        trial(0)
        if trials:
            out["metrics"] = end_to_end(trials, setups, attempted, failed)
            out["extra"] = loop_figures(trials)
    else:
        import tracing

        recorder = out["recorder"] = tracing.SpanRecorder(name)
        base = trial(0)
        traced = trial(
            0, recorder=recorder, instrumentation=tracing.Instrumentation(recorder)
        )
        if base is not None and traced is not None:
            metrics = tracing.layer_metrics(recorder, traced)
            metrics.update(loop_figures([base]))
            metrics["trace.base_s_per_experiment"] = base["s_per_experiment"]
            metrics["trace.traced_s_per_experiment"] = traced["s_per_experiment"]
            metrics["trace.overhead"] = (
                traced["s_per_experiment"] / base["s_per_experiment"] - 1
            )
            out["metrics"] = metrics
    out.update(setups=setups, attempted=attempted, failed=failed)
    return out


# ----------------------------------------------------------------------------
# Environment and output
# ----------------------------------------------------------------------------


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        # GIT_DIR keeps git from searching directories above the checkout
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, check=True, env={**os.environ, "GIT_DIR": str(ROOT / ".git")},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # exported checkouts carry no git metadata
    source = hashlib.sha256()
    for path in sorted((SRC / "nvbed").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    warm_up(workload)
    result = measure(args.workload, workload, args.seed, args.seconds, args.trace)

    if args.trace:
        import tracing

        declared = tracing.PER_LAYER
    else:
        declared = END_TO_END
    trials, metrics = result["trials"], result.get("metrics", {})
    problems = check_trials(trials)
    if result["failed"]:
        problems.append(f"{result['failed']} trials or set-up probes raised")
    if len(trials) < 2:
        problems.append("fewer than two trials completed")
    env = environment(args.seed)

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if result["recorder"] is not None:
        result["recorder"].write(OUT / f"{stem}.spans.jsonl")
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": args.workload,
                "environment": env,
                "problems": problems,
                "metrics": metrics,
                "extra": result.get("extra"),
                "trials": trials,
                "setups_s": result["setups"],
                "attempted": result["attempted"],
                "failed": result["failed"],
            },
            fh,
            indent=1,
        )

    print(f"# environment {json.dumps(env, sort_keys=True)}")
    print(
        f"# {args.workload} seed {args.seed}: {len(trials)} trials and"
        f" {len(result['setups']) - len(trials)} set-up probes,"
        f" {result['failed']} of {result['attempted']} failed"
    )
    for name, (unit, _) in declared.items():
        if name in metrics:
            print(f"{name:36s} {metrics[name]:>16.6g} {unit}")
    for name, value in (result.get("extra") or {}).items():
        print(f"# {name:34s} {value:>16.6g}")
    for problem in problems:
        print(f"# CHECK FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, (unit, _) in declared.items()
                    if name in metrics
                },
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
