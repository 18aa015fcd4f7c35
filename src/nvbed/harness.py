"""Trial orchestration and benchmark datasets.

A trial runs the full loop against a lab (in-process or TCP): track, measure
a reference-only calibration experiment, sample the prior, then iterate the
three-stage pipeline in which experiment n+1 executes while the engine
updates on datum n and designs experiment n+2.  The design stage therefore
always acts on a posterior that is one datum out of date, exactly as a
concurrent setup would.

All persistent outputs (trial records, curves, histograms) contain only
simulated time and are byte-for-byte reproducible from (config, seed); wall
clock durations go to stderr.  The risk heatmap is the one exception: its
purpose is benchmarking, so it records measured seconds.
"""

from __future__ import annotations

import json
import math
import sys
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import heuristics as heur
from . import lab as labmod
from . import qutrit, risk, smc
from .measurement import Datum, ReferenceRates
from .qutrit import ExperimentConfig, SpinParams
from .smc import DriftParams, ModelParameters, PriorSpec, SpinPrior

CALIBRATION_PULSE_NS = 2.0


@dataclass
class RunConfig:
    """Settings for a heuristic-comparison run.

    A config file is a JSON object with any subset of these fields; unknown
    keys are rejected.

    * ``heuristics``: registry names of the policies to compare.
    * ``prior``: spin prior kind, ``"wide"``, ``"calibrated"`` or ``"tight"``.
    * ``trials``, ``experiments``: trials per policy, experiments per trial
      (at least one).
    * ``particles``: SMC particle count K.
    * ``risk_outcomes``, ``risk_particles``: MIS outcome samples and inner
      particles per candidate (online policies).
    * ``target_esm``, ``n_max``: expected ESM each experiment aims at, and
      the cap on its repetition count.
    * ``seed``: root of every random stream of the run.
    * ``lab``: ``"in-process"`` or ``"tcp://host:port"``.
    * ``out_dir``: where records, checkpoints and aggregates go.
    * ``calibration_repetitions``: repetitions of the reference-only run
      that sets the reference prior.
    * ``rabi_t_max``, ``ramsey_t_max``: longest Rabi pulse and Ramsey wait
      (ns) of the grids.
    * ``candidate_m``: points per Rabi and per Ramsey grid of the online
      policies; offline sweeps get ``max(1, experiments // 2)``.
    * ``truth_alpha_range``, ``truth_beta_range``: uniform ranges of the
      true reference rates (photons per shot).
    * ``truth_drift_sigma``, ``truth_drift_correlation``: true reference
      drift scale (per sqrt(hour)) and correlation.
    """

    heuristics: list = field(default_factory=lambda: ["alternating_linear"])
    prior: str = "wide"
    trials: int = 20
    experiments: int = 100
    particles: int = 4000
    risk_outcomes: int = 512
    risk_particles: int = 1024
    target_esm: float = 20.0
    n_max: int = 1_000_000
    seed: int = 0
    lab: str = "in-process"
    out_dir: str = "results"
    calibration_repetitions: int = 300_000
    rabi_t_max: float = 500.0
    ramsey_t_max: float = 2000.0
    candidate_m: int = 100
    # ground-truth generation (references are drawn uniformly per trial,
    # spin parameters from the same prior the engine uses)
    truth_alpha_range: tuple = (0.045, 0.055)
    truth_beta_range: tuple = (0.018, 0.022)
    truth_drift_sigma: float = 0.036
    truth_drift_correlation: float = 0.7

    def __post_init__(self):
        if self.experiments < 1:
            raise ValueError(f"experiments must be >= 1, got {self.experiments}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(raw)
        for key in ("truth_alpha_range", "truth_beta_range"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def prior_spec(self, reference_prior=None) -> PriorSpec:
        spin = SpinPrior(kind=self.prior)
        if reference_prior is None:
            return PriorSpec(spin=spin)
        return PriorSpec(spin=spin, references=reference_prior)


def _seed_for(config_seed: int, heuristic: str, trial: int, stream: int):
    return np.random.SeedSequence(
        [config_seed, zlib.crc32(heuristic.encode()), trial, stream]
    )


def _rng_for(config_seed, heuristic, trial, stream) -> np.random.Generator:
    return np.random.default_rng(_seed_for(config_seed, heuristic, trial, stream))


def draw_truth(config: RunConfig, rng: np.random.Generator) -> ModelParameters:
    """Per-trial ground truth: spin from the run's prior, references uniform
    in the configured ranges, drift at the configured scales."""
    spin_cloud = smc.sample_prior(config.prior_spec(), 2, rng)
    spin = SpinParams(*spin_cloud.locations[0, :5])
    alpha = rng.uniform(*config.truth_alpha_range)
    beta = rng.uniform(*config.truth_beta_range)
    return ModelParameters(
        spin=spin,
        refs=ReferenceRates(alpha, beta),
        drift=DriftParams(
            config.truth_drift_sigma,
            config.truth_drift_sigma,
            config.truth_drift_correlation,
        ),
    )


def _sized_heuristic(config: RunConfig, name: str) -> heur.Heuristic:
    """The named policy at the run's sizes, through the one registry.

    Offline sweeps are scaled so one full pass (two for Ramsey sweeps) fits
    the trial budget; online candidate grids have ``candidate_m`` points.
    """
    m = max(1, config.experiments // 2)
    sizes = dict(
        target_esm=config.target_esm,
        n_max=config.n_max,
        rabi_t_max=config.rabi_t_max,
        ramsey_t_max=config.ramsey_t_max,
    )
    if name in heur.RISK_HEURISTICS:
        m = config.candidate_m
        sizes.update(n_outcomes=config.risk_outcomes, n_particles=config.risk_particles)
    return heur.make_heuristic(name, rabi_m=m, ramsey_m=m, **sizes)


def calibrate_reference_prior(lab, repetitions: int):
    """Measure the references once (any pulse works; only X and Y are used)
    and build the empirical Gamma prior from the totals."""
    config = ExperimentConfig(
        "rabi", pulse_time=CALIBRATION_PULSE_NS, repetitions=repetitions
    )
    datum = lab.run(config)
    prior = smc.empirical_reference_prior(
        datum.bright_counts, datum.dark_counts, repetitions
    )
    return prior, datum


@dataclass
class TrialRecord:
    heuristic: str
    prior: str
    seed: int
    trial_index: int
    particles: int
    experiments: int
    target_esm: float
    truth: dict | None
    calibration: dict
    tracking_steps: list
    steps: list

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _truth_dict(truth: ModelParameters) -> dict:
    return {
        "spin": list(truth.spin.as_array()),
        "refs": [truth.refs.bright, truth.refs.dark],
        "drift": [
            truth.drift.sigma_alpha,
            truth.drift.sigma_beta,
            truth.drift.correlation,
        ],
    }


def run_trial(
    config: RunConfig,
    heuristic_name: str,
    trial_index: int,
    lab=None,
    heuristic: heur.Heuristic | None = None,
    design_probe=None,
) -> tuple:
    """Execute one full trial; returns (TrialRecord, final cloud).

    When ``lab`` is None an in-process simulated lab is created from the
    trial's seed chain; passing a lab client (or any object with the lab
    interface) reuses an external experiment computer instead.
    ``design_probe(step_index, cloud)`` is called at every design invocation,
    for pipeline instrumentation in tests.
    """
    engine_rng = _rng_for(config.seed, heuristic_name, trial_index, 2)
    design_rng = _rng_for(config.seed, heuristic_name, trial_index, 3)
    truth = None
    if lab is None:
        truth_rng = _rng_for(config.seed, heuristic_name, trial_index, 0)
        lab_rng = _rng_for(config.seed, heuristic_name, trial_index, 1)
        truth = draw_truth(config, truth_rng)
        lab = labmod.InProcessLab(labmod.TrueSystem(truth, lab_rng))
    if heuristic is None:
        heuristic = _sized_heuristic(config, heuristic_name)

    # tracking at trial start, then the reference-only calibration run
    lab.track()
    reference_prior, calibration_datum = calibrate_reference_prior(
        lab, config.calibration_repetitions
    )
    prior_spec = config.prior_spec(reference_prior)
    cloud = smc.sample_prior(prior_spec, config.particles, engine_rng)
    cloud.last_update_time = calibration_datum.timestamp / 3600.0

    def design(step_index: int) -> tuple:
        if design_probe is not None:
            design_probe(step_index, cloud)
        cfg = heuristic.next_experiment(cloud, step_index, design_rng)
        planned = smc.expected_esm(cloud, cfg.repetitions)
        return cfg, planned

    n_exp = config.experiments
    queue = {1: design(0)}
    if n_exp >= 2:
        queue[2] = design(1)
    steps = []
    tracking_steps = []
    cumulative_esm = 0.0
    tracking_requested = False
    executor = ThreadPoolExecutor(max_workers=1)

    def survival(spins: np.ndarray, cfg: ExperimentConfig) -> np.ndarray:
        # design simulated this shape already if the spin block is unchanged
        row = heuristic.cache.lookup(spins, cfg)
        return qutrit.survival_probabilities(spins, cfg) if row is None else row

    def process(datum: Datum, cfg: ExperimentConfig, planned_esm: float, step: int):
        nonlocal cloud, cumulative_esm, tracking_requested
        now_hours = datum.timestamp / 3600.0
        dt = max(0.0, now_hours - cloud.last_update_time)
        cloud = smc.drift_step(cloud, dt, engine_rng)
        cloud, report = smc.bayes_update(
            cloud, datum, cfg, engine_rng, survival_fn=survival
        )
        cloud.last_update_time = now_hours
        cumulative_esm += planned_esm
        mean = smc.posterior_mean(cloud)
        variance = np.diag(smc.posterior_cov(cloud))
        steps.append(
            {
                "step": step,
                "config": cfg.to_dict(),
                "datum": datum.to_dict(),
                "esm": planned_esm,
                "cumulative_esm": cumulative_esm,
                "posterior_mean": [float(v) for v in mean],
                "posterior_variance": [float(v) for v in variance],
                "sim_time_s": datum.timestamp,
                "n_eff": report.n_eff,
                "resampled": report.resampled,
                "substeps": report.substeps,
                "tracked_before": step in tracking_steps,
            }
        )
        if heur.should_track(cloud, prior_spec):
            tracking_requested = True

    try:
        pending = None  # (datum, config, planned_esm, step)
        for n in range(1, n_exp + 1):
            if tracking_requested:
                lab.track()
                cloud = smc.reference_reset(cloud, prior_spec, engine_rng)
                tracking_steps.append(n)
                tracking_requested = False
            cfg, planned = queue.pop(n)
            future = executor.submit(lab.run, cfg)
            if pending is not None:
                process(*pending)
                if n + 1 <= n_exp:
                    queue[n + 1] = design(n)
            pending = (future.result(), cfg, planned, n)
        if pending is not None:
            process(*pending)
    finally:
        executor.shutdown(wait=True)

    return TrialRecord(
        heuristic=heuristic_name,
        prior=config.prior,
        seed=config.seed,
        trial_index=trial_index,
        particles=config.particles,
        experiments=config.experiments,
        target_esm=config.target_esm,
        truth=None if truth is None else _truth_dict(truth),
        calibration=calibration_datum.to_dict(),
        tracking_steps=tracking_steps,
        steps=steps,
    ), cloud


def _record_path(out_dir: Path, heuristic: str, trial: int) -> Path:
    return out_dir / "records" / f"{heuristic}__trial_{trial:03d}.json"


def _checkpoint_path(out_dir: Path, heuristic: str, trial: int) -> Path:
    return out_dir / "checkpoints" / f"{heuristic}__trial_{trial:03d}.npz"


def run_comparison(config: RunConfig, lab=None, log=None) -> dict:
    """Run every (heuristic, trial) pair, write records and aggregates.

    Without a ``lab`` argument, ``config.lab`` names the lab: in-process labs
    with fresh truths, or one client to ``tcp://host:port`` for the whole run.
    Completed trials (existing record files) are skipped, so an interrupted
    run resumes at trial granularity and produces identical outputs.
    Returns a summary dict; per-trial failures are recorded and do not stop
    the run.
    """
    if lab is None and config.lab != "in-process":
        with labmod.LabClient(config.lab) as client:
            return run_comparison(config, lab=client, log=log)
    log = log or (lambda msg: print(msg, file=sys.stderr, flush=True))
    out_dir = Path(config.out_dir)
    (out_dir / "records").mkdir(parents=True, exist_ok=True)
    (out_dir / "checkpoints").mkdir(parents=True, exist_ok=True)
    with open(out_dir / "config.json", "w", encoding="utf-8") as fh:
        json.dump(config.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")

    failures = []
    for name in config.heuristics:
        for trial in range(config.trials):
            path = _record_path(out_dir, name, trial)
            if path.exists():
                log(f"skipping {name} trial {trial} (record exists)")
                continue
            started = time.perf_counter()
            try:
                record, cloud = run_trial(config, name, trial, lab=lab)
            except Exception as err:  # noqa: BLE001 - per-trial isolation
                log(f"FAILED {name} trial {trial}: {err!r}")
                failures.append({"heuristic": name, "trial": trial, "error": repr(err)})
                continue
            smc.save_cloud(_checkpoint_path(out_dir, name, trial), cloud)
            path.write_text(record.to_json() + "\n", encoding="utf-8")
            log(
                f"{name} trial {trial}: {len(record.steps)} experiments, "
                f"{record.steps[-1]['cumulative_esm']:.0f} ESM, "
                f"{time.perf_counter() - started:.1f}s wall"
            )

    records = load_records(out_dir)
    if records:
        write_aggregates(out_dir, records)
    summary = {
        "completed": len(records),
        "expected": len(config.heuristics) * config.trials,
        "failures": failures,
    }
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return summary


def load_records(out_dir) -> list:
    records = []
    records_dir = Path(out_dir) / "records"
    if not records_dir.is_dir():
        return records
    for path in sorted(records_dir.glob("*.json")):
        records.append(json.loads(path.read_text(encoding="utf-8")))
    return records


# ----------------------------------------------------------------------------
# Aggregates
# ----------------------------------------------------------------------------


def write_aggregates(out_dir, records: list) -> None:
    """Write ``curves.csv`` and ``histograms.csv`` of the records to out_dir."""
    out_dir = Path(out_dir)
    write_curves_csv(out_dir / "curves.csv", learning_curve_stats(records))
    write_histogram_csv(out_dir / "histograms.csv", experiment_histogram(records))


def learning_curve_stats(records: list, n_grid: int = 100) -> dict:
    """Median and 10%/90% posterior-variance envelopes on a common ESM grid.

    Each trial's per-parameter posterior variance is interpolated onto the
    grid by carrying the last observation forward (variance is defined only
    at update points), then percentiles are taken across trials.
    """
    if not records:
        raise ValueError("no records given")
    by_heuristic = {}
    for record in records:
        by_heuristic.setdefault(record["heuristic"], []).append(record)
    starts, ends = [], []
    for record in records:
        esms = [s["cumulative_esm"] for s in record["steps"]]
        starts.append(esms[0])
        ends.append(esms[-1])
    lo, hi = max(starts), min(ends)
    if not hi > lo:
        raise ValueError("trials do not share a common ESM range")
    grid = np.geomspace(lo, hi, n_grid)
    out = {"esm_grid": grid.tolist(), "heuristics": {}}
    for name, group in sorted(by_heuristic.items()):
        n_params = len(group[0]["steps"][0]["posterior_variance"])
        sampled = np.empty((len(group), n_grid, n_params))
        for t, record in enumerate(group):
            esms = np.array([s["cumulative_esm"] for s in record["steps"]])
            variances = np.array([s["posterior_variance"] for s in record["steps"]])
            idx = np.clip(np.searchsorted(esms, grid, side="right") - 1, 0, None)
            sampled[t] = variances[idx]
        p10, median, p90 = np.percentile(sampled, [10, 50, 90], axis=0)
        out["heuristics"][name] = {
            "p10": p10.tolist(),
            "median": median.tolist(),
            "p90": p90.tolist(),
            "trials": len(group),
        }
    return out


def write_curves_csv(path, curves: dict) -> None:
    grid = curves["esm_grid"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("heuristic,parameter,esm,p10,median,p90\n")
        for name, stats in sorted(curves["heuristics"].items()):
            n_params = len(stats["median"][0])
            for param in range(n_params):
                for g, esm_value in enumerate(grid):
                    fh.write(
                        f"{name},{param},{esm_value!r},"
                        f"{stats['p10'][g][param]!r},"
                        f"{stats['median'][g][param]!r},"
                        f"{stats['p90'][g][param]!r}\n"
                    )


def experiment_histogram(records: list) -> dict:
    """Average uses per trial of each (kind, time) bin, per heuristic.

    Rabi bins are keyed by pulse time and Ramsey bins by wait time, matching
    the candidate-grid axes.
    """
    by_heuristic = {}
    trials = {}
    for record in records:
        name = record["heuristic"]
        trials[name] = trials.get(name, 0) + 1
        bins = by_heuristic.setdefault(name, {})
        for step in record["steps"]:
            cfg = step["config"]
            if cfg["kind"] == "rabi":
                key = ("rabi", round(cfg["pulse_time"], 6))
            else:
                key = ("ramsey", round(cfg["wait_time"], 6))
            bins[key] = bins.get(key, 0) + 1
    return {
        name: {key: count / trials[name] for key, count in sorted(bins.items())}
        for name, bins in by_heuristic.items()
    }


def write_histogram_csv(path, histogram: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("heuristic,kind,time_ns,avg_uses_per_trial\n")
        for name, bins in sorted(histogram.items()):
            for (kind, time_ns), avg in bins.items():
                fh.write(f"{name},{kind},{time_ns!r},{avg!r}\n")


# ----------------------------------------------------------------------------
# Risk-evaluation cost heatmap
# ----------------------------------------------------------------------------


@dataclass
class HeatmapConfig:
    outcome_sizes: list = field(default_factory=lambda: [64, 128, 256, 512])
    particle_sizes: list = field(default_factory=lambda: [128, 256, 512, 1024])
    reference_outcomes: int = 4000
    reference_particles: int = 4000
    cloud_particles: int = 4000
    candidate_m: int = 25
    repetitions_seeds: int = 3
    target_esm: float = 20.0
    seed: int = 0
    out_dir: str = "results"

    @classmethod
    def from_file(cls, path) -> "HeatmapConfig":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        return cls(**raw)


def risk_heatmap(config: HeatmapConfig, log=None) -> list:
    """MIS-risk accuracy/cost grid against a large-sample reference.

    Rows: (n_outcomes, n_particles, seed, log10 mean squared difference from
    the reference profile, evaluation seconds).  Timing columns are measured
    wall clock and are not byte-reproducible.
    """
    log = log or (lambda msg: print(msg, file=sys.stderr, flush=True))
    if config.reference_outcomes < max(config.outcome_sizes) or (
        config.reference_particles < max(config.particle_sizes)
    ):
        raise ValueError("reference sizes must dominate all tested sizes")
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
    cloud = smc.sample_prior(PriorSpec(), config.cloud_particles, rng)
    policy = heur.uniform_risk_heuristic(
        rabi_m=config.candidate_m,
        ramsey_m=config.candidate_m,
        target_esm=config.target_esm,
    )
    # the candidates and repetitions the policy's design uses
    sized = policy.sized_candidates(cloud)
    p_table = policy.cache.table(cloud.spin_locations, sized)

    def profile_values(n_out, n_par, stream):
        return np.array(
            [
                est.value
                for _, est in risk.risk_profile(
                    cloud, sized, policy.weights, stream,
                    n_outcomes=n_out, n_particles=n_par, p_table=p_table,
                )
            ]
        )

    log("evaluating reference profile...")
    reference = profile_values(
        config.reference_outcomes,
        config.reference_particles,
        np.random.default_rng(np.random.SeedSequence([config.seed, 2])),
    )
    rows = []
    for n_out in config.outcome_sizes:
        for n_par in config.particle_sizes:
            for rep in range(config.repetitions_seeds):
                stream = np.random.default_rng(
                    np.random.SeedSequence([config.seed, n_out, n_par, rep])
                )
                started = time.perf_counter()
                values = profile_values(n_out, n_par, stream)
                seconds = time.perf_counter() - started
                mse = float(np.mean((values - reference) ** 2))
                rows.append(
                    {
                        "n_outcomes": n_out,
                        "n_particles": n_par,
                        "seed": rep,
                        "log10_mse": math.log10(mse) if mse > 0 else float("-inf"),
                        "seconds": seconds,
                    }
                )
            log(f"heatmap cell ({n_out}, {n_par}) done")
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "heatmap.csv", "w", encoding="utf-8") as fh:
        fh.write("n_outcomes,n_particles,seed,log10_mse,seconds\n")
        for row in rows:
            fh.write(
                f"{row['n_outcomes']},{row['n_particles']},{row['seed']},"
                f"{row['log10_mse']!r},{row['seconds']!r}\n"
            )
    return rows
