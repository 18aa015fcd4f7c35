"""Command-line interface.

    nvbed run --config cfg.json [--lab tcp://host:port] [--seed N] [--out DIR]
    nvbed serve --bind HOST:PORT --seed N [--alpha A --beta B --drift-sigma S]
    nvbed heatmap --config cfg.json [--out DIR]
    nvbed curves --records DIR [--out DIR]

``run`` exits 0 only if every trial completed and the aggregates were
written.

Run ``nvbed run`` with one BLAS thread (``OPENBLAS_NUM_THREADS=1``, or
``OMP_NUM_THREADS=1`` / ``MKL_NUM_THREADS=1`` for other BLAS builds).  The
design's risk profile and the survival tables already run one thread per
core, and each thread's BLAS products would start threads of their own:
40 candidates at 512x1024 on a K = 4000 cloud took 207 ms on two threads
at the default BLAS thread count, against 75 ms with one BLAS thread
(2-core host).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import harness, lab as labmod


def _override(obj, **values):
    """The dataclass ``obj`` with each field of ``values`` that is not None
    replaced, through its own validation."""
    changes = {k: v for k, v in values.items() if v is not None}
    return dataclasses.replace(obj, **changes)


def _cmd_run(args) -> int:
    config = _override(
        harness.RunConfig.from_file(args.config),
        seed=args.seed, out_dir=args.out, lab=args.lab,
    )
    summary = harness.run_comparison(config)
    line = (
        f"completed {summary['completed']}/{summary['expected']} trials, "
        f"{len(summary['failures'])} failures"
    )
    if summary["aggregates_error"]:
        line += f"; aggregates not written: {summary['aggregates_error']}"
    print(line)
    if (
        summary["failures"]
        or summary["completed"] < summary["expected"]
        or summary["aggregates_error"]
    ):
        return 1
    return 0


def _cmd_serve(args) -> int:
    truth = labmod.default_truth()
    sigma = args.drift_sigma
    truth = dataclasses.replace(
        truth,
        refs=_override(truth.refs, bright=args.alpha, dark=args.beta),
        drift=_override(truth.drift, sigma_alpha=sigma, sigma_beta=sigma),
    )
    system = labmod.TrueSystem(truth, np.random.default_rng(args.seed))
    labmod.serve(args.bind, system)
    return 0


def _cmd_heatmap(args) -> int:
    config = _override(harness.HeatmapConfig.from_file(args.config), out_dir=args.out)
    rows = harness.risk_heatmap(config)
    print(f"wrote {len(rows)} heatmap rows to {config.out_dir}/heatmap.csv")
    return 0


def _cmd_curves(args) -> int:
    records = harness.load_records(args.records)
    if not records:
        print(f"no records found under {args.records}", file=sys.stderr)
        return 1
    out_dir = args.out or args.records
    try:
        harness.write_aggregates(out_dir, records)
    except ValueError as err:
        print(f"aggregates not written: {err}", file=sys.stderr)
        return 1
    print(f"wrote curves.csv and histograms.csv to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvbed",
        description="Online Bayesian experiment design for NV Hamiltonian learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a heuristic comparison")
    run.add_argument("--config", required=True, help="RunConfig JSON file")
    run.add_argument("--lab", help="tcp://host:port (default: in-process)")
    run.add_argument("--seed", type=int, help="override the config seed")
    run.add_argument("--out", help="override the output directory")
    run.set_defaults(func=_cmd_run)

    serve = sub.add_parser("serve", help="serve a simulated experiment computer")
    serve.add_argument("--bind", default="127.0.0.1:7777", help="host:port to bind")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--alpha", type=float, help="true bright reference rate")
    serve.add_argument("--beta", type=float, help="true dark reference rate")
    serve.add_argument("--drift-sigma", type=float, help="true drift scale per sqrt(hour)")
    serve.set_defaults(func=_cmd_serve)

    heatmap = sub.add_parser("heatmap", help="risk-evaluation cost/accuracy grid")
    heatmap.add_argument("--config", required=True, help="HeatmapConfig JSON file")
    heatmap.add_argument("--out", help="override the output directory")
    heatmap.set_defaults(func=_cmd_heatmap)

    curves = sub.add_parser("curves", help="recompute aggregates from records")
    curves.add_argument("--records", required=True, help="run output directory")
    curves.add_argument("--out", help="where to write the CSVs")
    curves.set_defaults(func=_cmd_curves)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
