"""Command-line interface.

    nvbed run --config cfg.json [--lab tcp://host:port] [--seed N] [--out DIR]
    nvbed serve --bind HOST:PORT --seed N [--alpha A --beta B --drift-sigma S]
    nvbed heatmap --config cfg.json [--out DIR]
    nvbed curves --records DIR [--out DIR]

``run`` exits 0 only if every trial completed and the aggregates were
written.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import harness, lab as labmod


def _cmd_run(args) -> int:
    config = harness.RunConfig.from_file(args.config)
    overrides = {"seed": args.seed, "out_dir": args.out, "lab": args.lab}
    config = dataclasses.replace(
        config, **{k: v for k, v in overrides.items() if v is not None}
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
    if args.alpha is not None or args.beta is not None or args.drift_sigma is not None:
        from .measurement import ReferenceRates
        from .smc import DriftParams, ModelParameters

        alpha = args.alpha if args.alpha is not None else truth.refs.bright
        beta = args.beta if args.beta is not None else truth.refs.dark
        sigma = (
            args.drift_sigma
            if args.drift_sigma is not None
            else truth.drift.sigma_alpha
        )
        truth = ModelParameters(
            spin=truth.spin,
            refs=ReferenceRates(alpha, beta),
            drift=DriftParams(sigma, sigma, truth.drift.correlation),
        )
    system = labmod.TrueSystem(truth, np.random.default_rng(args.seed))
    labmod.serve(args.bind, system)
    return 0


def _cmd_heatmap(args) -> int:
    config = harness.HeatmapConfig.from_file(args.config)
    if args.out is not None:
        config = dataclasses.replace(config, out_dir=args.out)
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
