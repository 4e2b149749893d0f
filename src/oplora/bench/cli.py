"""Command-line entry point.

Subcommands:
    run <config.json>        execute every (eta, seed) run and aggregate
    sweep <config.json>      run the eta grid and report the best eta
    report <dir> <ref_dir>   gap study of one run set against a reference

Exit codes: 0 success, 1 config or usage error (an empty flag value
included), 2 run failures present (or a sweep in which every run failed
or diverged), 3 internal error.
"""

import argparse
import os
import sys

from ..errors import ConfigError, OploraError, SweepError
from .config import ExperimentConfig
from .report import gap_report
from .runner import lr_sweep, run_experiment


def _nonempty(value: str) -> str:
    if not value:
        raise argparse.ArgumentTypeError("must not be empty")
    return value


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="oplora-bench",
        description="Low-rank optimizer benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured experiment")
    p_run.add_argument("config")
    p_sweep = sub.add_parser("sweep", help="learning-rate sweep")
    p_sweep.add_argument("config")
    for p in (p_run, p_sweep):
        p.add_argument("--seed-override", default=None, type=_nonempty,
                       help="comma-separated seed list replacing the config's")
        p.add_argument("--out-dir", default=None, type=_nonempty)
        p.add_argument("--quiet", action="store_true")

    p_rep = sub.add_parser("report", help="gap study of two run sets")
    p_rep.add_argument("method_dir")
    p_rep.add_argument("reference_dir")
    p_rep.add_argument("--out-dir", default=None, type=_nonempty)
    p_rep.add_argument("--quiet", action="store_true")
    return parser


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json(args.config)
    if args.seed_override:
        try:
            seeds = [int(s) for s in args.seed_override.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad --seed-override: {exc}") from exc
        cfg.seeds = seeds
        cfg.validate()
    if args.out_dir:
        cfg.out_dir = args.out_dir
    return cfg


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error
        return 1 if exc.code else 0
    try:
        if args.command in ("run", "sweep"):
            cfg = _load_config(args)
            if args.command == "run":
                manifest = run_experiment(cfg, quiet=args.quiet)
            else:
                best, manifest = lr_sweep(cfg, quiet=args.quiet)
                if not args.quiet:
                    print(f"best eta: {best}")
            failed = [r for r in manifest["runs"] if r["status"] != "ok"]
            return 2 if failed else 0
        if args.command == "report":
            if args.out_dir:
                os.makedirs(args.out_dir, exist_ok=True)
                out = os.path.join(args.out_dir, "gap_report.json")
            else:
                out = "gap_report.json"
            report = gap_report(args.method_dir, args.reference_dir, out)
            if not args.quiet:
                for row in report["rows"]:
                    print(f"k={row['k']} momentum_rank={row['momentum_rank']} "
                          f"loss_ratio={row['final_loss_ratio']:.6g} "
                          f"mean_distance={row['mean_product_distance']:.6g}")
            return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OploraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, SweepError) else 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    return 3


if __name__ == "__main__":
    raise SystemExit(main())
