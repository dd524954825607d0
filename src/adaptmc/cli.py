"""Command line front end.

One subcommand per experiment kind plus ``report``.  Configs are JSON
files; ``--seed`` overrides the config's seed and ``--out`` the output
directory (also settable through ADAPTMC_OUT).

Exit codes: 0 success, 2 config rejected, 3 runtime failure,
4 experiment ran but falsified a bound it set out to reproduce.
"""

import argparse
import os
import sys

from .config import KINDS, parse_config
from .errors import Error, MissingArtifact, SchemaError
from .experiments import emit_report, run_experiment

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_RUNTIME = 3
EXIT_FALSIFIED = 4


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="adaptmc",
        description="adaptive MCMC experiments with reproducible artifacts")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a '{kind}' experiment")
        p.add_argument("--config", required=True,
                       help="path to the JSON experiment config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's seed")
        p.add_argument("--out", default=None,
                       help="output directory (default: config's 'out', "
                       "ADAPTMC_OUT, or the current directory)")
        p.add_argument("--verbose", action="store_true",
                       help="print the summary after the run")
    rep = sub.add_parser("report", help="render a text report from a "
                         "results directory")
    rep.add_argument("--out", required=True,
                     help="results directory written by a previous run")
    return parser


def _resolve_out(args, cfg=None):
    if args.out is not None:
        return args.out
    if cfg is not None and cfg.out is not None:
        return cfg.out
    return os.environ.get("ADAPTMC_OUT", ".")


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.command == "report":
        try:
            sys.stdout.write(emit_report(args.out))
        except MissingArtifact as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_RUNTIME
        return EXIT_OK
    try:
        with open(args.config) as f:
            text = f.read()
    except OSError as e:
        print(f"error: cannot read config: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    try:
        cfg = parse_config(text)
    except SchemaError as e:
        print(f"config rejected: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    if cfg.kind != args.command:
        print(f"config rejected: kind: config says '{cfg.kind}' but the "
              f"'{args.command}' subcommand was invoked", file=sys.stderr)
        return EXIT_SCHEMA
    if args.seed is not None:
        cfg.seed = args.seed
    out_dir = _resolve_out(args, cfg)
    try:
        manifest, code = run_experiment(cfg, out_dir)
    except SchemaError as e:
        print(f"config rejected: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    except Error as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    if args.verbose:
        sys.stdout.write(emit_report(out_dir))
    if code == EXIT_FALSIFIED:
        print("bound falsified: see summary.json in " + out_dir,
              file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
