"""Command line interface.

Exit codes: 0 success, 2 configuration problem, 3 data problem,
4 numeric/algorithmic problem.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from typing import Optional, Sequence

from .config import PipelineConfig, load_config, parse_value
from .errors import ConfigError, DataError, NumericError
from .pipeline import STAGE_TABLE, STAGES, SWEEP_AXES, run_all, run_stage, run_sweep


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", type=Path, default=argparse.SUPPRESS,
        help="path to a key=value config file",
    )
    common.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS,
        help="override the random seed",
    )
    common.add_argument(
        "--strict", action="store_true", default=argparse.SUPPRESS,
        help="abort on records that would otherwise be skipped with a warning",
    )
    common.add_argument(
        "--force", action="store_true", default=argparse.SUPPRESS,
        help="re-run the stage even when the manifest says it is current",
    )
    common.add_argument(
        "--verbose", action="store_true", default=argparse.SUPPRESS,
        help="debug-level logging",
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="leadshare",
        description=(
            "Bilateral research-leadership metrics and parity forecasts."
        ),
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for stage in STAGES:
        sub.add_parser(stage, help=STAGE_TABLE[stage].help, parents=[common])
    sub.add_parser(
        "all", help="run every stage in order", parents=[common]
    )
    sweep = sub.add_parser(
        "sweep",
        help="forecast once per value along one axis",
        parents=[common],
    )
    sweep.add_argument("--axis", choices=SWEEP_AXES, required=True)
    sweep.add_argument(
        "--values",
        help=(
            "comma-separated sweep values (thresholds or bin indices); "
            "defaults to threshold_sweep from the config or all bins"
        ),
    )
    return parser


def _assemble_config(args: argparse.Namespace) -> PipelineConfig:
    config_path = getattr(args, "config", None)
    config = load_config(config_path) if config_path else PipelineConfig()
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "strict", False):
        overrides["strict"] = True
    return config.replace(**overrides) if overrides else config


def _sweep_values(args: argparse.Namespace, config: PipelineConfig) -> tuple:
    raw = getattr(args, "values", None)
    if raw is not None:
        return parse_value(STAGE_TABLE[f"sweep-{args.axis}"].values, raw)
    if args.axis == "threshold":
        return config.threshold_sweep
    return tuple(range(len(config.if_bin_edges)))


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.DEBUG if getattr(args, "verbose", False) else logging.INFO
    logging.basicConfig(
        level=level,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    # basicConfig does nothing once the root logger has a handler
    logging.getLogger("leadshare").setLevel(level)
    force = getattr(args, "force", False)
    try:
        config = _assemble_config(args)
        if args.command == "all":
            for stage, status in run_all(config, force=force).items():
                print(f"{stage}: {status}")
        elif args.command == "sweep":
            values = _sweep_values(args, config)
            status = run_sweep(config, args.axis, values, force=force)
            print(f"sweep-{args.axis}: {status}")
        else:
            status = run_stage(args.command, config, force=force)
            print(f"{args.command}: {status}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
