"""Command-line entry point."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .errors import (GeorstError, InfeasibleError, InvalidInputError,
                     NonConvergenceError)
from .runner import (RunConfig, build_context, emit_contours, run_design_point,
                     run_mc_check, run_scenario_list, run_validate)

OUTPUT_ENV_VAR = "GEORST_OUTPUT_DIR"


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--seed", type=int, help="override the run seed")
    parser.add_argument("--out", help="output directory "
                        f"(default: ${OUTPUT_ENV_VAR} or the working directory)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="georst",
        description="Reverse stress testing for credit portfolios: find the "
                    "most plausible capital-breaching scenario and diversified "
                    "scenario lists around it.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design-point",
                       help="solve for the most plausible breaching scenario")
    _add_common(p)
    p.add_argument("--starts", type=int, help="override the multi-start count")

    p = sub.add_parser("scenario-list",
                       help="build a diversified list of breaching scenarios")
    _add_common(p)
    p.add_argument("--starts", type=int)
    p.add_argument("--pool", type=int, help="candidate pool size")
    p.add_argument("--list", type=int, help="scenario list length")
    p.add_argument("--target", choices=["neighbourhood", "near-optimal"])
    p.add_argument("--eta", type=float, help="neighbourhood radius (squared)")
    p.add_argument("--epsilon", type=float, help="near-optimal slack")

    p = sub.add_parser("contour",
                       help="emit a CSV grid of ratio/plausibility values (d=2)")
    _add_common(p)
    p.add_argument("--resolution", type=int, default=101)
    p.add_argument("--g-bounds", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--x-bounds", type=float, nargs=2, metavar=("LO", "HI"))

    p = sub.add_parser("validate", help="check inputs and report a summary")
    _add_common(p)

    p = sub.add_parser("mc-check",
                       help="compare the analytic loss quantile with Monte Carlo")
    _add_common(p)
    p.add_argument("--scenario", help="comma-separated factor values")
    p.add_argument("--sims", type=int, help="number of Monte Carlo draws")
    return parser


def _apply_overrides(config: RunConfig, args):
    if args.seed is not None:
        config.raw["seed"] = args.seed
    if getattr(args, "starts", None) is not None:
        config.raw.setdefault("solver", {})["n_starts"] = args.starts
    # the section is made only for an override, so a config without one
    # hashes the same through the CLI as through RunConfig.from_file
    for key in ("pool", "list", "target", "eta", "epsilon"):
        if getattr(args, key, None) is not None:
            config.raw.setdefault("scenario_set", {})[key] = getattr(args, key)


def _output_dir(args) -> Path:
    out = args.out or os.environ.get(OUTPUT_ENV_VAR) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write(path: Path, text: str):
    path.write_text(text)
    print(f"wrote {path}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig.from_file(args.config)
        _apply_overrides(config, args)
        ctx = build_context(config)
        out_dir = _output_dir(args)
        if args.command == "design-point":
            report, _ = run_design_point(ctx)
            _write(out_dir / "design_point.txt", report)
        elif args.command == "scenario-list":
            report, _ = run_scenario_list(ctx)
            _write(out_dir / "scenario_list.txt", report)
        elif args.command == "contour":
            g_bounds = tuple(args.g_bounds) if args.g_bounds else None
            x_bounds = tuple(args.x_bounds) if args.x_bounds else None
            csv_text = emit_contours(ctx, args.resolution,
                                     g_bounds=g_bounds, x_bounds=x_bounds)
            _write(out_dir / "contour.csv", csv_text)
        elif args.command == "validate":
            report = run_validate(ctx)
            print(report, end="")
        elif args.command == "mc-check":
            scenario = None
            if args.scenario:
                scenario = np.array(
                    [float(v) for v in args.scenario.split(",")])
            report = run_mc_check(ctx, scenario=scenario, n_sims=args.sims)
            _write(out_dir / "mc_check.txt", report)
        return 0
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except GeorstError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
