"""Command-line interface: experiments, table reproduction, scans, fronts."""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Optional

import numpy as np

from .descent import BacktrackVariant
from .direction import DirectionVariant
from .harness import (
    ALL_BACKTRACKINGS,
    ALL_DIRECTIONS,
    ExperimentConfig,
    _json_text,
    parse_config_file,
    report_to_text,
    run_experiment,
)
from .metrics import critical_region_scan
from .problems import PROBLEMS, get_problem

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise UsageError(message)


def _add_common(p: _Parser, with_variant: bool = True):
    p.add_argument("--problem", choices=sorted(PROBLEMS), help="benchmark problem")
    if with_variant:
        p.add_argument(
            "--direction",
            choices=[d.value for d in DirectionVariant],
            help="direction subproblem variant",
        )
        p.add_argument(
            "--backtracking",
            choices=[b.value for b in BacktrackVariant],
            help="line-search strategy",
        )
    p.add_argument("--n-starts", type=int, help="number of start points")
    p.add_argument("--seed", type=int, help="RNG seed (fallback: MGD_SEED)")
    p.add_argument("--c1", type=float, help="Armijo constant")
    p.add_argument("--alpha", type=float, help="backtracking shrink factor")
    p.add_argument("--eta0", type=float, help="initial step size")
    p.add_argument("--theta", type=int, help="max backtracking steps")
    p.add_argument("--epsilon", type=float, help="margin added to the beta weight")
    p.add_argument("--max-iters", type=int, help="iteration budget override")
    p.add_argument("--out", help="output directory")
    p.add_argument("--format", choices=["csv", "json"], help="trace/front file format")
    p.add_argument("--workers", type=int,
                   help="pool jobs the starts are split into (default: cores)")
    p.add_argument(
        "--paper-semantics",
        action="store_true",
        default=None,
        help="loop on zero directions instead of stopping early",
    )
    p.add_argument("--traces", action="store_true", default=None,
                   help="write per-run trajectory files")
    p.add_argument("--config", help="key=value config file (flags override it)")


def build_parser() -> _Parser:
    parser = _Parser(prog="mgdkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("run", help="one problem, chosen variants"))
    _add_common(sub.add_parser("table1", help="all problems, all four variants"),
                with_variant=False)

    scan = sub.add_parser("scan", help="grid scan for near-cancelling gradient pairs")
    scan.add_argument("--problem", choices=sorted(PROBLEMS), required=True)
    scan.add_argument("--pair", required=True, help="objective pair, e.g. 1,3")
    scan.add_argument("--tol", type=float, required=True)
    scan.add_argument("--resolution", help="per-axis cells, e.g. 256 or 64,64,64")
    scan.add_argument("--out", help="output directory")

    _add_common(sub.add_parser("fronts", help="emit non-dominated front data"))
    return parser


def _resolve_seed(value: Optional[int]) -> int:
    if value is not None:
        return value
    env = os.environ.get("MGD_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"MGD_SEED must be an integer, got {env!r}")
    return 0


def _build_config(args, need_out: bool = False) -> ExperimentConfig:
    values = {}
    if args.config:
        values.update(parse_config_file(args.config))
    for key in ("problem", "n_starts", "seed", "c1", "alpha", "eta0", "theta",
                "epsilon", "max_iters", "workers"):
        v = getattr(args, key, None)
        if v is not None:
            values[key] = v
    if getattr(args, "direction", None) is not None:
        values["direction"] = args.direction
    if getattr(args, "backtracking", None) is not None:
        values["backtracking"] = args.backtracking
    if getattr(args, "out", None) is not None:
        values["out_dir"] = args.out
    if getattr(args, "format", None) is not None:
        values["trace_format"] = args.format
    if getattr(args, "paper_semantics", None):
        values["paper_semantics"] = True
    if getattr(args, "traces", None):
        values["emit_traces"] = True

    if "problem" not in values:
        raise UsageError("a problem must be given (--problem or config file)")
    if need_out and "out_dir" not in values:
        raise UsageError("an output directory must be given (--out)")

    directions = ALL_DIRECTIONS
    if "direction" in values:
        directions = (DirectionVariant(values.pop("direction")),)
    backtrackings = ALL_BACKTRACKINGS
    if "backtracking" in values:
        backtrackings = (BacktrackVariant(values.pop("backtracking")),)

    defaults = dict(
        n_starts=500,
        seed=_resolve_seed(values.pop("seed", None)),
        workers=os.cpu_count() or 1,
    )
    defaults.update(values)
    if defaults["workers"] <= 1:
        defaults["workers"] = 0
    try:
        return ExperimentConfig(
            directions=directions, backtrackings=backtrackings, **defaults
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_run(args) -> int:
    config = _build_config(args)
    report = run_experiment(config)
    sys.stdout.write(report_to_text(report))
    return EXIT_OK


def _cmd_table1(args) -> int:
    for name in ("fonseca-fleming", "kursawe", "viennet"):
        args.problem = name
        config = _build_config(args)
        if config.out_dir:
            config = dataclasses.replace(
                config, out_dir=os.path.join(config.out_dir, name)
            )
        report = run_experiment(config)
        sys.stdout.write(report_to_text(report))
        sys.stdout.write("\n")
    return EXIT_OK


def _cmd_scan(args) -> int:
    problem = get_problem(args.problem)
    try:
        pair = tuple(int(v) for v in args.pair.split(","))
    except ValueError:
        raise UsageError(f"--pair expects i,j with integers, got {args.pair!r}")
    if len(pair) != 2:
        raise UsageError("--pair expects exactly two objective numbers")
    if args.resolution:
        try:
            res = [int(v) for v in args.resolution.split(",")]
        except ValueError:
            raise UsageError(
                f"--resolution expects integers, got {args.resolution!r}"
            )
        if len(res) == 1:
            res = res * problem.n
        elif len(res) != problem.n:
            raise UsageError(
                f"--resolution expects 1 or {problem.n} cell counts for "
                f"{args.problem}, got {len(res)}"
            )
    else:
        res = [256 if problem.n == 2 else 64] * problem.n

    mask = critical_region_scan(
        problem, problem.domain_box, res, pair, args.tol
    )
    marked = int(mask.sum())
    sys.stdout.write(
        f"problem = {args.problem}\npair = {pair[0]},{pair[1]}\n"
        f"tol = {args.tol}\nresolution = {','.join(str(r) for r in res)}\n"
        f"marked_cells = {marked}\n"
    )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        cells = np.argwhere(mask).tolist()
        payload = {
            "problem": args.problem,
            "pair": list(pair),
            "tol": args.tol,
            "resolution": res,
            "marked_cells": marked,
            "cells": cells,
        }
        path = os.path.join(args.out, f"scan_{args.problem}_{pair[0]}{pair[1]}.json")
        with open(path, "w") as fh:
            fh.write(_json_text(payload) + "\n")
        sys.stdout.write(f"mask_file = {path}\n")
    return EXIT_OK


def _cmd_fronts(args) -> int:
    config = _build_config(args, need_out=True)
    run_experiment(config)
    sys.stdout.write(f"fronts written to {config.out_dir}\n")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "table1": _cmd_table1,
    "scan": _cmd_scan,
    "fronts": _cmd_fronts,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except (ValueError, OSError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
