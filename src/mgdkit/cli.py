"""Command-line interface: experiments, table reproduction, scans."""

from __future__ import annotations

import argparse
import dataclasses
import os
import shlex
import sys

import numpy as np

from .descent import BacktrackVariant
from .direction import DirectionVariant
from .harness import (
    ExperimentConfig,
    _json_text,
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

    def convert_arg_line_to_args(self, arg_line):
        # An @file line holds flags as on the command line: shell quoting, '#' comments.
        return shlex.split(arg_line, comments=True)


def _add_common(p: _Parser, one_problem: bool = True):
    """The experiment flags.  Without ``one_problem`` the flags that choose
    the problem and the variant are left out."""
    if one_problem:
        p.add_argument("--problem", choices=sorted(PROBLEMS), help="benchmark problem")
        p.add_argument("--direction", choices=[d.value for d in DirectionVariant],
                       help="direction subproblem variant")
        p.add_argument("--backtracking", choices=[b.value for b in BacktrackVariant],
                       help="line-search strategy")
    p.add_argument("--n-starts", type=int, help="number of start points")
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument("--c1", type=float, help="Armijo constant")
    p.add_argument("--alpha", type=float, help="backtracking shrink factor")
    p.add_argument("--eta0", type=float, help="initial step size")
    p.add_argument("--theta", type=int, help="max backtracking steps")
    p.add_argument("--epsilon", type=float, help="margin added to the beta weight")
    p.add_argument("--max-iters", type=int, help="iteration budget override")
    p.add_argument("--out", dest="out_dir", help="output directory")
    p.add_argument("--format", dest="trace_format", choices=["csv", "json"],
                   help="trace/front file format")
    p.add_argument("--workers", type=int,
                   help="jobs the runs are split into, one in-process (default: cores)")
    p.add_argument("--traces", dest="emit_traces", action="store_true", default=None,
                   help="write per-run trajectory files")


def build_parser() -> _Parser:
    parser = _Parser(prog="mgdkit", description=__doc__, fromfile_prefix_chars="@",
                     epilog="@FILE reads flags from FILE in its place; later flags override it.")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("run", help="one problem, chosen variants"))
    _add_common(sub.add_parser("table1", help="all problems, all four variants"),
                one_problem=False)

    scan = sub.add_parser("scan", help="grid scan for near-cancelling gradient pairs")
    scan.add_argument("--problem", choices=sorted(PROBLEMS), required=True)
    scan.add_argument("--pair", required=True, help="objective pair, e.g. 1,3")
    scan.add_argument("--tol", type=float, required=True)
    scan.add_argument("--resolution", help="per-axis cells, e.g. 256 or 64,64,64")
    scan.add_argument("--out", help="output directory")
    return parser


def _build_config(args) -> ExperimentConfig:
    """The experiment the parsed flags set; an unset one keeps
    :class:`ExperimentConfig`'s default, but ``--workers`` defaults to the cores."""
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    values = {key: v for key, v in vars(args).items() if key in names and v is not None}
    if "problem" not in values:
        raise UsageError("a problem must be given (--problem)")
    if getattr(args, "direction", None):
        values["directions"] = (DirectionVariant(args.direction),)
    if getattr(args, "backtracking", None):
        values["backtrackings"] = (BacktrackVariant(args.backtracking),)
    workers = values.get("workers", os.cpu_count() or 1)
    values["workers"] = 0 if workers == 1 else workers
    try:
        return ExperimentConfig(**values)
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

    try:
        mask = critical_region_scan(
            problem, problem.domain_box, res, pair, args.tol
        )
    except ValueError as exc:  # its own checks of the pair and the grid
        raise UsageError(str(exc)) from exc
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


_COMMANDS = {
    "run": _cmd_run,
    "table1": _cmd_table1,
    "scan": _cmd_scan,
}


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except RecursionError:  # argparse follows @FILE inside FILE without a depth limit
            raise UsageError("an argument file includes itself") from None
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except (ValueError, OSError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
