"""Experiment orchestration, reporting, and trace/front persistence."""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from itertools import chain, islice
from json.encoder import encode_basestring_ascii as _json_str  # json.dumps of a str
from typing import Optional

import numpy as np

from .core import _check_integer
# run_mgd stays importable here: bench/instrument.py wraps harness.run_mgd.
from .descent import (  # noqa: F401
    BacktrackParams,
    BacktrackVariant,
    RunResult,
    Termination,
    _lockstep,
    run_mgd,
)
from .direction import DirectionConfig, DirectionVariant
# nondominated_filter stays importable here: bench/instrument.py wraps harness.nondominated_filter.
from .metrics import global_pareto_ratio, nondominated_filter  # noqa: F401
from .problems import SAMPLER_GENERATOR, StartSampler, get_problem, sample_starts

ALL_DIRECTIONS = (DirectionVariant.LP_BASE, DirectionVariant.LP_NEW)
ALL_BACKTRACKINGS = (BacktrackVariant.BT_BASE, BacktrackVariant.BT_NEW)


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str
    directions: tuple = ALL_DIRECTIONS
    backtrackings: tuple = ALL_BACKTRACKINGS
    n_starts: int = 500
    seed: int = 0
    c1: float = 1e-9
    alpha: float = 0.8
    eta0: float = 1.0
    theta: int = 40
    epsilon: float = 1.0
    max_iters: Optional[int] = None  # None: problem default
    out_dir: Optional[str] = None
    emit_traces: bool = False
    trace_format: str = "csv"
    paper_semantics: bool = False
    workers: int = 0  # jobs the rows are split into: one in-process, the rest in a pool

    def __post_init__(self):
        _check_integer("n_starts", self.n_starts, 1)
        _check_integer("seed", self.seed, 0)
        _check_integer("workers", self.workers, 0)
        if self.max_iters is not None:
            _check_integer("max_iters", self.max_iters, 1)
        if self.trace_format not in ("csv", "json"):
            raise ValueError("trace_format must be 'csv' or 'json'")
        if not self.directions or not self.backtrackings:
            raise ValueError("need at least one direction and backtracking variant")
        # Their own checks reject bad step and LP settings before any run.
        self.backtrack_params(self.backtrackings[0])
        self.direction_config(self.directions[0])

    def backtrack_params(self, backtracking: BacktrackVariant) -> BacktrackParams:
        return BacktrackParams(
            c1=self.c1,
            alpha=self.alpha,
            eta0=self.eta0,
            theta=self.theta,
            variant=backtracking,
            paper_semantics=self.paper_semantics,
        )

    def direction_config(self, direction: DirectionVariant) -> DirectionConfig:
        return DirectionConfig(variant=direction, epsilon=self.epsilon)


@dataclass(frozen=True)
class VariantResult:
    direction: DirectionVariant
    backtracking: BacktrackVariant
    pareto_ratio: float
    termination_counts: dict
    failures: int
    failure_messages: tuple
    wall_time: float
    failure_causes: dict = field(default_factory=dict)  # exception type name -> runs


@dataclass(frozen=True)
class ExperimentReport:
    problem: str
    n_starts: int
    seed: int
    generator: str
    config: dict
    variants: tuple
    total_wall_time: float


def variant_label(direction: DirectionVariant, backtracking: BacktrackVariant) -> str:
    return f"{backtracking.value}_{direction.value}"


def _ratio_and_front(results: list, n: int, m: int) -> tuple[float, np.ndarray, np.ndarray]:
    """A variant's Pareto ratio and its front's points (k, n) and
    objectives (k, m), from one non-dominance mask over every run's final
    point followed by its stored points; a failed run (None) has none.
    The union is concatenated once, and each run's rows are views of it."""
    done = [r for r in results if r is not None]
    X = np.concatenate([np.empty((0, n))] + [a for r in done for a in (r.x_hat[None], r.stored_x)])
    F = np.concatenate([np.empty((0, m))] + [a for r in done for a in (r.f_hat[None], r.stored_f)])
    ends = np.cumsum([0 if r is None else 1 + len(r.stored_f) for r in results])
    ratio, mask = global_pareto_ratio(np.split(F, ends[:-1]))
    return ratio, X[mask], F[mask]


def _run_chunk(args):
    """The runs of some of an experiment's rows, ``X0`` with lp-new where
    ``lp_new`` holds, in one lockstep: {backtracking: per row its RunResult
    or exception} for the backtrackings of ``config``, bt-base read off
    bt-new when both are asked for."""
    config, X0, lp_new, record_trace = args
    bt_new = BacktrackVariant.BT_NEW in config.backtrackings
    params = config.backtrack_params(BacktrackVariant.BT_NEW if bt_new else BacktrackVariant.BT_BASE)
    cut = bt_new and BacktrackVariant.BT_BASE in config.backtrackings
    return _lockstep(get_problem(config.problem), X0, lp_new, params, config.epsilon,
                     config.max_iters, record_trace, cut)


def _pooled(jobs: list) -> dict:
    """The outcomes of ``_run_chunk`` over ``jobs``, joined in job order.
    Job 0 runs in the calling process while a pool of ``len(jobs) - 1``
    workers runs the others; a single job builds no pool.  The rows of a
    job that raises, dies, or that a broken pool refuses, each fail with
    that cause in every backtracking."""
    outcomes: dict = {b: [] for b in jobs[0][0].backtrackings}
    pool = ProcessPoolExecutor(max_workers=len(jobs) - 1) if len(jobs) > 1 else nullcontext()
    with pool:  # its workers end with the experiment, also when job 0 raises
        futures = [None]  # job 0: run here, once the others are submitted
        for args in jobs[1:]:
            try:
                futures.append(pool.submit(_run_chunk, args))
            except Exception as exc:  # a broken pool takes no new jobs
                futures.append(exc)
        for args, fut in zip(jobs, futures):
            try:
                if isinstance(fut, Exception):
                    raise fut
                for b, rows in (_run_chunk(args) if fut is None else fut.result()).items():
                    outcomes[b].extend(rows)
            except Exception as exc:
                for rows in outcomes.values():
                    rows.extend([exc] * len(args[1]))
    return outcomes


def run_variant(
    config: ExperimentConfig,
    direction: DirectionVariant,
    backtracking: BacktrackVariant,
    outcomes: dict,
) -> tuple[list, dict]:
    """One variant's share of an experiment's ``outcomes``: {backtracking:
    per row its RunResult or exception}, one row per start and direction,
    each start's ``config.directions`` in turn, as ``run_experiment`` runs
    them.

    Returns (results, failures): per start its :class:`RunResult`, None
    where the run failed, and {start index: the exception that ended its
    run}.
    """
    d = len(config.directions)
    rows = outcomes[backtracking][config.directions.index(direction) :: d]
    failures = {j: e for j, e in enumerate(rows) if isinstance(e, Exception)}
    return [None if j in failures else r for j, r in enumerate(rows)], failures


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run every requested variant over one shared list of start points.

    The runs of all variants advance in one lockstep, one row per start
    and direction: under bt-new, each row also ends its bt-base twin at
    its first ladder failure, where bt-base stops.  A variant's
    ``wall_time`` is therefore the lockstep's time plus its own ratio and
    front.  Failed runs contribute no points; the report counts them by
    exception type and keeps a message ``run j: <exception>`` for each.
    With an output directory configured, the report, the fronts (and
    traces, if requested) are written there; traces are recorded only
    then.  The rows, traced or not, are split into ``config.workers`` jobs
    (one for 0): the caller runs the first, one pool per experiment the rest.
    """
    problem = get_problem(config.problem)
    starts = sample_starts(
        StartSampler(box=problem.domain_box, count=config.n_starts, seed=config.seed)
    )

    t_total = time.perf_counter()
    traced = config.emit_traces and bool(config.out_dir)
    # Each start's directions in turn, so that a chunk of rows holds both.
    X0 = np.repeat(starts, len(config.directions), axis=0)
    lp_new = np.tile([d is DirectionVariant.LP_NEW for d in config.directions], len(starts))
    jobs = max(config.workers, 1)
    chunks = zip(np.array_split(X0, jobs), np.array_split(lp_new, jobs))
    outcomes = _pooled([(config, X, new, traced) for X, new in chunks if len(X)])
    lockstep_time = time.perf_counter() - t_total

    variants = []
    all_results = {}
    for backtracking in config.backtrackings:
        for direction in config.directions:
            t0 = time.perf_counter()
            results, failures = run_variant(config, direction, backtracking, outcomes)
            ratio, X, F = _ratio_and_front(results, problem.n, problem.m)
            ends = Counter(r.termination for r in results if r is not None)
            causes = Counter(type(e).__name__ for e in failures.values())
            variants.append(
                VariantResult(
                    direction=direction,
                    backtracking=backtracking,
                    pareto_ratio=ratio,
                    termination_counts={t.value: ends[t] for t in Termination},
                    failures=len(failures),
                    failure_messages=tuple(f"run {j}: {e}" for j, e in failures.items()),
                    wall_time=lockstep_time + (time.perf_counter() - t0),
                    failure_causes=dict(sorted(causes.items())),
                )
            )
            if config.out_dir:
                all_results[(direction, backtracking)] = (results, X, F)

    report = ExperimentReport(
        problem=config.problem,
        n_starts=config.n_starts,
        seed=config.seed,
        generator=SAMPLER_GENERATOR,
        config=_config_echo(config),
        variants=tuple(variants),
        total_wall_time=time.perf_counter() - t_total,
    )
    if config.out_dir:
        emit_traces(report, all_results, config.out_dir, config.trace_format,
                    include_traces=config.emit_traces)
    return report


def _config_echo(config: ExperimentConfig) -> dict:
    """The settings a report records, in field order: all but where and in
    which format the outputs go."""
    output_only = ("out_dir", "emit_traces", "trace_format")
    return {k: v for k, v in _plain(config).items() if k not in output_only}


# --- serialization -------------------------------------------------------

# Every float an output file holds: 17 significant digits round-trip a double.
FLOAT_FORMAT = "%.17g"


def _json_text(obj, indent: int = 0) -> str:
    """JSON with floats rendered at 17 significant digits.  A list of
    equal-length rows of plain ints is rendered in one string operation;
    any other list item by item."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  {_json_str(str(k))}: {_json_text(v, indent + 1)}'
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        body = _int_table(obj, inner)
        if body is None:
            body = (",\n" + inner).join([_json_text(v, indent + 1) for v in obj])
        return "[\n" + inner + body + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return FLOAT_FORMAT % obj
    return _json_str(str(obj))


def _int_table(rows, inner: str) -> Optional[str]:
    """The items of a JSON list, indented by ``inner``, when they are rows of
    plain ints all of one length (such as ``np.argwhere(...).tolist()``),
    through one ``%`` template; None for any other list."""
    if not set(map(type, rows)) <= {list, tuple} or len(set(map(len, rows))) != 1:
        return None
    flat = tuple(chain.from_iterable(rows))
    if set(map(type, flat)) != {int}:
        return None
    item = inner + "  "
    row = "[\n" + item + (",\n" + item).join(["%d"] * len(rows[0])) + "\n" + inner + "]"
    return (",\n" + inner).join([row] * len(rows)) % flat


def _plain(value):
    """``value`` in plain data: a dataclass as a dict of its fields in
    declaration order, an enum as its value, a tuple as a list."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def report_to_dict(report: ExperimentReport) -> dict:
    return _plain(report)


def report_to_text(report: ExperimentReport) -> str:
    lines = [
        f"{f.name} = {_cell(getattr(report, f.name))}"
        for f in fields(report) if f.name not in ("config", "variants")
    ]
    lines += ["", "backtracking  direction  pareto_ratio  failures  wall_time"]
    for v in report.variants:
        lines.append(
            f"{v.backtracking.value:<12}  {v.direction.value:<9}  "
            f"{v.pareto_ratio:<12.4f}  {v.failures:<8d}  {v.wall_time:.3f}"
        )
    lines.append("")
    for v in report.variants:
        label = variant_label(v.direction, v.backtracking)
        for key, count in v.termination_counts.items():
            lines.append(f"terminations.{label}.{key} = {count}")
        for cause, count in v.failure_causes.items():
            lines.append(f"failure_causes.{label}.{cause} = {count}")
    lines.append("")
    return "\n".join(lines)


def emit_traces(
    report: ExperimentReport,
    run_results: dict,
    path: str,
    fmt: str = "csv",
    include_traces: bool = True,
) -> list:
    """Write the report, per-variant front files, and per-run traces.

    ``run_results`` maps (direction, backtracking) to the variant's
    (results, X, F): its results, one entry per start, and its front's
    points and objectives, as :func:`run_experiment` computes them.
    Returns the list of written file paths.  Output is byte-stable for
    identical inputs: fixed field order, floats at 17 significant digits.
    """
    if fmt not in ("csv", "json"):
        raise ValueError("format must be 'csv' or 'json'")
    written = []

    def _write(name: str, text: str):
        full = os.path.join(path, name)
        try:
            with open(full, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"cannot write {full}: {exc}") from exc
        written.append(full)

    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {path}: {exc}") from exc

    _write("report.json", _json_text(report_to_dict(report)) + "\n")
    _write("report.txt", report_to_text(report))

    for (direction, backtracking), (results, X, F) in sorted(
        run_results.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value)
    ):
        label = variant_label(direction, backtracking)
        front, trace = _columns(X.shape[1], F.shape[1])
        _write(f"front_{label}.{fmt}", _table_text(front, np.hstack([X, F]).tolist(), fmt))
        if include_traces:
            for j, result in enumerate(results):
                if result is None or not result.trace:
                    continue
                _write(f"trace_{label}_{j:05d}.{fmt}",
                       _table_text(trace, _trace_rows(result), fmt))
    return written


def _columns(n: int, m: int) -> tuple[tuple, tuple]:
    """The columns of a front table and of a trace table, for points of n
    variables and m objectives: (key, width) pairs in file order, width
    None for a scalar cell, else the number of cells its list spreads over."""
    front = (("x", n), ("f", m))
    return front, (("k", None), *front, ("eta", None), ("beta_star", None),
                   ("armijo_satisfied", None), ("critical_case", None))


def _trace_rows(result: RunResult) -> list:
    """A run's trace table: one flat tuple of cells per iteration, each
    cell cast to its column's type, so every row has the same cell types."""
    return [
        (int(rec.k), *rec.x.tolist(), *rec.f.tolist(), float(rec.eta),
         float(rec.beta_star), bool(rec.armijo_satisfied), rec.critical_case.value)
        for rec in result.trace
    ]


def _cell_format(kind: type) -> str:
    """The ``%`` format of a CSV or report.txt cell of this type: a float
    at 17 significant digits, a bool as 0/1, anything else as ``str``."""
    return FLOAT_FORMAT if issubclass(kind, float) else "%d" if kind is bool else "%s"


def _cell(value) -> str:
    return _cell_format(type(value)) % (value,)


# The JSON text of a bool or str cell, which a JSON table writes through %s.
_JSON_CELL = {bool: json.dumps, str: _json_str}


def _table_text(columns: tuple, rows: list, fmt: str) -> str:
    """A table as CSV or JSON, through one ``%`` template of one row built
    from ``columns``, its (key, width) pairs, and the cell types of the
    first of ``rows``, flat tuples of cells that all share them.

    In CSV a header names the columns, a list column by its key and index
    (``x0``, ``x1``, ...), and is written for a table without rows too; a
    float has 17 significant digits, a bool is 0/1.  In JSON each row is
    an object, a list column a list.
    """
    cells = list(chain.from_iterable(rows))
    if fmt != "json":
        header = ",".join(key if n is None else ",".join(f"{key}{i}" for i in range(n))
                          for key, n in columns)
        if not rows:
            return header + "\n"
        row = ",".join([_cell_format(type(cell)) for cell in cells[:len(rows[0])]])
        return header + "\n" + "\n".join([row] * len(rows)) % tuple(cells) + "\n"
    if not rows:
        return "[]\n"
    width = len(rows[0])
    for i, kind in enumerate(map(type, rows[0])):
        if kind in _JSON_CELL:
            cells[i::width] = map(_JSON_CELL[kind], cells[i::width])
    formats = iter([_cell_format(type(cell)) for cell in cells[:width]])
    fields = []
    for key, n in columns:
        value = next(formats) if n is None else (
            "[\n      " + ",\n      ".join(islice(formats, n)) + "\n    ]")
        fields.append(f"    {_json_str(key)}: {value}")
    row = "{\n" + ",\n".join(fields) + "\n  }"
    return "[\n  " + ",\n  ".join([row] * len(rows)) % tuple(cells) + "\n]\n"
