"""Experiment orchestration, reporting, and trace/front persistence."""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str  # json.dumps of a str
from typing import Optional

import numpy as np

# run_mgd stays importable here: bench/instrument.py wraps harness.run_mgd.
from .descent import (  # noqa: F401
    BacktrackParams,
    BacktrackVariant,
    RunResult,
    Termination,
    run_mgd,
    run_mgd_batch,
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
    workers: int = 0  # 0 or 1: in-process; >1: the starts in that many pool jobs

    def __post_init__(self):
        if self.n_starts < 1:
            raise ValueError("n_starts must be >= 1")
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
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
    point followed by its stored points; a failed run (None) has none."""
    xs = [np.concatenate((r.x_hat[None], r.stored_x)) if r else np.empty((0, n)) for r in results]
    fs = [np.concatenate((r.f_hat[None], r.stored_f)) if r else np.empty((0, m)) for r in results]
    ratio, mask = global_pareto_ratio(fs)
    return ratio, np.concatenate(xs)[mask], np.concatenate(fs)[mask]


class RunFailure(tuple):
    """A failed run: the pair (index, message), as it unpacks, and in
    ``cause`` the name of the exception type that ended the run."""

    def __new__(cls, index: int, message: str, cause: str):
        failure = super().__new__(cls, (index, message))
        failure.cause = cause
        return failure


def _run_chunk(args):
    problem_name, X0, params, dir_cfg, K = args
    problem = get_problem(problem_name)
    return run_mgd_batch(problem, X0, params, dir_cfg, K=K, record_trace=False)


def _pooled(pool, jobs: list) -> list:
    """The outcomes of ``_run_chunk`` over ``jobs`` in ``pool``, one per
    start.  The runs of a job that dies, or that a broken pool refuses,
    each fail with that cause."""
    futures = []
    for args in jobs:
        try:
            futures.append(pool.submit(_run_chunk, args))
        except Exception as exc:  # a broken pool takes no new jobs
            futures.append(exc)
    outcomes: list = []
    for args, fut in zip(jobs, futures):
        if not isinstance(fut, Exception):
            try:
                outcomes.extend(fut.result())
                continue
            except Exception as exc:
                fut = exc
        outcomes.extend([fut] * len(args[1]))
    return outcomes


def run_variant(
    config: ExperimentConfig,
    direction: DirectionVariant,
    backtracking: BacktrackVariant,
    starts: np.ndarray,
    record_trace: bool = False,
    pool: Optional[ProcessPoolExecutor] = None,
) -> tuple[list, list]:
    """All runs of one variant over the shared starts, advanced in lockstep.

    Given a ``pool``, the starts are split into ``config.workers`` chunks,
    one job each in it; traces are recorded only in-process, without one.
    Returns (results, failures) where results has one entry per start
    (None where the run failed) and failures is a list of
    :class:`RunFailure`, (index, message) pairs.
    """
    params = config.backtrack_params(backtracking)
    dir_cfg = config.direction_config(direction)
    K = config.max_iters

    if pool is not None:
        if record_trace:
            raise ValueError("traces are recorded in-process only; pass no pool")
        jobs = [
            (config.problem, X0, params, dir_cfg, K)
            for X0 in np.array_split(starts, config.workers)
            if len(X0)
        ]
        outcomes = _pooled(pool, jobs)
    else:
        problem = get_problem(config.problem)
        outcomes = run_mgd_batch(problem, starts, params, dir_cfg, K=K, record_trace=record_trace)

    results: list = []
    failures: list = []
    for j, outcome in enumerate(outcomes):
        if isinstance(outcome, RunResult):
            results.append(outcome)
        else:
            results.append(None)
            failures.append(RunFailure(j, f"run {j}: {outcome}", type(outcome).__name__))
    return results, failures


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run every requested variant over one shared list of start points.

    Failed runs contribute no points and are counted in the report.  With
    an output directory configured, the report, the fronts (and traces, if
    requested) are written there.  With ``config.workers > 1`` and no
    traces, every variant runs in one shared worker pool, which is
    replaced after a variant whose worker died.
    """
    problem = get_problem(config.problem)
    starts = sample_starts(
        StartSampler(box=problem.domain_box, count=config.n_starts, seed=config.seed)
    )

    t_total = time.perf_counter()
    variants = []
    all_results = {}
    pooled = config.workers > 1 and not config.emit_traces
    pool = ProcessPoolExecutor(max_workers=config.workers) if pooled else None
    try:
        for backtracking in config.backtrackings:
            for direction in config.directions:
                t0 = time.perf_counter()
                results, failures = run_variant(
                    config, direction, backtracking, starts,
                    record_trace=config.emit_traces, pool=pool,
                )
                if pool is not None and any(f.cause == "BrokenProcessPool" for f in failures):
                    # A dead worker breaks the pool for good.
                    pool.shutdown()
                    pool = ProcessPoolExecutor(max_workers=config.workers)
                ratio, X, F = _ratio_and_front(results, problem.n, problem.m)
                counts: dict = {t.value: 0 for t in Termination}
                for r in results:
                    if r is not None:
                        counts[r.termination.value] += 1
                causes = Counter(f.cause for f in failures)
                variants.append(
                    VariantResult(
                        direction=direction,
                        backtracking=backtracking,
                        pareto_ratio=ratio,
                        termination_counts=counts,
                        failures=len(failures),
                        failure_messages=tuple(msg for _, msg in failures),
                        wall_time=time.perf_counter() - t0,
                        failure_causes=dict(sorted(causes.items())),
                    )
                )
                if config.out_dir:
                    all_results[(direction, backtracking)] = (results, X, F)
    finally:
        if pool is not None:
            pool.shutdown()

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
    """JSON with floats rendered at 17 significant digits.  A list of plain
    ints, of plain floats, or of equal-length rows of plain ints is rendered
    in one string operation; any other list item by item."""
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
        sep = ",\n" + inner
        kinds = set(map(type, obj))
        if kinds == {int}:
            body = sep.join(map(str, obj))
        elif kinds == {float}:
            body = sep.join([FLOAT_FORMAT] * len(obj)) % tuple(obj)
        else:
            body = _int_table(obj, kinds, inner)
            if body is None:
                body = sep.join([_json_text(v, indent + 1) for v in obj])
        return "[\n" + inner + body + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return FLOAT_FORMAT % obj
    return _json_str(str(obj))


def _int_table(rows, kinds: set, inner: str) -> Optional[str]:
    """The items of a JSON list, indented by ``inner``, when they are rows of
    plain ints all of one length (such as ``np.argwhere(...).tolist()``),
    through one ``%`` template; None for any other list."""
    if not kinds <= {list, tuple} or len(set(map(len, rows))) != 1:
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
        _write(f"front_{label}.{fmt}", _table_text(_front_rows(X, F), fmt))
        if include_traces:
            for j, result in enumerate(results):
                if result is None or not result.trace:
                    continue
                _write(f"trace_{label}_{j:05d}.{fmt}", _table_text(_trace_rows(result), fmt))
    return written


def _front_rows(X: np.ndarray, F: np.ndarray) -> list:
    return [{"x": x, "f": f} for x, f in zip(X.tolist(), F.tolist())]


def _trace_rows(result: RunResult) -> list:
    return [
        {
            "k": rec.k,
            "x": rec.x.tolist(),
            "f": rec.f.tolist(),
            "eta": rec.eta,
            "beta_star": rec.beta_star,
            "armijo_satisfied": bool(rec.armijo_satisfied),
            "critical_case": rec.critical_case.value,
        }
        for rec in result.trace
    ]


def _cell_format(kind: type) -> str:
    """The ``%`` format of a CSV or report.txt cell of this type: a float
    at 17 significant digits, a bool as 0/1, anything else as ``str``."""
    return FLOAT_FORMAT if issubclass(kind, float) else "%d" if kind is bool else "%s"


def _cell(value) -> str:
    return _cell_format(type(value)) % (value,)


def _spread(row: dict) -> list:
    """A row's CSV cells: its values, each list spread over its entries."""
    cells = []
    for v in row.values():
        if isinstance(v, list):
            cells += v
        else:
            cells.append(v)
    return cells


def _table_text(rows: list, fmt: str) -> str:
    """Rows of dicts, keys in column order, as JSON or as CSV: there a list
    value spreads over one column per entry, named by its key and index
    (``x0``, ``x1``, ...), a float has 17 significant digits, a bool is 0/1.
    Each CSV row is written through one ``%`` template, built once per
    tuple of cell types."""
    if fmt == "json":
        return _json_text(rows) + "\n"
    if not rows:
        return ""
    header = []
    for k, v in rows[0].items():
        header += [f"{k}{i}" for i in range(len(v))] if isinstance(v, list) else [k]
    templates = {}
    lines = [",".join(header)]
    for row in rows:
        cells = tuple(_spread(row))
        kinds = tuple(map(type, cells))
        template = templates.get(kinds)
        if template is None:
            template = templates[kinds] = ",".join(map(_cell_format, kinds))
        lines.append(template % cells)
    return "\n".join(lines) + "\n"
