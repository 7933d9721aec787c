"""Experiment orchestration, reporting, and trace/front persistence."""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import dominates
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
from .metrics import global_pareto_ratio, nondominated_filter
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
    workers: int = 0  # 0 or 1: in-process; >1: the starts in that many pool jobs
    paper_semantics: bool = False

    def __post_init__(self):
        if self.n_starts < 1:
            raise ValueError("n_starts must be >= 1")
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.trace_format not in ("csv", "json"):
            raise ValueError("trace_format must be 'csv' or 'json'")
        if not self.directions or not self.backtrackings:
            raise ValueError("need at least one direction and backtracking variant")

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


def run_output_set(result: RunResult, backtracking: BacktrackVariant) -> list:
    """A run's contribution to the global comparison.

    The strictly-decreasing strategy only produces its final point; the
    non-domination strategy additionally contributes its stored antichain,
    filtered together with the final point.
    """
    final = (result.x_hat, result.f_hat)
    if backtracking is BacktrackVariant.BT_BASE or not result.stored_set:
        return [final]
    return nondominated_filter([final] + list(result.stored_set))


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


def run_experiment(config: ExperimentConfig, keep_results: bool = False):
    """Run every requested variant over one shared list of start points.

    Returns the report, or (report, per-variant results dict) when
    ``keep_results`` is set.  Failed runs contribute empty output sets and
    are counted in the report.  With an output directory configured, the
    report (and traces, if requested) are written there.  With
    ``config.workers > 1`` and no traces, every variant runs in one shared
    worker pool, which is replaced after a variant whose worker died.
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
                outputs = [
                    run_output_set(r, backtracking) if r is not None else []
                    for r in results
                ]
                ratio = global_pareto_ratio(outputs)
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
                if keep_results or config.out_dir:
                    all_results[(direction, backtracking)] = results
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
    if keep_results:
        return report, all_results
    return report


def _config_echo(config: ExperimentConfig) -> dict:
    return {
        "problem": config.problem,
        "directions": [d.value for d in config.directions],
        "backtrackings": [b.value for b in config.backtrackings],
        "n_starts": config.n_starts,
        "seed": config.seed,
        "c1": config.c1,
        "alpha": config.alpha,
        "eta0": config.eta0,
        "theta": config.theta,
        "epsilon": config.epsilon,
        "max_iters": config.max_iters,
        "paper_semantics": config.paper_semantics,
        "workers": config.workers,
    }


# --- serialization -------------------------------------------------------

def format_float(x: float) -> str:
    return format(float(x), ".17g")


def _json_text(obj, indent: int = 0) -> str:
    """JSON with floats rendered at 17 significant digits."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {_json_text(v, indent + 1)}'
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {_json_text(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    return json.dumps(str(obj))


def report_to_dict(report: ExperimentReport) -> dict:
    return {
        "problem": report.problem,
        "n_starts": report.n_starts,
        "seed": report.seed,
        "generator": report.generator,
        "config": report.config,
        "variants": [
            {
                "direction": v.direction.value,
                "backtracking": v.backtracking.value,
                "pareto_ratio": v.pareto_ratio,
                "termination_counts": v.termination_counts,
                "failures": v.failures,
                "failure_messages": list(v.failure_messages),
                "wall_time": v.wall_time,
                "failure_causes": v.failure_causes,
            }
            for v in report.variants
        ],
        "total_wall_time": report.total_wall_time,
    }


def report_to_text(report: ExperimentReport) -> str:
    lines = [
        f"problem = {report.problem}",
        f"n_starts = {report.n_starts}",
        f"seed = {report.seed}",
        f"generator = {report.generator}",
        f"total_wall_time = {format_float(report.total_wall_time)}",
        "",
        "backtracking  direction  pareto_ratio  failures  wall_time",
    ]
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

    for (direction, backtracking), results in sorted(
        run_results.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value)
    ):
        label = variant_label(direction, backtracking)
        outputs = [
            run_output_set(r, backtracking) if r is not None else [] for r in results
        ]
        union = [pt for run in outputs for pt in run]
        front = nondominated_filter(union)
        _write(f"front_{label}.{fmt}", _front_text(front, fmt))
        if include_traces:
            for j, result in enumerate(results):
                if result is None or not result.trace:
                    continue
                _write(f"trace_{label}_{j:05d}.{fmt}", _trace_text(result, fmt))
    return written


def _front_text(front: list, fmt: str) -> str:
    if not front:
        return "" if fmt == "csv" else "[]\n"
    n = len(front[0][0])
    m = len(front[0][1])
    if fmt == "csv":
        header = [f"x{i}" for i in range(n)] + [f"f{i}" for i in range(m)]
        rows = [",".join(header)]
        for x, f in front:
            rows.append(",".join(format_float(v) for v in list(x) + list(f)))
        return "\n".join(rows) + "\n"
    payload = [
        {"x": [float(v) for v in x], "f": [float(v) for v in f]} for x, f in front
    ]
    return _json_text(payload) + "\n"


def _trace_text(result: RunResult, fmt: str) -> str:
    n = result.x_hat.size
    m = result.f_hat.size
    if fmt == "csv":
        header = (
            ["k"]
            + [f"x{i}" for i in range(n)]
            + [f"f{i}" for i in range(m)]
            + ["eta", "beta_star", "armijo_satisfied", "critical_case"]
        )
        rows = [",".join(header)]
        for rec in result.trace:
            rows.append(
                ",".join(
                    [str(rec.k)]
                    + [format_float(v) for v in rec.x]
                    + [format_float(v) for v in rec.f]
                    + [
                        format_float(rec.eta),
                        format_float(rec.beta_star),
                        str(int(rec.armijo_satisfied)),
                        rec.critical_case.value,
                    ]
                )
            )
        return "\n".join(rows) + "\n"
    payload = [
        {
            "k": rec.k,
            "x": [float(v) for v in rec.x],
            "f": [float(v) for v in rec.f],
            "eta": rec.eta,
            "beta_star": rec.beta_star,
            "armijo_satisfied": bool(rec.armijo_satisfied),
            "critical_case": rec.critical_case.value,
        }
        for rec in result.trace
    ]
    return _json_text(payload) + "\n"


# --- config files --------------------------------------------------------

_CONFIG_KEYS = {
    "problem": str,
    "n_starts": int,
    "seed": int,
    "c1": float,
    "alpha": float,
    "eta0": float,
    "theta": int,
    "epsilon": float,
    "max_iters": int,
    "out_dir": str,
    "trace_format": str,
    "workers": int,
    "paper_semantics": bool,
    "emit_traces": bool,
    "direction": str,
    "backtracking": str,
}


def parse_config_file(path: str) -> dict:
    """Flat key=value config text; '#' starts a comment."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            kind = _CONFIG_KEYS[key]
            if kind is bool:
                if val.lower() not in ("true", "false", "1", "0"):
                    raise ValueError(f"{path}:{lineno}: boolean expected for {key}")
                values[key] = val.lower() in ("true", "1")
            else:
                values[key] = kind(val)
    return values
