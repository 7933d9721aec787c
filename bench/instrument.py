"""Outside-in instrumentation of mgdkit for the benchmark.

Nothing in ``src/`` knows about this module.  Each boundary is wrapped
where its caller looks it up (``mgdkit.descent.evaluate``, not
``mgdkit.core.evaluate``), because a wrapper placed in the defining
module is never called once the caller has imported the name.

Two levels exist:

* :class:`Probes` stay installed for a whole benchmark run, traced or
  not.  They see one call per variant and one per worker pool: the
  per-variant results (to count ``RunResult.iterations``) and the pool's
  jobs, lifetime and worker memory.
* :class:`Tracer` is installed only around a traced round.  It keeps
  full spans for the coarse boundaries (command, experiment, variant,
  ``run_mgd``, emit, global ratio, scan) and, for the per-iteration
  boundaries, only an aggregate of calls, total time and self time: one
  span per call would not fit in memory.

A boundary whose attribute no longer exists is reported as absent, and
the metrics that depend on it are left out rather than read as 0.
"""

from __future__ import annotations

import dataclasses
import importlib
import multiprocessing
import os
from collections import Counter, defaultdict
from time import perf_counter

CASES = (
    "not-critical",
    "critical-perpendicular",
    "critical-zero-only",
    "critical-non-null",
)
VARIANT_LABELS = (
    "bt-base_lp-base",
    "bt-base_lp-new",
    "bt-new_lp-base",
    "bt-new_lp-new",
)

# Wrapped boundaries, as "module.attribute" where the caller resolves them.
RUN_VARIANT = "mgdkit.harness.run_variant"
POOL = "mgdkit.harness.ProcessPoolExecutor"
EXPERIMENT = "mgdkit.cli.run_experiment"
SCAN = "mgdkit.cli.critical_region_scan"
RUN_MGD = "mgdkit.harness.run_mgd"
GLOBAL_RATIO = "mgdkit.harness.global_pareto_ratio"
EMIT = "mgdkit.harness.emit_traces"
ND_FILTER = "mgdkit.harness.nondominated_filter"
SOLVE = "mgdkit.descent.solve_direction"
BACKTRACK = "mgdkit.descent.backtrack"
EVALUATE = "mgdkit.descent.evaluate"
DOMINATES = "mgdkit.descent.dominates"
PRUNE = "mgdkit.descent.nondominated_mask"
SIMPLEX = "mgdkit.direction._simplex_core"
PIVOT = "mgdkit.lp._pivot"
PROBLEMS = "mgdkit.harness.get_problem"
CLI_PROBLEMS = "mgdkit.cli.get_problem"

# (metric, unit, boundaries it needs).  The order is the report order.
PER_LAYER = (
    [
        ("cli.main.self_s", "s", ()),
        ("lp.simplex.calls", "count", (SIMPLEX,)),
        ("lp.simplex.self_s", "s", (SIMPLEX,)),
        ("lp.pivots", "count", (PIVOT,)),
        ("lp.solves_per_direction", "ratio", (SIMPLEX, SOLVE)),
        ("direction.solve.calls", "count", (SOLVE,)),
        ("direction.solve.self_s", "s", (SOLVE,)),
    ]
    + [(f"direction.case.{case}", "count", (SOLVE,)) for case in CASES]
    + [
        ("descent.iterations", "count", (RUN_MGD,)),
        ("descent.run.self_s", "s", (RUN_MGD,)),
        ("descent.backtrack.calls", "count", (BACKTRACK,)),
        ("descent.backtrack.self_s", "s", (BACKTRACK,)),
        ("descent.ladder_rows", "count", (BACKTRACK, PROBLEMS)),
        ("descent.armijo_accept_ratio", "ratio", (BACKTRACK,)),
        ("descent.prune.rows", "count", (PRUNE,)),
        ("descent.prune.self_s", "s", (PRUNE,)),
        ("core.evaluate.calls", "count", (EVALUATE,)),
        ("core.evaluate.self_s", "s", (EVALUATE,)),
        ("problems.f_batch.rows", "count", (PROBLEMS,)),
        ("problems.f_batch.self_s", "s", (PROBLEMS,)),
        ("problems.evaluator.calls", "count", (PROBLEMS, CLI_PROBLEMS)),
        ("problems.evaluator.self_s", "s", (PROBLEMS, CLI_PROBLEMS)),
        ("core.dominates.calls", "count", (DOMINATES,)),
        ("core.dominates.self_s", "s", (DOMINATES,)),
        ("metrics.global_ratio.rows", "count", (GLOBAL_RATIO,)),
        ("metrics.global_ratio.self_s", "s", (GLOBAL_RATIO,)),
        ("metrics.nd_filter.rows", "count", (ND_FILTER,)),
        ("metrics.nd_filter.self_s", "s", (ND_FILTER,)),
        ("metrics.scan.cells", "count", (SCAN,)),
        ("metrics.scan.self_s", "s", (SCAN,)),
        ("harness.experiment.self_s", "s", (EXPERIMENT,)),
        ("harness.variant.self_s", "s", (RUN_VARIANT,)),
    ]
    + [(f"harness.variant_s.{label}", "s", (RUN_VARIANT,)) for label in VARIANT_LABELS]
    + [
        ("harness.emit.self_s", "s", (EMIT,)),
        ("harness.emit.bytes", "B", (EMIT,)),
        ("harness.emit.files", "count", (EMIT,)),
        ("harness.pool.jobs", "count", (POOL,)),
        ("harness.pool.lifetime_s", "s", (POOL,)),
        ("trace_overhead", "ratio", ()),
    ]
)


def _vm_hwm_kb(pid: int) -> int:
    """Peak resident set of a live process in kB, 0 when unreadable."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._saved = []
        self.absent: list[str] = []

    def replace(self, target: str, make) -> None:
        """Replace ``module.attr`` by ``make(original)``, or note it absent."""
        module_name, attr = target.rsplit(".", 1)
        module = importlib.import_module(module_name)
        if not hasattr(module, attr):
            if target not in self.absent:
                self.absent.append(target)
            return
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


@dataclasses.dataclass
class PoolStats:
    jobs: int = 0
    lifetime_s: float = 0.0
    worker_peak_kb: int = 0  # largest sum of worker peaks within one pool


class Probes:
    """Per-variant and per-pool observers kept for the whole run."""

    def __init__(self):
        self.iterations = 0
        self.pool = PoolStats()
        self._patches = _Patches()

    @property
    def absent(self) -> list[str]:
        return self._patches.absent

    def install(self) -> "Probes":
        self._patches.replace(RUN_VARIANT, self._wrap_variant)
        self._patches.replace(POOL, self._pool_class)
        return self

    def restore(self) -> None:
        self._patches.restore()

    def _wrap_variant(self, fn):
        def run_variant(*args, **kwargs):
            results, failures = fn(*args, **kwargs)
            self.iterations += sum(r.iterations for r in results if r is not None)
            return results, failures

        return run_variant

    def _pool_class(self, base):
        stats = self.pool

        class Pool(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._bench_t0 = perf_counter()

            def submit(self, fn, /, *args, **kwargs):
                stats.jobs += 1
                return super().submit(fn, *args, **kwargs)

            def shutdown(self, wait=True, *, cancel_futures=False):
                # Workers are still alive here; their peaks are gone once joined.
                kb = sum(_vm_hwm_kb(p.pid) for p in multiprocessing.active_children())
                stats.worker_peak_kb = max(stats.worker_peak_kb, kb)
                super().shutdown(wait=wait, cancel_futures=cancel_futures)
                stats.lifetime_s += perf_counter() - self._bench_t0

        return Pool


class Tracer:
    """Spans at coarse boundaries, aggregates at per-iteration ones."""

    def __init__(self):
        # name -> [calls, total seconds, self seconds]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = Counter()
        self.spans: list[dict] = []
        self.run_id = 0
        self._stack: list[list] = []  # [name, child seconds, span id or None]
        self._next_span = 0
        self._patches = _Patches()

    @property
    def absent(self) -> list[str]:
        return self._patches.absent

    def _timed(self, name: str, fn, span: bool = False, hook=None):
        stats, stack, spans = self.stats, self._stack, self.spans

        def wrapper(*args, **kwargs):
            span_id = parent = None
            if span:
                span_id = self._next_span
                self._next_span += 1
                parent = next((f[2] for f in reversed(stack) if f[2] is not None), None)
            frame = [name, 0.0, span_id]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                stack.pop()
                st = stats[name]
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if span:
                    spans.append({"id": span_id, "parent": parent, "name": name,
                                  "start": t0, "end": t1, "run": self.run_id})
            if hook is not None:
                hook(args, result, dt)
            return result

        return wrapper

    def call(self, name: str, fn, *args):
        """Call ``fn(*args)`` as a root span named ``name``."""
        return self._timed(name, fn, span=True)(*args)

    def install(self) -> "Tracer":
        c, stats = self.counts, self.stats

        def wrap(target, name, span=False, hook=None):
            self._patches.replace(
                target, lambda fn: self._timed(name, fn, span=span, hook=hook)
            )

        def count(key):
            def hook(args, result, dt):
                c[key] += len(args[0])
            return hook

        def scan_cells(args, mask, dt):
            c["metrics.scan.cells"] += int(mask.size)

        def variant_time(args, result, dt):
            direction, backtracking = args[1], args[2]
            stats[f"harness.variant_s.{backtracking.value}_{direction.value}"][1] += dt

        def iterations(args, result, dt):
            c["descent.iterations"] += result.iterations

        def ratio_rows(args, result, dt):
            c["metrics.global_ratio.rows"] += sum(len(run) for run in args[0])

        def emitted(args, written, dt):
            c["harness.emit.files"] += len(written)
            c["harness.emit.bytes"] += sum(os.path.getsize(p) for p in written)

        def case(args, result, dt):
            c[f"direction.case.{result.case.value}"] += 1

        def accepted(args, result, dt):
            c["descent.armijo_accepts"] += bool(result[2])

        wrap(EXPERIMENT, "harness.experiment", span=True)
        wrap(SCAN, "metrics.scan", span=True, hook=scan_cells)
        wrap(RUN_VARIANT, "harness.variant", span=True, hook=variant_time)
        wrap(RUN_MGD, "descent.run", span=True, hook=iterations)
        wrap(GLOBAL_RATIO, "metrics.global_ratio", span=True, hook=ratio_rows)
        wrap(EMIT, "harness.emit", span=True, hook=emitted)
        wrap(ND_FILTER, "metrics.nd_filter", hook=count("metrics.nd_filter.rows"))
        wrap(SOLVE, "direction.solve", hook=case)
        wrap(BACKTRACK, "descent.backtrack", hook=accepted)
        wrap(EVALUATE, "core.evaluate")
        wrap(DOMINATES, "core.dominates")
        wrap(PRUNE, "descent.prune", hook=count("descent.prune.rows"))
        wrap(SIMPLEX, "lp.simplex")
        self._patches.replace(PIVOT, self._count_pivots)
        self._patches.replace(PROBLEMS, self._wrap_get_problem)
        self._patches.replace(CLI_PROBLEMS, self._wrap_get_problem)
        return self

    def restore(self) -> None:
        self._patches.restore()

    def _count_pivots(self, fn):
        # Counted, not timed: pivot time stays in the simplex's self time.
        counts = self.counts

        def pivot(*args):
            counts["lp.pivots"] += 1
            return fn(*args)

        return pivot

    def _wrap_get_problem(self, fn):
        counts, stack = self.counts, self._stack

        def rows(args, result, dt):
            n = len(args[0])
            counts["problems.f_batch.rows"] += n
            if stack and stack[-1][0] == "descent.backtrack":
                counts["descent.ladder_rows"] += n

        def get_problem(name):
            problem = fn(name)
            changes = {"evaluator": self._timed("problems.evaluator", problem.evaluator)}
            if problem.f_batch is not None:
                changes["f_batch"] = self._timed("problems.f_batch", problem.f_batch, hook=rows)
            return dataclasses.replace(problem, **changes)

        return get_problem

    def layer_metrics(self, reps: int, pool: PoolStats, absent: list[str]) -> dict:
        """Per-layer values per traced repetition; absent boundaries left out.

        A ratio whose denominator is 0 (the layer did no work) reads 0.
        """
        def calls(name):
            return self.stats[name][0]

        def self_s(name):
            return self.stats[name][2]

        def ratio(a, b):
            return a / b if b else 0.0

        raw = {
            "cli.main.self_s": self_s("cli.main"),
            "lp.simplex.calls": calls("lp.simplex"),
            "lp.simplex.self_s": self_s("lp.simplex"),
            "lp.pivots": self.counts["lp.pivots"],
            "direction.solve.calls": calls("direction.solve"),
            "direction.solve.self_s": self_s("direction.solve"),
            "descent.iterations": self.counts["descent.iterations"],
            "descent.run.self_s": self_s("descent.run"),
            "descent.backtrack.calls": calls("descent.backtrack"),
            "descent.backtrack.self_s": self_s("descent.backtrack"),
            "descent.ladder_rows": self.counts["descent.ladder_rows"],
            "descent.prune.rows": self.counts["descent.prune.rows"],
            "descent.prune.self_s": self_s("descent.prune"),
            "core.evaluate.calls": calls("core.evaluate"),
            "core.evaluate.self_s": self_s("core.evaluate"),
            "problems.f_batch.rows": self.counts["problems.f_batch.rows"],
            "problems.f_batch.self_s": self_s("problems.f_batch"),
            "problems.evaluator.calls": calls("problems.evaluator"),
            "problems.evaluator.self_s": self_s("problems.evaluator"),
            "core.dominates.calls": calls("core.dominates"),
            "core.dominates.self_s": self_s("core.dominates"),
            "metrics.global_ratio.rows": self.counts["metrics.global_ratio.rows"],
            "metrics.global_ratio.self_s": self_s("metrics.global_ratio"),
            "metrics.nd_filter.rows": self.counts["metrics.nd_filter.rows"],
            "metrics.nd_filter.self_s": self_s("metrics.nd_filter"),
            "metrics.scan.cells": self.counts["metrics.scan.cells"],
            "metrics.scan.self_s": self_s("metrics.scan"),
            "harness.experiment.self_s": self_s("harness.experiment"),
            "harness.variant.self_s": self_s("harness.variant"),
            "harness.emit.self_s": self_s("harness.emit"),
            "harness.emit.bytes": self.counts["harness.emit.bytes"],
            "harness.emit.files": self.counts["harness.emit.files"],
            "harness.pool.jobs": pool.jobs,
            "harness.pool.lifetime_s": pool.lifetime_s,
        }
        for case in CASES:
            raw[f"direction.case.{case}"] = self.counts[f"direction.case.{case}"]
        for label in VARIANT_LABELS:
            raw[f"harness.variant_s.{label}"] = self.stats[f"harness.variant_s.{label}"][1]
        out = {k: v / reps for k, v in raw.items()}
        out["lp.solves_per_direction"] = ratio(calls("lp.simplex"), calls("direction.solve"))
        out["descent.armijo_accept_ratio"] = ratio(
            self.counts["descent.armijo_accepts"], calls("descent.backtrack")
        )
        gone = set(absent)
        return {
            name: out[name]
            for name, _, needs in PER_LAYER
            if name in out and not any(b in gone for b in needs)
        }
