#!/usr/bin/env python3
"""mgdkit benchmark: drives the ``mgdkit`` CLI in-process and measures it.

Run from the repository root:

    python3 bench/run.py --workload table1-traces --seed 42 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 42 --seconds 30 --trace 0
    python3 bench/run.py --smoke
    python3 bench/run.py --record --seed 42

Each workload is a list of units, ``mgdkit.cli.main([...])`` calls with
every setting on the command line.  Each execution of a unit writes into
a fresh output directory whose outputs are then checked (see
``checks.py``).  Rounds over all units follow each other until
``--seconds`` have passed; the workload's wall time is the sum over its
units of each unit's median time.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics per traced round (see ``instrument.py``) plus
``trace_overhead``, traced over untraced wall time minus 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record with the
environment, every repetition and the spans goes to ``.bench_out/results``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from instrument import PER_LAYER, PoolStats, Probes, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("table1-traces", "wide-pool", "scan")
PROBLEMS = ("fonseca-fleming", "kursawe", "viennet")
SETUP_PROBES = 5

# Settings the CLI would otherwise take from its defaults, pinned here.
PINNED = ["--c1", "1e-09", "--alpha", "0.8", "--eta0", "1.0", "--theta", "40",
          "--epsilon", "1.0", "--format", "csv"]
DEFAULT_MAX_ITERS = {"fonseca-fleming": 250, "kursawe": 1500, "viennet": 7500}


@dataclasses.dataclass(frozen=True)
class Sizes:
    table1_units: int
    table1_starts: int  # per unit
    table1_max_iters: int
    pool_starts: int
    scan_viennet: str
    scan_kursawe: str

    def key(self, workload: str) -> str:
        """The sizes a workload's stored references depend on."""
        if workload == "table1-traces":
            return (f"units={self.table1_units},starts={self.table1_starts},"
                    f"max_iters={self.table1_max_iters}")
        if workload == "wide-pool":
            return f"starts={self.pool_starts}"
        return f"viennet={self.scan_viennet};kursawe={self.scan_kursawe}"


# Every unit takes 0.3-1.5 s on 2 cores, so a run times each one several
# times and keeps the median: the CPU here slows by up to a third for a
# few seconds at a time, which a median of short samples ignores.
# table1-traces: 8 x 5 = 40 starts at a 100-iteration budget, so the share
# of long bt-new runs varies little between seeds.
FULL = Sizes(table1_units=8, table1_starts=5, table1_max_iters=100, pool_starts=200,
             scan_viennet="128,128", scan_kursawe="32,32,32")
SMOKE = Sizes(table1_units=2, table1_starts=2, table1_max_iters=5, pool_starts=6,
              scan_viennet="8,8", scan_kursawe="4,4,4")


@dataclasses.dataclass(frozen=True)
class Unit:
    """One CLI call of a workload and the operations it attempts."""

    name: str
    argv: tuple  # without "--out <dir>"
    ops: int

    def command(self, out: Path) -> list[str]:
        return [*self.argv, "--out", str(out)]


def units(workload: str, seed: int, sizes: Sizes) -> list[Unit]:
    """The workload's CLI calls at this seed."""
    if workload == "table1-traces":
        # Unit k runs the mgdkit seed seed * units + k: distinct seeds give
        # disjoint sets of starts.
        n = sizes.table1_units
        return [
            Unit(f"table1-{seed * n + k}",
                 ("table1", "--seed", str(seed * n + k), "--n-starts", str(sizes.table1_starts),
                  "--max-iters", str(sizes.table1_max_iters), "--workers", "0", *PINNED,
                  "--traces"),
                 len(PROBLEMS) * 4 * sizes.table1_starts)
            for k in range(n)
        ]
    if workload == "wide-pool":
        return [
            Unit(f"run-{p}",
                 ("run", "--problem", p, "--backtracking", "bt-base", "--seed", str(seed),
                  "--n-starts", str(sizes.pool_starts), "--max-iters", str(DEFAULT_MAX_ITERS[p]),
                  "--workers", "2", *PINNED),
                 2 * sizes.pool_starts)
            for p in PROBLEMS
        ]
    if workload == "scan":
        # No randomness: both scans are the same at every seed.
        return [
            Unit("scan-viennet", ("scan", "--problem", "viennet", "--pair", "1,3", "--tol", "1e-8",
                                  "--resolution", sizes.scan_viennet), 1),
            Unit("scan-kursawe", ("scan", "--problem", "kursawe", "--pair", "1,2", "--tol", "1e-3",
                                  "--resolution", sizes.scan_kursawe), 1),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def load_cli():
    """Import the checkout's own mgdkit, never an installed copy."""
    if not (SRC / "mgdkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no mgdkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from mgdkit import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported mgdkit from {cli.__file__}, not {SRC}")
    return cli


# --- environment -----------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout read from .git, or None outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
    }


# --- one unit --------------------------------------------------------------

@dataclasses.dataclass
class Sample:
    """One timed execution of a unit, with its output check."""

    unit: str
    traced: bool
    wall_s: float
    work: int  # descent iterations, or grid cells for scan
    attempted: int
    failed: int
    problems: list


def run_unit(cli, unit: Unit, probes, tracer, expected) -> tuple[Sample, dict]:
    """Run one unit into a fresh directory and check its outputs."""
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{unit.name}-", dir=OUT / "work"))
    try:
        gc.collect()
        iterations = probes.iterations
        argv = unit.command(out)
        buf = io.StringIO()
        t0 = perf_counter()
        with redirect_stdout(buf):
            rc = tracer.call("cli.main", cli.main, argv) if tracer else cli.main(argv)
        wall = perf_counter() - t0
        problems = [] if rc == 0 else [f"{unit.name}: mgdkit exited with {rc}"]
        if argv[0] == "scan":
            work = sum(int(np.prod([int(v) for v in line.split("=")[1].split(",")]))
                       for line in buf.getvalue().splitlines()
                       if line.startswith("resolution = "))
        else:
            work = probes.iterations - iterations
        dig = checks.digest(out)
        problems += [f"{unit.name}: {p}" for p in checks.invariants(out, dig)]
        if expected is not None:
            problems += [f"{unit.name}: {p}" for p in checks.compare(dig, *expected)]
    finally:
        shutil.rmtree(out, ignore_errors=True)
    errored = unit.ops if rc != 0 else 0
    failed = min(unit.ops, errored + checks.failed_runs(dig) + len(problems))
    return Sample(unit.name, tracer is not None, wall, work, unit.ops, failed, problems), dig


def workload_time(samples: list[Sample]) -> tuple[float, float]:
    """(wall s, work) of one pass over the units, each unit at its median."""
    by_unit: dict[str, list[Sample]] = {}
    for s in samples:
        by_unit.setdefault(s.unit, []).append(s)
    wall = sum(statistics.median(s.wall_s for s in group) for group in by_unit.values())
    work = sum(statistics.median(s.work for s in group) for group in by_unit.values())
    return wall, work


def setup_times(workload: str, seed: int, count: int) -> list[float]:
    """Interpreter start to the first workload call, in fresh processes."""
    times = []
    for _ in range(count):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        times.append(perf_counter() - t0)
    return times


# --- a whole run -----------------------------------------------------------

def measure(cli, workload, seed, seconds, trace, sizes=FULL, setup_probes=SETUP_PROBES):
    """Run rounds over the workload's units for ``seconds``; the result record."""
    plan = units(workload, seed, sizes)
    refs = checks.reference_for(checks.load_references(), workload, sizes.key(workload), seed)
    expected = {name: (dig, "the stored reference") for name, dig in (refs or {}).items()}
    setup = [] if trace else setup_times(workload, seed, setup_probes)
    probes = Probes().install()
    tracer = Tracer() if trace else None
    traced_pool = PoolStats()
    samples: list[Sample] = []
    rounds = 0
    started = perf_counter()
    try:
        while True:
            traced = trace and rounds % 2 == 1
            if traced:
                tracer.run_id = rounds
                tracer.install()
                before = dataclasses.replace(probes.pool)
            try:
                for unit in plan:
                    sample, dig = run_unit(cli, unit, probes, tracer if traced else None,
                                           expected.get(unit.name))
                    expected.setdefault(unit.name, (dig, "the first repetition"))
                    samples.append(sample)
            finally:
                if traced:
                    tracer.restore()
            if traced:
                traced_pool.jobs += probes.pool.jobs - before.jobs
                traced_pool.lifetime_s += probes.pool.lifetime_s - before.lifetime_s
            rounds += 1
            if perf_counter() - started >= seconds and (not trace or rounds >= 2):
                break
    finally:
        probes.restore()

    absent = sorted(set(probes.absent) | set(tracer.absent if tracer else ()))
    if trace:
        traced_wall, _ = workload_time([s for s in samples if s.traced])
        plain_wall, _ = workload_time([s for s in samples if not s.traced])
        metrics = tracer.layer_metrics(rounds // 2, traced_pool, absent)
        metrics["trace_overhead"] = traced_wall / plain_wall - 1.0
        units_of = {name: unit for name, unit, _ in PER_LAYER}
    else:
        wall, work = workload_time(samples)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + probes.pool.worker_peak_kb
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "work_per_s": work / wall,
            "peak_rss_mb": peak_kb / 1024.0,
        }
        units_of = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "sizes": dataclasses.asdict(sizes),
        "environment": environment(),
        "reference": refs is not None,
        "absent": absent,
        "rounds": rounds,
        "setup_s": setup,
        "samples": [dataclasses.asdict(s) for s in samples],
        "result": {
            "correct": all(not s.problems and not s.failed for s in samples),
            "attempted": sum(s.attempted for s in samples),
            "failed": sum(s.failed for s in samples),
            "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()},
        },
        "spans": tracer.spans if tracer else [],
    }


def display_name(workload: str, metric: str) -> str:
    """``work_per_s`` under the name of what it counts on this workload."""
    if metric != "work_per_s":
        return metric
    return "cells_per_s" if workload == "scan" else "iters_per_s"


def summary_lines(record: dict) -> list[str]:
    res = record["result"]
    env = record["environment"]
    lines = [
        "# env " + " ".join(f"{k}={json.dumps(v)}" for k, v in env.items()),
        f"# workload {record['workload']} seed {record['seed']}: {record['rounds']} rounds"
        + (", checked against the stored reference" if record["reference"] else ""),
    ]
    if record["absent"]:
        lines.append("# absent boundaries: " + ", ".join(record["absent"]))
    for sample in record["samples"]:
        for problem in sample["problems"]:
            lines.append(f"# check failed: {problem}")
    for name, m in res["metrics"].items():
        lines.append(f"{display_name(record['workload'], name)} = {m['value']:.6g} {m['unit']}")
    unit = "scans" if record["workload"] == "scan" else "runs"
    lines.append(
        f"failed_frac = {res['failed'] / res['attempted']:.6g} "
        f"({res['failed']} of {res['attempted']} {unit})"
    )
    return lines


def save(record: dict) -> Path:
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / (f"{record['workload']}_seed{record['seed']}_trace{record['trace']}"
                      f"_{stamp}_{os.getpid()}.json")
    path.write_text(json.dumps(record) + "\n")
    return path


# --- modes -----------------------------------------------------------------

def run_all(args) -> int:
    """Every workload in its own process, then one table of the metrics."""
    rows, ok = [], True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            ok = False
            continue
        rows.append((workload, json.loads(lines[-1])))
    print("\n# workload       metric                         value  unit")
    merged = {"correct": ok, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, res in rows:
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
            print(f"# {workload:<14} {display_name(workload, name):<28} {m['value']:>12.6g}  {m['unit']}")
        print(f"# {workload:<14} {'failed_frac':<28} {res['failed'] / res['attempted']:>12.6g}  ratio")
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def smoke(cli) -> list[str]:
    """Tiny sizes: every metric present with its unit, corruption caught."""
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems += smoke_metrics(cli, workload, trace)
    return problems + corrupted_front_is_caught(cli)


def smoke_metrics(cli, workload: str, trace: int) -> list[str]:
    """One tiny run: the metrics of BENCHMARK.json, by name and unit, and no failure."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in group}
    record = measure(cli, workload, 3, 0, trace, SMOKE, setup_probes=1)
    res = record["result"]
    got = {k: m["unit"] for k, m in res["metrics"].items()}
    problems = []
    if got != expected:
        problems.append(f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got.items()) ^ set(expected.items()))}")
    if not res["correct"] or res["failed"]:
        problems.append(f"{workload} trace {trace}: output check failed: "
                        + "; ".join(p for s in record["samples"] for p in s["problems"]))
    return problems


def corrupted_front_is_caught(cli) -> list[str]:
    """Append a dominated row to a front file; the check must object."""
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix="smoke-", dir=OUT / "work"))
    try:
        argv = units("table1-traces", 3, SMOKE)[0].command(out)
        with redirect_stdout(io.StringIO()):
            cli.main(argv)
        clean = checks.digest(out)
        if checks.invariants(out, clean):
            return ["clean smoke output fails its invariants"]
        front = next(out.rglob("front_bt-new_lp-new.csv"))
        header, first = front.read_text().splitlines()[:2]
        n_x = sum(1 for name in header.split(",") if name.startswith("x"))
        values = first.split(",")
        worse = values[:n_x] + [repr(float(v) + 1.0) for v in values[n_x:]]
        with open(front, "a") as fh:
            fh.write(",".join(worse) + "\n")
        corrupted = checks.digest(out)
        problems = []
        if not checks.invariants(out, corrupted):
            problems.append("invariants missed a dominated row in a front file")
        if not checks.compare(corrupted, clean, "the clean output"):
            problems.append("digest comparison missed a corrupted front file")
        return problems
    finally:
        shutil.rmtree(out, ignore_errors=True)


def record_references(cli, seed: int, workloads) -> int:
    """Store one checked execution of every unit as the reference."""
    for workload in workloads:
        digests = {}
        probes = Probes().install()
        try:
            for unit in units(workload, seed, FULL):
                sample, digests[unit.name] = run_unit(cli, unit, probes, None, None)
                if sample.problems or sample.failed:
                    print(f"{workload}: not recorded: {sample.problems}", file=sys.stderr)
                    return 1
        finally:
            probes.restore()
        checks.store_reference(workload, FULL.key(workload),
                               "*" if workload == "scan" else seed, digests)
        files = sum(len(d["files"]) for d in digests.values())
        print(f"{workload}: recorded {files} file digests over {len(digests)} units")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny self-test of the benchmark")
    p.add_argument("--record", action="store_true",
                   help="store the outputs at --seed as the reference")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (args.smoke or args.record) and args.workload is None:
        p.error("--workload is required")

    cli = load_cli()
    if args.setup_probe:
        # A run's own work up to its first CLI call: imports, then the argv.
        units(args.workload, args.seed, FULL)[0].command(OUT / "work" / "probe")
        return 0
    if args.smoke:
        problems = smoke(cli)
        for problem in problems:
            print(f"smoke: {problem}")
        print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
        return 1 if problems else 0
    if args.record:
        chosen = WORKLOADS if args.workload in (None, "all") else (args.workload,)
        return record_references(cli, args.seed, chosen)
    if args.workload == "all":
        return run_all(args)

    record = measure(cli, args.workload, args.seed, args.seconds, bool(args.trace))
    path = save(record)
    for line in summary_lines(record):
        print(line)
    print(f"# record: {path.relative_to(ROOT)}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
