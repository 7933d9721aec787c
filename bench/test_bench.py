"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from instrument import PoolStats, Tracer  # noqa: E402

cli = run.load_cli()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_reported_with_its_unit(workload, trace):
    assert run.smoke_metrics(cli, workload, trace) == []


def test_corrupted_front_file_is_caught():
    assert run.corrupted_front_is_caught(cli) == []


def test_removed_boundary_reads_absent_not_zero(monkeypatch):
    import mgdkit.lp

    monkeypatch.delattr(mgdkit.lp, "_pivot")
    tracer = Tracer().install()
    tracer.restore()
    metrics = tracer.layer_metrics(1, PoolStats(), tracer.absent)
    assert tracer.absent == ["mgdkit.lp._pivot"]
    assert "lp.pivots" not in metrics
    assert "lp.simplex.calls" in metrics


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
