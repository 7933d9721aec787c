"""Byte-identity of the CLI's outputs against recorded sha256 digests.

A small Table-1 run with traces, written once as CSV and once as JSON, and
four domain scans are hashed file by file: every front, trace and
scan-mask file, and every report with its wall-time values blanked.  The
first Table-1 run is repeated at 2 workers, one job in-process and one in
a pool, whose fronts and traces must match the serial run's digests.  The
fronts and ``report.json`` of the full Table-1 protocol, the experiments
of ``conftest.py``, are hashed too, under ``table1-full/``.  A change that
moves any of these bytes must say why and record the digests again with
``PYTHONPATH=src python tests/test_golden.py``, which prints each digest
it adds, changes or drops.
"""

import hashlib
import json
import os
import re
import sys

import mgdkit.harness as harness
from mgdkit.cli import EXIT_OK, main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
# The files hashed of the full protocol, which conftest.run_protocol writes under table1-full/.
FULL, FULL_FILES = "table1-full/", ("front_", "report.json")

COMMANDS = (
    ("table1", "table1", "--n-starts", "3", "--max-iters", "40", "--seed", "42",
     "--workers", "0", "--traces"),
    ("table1-json", "table1", "--n-starts", "3", "--max-iters", "40", "--seed", "42",
     "--workers", "0", "--traces", "--format", "json"),
    # 20 starts, so the direction LPs of the first iterations go through the
    # batched simplex.
    ("table1-wide", "table1", "--n-starts", "20", "--max-iters", "20", "--seed", "42",
     "--workers", "0", "--traces"),
    ("scan", "scan", "--problem", "viennet", "--pair", "1,3", "--tol", "1e-8",
     "--resolution", "64"),
    ("scan", "scan", "--problem", "kursawe", "--pair", "1,2", "--tol", "1e-1",
     "--resolution", "16"),
    ("scan", "scan", "--problem", "fonseca-fleming", "--pair", "1,2", "--tol", "1e-3",
     "--resolution", "16"),
    # A large mask (7,121 marked cells), so a slip in writing a long table shows.
    ("scan-large", "scan", "--problem", "viennet", "--pair", "1,3", "--tol", "1e-8",
     "--resolution", "128,128"),
)


# The wall-time values of report.json and report.txt: the two JSON keys,
# the text's total line and the last column of its variant table.
WALL_TIMES = re.compile(
    rb'(?<="wall_time": )\S+?(?=,?$)|(?<="total_wall_time": )\S+$'
    rb"|(?<=^total_wall_time = )\S+$|(?<=^bt-)(\S+ +lp-\S+ +\S+ +\d+ +)\S+$",
    re.M,
)


def _blank_wall_times(data: bytes) -> bytes:
    return WALL_TIMES.sub(lambda m: (m.group(1) or b"") + b"_", data)


def _digests(root: str, names: tuple) -> dict:
    """The sha256 digest of each file under ``root`` whose name starts with
    one of ``names``, keyed by its path from ``root``."""
    digests = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            if name.startswith(names):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    data = fh.read()
                if name.startswith("report."):
                    data = _blank_wall_times(data)
                digest = hashlib.sha256(data).hexdigest()
                digests[os.path.relpath(path, root).replace(os.sep, "/")] = digest
    return dict(sorted(digests.items()))


def output_digests(root: str) -> dict:
    """Run every command into ``root`` and hash its front, trace, mask and
    report files, the reports with their wall times blanked."""
    for subdir, *argv in COMMANDS:
        assert main([*argv, "--out", os.path.join(root, subdir)]) == EXIT_OK
    return _digests(root, ("front_", "trace_", "scan_", "report."))


def _recorded(full: bool) -> dict:
    """The recorded digests of the full protocol's files, or of all others."""
    with open(GOLDEN) as fh:
        return {k: v for k, v in json.load(fh).items() if k.startswith(FULL) == full}


def test_outputs_match_recorded_digests(tmp_path):
    assert output_digests(str(tmp_path)) == _recorded(full=False)


def test_full_protocol_matches_recorded_digests(
    protocol_root, ff_report, kursawe_report, viennet_report
):
    # The 12 fronts and 3 reports of the experiments the acceptance tests check.
    expected = _recorded(full=True)
    assert len(expected) == 3 * (4 + 1)
    assert _digests(protocol_root, FULL_FILES) == expected


def test_pooled_traces_match_recorded_digests(tmp_path, monkeypatch):
    # The table1 command at 2 workers, two traced jobs per problem, one in
    # the calling process and one in a 1-worker pool, writes the recorded
    # serial fronts and traces byte for byte (its reports echo the worker
    # count).
    jobs = []

    class CountingPool(harness.ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            jobs.append(args)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
    subdir, *argv = COMMANDS[0]
    argv[argv.index("--workers") + 1] = "2"
    assert main([*argv, "--out", str(tmp_path / subdir)]) == EXIT_OK
    assert len(jobs) == 3
    with open(GOLDEN) as fh:
        expected = {k: v for k, v in json.load(fh).items()
                    if k.startswith(f"{subdir}/") and "/report." not in k}
    assert len(expected) == 3 * (4 + 12)
    assert _digests(str(tmp_path), ("front_", "trace_")) == expected


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    from conftest import PROTOCOL, run_protocol

    # The commands' own reports would bury the list of changed digests.
    with tempfile.TemporaryDirectory() as root, contextlib.redirect_stdout(io.StringIO()):
        digests = output_digests(root)
    with tempfile.TemporaryDirectory() as root:
        for problem in PROTOCOL:
            run_protocol(problem, root)
        digests = dict(sorted({**digests, **_digests(root, FULL_FILES)}.items()))
    with open(GOLDEN) as fh:
        old = json.load(fh)
    for key in sorted(old.keys() | digests.keys()):
        if old.get(key) != digests.get(key):
            change = "added" if key not in old else "dropped" if key not in digests else "changed"
            sys.stdout.write(f"{change} {key}\n")
    with open(GOLDEN, "w") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")
    sys.stdout.write(f"recorded {len(digests)} digests in {GOLDEN}\n")
