"""Byte-identity of the CLI's outputs against recorded sha256 digests.

A small Table-1 run with traces, written once as CSV and once as JSON, and
four domain scans are hashed file by file: every front, trace and
scan-mask file, and every report with its wall-time values blanked.  A
change that moves any of these bytes must say why and record the digests
again with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import os
import re
import sys

from mgdkit.cli import EXIT_OK, main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

COMMANDS = (
    ("table1", "table1", "--n-starts", "3", "--max-iters", "40", "--seed", "42",
     "--workers", "0", "--traces"),
    ("table1-json", "table1", "--n-starts", "3", "--max-iters", "40", "--seed", "42",
     "--workers", "0", "--traces", "--format", "json"),
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


def output_digests(root: str) -> dict:
    """Run every command into ``root`` and hash its front, trace, mask and
    report files, the reports with their wall times blanked."""
    for subdir, *argv in COMMANDS:
        assert main([*argv, "--out", os.path.join(root, subdir)]) == EXIT_OK
    digests = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            if name.startswith(("front_", "trace_", "scan_", "report.")):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    data = fh.read()
                if name.startswith("report."):
                    data = _blank_wall_times(data)
                digest = hashlib.sha256(data).hexdigest()
                digests[os.path.relpath(path, root).replace(os.sep, "/")] = digest
    return dict(sorted(digests.items()))


def test_outputs_match_recorded_digests(tmp_path):
    with open(GOLDEN) as fh:
        expected = json.load(fh)
    assert output_digests(str(tmp_path)) == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as root:
        digests = output_digests(root)
    with open(GOLDEN, "w") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")
    sys.stdout.write(f"recorded {len(digests)} digests in {GOLDEN}\n")
