"""Output checks for one benchmark repetition.

A repetition's outputs are summarised as a digest: the sha256 of every
front, trace and scan-mask file, and from each ``report.json`` the Pareto
ratio, termination counts and failure count of every variant (the
``wall_time`` fields vary from run to run and are left out).

Three checks use the digest:

* invariants, at every seed: every front is an antichain under the
  dominance relation of ``mgdkit.core.dominates``, each variant's
  termination counts sum to its number of starts, each ratio lies in
  [0, 1], every run that did not fail left its trace file, and a scan
  mask lists exactly the cells it counts;
* stored references, at each recorded seed (``references.json``);
* repetitions of one run, which must reproduce the first one exactly.

Each mismatch is one message; the caller counts it as a failed operation.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

DIGESTED = ("front_*", "trace_*", "scan_*")
REFERENCES = Path(__file__).resolve().parent / "references.json"


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digest(out_dir: Path) -> dict:
    """File hashes and report summaries of one repetition's output tree."""
    files, reports = {}, {}
    for pattern in DIGESTED:
        for path in out_dir.rglob(pattern):
            files[path.relative_to(out_dir).as_posix()] = sha256(path)
    for path in out_dir.rglob("report.json"):
        report = json.loads(path.read_text())
        reports[path.parent.relative_to(out_dir).as_posix()] = {
            "n_starts": report["n_starts"],
            "variants": {
                f"{v['backtracking']}_{v['direction']}": {
                    "pareto_ratio": v["pareto_ratio"],
                    "termination_counts": v["termination_counts"],
                    "failures": v["failures"],
                }
                for v in report["variants"]
            },
        }
    return {"files": dict(sorted(files.items())), "reports": dict(sorted(reports.items()))}


def failed_runs(dig: dict) -> int:
    return sum(v["failures"] for r in dig["reports"].values() for v in r["variants"].values())


def _front_objectives(path: Path) -> np.ndarray:
    text = path.read_text()
    if not text.strip():
        return np.zeros((0, 0))
    header, *rows = text.splitlines()
    cols = [i for i, name in enumerate(header.split(",")) if name.startswith("f")]
    return np.array([[float(row.split(",")[i]) for i in cols] for row in rows]).reshape(-1, len(cols))


def dominated_rows(F: np.ndarray, block: int = 256) -> int:
    """Rows of F dominated by another row: all <= and some != (exact)."""
    count = 0
    for start in range(0, F.shape[0], block):
        A = F[start:start + block, None, :]
        dominated = np.all(F[None, :, :] <= A, axis=2) & np.any(F[None, :, :] != A, axis=2)
        count += int(np.any(dominated, axis=1).sum())
    return count


def invariants(out_dir: Path, dig: dict) -> list[str]:
    problems = []
    for rel in dig["files"]:
        name = Path(rel).name
        if name.startswith("front_"):
            bad = dominated_rows(_front_objectives(out_dir / rel))
            if bad:
                problems.append(f"{rel}: {bad} dominated row(s) in a front")
        elif name.startswith("scan_"):
            payload = json.loads((out_dir / rel).read_text())
            res = payload["resolution"]
            if payload["marked_cells"] != len(payload["cells"]):
                problems.append(f"{rel}: marked_cells != number of cells listed")
            if any(not all(0 <= i < r for i, r in zip(cell, res)) for cell in payload["cells"]):
                problems.append(f"{rel}: cell index outside the grid")
    traces = sum(1 for rel in dig["files"] if Path(rel).name.startswith("trace_"))
    for where, report in dig["reports"].items():
        for label, v in report["variants"].items():
            if sum(v["termination_counts"].values()) + v["failures"] != report["n_starts"]:
                problems.append(f"{where}/{label}: terminations + failures != n_starts")
            if not 0.0 <= v["pareto_ratio"] <= 1.0:
                problems.append(f"{where}/{label}: pareto ratio {v['pareto_ratio']} outside [0, 1]")
    if traces:
        expected = sum(
            report["n_starts"] - v["failures"]
            for report in dig["reports"].values()
            for v in report["variants"].values()
        )
        if traces != expected:
            problems.append(f"{traces} trace files for {expected} runs that did not fail")
    return problems


def compare(dig: dict, ref: dict, what: str) -> list[str]:
    """Every difference between two digests, one message each."""
    problems = []
    for rel in sorted(set(dig["files"]) | set(ref["files"])):
        mine, theirs = dig["files"].get(rel), ref["files"].get(rel)
        if mine != theirs:
            state = "missing" if mine is None else "unexpected" if theirs is None else "differs"
            problems.append(f"{rel}: {state} against {what}")
    for where in sorted(set(dig["reports"]) | set(ref["reports"])):
        if dig["reports"].get(where) != ref["reports"].get(where):
            problems.append(f"{where}/report.json: ratios or counts differ from {what}")
    return problems


def load_references() -> dict:
    if REFERENCES.is_file():
        return json.loads(REFERENCES.read_text())
    return {}


def reference_for(refs: dict, workload: str, key: str, seed: int):
    """The stored digest for this workload, sizes and seed, if recorded."""
    entry = refs.get(workload, {})
    if entry.get("key") != key:
        return None
    seeds = entry.get("seeds", {})
    return seeds.get(str(seed), seeds.get("*"))


def store_reference(workload: str, key: str, seed, dig: dict) -> None:
    refs = load_references()
    entry = refs.setdefault(workload, {"key": key, "seeds": {}})
    if entry.get("key") != key:
        entry.update(key=key, seeds={})
    entry["seeds"][str(seed)] = dig
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
