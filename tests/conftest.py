"""The Table-1 protocol's experiments, run once per test session.

Each problem runs at ``N=100`` starts, seed 42, its default budget K and
``workers=0``, and writes its report and fronts under a temporary
``table1-full/<problem>`` directory: ``tests/test_acceptance.py`` checks
the reports' ratios and wall times, ``tests/test_golden.py`` the files.
"""

import os
import shutil

import pytest

from mgdkit import ExperimentConfig, run_experiment

# Each problem and its default budget K.
PROTOCOL = {"fonseca-fleming": 250, "kursawe": 1500, "viennet": 7500}


def run_protocol(problem: str, root: str):
    """The report of one problem's experiment, written under ``root/table1-full``."""
    config = ExperimentConfig(
        problem=problem,
        n_starts=100,
        seed=42,
        max_iters=PROTOCOL[problem],
        workers=0,
        out_dir=os.path.join(root, "table1-full", problem),
    )
    return run_experiment(config)


@pytest.fixture(scope="session")
def protocol_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("protocol")
    yield str(root)
    shutil.rmtree(root)  # about 60 MB of fronts, most of them Viennet's


@pytest.fixture(scope="session")
def ff_report(protocol_root):
    return run_protocol("fonseca-fleming", protocol_root)


@pytest.fixture(scope="session")
def kursawe_report(protocol_root):
    return run_protocol("kursawe", protocol_root)


@pytest.fixture(scope="session")
def viennet_report(protocol_root):
    return run_protocol("viennet", protocol_root)
