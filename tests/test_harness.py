"""Tests for experiment orchestration, persistence, and the CLI."""

import dataclasses
import json
import multiprocessing
import os
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mgdkit import (
    PROBLEMS,
    BacktrackParams,
    BacktrackVariant,
    DirectionConfig,
    DirectionVariant,
    ExperimentConfig,
    RunResult,
    StartSampler,
    Termination,
    critical_region_scan,
    get_problem,
    run_experiment,
    run_mgd,
    sample_starts,
    solve_direction,
)
import mgdkit.cli as cli_mod
import mgdkit.harness as harness_mod
import mgdkit.metrics as metrics_mod
import mgdkit.problems as problems_mod
from mgdkit.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from mgdkit.harness import (
    _json_text,
    _run_chunk,
    report_to_dict,
    report_to_text,
    variant_label,
)
from oracles import ratio_and_front_oracle, run_mgd_oracle
from test_descent import assert_same_run
from test_golden import _blank_wall_times, _digests


# The pid of the test process; a forked pool worker inherits it, not its pid.
_TEST_PID = os.getpid()


def _dying_chunk(args):
    """A pool worker dies in the middle of its job; the test process runs it."""
    if os.getpid() != _TEST_PID:
        os._exit(3)
    return _run_chunk(args)


def _caller_chunk_raising(args):
    """The test process's job raises; a pool worker runs its job."""
    if os.getpid() == _TEST_PID:
        raise _TwoArgError("E2", "the caller's job")
    return _run_chunk(args)


# The rows of each job that _spied_chunk runs in the test process; set per
# test with monkeypatch.
_CALLER_JOBS: list = []


def _spied_chunk(args):
    if os.getpid() == _TEST_PID:
        _CALLER_JOBS.append(args[1])
    return _run_chunk(args)


def _second_chunk_dying(args):
    """Two jobs of 5 starts' rows, each start's lp-base row then its lp-new
    row: the first job (rows 0-4) runs, and the worker of the second
    (rows 5-9, whose first row is an lp-new row) dies once the first has
    returned, marked by a file next to the output directory, so that the
    broken pool fails only the second job."""
    config, _, lp_new, _ = args
    done = config.out_dir + ".first-done"
    if lp_new[0]:
        deadline = time.monotonic() + 60.0
        while not os.path.exists(done) and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.2)  # the first job's result reaches the pool first
        os._exit(3)
    outcomes = _run_chunk(args)
    open(done, "w").close()
    return outcomes


def _record_variants(monkeypatch) -> dict:
    """Spy on ``harness.run_variant``: the dict it fills maps each
    (backtracking, direction) an experiment runs to its (results, failures)."""
    outcomes = {}
    real = harness_mod.run_variant

    def run_variant(config, direction, backtracking, *args, **kwargs):
        outcome = real(config, direction, backtracking, *args, **kwargs)
        outcomes[(backtracking, direction)] = outcome
        return outcome

    monkeypatch.setattr(harness_mod, "run_variant", run_variant)
    return outcomes


def _faulty_problem(fault):
    """Fonseca-Fleming in 3 variables whose kernels, and so its evaluator,
    first call ``fault(X, F)`` on their rows X and objectives F, which may
    raise or write into F.  A batch with one faulty row raises as a whole,
    so the descent retries its rows one by one."""
    base = problems_mod.fonseca_fleming(3)

    def f_batch(X):
        F = base.f_batch(X)
        fault(X, F)
        return F

    def jac_batch(X):
        fault(X, base.f_batch(X))
        return base.jac_batch(X)

    return dataclasses.replace(base, evaluator=problems_mod._point_evaluator(f_batch, jac_batch),
                               f_batch=f_batch, jac_batch=jac_batch)


def _exploding_problem(fails):
    """Fonseca-Fleming in 3 variables that raises at the points where ``fails`` holds."""

    def fault(X, F):
        if any(map(fails, X)):
            raise RuntimeError("synthetic failure")

    return _faulty_problem(fault)


class _TwoArgError(Exception):
    """An error whose constructor takes two arguments."""

    def __init__(self, code, detail):
        super().__init__(code, detail)


def _fake_run(j, fs):
    """Run j with final objectives fs[0] and stored ones fs[1:]; each
    point x is (j, row), so a front row shows where it came from."""
    X = np.array([[j, i] for i in range(len(fs))], dtype=float)
    F = np.array(fs, dtype=float)
    return RunResult(trace=[], x_hat=X[0], f_hat=F[0], stored_x=X[1:], stored_f=F[1:],
                     termination=Termination.MAX_ITERS, iterations=0)


@st.composite
def variant_runs(draw):
    """(m, runs): per run None (failed) or its final and stored objective
    rows, from few values so that ties and equal points are common."""
    m = draw(st.integers(1, 3))
    point = st.lists(st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0]), min_size=m, max_size=m)
    run = st.one_of(st.none(), st.lists(point, min_size=1, max_size=5))
    return m, draw(st.lists(run, min_size=1, max_size=8))


def _small_config(**overrides):
    values = dict(
        problem="fonseca-fleming",
        n_starts=8,
        seed=3,
        max_iters=60,
        workers=0,
    )
    values.update(overrides)
    return ExperimentConfig(**values)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            _small_config(n_starts=0)
        with pytest.raises(ValueError):
            _small_config(trace_format="xml")
        with pytest.raises(ValueError):
            _small_config(directions=())
        # A repeated variant would run each start twice and be reported twice.
        with pytest.raises(ValueError, match="repeated"):
            _small_config(directions=(DirectionVariant.LP_NEW, DirectionVariant.LP_NEW),
                          backtrackings=(BacktrackVariant.BT_NEW,))
        with pytest.raises(ValueError, match="repeated"):
            _small_config(backtrackings=(BacktrackVariant.BT_BASE, BacktrackVariant.BT_NEW,
                                         BacktrackVariant.BT_BASE))
        with pytest.raises(ValueError, match="workers must be >= 0"):
            _small_config(workers=-1)
        for max_iters in (0, -3):
            with pytest.raises(ValueError, match="max_iters"):
                _small_config(max_iters=max_iters)
        # Non-integer counts would fail late, in range(), numpy or SeedSequence.
        for name in ("n_starts", "seed", "workers", "max_iters"):
            for value in (2.5, 2.0):
                with pytest.raises(ValueError, match=f"{name} must be an integer"):
                    _small_config(**{name: value})
        config = _small_config(n_starts=np.int64(2), seed=np.int64(1), max_iters=np.int64(3))
        assert config.n_starts == 2

    def test_bool_is_not_an_integer(self):
        # operator.index(True) is 1, yet a bool count would fail later in
        # numpy or be echoed as true in report.json.
        prob = get_problem("fonseca-fleming")
        checks = {
            "n_starts": lambda v: _small_config(n_starts=v),
            "seed": lambda v: _small_config(seed=v),
            "workers": lambda v: _small_config(workers=v),
            "max_iters": lambda v: _small_config(max_iters=v),
            "K": lambda v: run_mgd(prob, np.zeros(2), BacktrackParams(),
                                   DirectionConfig(DirectionVariant.LP_NEW), K=v),
            "theta": lambda v: BacktrackParams(theta=v),
            "count": lambda v: StartSampler(prob.domain_box, v, 0),
            "n": lambda v: dataclasses.replace(prob, n=v),
        }
        for name, make in checks.items():
            for value in (True, False, np.True_):
                with pytest.raises(ValueError, match=f"^{name} must be"):
                    make(value)

    def test_defaults_match_experiment_protocol(self):
        config = ExperimentConfig(problem="kursawe")
        assert config.n_starts == 500
        assert config.theta == 40
        assert config.c1 == 1e-9
        assert config.alpha == 0.8
        assert config.eta0 == 1.0
        assert config.epsilon == 1.0

    def test_variant_label(self):
        assert (
            variant_label(DirectionVariant.LP_NEW, BacktrackVariant.BT_NEW)
            == "bt-new_lp-new"
        )


class TestVariantValues:
    """A variant given by its string value is that variant, and an unknown
    value is a ValueError, in every object that takes a variant."""

    JAC = np.array([[3.0, 0.5], [0.2, 2.0]])

    def test_solve_direction(self):
        base = solve_direction(self.JAC, "lp-base")
        assert base.c_beta is None and base.gamma == 1.0
        new = solve_direction(self.JAC, "lp-new")
        assert new.gamma == 3.2 and new.p_star.tolist() == [-3.2, -3.2]
        for result, variant in ((base, DirectionVariant.LP_BASE), (new, DirectionVariant.LP_NEW)):
            expected = solve_direction(self.JAC, variant)
            assert result.p_star.tobytes() == expected.p_star.tobytes()
            assert (result.beta_star, result.case, result.gamma, result.c_beta) == (
                expected.beta_star, expected.case, expected.gamma, expected.c_beta)
        with pytest.raises(ValueError):
            solve_direction(self.JAC, "lp-none")

    def test_run_settings(self):
        prob = get_problem("kursawe")
        x0 = sample_starts(StartSampler(prob.domain_box, 1, 4))[0]
        for direction, backtracking in [(d, b) for d in DirectionVariant for b in BacktrackVariant]:
            dir_cfg = DirectionConfig(variant=direction.value)
            params = BacktrackParams(variant=backtracking.value)
            assert dir_cfg.variant is direction and params.variant is backtracking
            assert_same_run(run_mgd(prob, x0, params, dir_cfg, K=40),
                            run_mgd(prob, x0, BacktrackParams(variant=backtracking),
                                    DirectionConfig(variant=direction), K=40))
        with pytest.raises(ValueError):
            DirectionConfig(variant="lp-none")
        with pytest.raises(ValueError):
            BacktrackParams(variant="bt-none")

    def test_experiment_config(self):
        kw = dict(problem="kursawe", n_starts=6, seed=4, max_iters=40, workers=0)
        for direction, backtracking in [(d, b) for d in DirectionVariant for b in BacktrackVariant]:
            config = ExperimentConfig(directions=(direction.value,),
                                      backtrackings=(backtracking.value,), **kw)
            assert config.directions == (direction,)
            assert config.backtrackings == (backtracking,)
            (got,) = run_experiment(config).variants
            (expected,) = run_experiment(ExperimentConfig(
                directions=(direction,), backtrackings=(backtracking,), **kw)).variants
            assert got.failures == 0
            assert (got.direction, got.backtracking) == (direction, backtracking)
            assert dataclasses.replace(got, wall_time=0.0) == dataclasses.replace(
                expected, wall_time=0.0)
        with pytest.raises(ValueError, match="repeated"):
            ExperimentConfig(directions=("lp-new", DirectionVariant.LP_NEW), **kw)
        for field in ("directions", "backtrackings"):
            with pytest.raises(ValueError, match="is not a valid"):
                ExperimentConfig(**{field: ("none",)}, **kw)


class TestRunExperiment:
    def test_report_shape(self):
        report = run_experiment(_small_config())
        assert report.problem == "fonseca-fleming"
        assert len(report.variants) == 4
        for v in report.variants:
            assert 0.0 <= v.pareto_ratio <= 1.0
            assert v.failures == 0
            assert sum(v.termination_counts.values()) == 8

    def test_single_start_scores_one(self):
        report = run_experiment(_small_config(n_starts=1))
        for v in report.variants:
            assert v.pareto_ratio == 1.0

    def test_same_seed_identical_report(self):
        a = report_to_dict(run_experiment(_small_config()))
        b = report_to_dict(run_experiment(_small_config()))
        for d in (a, b):
            d["total_wall_time"] = 0.0
            for v in d["variants"]:
                v["wall_time"] = 0.0
        assert a == b

    def test_paired_starts_shared_across_variants(self, tmp_path):
        # Every variant's runs start from the same sampled points: the
        # first row of each run's trace file.
        config = _small_config(emit_traces=True, out_dir=str(tmp_path), max_iters=5)
        run_experiment(config)
        problem = get_problem(config.problem)
        expected = sample_starts(
            StartSampler(problem.domain_box, config.n_starts, config.seed)
        )
        for direction in DirectionVariant:
            for backtracking in BacktrackVariant:
                label = variant_label(direction, backtracking)
                starts = []
                for j in range(config.n_starts):
                    trace = (tmp_path / f"trace_{label}_{j:05d}.csv").read_text()
                    row = trace.splitlines()[1].split(",")
                    starts.append([float(v) for v in row[1 : 1 + problem.n]])
                assert np.array_equal(np.array(starts), expected)

    def test_one_mask_per_variant(self, monkeypatch, tmp_path):
        # A variant's ratio and its front file come from one non-dominance
        # mask over all its runs' points: the front is not filtered again,
        # nor is any run's output filtered on its own.
        calls = []

        def counted(F):
            calls.append(len(F))
            return real(F)

        real = metrics_mod.nondominated_mask
        monkeypatch.setattr(metrics_mod, "nondominated_mask", counted)
        report = run_experiment(_small_config(out_dir=str(tmp_path), n_starts=3, max_iters=20))
        assert sum(3 - v.failures for v in report.variants) == 12
        assert len(calls) == len(report.variants) == 4
        assert len(list(tmp_path.glob("front_*.csv"))) == 4

    @settings(max_examples=300, deadline=None)
    @given(variant_runs())
    @example((2, [[[1.0, 1.0], [0.0, 0.0]], None, [[0.0, 0.0]], [[-1.0, 2.0], [2.0, -1.0]]]))
    @example((2, [[[0.0, -0.0], [-0.0, 0.0]], [[-0.0, 0.0]], None]))
    @example((3, [None, None]))
    def test_ratio_and_front_match_two_stage_oracle(self, case):
        # One mask over every run's final point and stored points gives the
        # ratio and front rows (values and order) of filtering each run's
        # points first and then their union.  The examples hold a final
        # point dominated by its own stored point, failed runs, and equal
        # points (signed zeros too) shared across runs.
        m, runs = case
        results = [None if fs is None else _fake_run(j, fs) for j, fs in enumerate(runs)]
        ratio, X, F = harness_mod._ratio_and_front(results, 2, m)
        expected_ratio, front = ratio_and_front_oracle(results)
        assert ratio == expected_ratio
        assert X.shape == (len(front), 2) and F.shape == (len(front), m)
        for x, f, (ex, ef) in zip(X, F, front):
            assert x.tobytes() == ex.tobytes() and f.tobytes() == ef.tobytes()

    def test_failures_recorded_not_raised(self, monkeypatch):
        # An evaluator blowing up on some starts must not kill the
        # experiment; the report carries the failure count.
        broken = _exploding_problem(lambda x: x[0] > 0)
        monkeypatch.setitem(problems_mod.PROBLEMS, "fonseca-fleming", lambda: broken)
        report = run_experiment(_small_config(n_starts=6, max_iters=5))
        for v in report.variants:
            assert v.failures > 0
            assert any("run" in msg for msg in v.failure_messages)

    @pytest.mark.parametrize("fmt, front", [("csv", "x0,x1,x2,f0,f1\n"), ("json", "[]\n")])
    def test_all_failed_variant_writes_empty_front(self, monkeypatch, tmp_path, fmt, front):
        # When every run of a variant fails, its front is a table without
        # rows: the CSV header alone, or an empty JSON list; no trace is written.
        broken = _exploding_problem(lambda x: True)
        monkeypatch.setitem(problems_mod.PROBLEMS, "fonseca-fleming", lambda: broken)
        report = run_experiment(_small_config(n_starts=6, max_iters=5, out_dir=str(tmp_path),
                                              emit_traces=True, trace_format=fmt))
        assert [v.failures for v in report.variants] == [6] * 4
        assert not list(tmp_path.glob("trace_*"))
        fronts = sorted(tmp_path.glob("front_*"))
        assert [p.suffix for p in fronts] == [f".{fmt}"] * 4
        assert all(p.read_text() == front for p in fronts)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_failures_match_one_start_oracle(self, monkeypatch, workers):
        # Runs that raise, or reach a non-finite value, at iteration 0 or
        # later, or whose own Armijo ladder raises, fail with the exceptions
        # they fail with alone, and the report gives their messages; every
        # other run is unaffected.
        base = problems_mod.fonseca_fleming(3)

        def evaluator(x):
            if x[0] > 0.55:
                raise RuntimeError("synthetic failure")
            f, jac = base.evaluator(x)
            if x[1] < -0.35:
                f = np.array([f[0], np.nan])
            return f, jac

        def f_batch(X):
            if (X[:, 2] > 1.8).any():
                raise RuntimeError("ladder failure")
            F = base.f_batch(X)
            F[X[:, 1] < -0.35, 1] = np.nan
            return F

        def jac_batch(X):
            if (X[:, 0] > 0.55).any():
                raise RuntimeError("synthetic failure")
            return base.jac_batch(X)

        faulty = dataclasses.replace(
            base, evaluator=evaluator, f_batch=f_batch, jac_batch=jac_batch
        )
        monkeypatch.setitem(problems_mod.PROBLEMS, "fonseca-fleming", lambda: faulty)
        config = _small_config(n_starts=32, seed=6, max_iters=30, workers=workers)
        starts = sample_starts(StartSampler(faulty.domain_box, 32, 6))
        outcomes = _record_variants(monkeypatch)
        report = run_experiment(config)
        assert len(outcomes) == len(report.variants) == 4
        causes, late = set(), False
        for v in report.variants:
            results, failures = outcomes[(v.backtracking, v.direction)]
            params = config.backtrack_params(v.backtracking)
            dir_cfg = config.direction_config(v.direction)
            messages = {}
            for j, x0 in enumerate(starts):
                try:
                    expected = run_mgd_oracle(faulty, x0, params, dir_cfg, K=30,
                                              record_trace=False)
                except Exception as exc:
                    assert results[j] is None
                    assert type(failures[j]) is type(exc)
                    messages[j] = f"run {j}: {exc}"
                    causes.add(str(exc).split(": ", 1)[1].split()[0])
                    late |= not str(exc).startswith("iteration 0:")
                else:
                    assert j not in failures
                    assert_same_run(results[j], expected)
            assert list(failures) == list(messages)
            assert v.failure_messages == tuple(messages.values())
        assert causes == {"synthetic", "ladder", "objective"} and late

    def test_dead_chunk_fails_each_of_its_runs(self, monkeypatch):
        # Of 5 rows in 2 jobs, the test process runs rows 0-2 and the pool's
        # one worker rows 3-4, and dies: its runs fail with BrokenProcessPool,
        # the caller's equal those of a serial run.
        monkeypatch.setattr(harness_mod, "_run_chunk", _dying_chunk)
        outcomes = _record_variants(monkeypatch)
        config = _small_config(n_starts=5, workers=2, directions=(DirectionVariant.LP_NEW,),
                               backtrackings=(BacktrackVariant.BT_NEW,))
        (v,) = run_experiment(config).variants
        key = (BacktrackVariant.BT_NEW, DirectionVariant.LP_NEW)
        results, failures = outcomes[key]
        assert results[3:] == [None] * 2
        assert list(failures) == [3, 4]
        assert v.failure_causes == {"BrokenProcessPool": 2}
        assert len(v.failure_messages) == 2
        for j, msg in zip([3, 4], v.failure_messages):
            assert msg.startswith(f"run {j}: ") and "terminated abruptly" in msg
        run_experiment(dataclasses.replace(config, workers=0))
        serial, serial_failures = outcomes[key]
        assert not serial_failures
        for got, expected in zip(results[:3], serial[:3]):
            assert_same_run(got, expected)

    def test_caller_job_that_raises_fails_its_rows(self, monkeypatch, tmp_path):
        # Of 5 starts' 10 rows in 2 jobs, the test process's job (lp-base's
        # rows of starts 0-2, lp-new's of starts 0-1) raises: its runs fail
        # with that exception under both backtrackings, the worker's do not,
        # the report is written, and no worker outlives the experiment.
        monkeypatch.setattr(harness_mod, "_run_chunk", _caller_chunk_raising)
        outcomes = _record_variants(monkeypatch)
        out = tmp_path / "exp"
        report = run_experiment(_small_config(n_starts=5, workers=2, out_dir=str(out)))
        assert multiprocessing.active_children() == []
        dead = {DirectionVariant.LP_BASE: [0, 1, 2], DirectionVariant.LP_NEW: [0, 1]}
        for v in report.variants:
            results, failures = outcomes[(v.backtracking, v.direction)]
            assert list(failures) == dead[v.direction]
            assert [r is None for r in results] == [j in failures for j in range(5)]
            assert v.failure_causes == {"_TwoArgError": len(failures)}
            assert all(m.endswith(": ('E2', \"the caller's job\")") for m in v.failure_messages)
        parsed = json.loads((out / "report.json").read_text())
        assert [v["failure_causes"] for v in parsed["variants"]] == [
            {"_TwoArgError": 3}, {"_TwoArgError": 2}
        ] * 2

    @staticmethod
    def _count_pools(monkeypatch):
        built = []

        class CountingPool(harness_mod.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                built.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(harness_mod, "ProcessPoolExecutor", CountingPool)
        return built

    def test_one_pool_per_experiment(self, monkeypatch):
        built = self._count_pools(monkeypatch)
        report = run_experiment(_small_config(workers=2))
        assert len(report.variants) == 4
        assert sum(v.failures for v in report.variants) == 0
        assert len(built) == 1

    def test_traces_without_out_dir_use_the_pool(self, monkeypatch, capsys):
        # No trace is written without --out, so none is recorded and the
        # runs go to the pool; the report is that of a run without --traces.
        built = self._count_pools(monkeypatch)
        argv = ["run", "--problem", "kursawe", "--n-starts", "20", "--max-iters", "50",
                "--workers", "2"]
        reports = []
        for flags in ([], ["--traces"]):
            assert main([*argv, *flags]) == EXIT_OK
            reports.append(_blank_wall_times(capsys.readouterr().out.encode()))
        assert len(built) == 2
        assert reports[1] == reports[0]

    def test_dead_worker_fails_its_chunk_in_every_variant(self, monkeypatch, tmp_path):
        # The rows, each start's lp-base and lp-new row in turn, are split
        # into one job per worker.  The second job's worker dies and breaks
        # the pool: its runs (lp-base's of starts 3-4, lp-new's of starts
        # 2-4) fail with that cause under both backtrackings, the first
        # job's do not, and the next experiment gets a new pool.
        monkeypatch.setattr(harness_mod, "_run_chunk", _second_chunk_dying)
        built = self._count_pools(monkeypatch)
        outcomes = _record_variants(monkeypatch)
        out = tmp_path / "exp"
        report = run_experiment(_small_config(n_starts=5, workers=2, out_dir=str(out)))
        dead = {DirectionVariant.LP_BASE: [3, 4], DirectionVariant.LP_NEW: [2, 3, 4]}
        for v in report.variants:
            results, failures = outcomes[(v.backtracking, v.direction)]
            assert list(failures) == dead[v.direction]
            assert [r is None for r in results] == [j in failures for j in range(5)]
            assert v.failure_causes == {"BrokenProcessPool": len(failures)}
            assert all("terminated abruptly" in msg for msg in v.failure_messages)
        parsed = json.loads((out / "report.json").read_text())
        assert [v["failure_causes"] for v in parsed["variants"]] == [
            {"BrokenProcessPool": 2}, {"BrokenProcessPool": 3}
        ] * 2
        text = (out / "report.txt").read_text()
        assert "failure_causes.bt-base_lp-base.BrokenProcessPool = 2" in text
        assert "failure_causes.bt-new_lp-new.BrokenProcessPool = 3" in text
        monkeypatch.setattr(harness_mod, "_run_chunk", _run_chunk)
        report = run_experiment(_small_config(n_starts=5, workers=2))
        assert [v.failures for v in report.variants] == [0] * 4
        assert len(built) == 2

    @pytest.mark.parametrize("workers", [0, 2])
    def test_failure_causes_counted_by_type(self, monkeypatch, tmp_path, workers):
        # Runs whose evaluator raises fail with its RuntimeError; runs that
        # reach a NaN fail with an EvaluationError.  The report counts both.
        def fault(X, F):
            if (X[:, 0] > 0.9).any():
                raise RuntimeError("synthetic failure")
            F[X[:, 1] < -0.9, 1] = np.nan

        faulty = _faulty_problem(fault)
        monkeypatch.setitem(problems_mod.PROBLEMS, "fonseca-fleming", lambda: faulty)
        out = tmp_path / "exp"
        config = _small_config(n_starts=40, seed=2, max_iters=5, workers=workers,
                               out_dir=str(out))
        report = run_experiment(config)
        parsed = json.loads((out / "report.json").read_text())
        text = (out / "report.txt").read_text()
        for v, pv in zip(report.variants, parsed["variants"]):
            assert set(v.failure_causes) == {"RuntimeError", "EvaluationError"}
            assert sum(v.failure_causes.values()) == v.failures
            assert pv["failure_causes"] == v.failure_causes
            label = variant_label(v.direction, v.backtracking)
            for cause, count in v.failure_causes.items():
                assert f"failure_causes.{label}.{cause} = {count}" in text

    @pytest.mark.parametrize("workers", [0, 2])
    def test_failure_cause_keeps_exception_type(self, monkeypatch, workers):
        # A run ended by an exception that cannot be rebuilt from one message
        # fails with that exception, not with the TypeError of rebuilding it.
        def fault(X, F):
            if (X[:, 0] > 0.5).any():
                raise _TwoArgError("E1", "bad point")

        faulty = _faulty_problem(fault)
        monkeypatch.setitem(problems_mod.PROBLEMS, "fonseca-fleming", lambda: faulty)
        report = run_experiment(_small_config(n_starts=20, seed=2, max_iters=5, workers=workers))
        for v in report.variants:
            assert v.failures > 0
            assert v.failure_causes == {"_TwoArgError": v.failures}
            assert all(m.endswith(": ('E1', 'bad point')") for m in v.failure_messages)

    @staticmethod
    def _outputs(out, **overrides):
        """The report.json, with wall times and the echoed worker count
        blanked, and the front and trace files of a traced experiment."""
        run_experiment(_small_config(out_dir=str(out), emit_traces=True, **overrides))
        report = json.loads((out / "report.json").read_text())
        report["total_wall_time"] = 0.0
        report["config"]["workers"] = 0
        for v in report["variants"]:
            v["wall_time"] = 0.0
        paths = sorted([*out.glob("front_*"), *out.glob("trace_*")])
        return report, {p.name: p.read_bytes() for p in paths}

    def test_parallel_matches_serial(self, monkeypatch, tmp_path):
        # A 2-worker pool, which also runs the traced runs, writes
        # byte-identical front and trace files and the same report.json as
        # a serial run, apart from wall times and the echoed worker count.
        built = self._count_pools(monkeypatch)

        def outputs(problem, workers):
            return self._outputs(tmp_path / f"{problem}-{workers}", problem=problem,
                                 n_starts=12, seed=7, workers=workers)

        for problem in ("fonseca-fleming", "kursawe", "viennet"):
            serial_report, serial_tables = outputs(problem, 0)
            pool_report, pool_tables = outputs(problem, 2)
            assert sorted({name.split("_")[0] for name in serial_tables}) == ["front", "trace"]
            assert len(serial_tables) == 4 * (1 + 12)
            assert pool_tables == serial_tables
            assert pool_report == serial_report
        assert len(built) == 3

    def test_caller_runs_the_first_job(self, monkeypatch, tmp_path):
        # With 3 workers, the test process runs the first of 3 jobs of 8 rows
        # while a pool of 2 workers runs the others; the outputs are a
        # serial run's.
        monkeypatch.setattr(harness_mod, "_run_chunk", _spied_chunk)
        monkeypatch.setattr(sys.modules[__name__], "_CALLER_JOBS", [])
        built = self._count_pools(monkeypatch)
        kw = dict(problem="kursawe", n_starts=12, seed=7)
        pooled = self._outputs(tmp_path / "pooled", workers=3, **kw)
        assert built == [2]
        (rows,) = _CALLER_JOBS
        starts = sample_starts(StartSampler(get_problem("kursawe").domain_box, 12, 7))
        assert np.array_equal(rows, np.repeat(starts[:4], 2, axis=0))
        assert self._outputs(tmp_path / "serial", workers=0, **kw) == pooled
        assert built == [2]

    def test_one_job_builds_no_pool(self, monkeypatch, tmp_path):
        # One row cannot be split over 2 workers: the one job runs in-process.
        built = self._count_pools(monkeypatch)
        kw = dict(n_starts=1, directions=(DirectionVariant.LP_NEW,))
        pooled = self._outputs(tmp_path / "pooled", workers=2, **kw)
        assert built == []
        assert self._outputs(tmp_path / "serial", workers=0, **kw) == pooled


class TestPersistence:
    def test_report_round_trip(self, tmp_path):
        out = str(tmp_path / "exp")
        report = run_experiment(_small_config(out_dir=out))
        with open(os.path.join(out, "report.json")) as fh:
            parsed = json.loads(fh.read())
        assert parsed == json.loads(_json_text(report_to_dict(report)))
        assert parsed["problem"] == "fonseca-fleming"
        assert len(parsed["variants"]) == 4

    def test_numpy_bool_setting_is_a_json_bool(self):
        # A numpy bool is written as true, not "True".
        assert _json_text(np.True_) == "true" and _json_text(np.False_) == "false"
        assert json.loads(_json_text({"flag": np.True_}))["flag"] is True

    def test_front_and_trace_files(self, tmp_path):
        out = str(tmp_path / "exp")
        run_experiment(
            _small_config(
                out_dir=out,
                emit_traces=True,
                n_starts=2,
                directions=(DirectionVariant.LP_NEW,),
                backtrackings=(BacktrackVariant.BT_NEW,),
            )
        )
        names = sorted(os.listdir(out))
        assert "report.json" in names and "report.txt" in names
        fronts = [n for n in names if n.startswith("front_")]
        traces = [n for n in names if n.startswith("trace_")]
        assert fronts == ["front_bt-new_lp-new.csv"]
        assert len(traces) == 2
        with open(os.path.join(out, traces[0])) as fh:
            lines = fh.read().splitlines()
        assert lines[0].startswith("k,x0,")
        assert len(lines) >= 2

    def test_emission_byte_stable(self, tmp_path):
        texts = []
        for sub in ("a", "b"):
            out = str(tmp_path / sub)
            run_experiment(
                _small_config(
                    out_dir=out,
                    emit_traces=True,
                    n_starts=2,
                    directions=(DirectionVariant.LP_NEW,),
                )
            )
            blob = {}
            for name in sorted(os.listdir(out)):
                if name.startswith("report"):
                    continue  # wall times differ
                with open(os.path.join(out, name), "rb") as fh:
                    blob[name] = fh.read()
            texts.append(blob)
        assert texts[0] == texts[1]

    def test_json_outputs_are_strict_json(self, tmp_path, capsys):
        # Every JSON file parses without the NaN/Infinity extensions.
        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        for argv in (
            ["table1", "--n-starts", "3", "--max-iters", "40", "--seed", "42",
             "--workers", "0", "--traces", "--format", "json"],
            ["scan", "--problem", "viennet", "--pair", "1,3", "--tol", "1e-8",
             "--resolution", "64"],
            ["scan", "--problem", "kursawe", "--pair", "1,2", "--tol", "1e-1",
             "--resolution", "16"],
        ):
            assert main([*argv, "--out", str(tmp_path / argv[0])]) == EXIT_OK
        paths = sorted(tmp_path.rglob("*.json"))
        assert len(paths) == 3 * (1 + 4 + 12) + 2
        for path in paths:
            json.loads(path.read_text(), parse_constant=reject)

    def test_table_rows_keep_first_row_types(self, tmp_path, monkeypatch, capsys):
        # Every front and trace table is written through one template of its
        # first row, so each of its rows must have that row's cell types.
        tables = []
        write = harness_mod._table_text

        def record(columns, rows, fmt):
            tables.append((columns, rows))
            return write(columns, rows, fmt)

        monkeypatch.setattr(harness_mod, "_table_text", record)
        assert main(["table1", "--n-starts", "3", "--max-iters", "40", "--seed", "42",
                     "--workers", "0", "--traces", "--out", str(tmp_path)]) == EXIT_OK
        assert len(tables) == 3 * (4 + 12)
        for columns, rows in tables:
            assert rows
            width = sum(1 if n is None else n for _, n in columns)
            kinds = tuple(map(type, rows[0]))
            assert len(kinds) == width
            assert all(tuple(map(type, row)) == kinds for row in rows)

    def test_report_text_contains_table(self):
        report = run_experiment(_small_config())
        text = report_to_text(report)
        assert "pareto_ratio" in text
        assert "bt-new" in text and "lp-base" in text


class TestArgFile:
    """``@FILE`` reads flags from FILE in its place, as typed on the command
    line; later flags override it."""

    @staticmethod
    def _echo(out) -> dict:
        return json.loads((out / "report.json").read_text())["config"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_file_run_equals_flag_run(self, tmp_path, capsys, fmt):
        flags = ["--n-starts", "3", "--max-iters", "20", "--traces", "--format", fmt,
                 "--workers", "0"]
        path = tmp_path / "t1.args"
        path.write_text(" ".join(flags[:4]) + "\n" + "\n".join(flags[4:]) + "\n")
        assert main(["table1", *flags, "--out", str(tmp_path / "flags")]) == EXIT_OK
        assert main(["table1", f"@{path}", "--out", str(tmp_path / "file")]) == EXIT_OK
        names = ("front_", "trace_", "report.")
        digests = [_digests(str(tmp_path / d), names) for d in ("flags", "file")]
        assert len(digests[0]) == 3 * (2 + 4 + 12)
        assert digests[0] == digests[1]

    def test_comments_quoting_and_override(self, tmp_path, capsys):
        path = tmp_path / "exp.args"
        out = tmp_path / "out dir"
        path.write_text(
            "# experiment setup\n"
            "--problem kursawe --n-starts 4  # small\n"
            "--seed=11 --c1 1e-8\n"
            "\n"
            f"--out '{out}'\n"
            "--max-iters 3 --workers 0\n"
        )
        assert main(["run", f"@{path}"]) == EXIT_OK
        echo = self._echo(out)
        assert {k: echo[k] for k in ("problem", "n_starts", "seed", "c1", "max_iters")} == {
            "problem": "kursawe", "n_starts": 4, "seed": 11, "c1": 1e-8, "max_iters": 3,
        }
        assert [type(echo[k]) for k in ("n_starts", "c1")] == [int, float]
        assert main(["run", f"@{path}", "--seed", "12", "--out", str(tmp_path / "b")]) == EXIT_OK
        assert self._echo(tmp_path / "b")["seed"] == 12
        assert self._echo(out)["seed"] == 11  # the override wrote elsewhere

    def test_every_field_is_a_flag_and_echoed_in_order(self, tmp_path, capsys):
        # Each field but the variant tuples (the flags name one variant each)
        # reads back from an argument file; the report echoes the fields in
        # declaration order, leaving out where and how outputs are written.
        out = tmp_path / "exp"
        config = _small_config(n_starts=1, max_iters=2, out_dir=str(out),
                               emit_traces=True, trace_format="json")
        flags = {
            "problem": "--problem", "n_starts": "--n-starts", "seed": "--seed",
            "c1": "--c1", "alpha": "--alpha", "eta0": "--eta0", "theta": "--theta",
            "epsilon": "--epsilon", "max_iters": "--max-iters", "out_dir": "--out",
            "emit_traces": "--traces", "trace_format": "--format", "workers": "--workers",
        }
        names = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert sorted(names) == sorted([*flags, "directions", "backtrackings"])
        values = {name: getattr(config, name) for name in flags}
        path = tmp_path / "all.args"
        path.write_text("".join(
            f"{flag}\n" if value is True else f"{flag} {value}\n"
            for flag, value in ((flags[k], v) for k, v in values.items())
        ) + "--direction lp-new\n--backtracking bt-base\n")
        assert main(["run", f"@{path}"]) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == [
            "front_bt-base_lp-new.json", "report.json", "report.txt",
            "trace_bt-base_lp-new_00000.json",
        ]
        output_only = ("out_dir", "emit_traces", "trace_format")
        echoed = self._echo(out)
        assert list(echoed) == [n for n in names if n not in output_only]
        assert echoed == {
            **{k: v for k, v in values.items() if k not in output_only},
            "directions": ["lp-new"], "backtrackings": ["bt-base"],
        }

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.args"
        assert main(["run", f"@{missing}", "--problem", "kursawe"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: [Errno 2] No such file or directory: ")
        assert "missing.args" in err

    def test_file_including_itself_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # A file that names itself, or a file that names it, would be read
        # until Python's recursion limit; a RecursionError inside a run
        # stays a runtime error.
        (tmp_path / "self.args").write_text(f"--seed 1 @{tmp_path / 'self.args'}\n")
        (tmp_path / "a.args").write_text(f"@{tmp_path / 'b.args'}\n")
        (tmp_path / "b.args").write_text(f"--seed 2\n@{tmp_path / 'a.args'}\n")
        for name in ("self.args", "a.args"):
            assert main(["run", f"@{tmp_path / name}"]) == EXIT_USAGE
            assert capsys.readouterr().err == "usage error: an argument file includes itself\n"

        def too_deep(config):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli_mod, "run_experiment", too_deep)
        assert main(["run", "--problem", "kursawe"]) == EXIT_RUNTIME
        assert capsys.readouterr().err == "error: maximum recursion depth exceeded\n"

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--direction", "lp-bogus"], "--direction"),
            (["--n-starts", "two"], "--n-starts"),
            (["--problem", "nope"], "--problem"),
            (["--traces=yes"], "--traces"),
            (["--frobnicate", "3"], "--frobnicate"),
            # Values that parse but fail the config's own range checks.
            (["--n-starts", "0"], "n_starts"),
            (["--alpha", "2"], "alpha"),
            (["--workers", "-2"], "workers"),
            (["--seed", "-1"], "seed"),
            # Non-finite values, which report.json could not hold.
            (["--eta0", "nan"], "eta0"),
            (["--eta0", "inf"], "eta0"),
            (["--epsilon", "inf"], "epsilon"),
            (["--epsilon", "nan"], "epsilon"),
        ],
    )
    def test_bad_value_in_file_is_flags_usage_error(self, tmp_path, capsys, flags, name):
        # The same message as the flag on the command line, naming the flag
        # (or its field), and no output is written.
        argv = ["run", "--problem", "kursawe", "--n-starts", "2", "--out", str(tmp_path / "o")]
        assert main([*argv, *flags]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and name in err
        path = tmp_path / "bad.args"
        path.write_text(" ".join(flags) + "\n")
        assert main([*argv, f"@{path}"]) == EXIT_USAGE
        assert capsys.readouterr().err == err
        assert not (tmp_path / "o").exists()

    def test_table1_file_names_no_problem_or_variant(self, tmp_path, capsys):
        # table1 always runs all three problems and all four variants, so it
        # has no such flags, in a file or not.
        path = tmp_path / "t1.args"
        for line in ["--problem viennet", "--direction lp-new"]:
            path.write_text(f"--n-starts 2\n{line}\n")
            assert main(["table1", f"@{path}", "--workers", "0"]) == EXIT_USAGE
            assert f"unrecognized arguments: {line}" in capsys.readouterr().err

    @pytest.mark.parametrize("env", ["17", "not-a-number"])
    def test_seed_ignores_environment(self, capsys, monkeypatch, env):
        # Without --seed a run takes ExperimentConfig's seed 0.
        monkeypatch.setenv("MGD_SEED", env)
        argv = ["run", "--problem", "fonseca-fleming", "--direction", "lp-new",
                "--backtracking", "bt-base", "--n-starts", "2", "--max-iters", "10",
                "--workers", "1"]
        assert main(argv) == EXIT_OK
        assert "seed = 0\n" in capsys.readouterr().out


class TestCli:
    @pytest.mark.parametrize("problem", sorted(PROBLEMS))
    def test_one_backtracking_writes_its_files_of_both(self, tmp_path, capsys, problem):
        # A run with one backtracking, serial or in a 2-worker pool, writes
        # the front and trace files that a serial run with both writes for
        # it, byte for byte; every bt-base run is read off its first ladder
        # failure, and some of them end there.
        def outputs(name, *flags):
            out = tmp_path / name
            assert main(["run", "--problem", problem, "--n-starts", "6", "--max-iters", "40",
                         "--seed", "42", "--traces", "--out", str(out), *flags]) == EXIT_OK
            files = {p.name: p.read_bytes()
                     for p in sorted([*out.glob("front_*"), *out.glob("trace_*")])}
            return files, json.loads((out / "report.json").read_text())

        both, _ = outputs("both", "--workers", "0")
        for workers in ("0", "2"):
            for b in BacktrackVariant:
                alone, report = outputs(f"{b.value}-{workers}", "--backtracking", b.value,
                                        "--workers", workers)
                assert sorted({name.split("_")[0] for name in alone}) == ["front", "trace"]
                assert alone == {n: data for n, data in both.items() if f"_{b.value}_" in n}
                if b is BacktrackVariant.BT_BASE:
                    assert any(v["termination_counts"]["dominated-step"]
                               for v in report["variants"])

    def test_run_smoke(self, capsys):
        code = main(
            [
                "run",
                "--problem", "fonseca-fleming",
                "--direction", "lp-new",
                "--backtracking", "bt-new",
                "--n-starts", "4",
                "--seed", "1",
                "--max-iters", "40",
                "--workers", "1",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "pareto_ratio" in out

    def test_usage_error_exit_code(self, capsys):
        assert main(["run"]) == EXIT_USAGE
        assert main(["run", "--problem", "nope"]) == EXIT_USAGE

    def test_fronts_command_is_gone(self, tmp_path, capsys):
        # `run --out` writes the fronts; there is no separate command.
        argv = ["fronts", "--problem", "kursawe", "--out", str(tmp_path)]
        assert main(argv) == EXIT_USAGE
        assert "invalid choice: 'fronts'" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_nonpositive_max_iters_is_usage_error(self, capsys, value):
        argv = ["run", "--problem", "fonseca-fleming", "--n-starts", "2",
                "--max-iters", value, "--workers", "1"]
        assert main(argv) == EXIT_USAGE
        assert "max_iters must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--alpha", "2", "alpha must lie in (0, 1)"),
            ("--c1", "0", "c1 must lie in (0, 1)"),
            ("--theta", "0", "theta must be a positive integer"),
            ("--epsilon", "0", "epsilon must be positive"),
            ("--eta0", "nan", "eta0 must be positive and finite"),
            ("--eta0", "inf", "eta0 must be positive and finite"),
            ("--epsilon", "inf", "epsilon must be positive and finite"),
            ("--epsilon", "nan", "epsilon must be positive and finite"),
            ("--c1", "nan", "c1 must lie in (0, 1)"),
        ],
    )
    def test_bad_step_or_lp_setting_is_usage_error(self, capsys, flag, value, message):
        argv = ["run", "--problem", "fonseca-fleming", "--n-starts", "2",
                flag, value, "--workers", "1"]
        assert main(argv) == EXIT_USAGE
        assert message in capsys.readouterr().err

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        # The output directory cannot be made under a regular file.
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = ["run", "--problem", "fonseca-fleming", "--n-starts", "2",
                "--max-iters", "5", "--workers", "0", "--out", str(blocker / "out")]
        assert main(argv) == EXIT_RUNTIME
        assert capsys.readouterr().err.startswith("error: ")

    def test_scan_smoke(self, tmp_path, capsys):
        code = main(
            [
                "scan",
                "--problem", "viennet",
                "--pair", "1,3",
                "--tol", "1e-8",
                "--resolution", "64",
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "marked_cells" in out
        assert any(n.startswith("scan_") for n in os.listdir(tmp_path))

    @pytest.mark.parametrize(
        "resolution, message",
        [
            ("abc", "--resolution expects integers, got 'abc'"),
            ("64,64", "--resolution expects 1 or 3 cell counts for kursawe, got 2"),
        ],
    )
    def test_scan_bad_resolution_is_usage_error(self, capsys, resolution, message):
        code = main(
            ["scan", "--problem", "kursawe", "--pair", "1,2", "--tol", "1e-3",
             "--resolution", resolution]
        )
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "pair, resolution, message",
        [
            ("1,1", "16", "pair must be two distinct objective numbers"),
            ("1,4", "16", "pair must be two distinct objective numbers"),
            ("1,2,3", "16", "pair must be two distinct objective numbers"),
            ("1", "16", "pair must be two distinct objective numbers"),
            ("1,3", "1", "resolution needs >= 2 cells per axis"),
        ],
    )
    def test_scan_bad_pair_or_grid_is_usage_error(self, capsys, pair, resolution, message):
        # Viennet has m = 3 objectives on a 2-D domain.
        code = main(
            ["scan", "--problem", "viennet", "--pair", pair, "--tol", "1e-3",
             "--resolution", resolution]
        )
        assert code == EXIT_USAGE
        assert f"usage error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_scan_nonfinite_tol_is_usage_error(self, tmp_path, capsys, tol):
        # Checked by critical_region_scan before any output is written.
        code = main(["scan", "--problem", "viennet", "--pair", "1,3", f"--tol={tol}",
                     "--resolution", "16", "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert err == "usage error: tol must be finite\n"
        assert out == "" and not os.listdir(tmp_path)

    def test_scan_mask_file_cells(self, tmp_path, capsys):
        argv = ["scan", "--problem", "viennet", "--pair", "1,3", "--tol", "1e-8",
                "--resolution", "32", "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        payload = json.loads((tmp_path / "scan_viennet_13.json").read_text())
        prob = get_problem("viennet")
        mask = critical_region_scan(prob, prob.domain_box, [32, 32], (1, 3), 1e-8)
        assert payload["marked_cells"] == int(mask.sum()) > 0
        assert payload["cells"] == [[int(i), int(j)] for i, j in np.argwhere(mask)]

    def test_negative_seed_is_usage_error(self, capsys):
        argv = ["run", "--problem", "fonseca-fleming", "--n-starts", "2", "--workers", "1"]
        assert main([*argv, "--seed", "-1"]) == EXIT_USAGE
        assert capsys.readouterr().err == "usage error: seed must be >= 0\n"
