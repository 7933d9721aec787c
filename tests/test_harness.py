"""Tests for experiment orchestration, persistence, and the CLI."""

import contextlib
import dataclasses
import json
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from mgdkit import (
    BacktrackVariant,
    DirectionVariant,
    ExperimentConfig,
    StartSampler,
    critical_region_scan,
    get_problem,
    run_experiment,
    sample_starts,
)
import mgdkit.harness as harness_mod
import mgdkit.problems as problems_mod
from mgdkit.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from mgdkit.harness import (
    _json_text,
    _run_chunk,
    parse_config_file,
    report_to_dict,
    report_to_text,
    run_variant,
    variant_label,
)
from oracles import run_mgd_oracle
from test_descent import assert_same_run


def _dying_chunk(args):
    os._exit(3)  # a worker that dies in the middle of its job


def _chunk_dying_in_first_variant(args):
    _, _, params, dir_cfg, _ = args
    if (params.variant, dir_cfg.variant) == (BacktrackVariant.BT_BASE, DirectionVariant.LP_BASE):
        os._exit(3)
    return _run_chunk(args)


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
        for max_iters in (0, -3):
            with pytest.raises(ValueError, match="max_iters"):
                _small_config(max_iters=max_iters)

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

    def test_paired_starts_shared_across_variants(self):
        from mgdkit import StartSampler, get_problem, sample_starts

        config = _small_config(emit_traces=True, out_dir=None, max_iters=5)
        _, results = run_experiment(config, keep_results=True)
        problem = get_problem(config.problem)
        expected = sample_starts(
            StartSampler(problem.domain_box, config.n_starts, config.seed)
        )
        for runs in results.values():
            starts = np.array([r.trace[0].x for r in runs])
            assert np.array_equal(starts, expected)

    def test_failures_recorded_not_raised(self):
        # An evaluator blowing up on some starts must not kill the
        # experiment; the report carries the failure count.
        import mgdkit.problems as problems_mod

        bad = problems_mod.fonseca_fleming(3)

        def exploding(x):
            if x[0] > 0:
                raise RuntimeError("synthetic failure")
            return bad.evaluator(x)

        import dataclasses

        broken = dataclasses.replace(bad, evaluator=exploding, f_batch=None, jac_batch=None)
        original = problems_mod.PROBLEMS["fonseca-fleming"]
        problems_mod.PROBLEMS["fonseca-fleming"] = lambda: broken
        try:
            report = run_experiment(_small_config(n_starts=6, max_iters=5))
        finally:
            problems_mod.PROBLEMS["fonseca-fleming"] = original
        for v in report.variants:
            assert v.failures > 0
            assert any("run" in msg for msg in v.failure_messages)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_failures_match_one_start_oracle(self, monkeypatch, workers):
        # Runs that raise, or reach a non-finite value, at iteration 0 or
        # later, or whose own Armijo ladder raises, fail with the messages
        # they fail with alone; every other run is unaffected.
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
        causes, late = set(), False
        with (
            ProcessPoolExecutor(max_workers=workers) if workers > 1 else contextlib.nullcontext()
        ) as pool:
            outcomes = {
                (backtracking, direction): run_variant(
                    config, direction, backtracking, starts, pool=pool
                )
                for backtracking in BacktrackVariant
                for direction in DirectionVariant
            }
        for backtracking in BacktrackVariant:
            for direction in DirectionVariant:
                results, failures = outcomes[(backtracking, direction)]
                messages = dict(failures)
                params = config.backtrack_params(backtracking)
                dir_cfg = config.direction_config(direction)
                for j, x0 in enumerate(starts):
                    try:
                        expected = run_mgd_oracle(faulty, x0, params, dir_cfg, K=30,
                                                  record_trace=False)
                    except Exception as exc:
                        assert results[j] is None
                        assert messages[j] == f"run {j}: {exc}"
                        causes.add(str(exc).split(": ", 1)[1].split()[0])
                        late |= not str(exc).startswith("iteration 0:")
                    else:
                        assert j not in messages
                        assert_same_run(results[j], expected)
        assert causes == {"synthetic", "ladder", "objective"} and late

    def test_dead_chunk_fails_each_of_its_runs(self, monkeypatch):
        monkeypatch.setattr(harness_mod, "_run_chunk", _dying_chunk)
        config = _small_config(n_starts=5, workers=2)
        starts = np.zeros((5, 3))
        with ProcessPoolExecutor(max_workers=2) as pool:
            results, failures = run_variant(
                config, DirectionVariant.LP_NEW, BacktrackVariant.BT_NEW, starts, pool=pool
            )
        assert results == [None] * 5
        assert [j for j, _ in failures] == list(range(5))
        for j, msg in failures:
            assert msg.startswith(f"run {j}: ") and "terminated abruptly" in msg

    @staticmethod
    def _count_pools(monkeypatch):
        built = []

        class CountingPool(harness_mod.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(harness_mod, "ProcessPoolExecutor", CountingPool)
        return built

    def test_one_pool_per_experiment(self, monkeypatch):
        built = self._count_pools(monkeypatch)
        report = run_experiment(_small_config(workers=2))
        assert len(report.variants) == 4
        assert sum(v.failures for v in report.variants) == 0
        assert len(built) == 1

    def test_broken_pool_is_replaced(self, monkeypatch, tmp_path):
        # The first variant's jobs die and break the shared pool: its runs
        # fail with that cause, and the later variants run in a new pool.
        monkeypatch.setattr(harness_mod, "_run_chunk", _chunk_dying_in_first_variant)
        built = self._count_pools(monkeypatch)
        out = tmp_path / "exp"
        report = run_experiment(_small_config(n_starts=5, workers=2, out_dir=str(out)))
        first, *later = report.variants
        assert first.failures == 5
        assert first.failure_causes == {"BrokenProcessPool": 5}
        assert all("terminated abruptly" in msg for msg in first.failure_messages)
        assert [(v.failures, v.failure_causes) for v in later] == [(0, {})] * 3
        assert len(built) == 2
        parsed = json.loads((out / "report.json").read_text())
        assert [v["failure_causes"] for v in parsed["variants"]] == [
            {"BrokenProcessPool": 5}, {}, {}, {}
        ]
        text = (out / "report.txt").read_text()
        assert "failure_causes.bt-base_lp-base.BrokenProcessPool = 5" in text
        assert "failure_causes.bt-base_lp-new" not in text

    @pytest.mark.parametrize("workers", [0, 2])
    def test_failure_causes_counted_by_type(self, monkeypatch, tmp_path, workers):
        # Runs whose evaluator raises fail with its RuntimeError; runs that
        # reach a NaN fail with an EvaluationError.  The report counts both.
        base = problems_mod.fonseca_fleming(3)

        def evaluator(x):
            if x[0] > 0.9:
                raise RuntimeError("synthetic failure")
            f, jac = base.evaluator(x)
            return (np.array([f[0], np.nan]) if x[1] < -0.9 else f), jac

        faulty = dataclasses.replace(base, evaluator=evaluator, f_batch=None, jac_batch=None)
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

    def test_parallel_matches_serial(self, tmp_path):
        # A 2-worker pool writes byte-identical front files and the same
        # report.json as a serial run, apart from wall times and the
        # echoed worker count.
        def outputs(problem, workers):
            out = tmp_path / f"{problem}-{workers}"
            run_experiment(
                _small_config(
                    problem=problem, n_starts=12, seed=7, workers=workers,
                    out_dir=str(out),
                )
            )
            report = json.loads((out / "report.json").read_text())
            report["total_wall_time"] = 0.0
            report["config"]["workers"] = 0
            for v in report["variants"]:
                v["wall_time"] = 0.0
            fronts = {p.name: p.read_bytes() for p in sorted(out.glob("front_*"))}
            return report, fronts

        for problem in ("fonseca-fleming", "kursawe", "viennet"):
            serial_report, serial_fronts = outputs(problem, 0)
            pool_report, pool_fronts = outputs(problem, 2)
            assert len(serial_fronts) == 4
            assert pool_fronts == serial_fronts
            assert pool_report == serial_report


class TestPersistence:
    def test_report_round_trip(self, tmp_path):
        out = str(tmp_path / "exp")
        report = run_experiment(_small_config(out_dir=out))
        with open(os.path.join(out, "report.json")) as fh:
            parsed = json.loads(fh.read())
        assert parsed == json.loads(_json_text(report_to_dict(report)))
        assert parsed["problem"] == "fonseca-fleming"
        assert len(parsed["variants"]) == 4

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

    def test_report_text_contains_table(self):
        report = run_experiment(_small_config())
        text = report_to_text(report)
        assert "pareto_ratio" in text
        assert "bt-new" in text and "lp-base" in text


class TestConfigFile:
    def test_parse_and_override(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# experiment setup\n"
            "problem = kursawe\n"
            "n_starts = 4  # small\n"
            "seed = 11\n"
            "paper_semantics = false\n"
        )
        values = parse_config_file(str(path))
        assert values == {
            "problem": "kursawe",
            "n_starts": 4,
            "seed": 11,
            "paper_semantics": False,
        }

    def test_parse_errors_carry_location(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("problem kursawe\n")
        with pytest.raises(ValueError, match="bad.cfg:1"):
            parse_config_file(str(path))
        path.write_text("frobnicate = 3\n")
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_file(str(path))


class TestCli:
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

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_nonpositive_max_iters_is_usage_error(self, capsys, value):
        argv = ["run", "--problem", "fonseca-fleming", "--n-starts", "2",
                "--max-iters", value, "--workers", "1"]
        assert main(argv) == EXIT_USAGE
        assert "max_iters must be >= 1" in capsys.readouterr().err

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.cfg")
        assert main(["run", "--config", missing]) == EXIT_RUNTIME

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

    def test_scan_mask_file_cells(self, tmp_path, capsys):
        argv = ["scan", "--problem", "viennet", "--pair", "1,3", "--tol", "1e-8",
                "--resolution", "32", "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        payload = json.loads((tmp_path / "scan_viennet_13.json").read_text())
        prob = get_problem("viennet")
        mask = critical_region_scan(prob, prob.domain_box, [32, 32], (1, 3), 1e-8)
        assert payload["marked_cells"] == int(mask.sum()) > 0
        assert payload["cells"] == [[int(i), int(j)] for i, j in np.argwhere(mask)]

    def test_seed_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("MGD_SEED", "17")
        code = main(
            [
                "run",
                "--problem", "fonseca-fleming",
                "--direction", "lp-new",
                "--backtracking", "bt-base",
                "--n-starts", "2",
                "--max-iters", "10",
                "--workers", "1",
            ]
        )
        assert code == EXIT_OK
        assert "seed = 17" in capsys.readouterr().out

    def test_bad_seed_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MGD_SEED", "not-a-number")
        assert main(
            ["run", "--problem", "fonseca-fleming", "--n-starts", "2"]
        ) == EXIT_USAGE

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("problem = fonseca-fleming\nn_starts = 2\nseed = 5\n")
        code = main(
            [
                "run",
                "--config", str(cfg),
                "--seed", "9",
                "--max-iters", "10",
                "--workers", "1",
            ]
        )
        assert code == EXIT_OK
        assert "seed = 9" in capsys.readouterr().out
