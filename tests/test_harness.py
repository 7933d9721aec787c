"""Tests for experiment orchestration, persistence, and the CLI."""

import json
import os

import numpy as np
import pytest

from mgdkit import (
    BacktrackVariant,
    DirectionVariant,
    ExperimentConfig,
    critical_region_scan,
    get_problem,
    run_experiment,
)
from mgdkit.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from mgdkit.harness import (
    _json_text,
    parse_config_file,
    report_to_dict,
    report_to_text,
    variant_label,
)


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

        broken = dataclasses.replace(bad, evaluator=exploding)
        original = problems_mod.PROBLEMS["fonseca-fleming"]
        problems_mod.PROBLEMS["fonseca-fleming"] = lambda: broken
        try:
            report = run_experiment(_small_config(n_starts=6, max_iters=5))
        finally:
            problems_mod.PROBLEMS["fonseca-fleming"] = original
        for v in report.variants:
            assert v.failures > 0
            assert any("run" in msg for msg in v.failure_messages)

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
