"""End-to-end acceptance suite.

Covers the benchmark reproduction bands (multi-start experiments on the
three problems), the direction-module property suite, the oracle
equivalences, and the existence scans.  Experiments use N=100 starts at a
fixed seed; the published reference percentages come from unpublished
seeds, so bands rather than exact values are asserted.
"""

import numpy as np
import pytest

from mgdkit import (
    BacktrackParams,
    BacktrackVariant,
    DirectionConfig,
    DirectionVariant,
    Evaluation,
    StartSampler,
    critical_region_scan,
    evaluate,
    get_problem,
    run_mgd,
    sample_starts,
    solve_blockwise,
    solve_direction,
    solve_lp,
)
from mgdkit.lp import LpStatus
from oracles import (
    OracleInfeasible,
    critical_oracle,
    enumerate_vertices_oracle,
    finite_difference_jacobian,
    normalize_rows,
)

SEED = 42


def _ratios(report):
    return {
        (v.backtracking.value, v.direction.value): v.pareto_ratio
        for v in report.variants
    }


class TestCriterion1FonsecaFleming:
    def test_all_variants_near_perfect(self, ff_report):
        ratios = _ratios(ff_report)
        assert len(ratios) == 4
        for key, value in ratios.items():
            assert value >= 0.98, f"variant {key}: ratio {value:.4f} < 0.98"

    def test_runtime_seconds(self, ff_report):
        assert ff_report.total_wall_time < 60.0


class TestCriterion2Kursawe:
    # Reference ratios from the published benchmark table (N=500).
    REFERENCE = {
        ("bt-base", "lp-base"): 0.3120,
        ("bt-base", "lp-new"): 0.2400,
        ("bt-new", "lp-base"): 0.6640,
        ("bt-new", "lp-new"): 0.6360,
    }

    def test_nondomination_strategy_gains(self, kursawe_report):
        r = _ratios(kursawe_report)
        for lp in ("lp-base", "lp-new"):
            gain = r[("bt-new", lp)] - r[("bt-base", lp)]
            assert gain >= 0.15, f"{lp}: gain {gain:.4f} < 0.15 ({r})"

    def test_values_within_reference_band(self, kursawe_report):
        r = _ratios(kursawe_report)
        for key, ref in self.REFERENCE.items():
            assert abs(r[key] - ref) <= 0.15, (
                f"variant {key}: ratio {r[key]:.4f} outside {ref:.4f} +/- 0.15"
            )

    def test_runtime_under_two_minutes(self, kursawe_report):
        assert kursawe_report.total_wall_time < 120.0


class TestCriterion3Viennet:
    def test_new_variant_dominates_table(self, viennet_report):
        r = _ratios(viennet_report)
        best = r[("bt-new", "lp-new")]
        assert best >= 0.80, (
            f"bt-new/lp-new ratio {best:.4f} < 0.80 (all ratios: {r})"
        )
        for key, value in r.items():
            if key == ("bt-new", "lp-new"):
                continue
            assert best - value >= 0.30, (
                f"margin over {key} is {best - value:.4f} < 0.30 (all: {r})"
            )

    def test_runtime_under_ten_minutes(self, viennet_report):
        assert viennet_report.total_wall_time < 600.0


def _critical_instance(rng, n=3, extra=2):
    u = rng.normal(size=n)
    u /= np.linalg.norm(u)
    rows = [rng.uniform(0.5, 3.0) * u, -rng.uniform(0.5, 3.0) * u]
    for _ in range(extra):
        w = rng.normal(size=n)
        rows.append(w - (w @ u) * u * rng.uniform(0.0, 0.5))
    jac = np.array(rows)
    if np.any(np.linalg.norm(jac, axis=1) < 1e-6):
        return _critical_instance(rng, n, extra)
    return jac


def _noncritical_instance(rng, n=3, m=4):
    d = rng.normal(size=n)
    d /= np.linalg.norm(d)
    rows = []
    for _ in range(m):
        w = rng.normal(size=n)
        w /= np.linalg.norm(w)
        rows.append(rng.uniform(0.5, 3.0) * (d + 0.3 * w))
    return np.array(rows)


class TestCriterion4DirectionProperties:
    """Five direction-LP invariants, 200 seeded instances each."""

    def test_critical_instances_zero_optimum(self):
        rng = np.random.Generator(np.random.Philox(101))
        for _ in range(200):
            jac = _critical_instance(rng)
            ev = Evaluation(x=np.zeros(3), f=np.zeros(jac.shape[0]), jac=jac)
            assert critical_oracle(ev, n_samples=2000, seed=0)
            res = solve_direction(jac, DirectionVariant.LP_NEW)
            assert abs(res.beta_star) <= 1e-9

    def test_noncritical_instances_descent(self):
        rng = np.random.Generator(np.random.Philox(102))
        for _ in range(200):
            jac = _noncritical_instance(rng)
            ev = Evaluation(x=np.zeros(3), f=np.zeros(jac.shape[0]), jac=jac)
            assert not critical_oracle(ev, n_samples=20_000, seed=1)
            res = solve_direction(jac, DirectionVariant.LP_NEW)
            assert res.beta_star < -1e-9
            assert np.all(jac @ res.p_star < 0)

    def test_optimum_attained_by_worst_slope(self):
        rng = np.random.Generator(np.random.Philox(103))
        for _ in range(200):
            jac = _noncritical_instance(rng)
            res = solve_direction(jac, DirectionVariant.LP_NEW)
            assert res.beta_star < 0
            normed, _ = normalize_rows(jac, 1e-12)
            slopes = normed @ res.p_star
            assert abs(res.beta_star - slopes.max()) <= 1e-7

    def test_slope_magnitudes_separated(self):
        rng = np.random.Generator(np.random.Philox(104))
        for _ in range(200):
            jac = _noncritical_instance(rng)
            res = solve_direction(jac, DirectionVariant.LP_NEW)
            assert res.beta_star < 0
            normed, _ = normalize_rows(jac, 1e-12)
            slopes = normed @ res.p_star
            assert np.all(np.abs(slopes) >= abs(res.beta_star) - 1e-7)

    def test_objective_separates_levels(self):
        # Candidate pairs whose direction distance is within the level gap
        # are separated by at least epsilon times the gap in LP objective.
        rng = np.random.Generator(np.random.Philox(105))
        epsilon = 1.0
        for _ in range(200):
            g = rng.normal(size=3) * rng.uniform(0.5, 4.0)
            c = np.append(g, np.linalg.norm(g) + epsilon)
            p0 = rng.uniform(-2.0, 2.0, size=3)
            beta0 = -abs(rng.normal())
            delta = rng.uniform(0.01, 1.0)
            beta1 = beta0 - delta
            v = rng.normal(size=3)
            v *= rng.uniform(0.0, delta) / np.linalg.norm(v)
            p1 = p0 + v
            lhs = float(c @ np.append(p0, beta0) - c @ np.append(p1, beta1))
            assert lhs >= delta * epsilon - 1e-9


class TestCriterion5LpOracle:
    def test_200_random_lps(self):
        rng = np.random.Generator(np.random.Philox(106))
        checked = 0
        while checked < 200:
            d = int(rng.integers(1, 5))
            r = int(rng.integers(0, 7))
            lower = rng.uniform(-5.0, 4.0, size=d)
            upper = np.minimum(lower + rng.uniform(0.0, 5.0, size=d), 5.0)
            from mgdkit import LpSpec

            spec = LpSpec(
                c=rng.normal(size=d),
                A=rng.normal(size=(r, d)),
                b=rng.normal(size=r),
                lower=lower,
                upper=upper,
            )
            res = solve_lp(spec)
            try:
                oracle = enumerate_vertices_oracle(spec)
            except OracleInfeasible:
                assert res.status is LpStatus.INFEASIBLE
                checked += 1
                continue
            assert res.status is LpStatus.OPTIMAL
            assert abs(res.objective_value - oracle) <= 1e-8
            checked += 1


class TestCriterion6Blockwise:
    @pytest.mark.parametrize("variant", list(DirectionVariant))
    def test_50_batches(self, variant):
        rng = np.random.Generator(np.random.Philox(107))
        for _ in range(50):
            size = int(rng.integers(1, 9))
            jacs = [rng.normal(size=(int(rng.integers(1, 5)), 3)) for _ in range(size)]
            blk = solve_blockwise(jacs, variant)
            for res, jac in zip(blk, jacs):
                one = solve_direction(jac, variant)
                assert np.max(np.abs(res.p_star - one.p_star)) <= 1e-10
                assert abs(res.beta_star - one.beta_star) <= 1e-10


class TestCriterion7Jacobians:
    @pytest.mark.parametrize("name", ["fonseca-fleming", "kursawe", "viennet"])
    def test_50_points_per_problem(self, name):
        prob = get_problem(name)
        rng = np.random.Generator(np.random.Philox(108))
        lo, hi = prob.domain_box[:, 0], prob.domain_box[:, 1]
        checked = 0
        while checked < 50:
            x = lo + (hi - lo) * rng.random(prob.n)
            if name == "kursawe" and np.any(np.abs(x) < 1e-3):
                continue
            ev = evaluate(prob, x)
            fd = finite_difference_jacobian(prob, x, 1e-6)
            scale = np.maximum(np.abs(fd), 1.0)
            assert np.max(np.abs(ev.jac - fd) / scale) <= 1e-5
            checked += 1


class TestCriterion8ZeroFallbackEquivalence:
    def test_20_runs_identical_distinct_points(self):
        prob = get_problem("kursawe")
        starts = sample_starts(StartSampler(prob.domain_box, 20, SEED))
        cfg = DirectionConfig(variant=DirectionVariant.LP_NEW)
        for x0 in starts:
            base = run_mgd(
                prob, x0,
                BacktrackParams(variant=BacktrackVariant.BT_BASE),
                cfg, K=1500,
            )
            new = run_mgd(
                prob, x0,
                BacktrackParams(variant=BacktrackVariant.BT_NEW, eta_hat=0.0),
                cfg, K=1500,
            )
            pts_base = [tuple(rec.x) for rec in base.trace] + [tuple(base.x_hat)]
            pts_new = [tuple(rec.x) for rec in new.trace] + [tuple(new.x_hat)]

            def distinct(seq):
                out = []
                for p in seq:
                    if not out or out[-1] != p:
                        out.append(p)
                return out

            assert distinct(pts_base) == distinct(pts_new)


class TestCriterion9Scans:
    def test_three_objective_scan_nonempty(self):
        prob = get_problem("viennet")
        mask = critical_region_scan(
            prob, prob.domain_box, [256, 256], (1, 3), tol=1e-8
        )
        assert mask.sum() > 0

    def test_two_objective_scan_nonempty(self):
        prob = get_problem("kursawe")
        mask = critical_region_scan(
            prob, prob.domain_box, [64, 64, 64], (1, 2), tol=1e-3
        )
        assert mask.sum() > 0
