"""Tests for the direction LPs, criticality classification, and blockwise path."""

import numpy as np
import pytest

from mgdkit import (
    CriticalityCase,
    DirectionVariant,
    Evaluation,
    LpSpec,
    solve_blockwise,
    solve_direction,
)
from oracles import critical_oracle, enumerate_vertices_oracle, normalize_rows

LP_BASE = DirectionVariant.LP_BASE
LP_NEW = DirectionVariant.LP_NEW


def _jac(rows):
    return np.asarray(rows, dtype=float)


def _written_lp(jac, variant, epsilon=1.0):
    """The direction LP over rho = (p, beta), written out with numpy.

    lp-base: min beta  s.t.  jac p <= beta e, |p|inf <= 1, beta <= 0.
    lp-new:  min g.p + (|g| + epsilon) beta  s.t.  normalized rows p <= beta e,
    |p|inf <= gamma, beta <= 0; g is the gradient sum and gamma the largest
    absolute entry of the gradients and of g.  The vertex oracle needs a
    finite lower bound on beta; the one used cannot bind, because every
    feasible beta is at least max_i row_i.p >= -box * max_i |row_i|_1.
    """
    jac = _jac(jac)
    n = jac.shape[1]
    if variant is LP_BASE:
        rows, box = jac, 1.0
        c = np.append(np.zeros(n), 1.0)
    else:
        g = jac.sum(axis=0)
        rows, _ = normalize_rows(jac, 1e-12)
        box = max(np.abs(jac).max(), np.abs(g).max())
        c = np.append(g, np.linalg.norm(g) + epsilon)
    beta_lb = -1.0 - box * np.abs(rows).sum(axis=1).max()
    return LpSpec(
        c=c,
        A=np.hstack([rows, -np.ones((rows.shape[0], 1))]),
        b=np.zeros(rows.shape[0]),
        lower=np.append(np.full(n, -box), beta_lb),
        upper=np.append(np.full(n, box), 0.0),
    )


def _solve_checked(jac, variant):
    """solve_direction, with its box, beta weight and LP value checked
    against the written-out LP and its vertex oracle."""
    res = solve_direction(_jac(jac), variant)
    spec = _written_lp(jac, variant)
    assert res.gamma == pytest.approx(spec.upper[0], abs=1e-12)
    if variant is LP_NEW:
        assert res.c_beta == pytest.approx(spec.c[-1], abs=1e-12)
    else:
        assert res.c_beta is None
    value = float(spec.c @ np.append(res.p_star, res.beta_star))
    assert value == pytest.approx(enumerate_vertices_oracle(spec), abs=1e-8)
    return res


class TestBuildingBlocks:
    def test_sum_gradient(self):
        # lp-new weighs p by the gradient sum g and beta by |g| + epsilon.
        assert solve_direction(_jac([[1, 0], [-1, 0]])).c_beta == pytest.approx(1.0)
        assert solve_direction(_jac([[1, 2], [-3, 0]])).c_beta == pytest.approx(
            np.sqrt(8.0) + 1.0
        )
        res = _solve_checked([[3, 4]], LP_NEW)
        assert res.c_beta == pytest.approx(6.0)
        # g = (3, 4) and beta = 0.6 p1 + 0.8 p2 push p to the -gamma corner.
        assert res.p_star == pytest.approx([-4.0, -4.0], abs=1e-9)

    def test_normalize_rows(self):
        # beta* is the worst slope of the normalized rows, not the raw ones.
        res = _solve_checked([[3, 4]], LP_NEW)
        assert list(res.dropped_rows) == []
        assert res.beta_star == pytest.approx(-5.6, abs=1e-9)

        res = _solve_checked([[0, 0], [2, 0]], LP_NEW)
        assert list(res.dropped_rows) == [0]
        assert res.beta_star == pytest.approx(-2.0, abs=1e-9)

        res = _solve_checked([[2, 0], [0, -5]], LP_NEW)
        assert res.p_star == pytest.approx([-5.0, 5.0], abs=1e-9)
        assert res.beta_star == pytest.approx(-5.0, abs=1e-9)

    def test_gamma(self):
        assert solve_direction(_jac([[1, 2], [-3, 0]])).gamma == pytest.approx(3.0)
        assert solve_direction(_jac([[1, 0], [-1, 0]])).gamma == pytest.approx(1.0)
        assert solve_direction(_jac([[0, 0], [0, 0]])).gamma == pytest.approx(0.0)
        assert solve_direction(_jac([[1, 2], [-3, 0]]), LP_BASE).gamma == 1.0


class TestRawGradientLp:
    def test_single_gradient(self):
        res = _solve_checked([[1.0, 0.0]], LP_BASE)
        assert res.beta_star == pytest.approx(-1.0, abs=1e-9)
        assert res.p_star[0] == pytest.approx(-1.0, abs=1e-9)

    def test_opposed_gradients_zero_optimum(self):
        res = _solve_checked([[1, 0], [-1, 0]], LP_BASE)
        assert res.beta_star == pytest.approx(0.0, abs=1e-9)

    def test_quarter_cone_negative_optimum(self):
        res = _solve_checked([[1, 0], [0, 1]], LP_BASE)
        assert res.beta_star < -1e-9


class TestNormalizedSumLp:
    def test_opposed_gradients(self):
        res = _solve_checked([[1, 0], [-1, 0]], LP_NEW)
        assert res.beta_star == pytest.approx(0.0, abs=1e-9)
        assert res.p_star[0] == pytest.approx(0.0, abs=1e-9)

    def test_three_gradient_unique_vertex(self):
        res = _solve_checked([[1, 0], [0, 1], [-1, 0]], LP_NEW)
        assert res.p_star == pytest.approx([0.0, -1.0], abs=1e-8)
        assert res.beta_star == pytest.approx(0.0, abs=1e-9)

    def test_one_dimensional_corner(self):
        res = _solve_checked([[6.0], [2.0]], LP_NEW)
        assert res.c_beta == pytest.approx(9.0)  # |g| + epsilon, g = 8
        assert res.gamma == pytest.approx(8.0)  # box scalar
        assert res.p_star == pytest.approx([-8.0], abs=1e-8)
        assert res.beta_star == pytest.approx(-8.0, abs=1e-8)


class TestClassification:
    def test_perpendicular(self):
        res = solve_direction(_jac([[1, 0], [-1, 0]]), DirectionVariant.LP_NEW)
        assert res.case is CriticalityCase.CRITICAL_PERPENDICULAR
        assert res.is_critical

    def test_non_null(self):
        jac = _jac([[1, 0], [0, 1], [-1, 0]])
        res = solve_direction(jac, DirectionVariant.LP_NEW)
        assert res.case is CriticalityCase.CRITICAL_NON_NULL
        g = jac.sum(axis=0)
        assert float(g @ res.p_star) == pytest.approx(-1.0, abs=1e-8)

    def test_not_critical(self):
        res = solve_direction(_jac([[1, 0], [0, 1]]), DirectionVariant.LP_NEW)
        assert res.case is CriticalityCase.NOT_CRITICAL
        assert res.beta_star < 0
        assert np.all(_jac([[1, 0], [0, 1]]) @ res.p_star < 0)

    def test_zero_only(self):
        res = solve_direction(_jac([[1.0], [-1.0]]), DirectionVariant.LP_NEW)
        assert res.case is CriticalityCase.CRITICAL_ZERO_ONLY
        assert res.p_star == pytest.approx([0.0], abs=1e-9)

    def test_all_rows_dropped_sentinel(self):
        res = solve_direction(np.zeros((2, 3)), DirectionVariant.LP_NEW)
        assert res.case is CriticalityCase.CRITICAL_ZERO_ONLY
        assert res.p_star == pytest.approx([0.0, 0.0, 0.0])
        assert list(res.dropped_rows) == [0, 1]


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


class TestDirectionProperties:
    def test_critical_instances_have_zero_optimum(self):
        # 100 instances containing an exactly opposed gradient pair.
        rng = np.random.Generator(np.random.Philox(11))
        for _ in range(100):
            jac = _critical_instance(rng)
            ev = Evaluation(x=np.zeros(3), f=np.zeros(jac.shape[0]), jac=jac)
            assert critical_oracle(ev, n_samples=2000, seed=0)
            res = solve_direction(jac, DirectionVariant.LP_NEW)
            assert abs(res.beta_star) <= 1e-9

    def test_noncritical_instances_yield_descent(self):
        # 200 instances whose gradients share an open half-space.
        rng = np.random.Generator(np.random.Philox(12))
        for _ in range(200):
            jac = _noncritical_instance(rng)
            ev = Evaluation(x=np.zeros(3), f=np.zeros(jac.shape[0]), jac=jac)
            assert not critical_oracle(ev, n_samples=20_000, seed=1)
            res = solve_direction(jac, DirectionVariant.LP_NEW)
            assert res.beta_star < -1e-9
            assert np.all(jac @ res.p_star < 0)

    def test_optimum_is_active_and_separated(self):
        # When the optimum is negative, it is attained by the worst
        # normalized slope, and every slope magnitude is at least |optimum|.
        rng = np.random.Generator(np.random.Philox(13))
        for _ in range(200):
            jac = _noncritical_instance(rng)
            res = solve_direction(jac, DirectionVariant.LP_NEW)
            assert res.beta_star < 0
            normed, _ = normalize_rows(jac, 1e-12)
            slopes = normed @ res.p_star
            assert abs(res.beta_star - slopes.max()) <= 1e-7
            assert np.all(np.abs(slopes) >= abs(res.beta_star) - 1e-7)

    def test_objective_gap_bounds_level_gap(self):
        # For candidate pairs whose direction gap is at most the level gap,
        # the LP objective separates them by at least epsilon times the gap.
        rng = np.random.Generator(np.random.Philox(14))
        epsilon = 1.0
        for _ in range(100):
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

    def test_two_objectives_never_non_null(self):
        rng = np.random.Generator(np.random.Philox(15))
        for _ in range(100):
            n = int(rng.integers(1, 4))
            u = rng.normal(size=n)
            u /= np.linalg.norm(u)
            jac = np.vstack([rng.uniform(0.5, 3.0) * u, -rng.uniform(0.5, 3.0) * u])
            res = solve_direction(jac, DirectionVariant.LP_NEW)
            assert res.is_critical
            assert res.case is not CriticalityCase.CRITICAL_NON_NULL

    def test_box_bounds(self):
        rng = np.random.Generator(np.random.Philox(16))
        for _ in range(50):
            jac = rng.normal(size=(3, 3)) * rng.uniform(0.1, 5.0)
            res_new = solve_direction(jac, DirectionVariant.LP_NEW)
            assert np.max(np.abs(res_new.p_star)) <= res_new.gamma + 1e-8
            res_base = solve_direction(jac, DirectionVariant.LP_BASE)
            assert np.max(np.abs(res_base.p_star)) <= 1.0 + 1e-8


class TestBlockwise:
    def test_single_block(self):
        jac = _jac([[1, 0], [0, 1]])
        blk = solve_blockwise([jac], DirectionVariant.LP_NEW)
        one = solve_direction(jac, DirectionVariant.LP_NEW)
        assert blk[0].p_star == pytest.approx(one.p_star, abs=1e-10)
        assert blk[0].beta_star == pytest.approx(one.beta_star, abs=1e-10)

    def test_named_examples_in_order(self):
        jacs = [
            _jac([[1, 0], [-1, 0]]),
            _jac([[1, 0], [0, 1], [-1, 0]]),
            _jac([[1, 0], [0, 1]]),
        ]
        blk = solve_blockwise(jacs, DirectionVariant.LP_NEW)
        for res, jac in zip(blk, jacs):
            one = solve_direction(jac, DirectionVariant.LP_NEW)
            assert res.case is one.case
            assert res.p_star == pytest.approx(one.p_star, abs=1e-10)
            assert res.beta_star == pytest.approx(one.beta_star, abs=1e-10)

    def test_zero_block_mixed_with_descent_block(self):
        blk = solve_blockwise(
            [np.zeros((2, 2)), _jac([[1, 0], [0, 1]])], DirectionVariant.LP_NEW
        )
        assert blk[0].case is CriticalityCase.CRITICAL_ZERO_ONLY
        assert blk[0].p_star == pytest.approx([0.0, 0.0])
        assert blk[1].case is CriticalityCase.NOT_CRITICAL

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            solve_blockwise([], DirectionVariant.LP_NEW)

    @pytest.mark.parametrize("variant", list(DirectionVariant))
    def test_random_batches_match_per_instance(self, variant):
        # 50 seeded batches of up to 8 blocks; blockwise output must agree
        # with independent per-instance solves to 1e-10.
        rng = np.random.Generator(np.random.Philox(17))
        for _ in range(50):
            size = int(rng.integers(1, 9))
            jacs = []
            for _ in range(size):
                kind = rng.integers(0, 3)
                if kind == 0:
                    jacs.append(_critical_instance(rng))
                elif kind == 1:
                    jacs.append(_noncritical_instance(rng))
                else:
                    jacs.append(rng.normal(size=(2, 3)))
            blk = solve_blockwise(jacs, variant)
            for res, jac in zip(blk, jacs):
                one = solve_direction(jac, variant)
                assert res.p_star == pytest.approx(one.p_star, abs=1e-10)
                assert res.beta_star == pytest.approx(one.beta_star, abs=1e-10)
                assert res.case is one.case


class TestProductionLpOracle:
    @pytest.mark.parametrize("variant", list(DirectionVariant))
    def test_200_jacobians_match_vertex_oracle(self, variant):
        # 200 seeded Jacobians from the critical, non-critical and plain
        # normal generators: c.(p*, beta*) from solve_direction equals the
        # vertex oracle's optimum of the written-out LP to 1e-8.
        rng = np.random.Generator(np.random.Philox(18))
        phase_one = 0
        for i in range(200):
            kind = i % 3
            if kind == 0:
                jac = _critical_instance(rng)
            elif kind == 1:
                jac = _noncritical_instance(rng)
            else:
                jac = rng.normal(size=(int(rng.integers(1, 5)), 3))
            # A row with a negative sum gets a negative right-hand side in
            # standard form, which sends the simplex through phase 1.
            phase_one += bool(np.any(jac.sum(axis=1) < 0))
            _solve_checked(jac, variant)
        assert phase_one > 50
