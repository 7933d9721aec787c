"""Tests for the benchmark problems, sampler, and finite-difference oracle."""

import numpy as np
import pytest

from mgdkit import (
    PROBLEMS,
    Problem,
    StartSampler,
    evaluate,
    fonseca_fleming,
    get_problem,
    kursawe,
    sample_starts,
    viennet,
)
from mgdkit.problems import _point_evaluator
from oracles import finite_difference_jacobian


class TestRegistry:
    def test_all_problems_constructible(self):
        for name in PROBLEMS:
            prob = get_problem(name)
            assert prob.name == name
            assert prob.domain_box.shape == (prob.n, 2)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            get_problem("does-not-exist")


class TestFonsecaFleming:
    def test_minimizer_of_first_objective(self):
        prob = fonseca_fleming(3)
        a = 1.0 / np.sqrt(3.0)
        ev = evaluate(prob, np.array([a, a, a]))
        assert ev.f[0] == pytest.approx(0.0, abs=1e-15)

    def test_symmetry_at_origin(self):
        ev = evaluate(fonseca_fleming(3), np.zeros(3))
        assert ev.f[0] == ev.f[1]

    def test_gradient_at_origin_matches_differences(self):
        prob = fonseca_fleming(3)
        ev = evaluate(prob, np.zeros(3))
        fd = finite_difference_jacobian(prob, np.zeros(3), 1e-6)
        assert np.max(np.abs(ev.jac - fd) / np.maximum(np.abs(fd), 1e-12)) <= 1e-6

    def test_dimension_parameter(self):
        assert fonseca_fleming(5).n == 5
        with pytest.raises(ValueError):
            fonseca_fleming(0)

    def test_batch_agrees_with_evaluator(self):
        prob = fonseca_fleming(3)
        rng = np.random.Generator(np.random.Philox(21))
        X = rng.uniform(-2.0, 2.0, size=(20, 3))
        F = prob.f_batch(X)
        for x, f in zip(X, F):
            assert f == pytest.approx(evaluate(prob, x).f, abs=1e-12)


class TestKursawe:
    def test_origin_value(self):
        ev = evaluate(get_problem("kursawe"), np.zeros(3))
        assert ev.f == pytest.approx([-20.0, 0.0], abs=1e-12)

    def test_first_objective_end_swap_symmetry(self):
        prob = get_problem("kursawe")
        a = evaluate(prob, np.array([-1.2, 0.3, 0.4])).f[0]
        b = evaluate(prob, np.array([0.4, 0.3, -1.2])).f[0]
        assert a == pytest.approx(b, abs=1e-12)

    def test_second_gradient_matches_differences(self):
        prob = get_problem("kursawe")
        x = np.array([0.5, 0.5, 0.5])
        ev = evaluate(prob, x)
        fd = finite_difference_jacobian(prob, x, 1e-6)
        rel = np.abs(ev.jac[1] - fd[1]) / np.maximum(np.abs(fd[1]), 1e-12)
        assert np.max(rel) <= 1e-5

    def test_singular_slice_has_finite_gradient(self):
        ev = evaluate(get_problem("kursawe"), np.array([0.0, 0.2, -0.4]))
        assert np.all(np.isfinite(ev.jac))

    @pytest.mark.parametrize(
        "x, jac",
        [
            # s1 = s2 = 0 and every x_i = 0: both rows are set to 0.
            ((0.0, 0.0, 0.0), [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
            # s1 = 0 drops r1; x1 = x2 = 0 drop their |x|^0.8 slopes.
            ((0.0, 0.0, 0.5),
             [[0.0, 0.0, 2.0 * np.exp(-0.1)],
              [0.0, 0.0, 0.8 * 0.5**-0.2 + 15.0 * 0.25 * np.cos(0.125)]]),
            # x2 = 0 between two nonzero coordinates: s1, s2 > 0.
            ((0.3, 0.0, -0.2),
             [[2.0 * np.exp(-0.06), 0.0, -2.0 * np.exp(-0.04)],
              [0.8 * 0.3**-0.2 + 15.0 * 0.09 * np.cos(0.027), 0.0,
               -0.8 * 0.2**-0.2 + 15.0 * 0.04 * np.cos(-0.008)]]),
        ],
    )
    def test_jacobian_closed_form_at_zero_coordinates(self, x, jac):
        # d/dx of -10 exp(-0.2 s) is 2 exp(-0.2 s) x / s, set to 0 on the
        # s = 0 slice; the slope of |x|^0.8 is set to 0 at x = 0.
        ev = evaluate(get_problem("kursawe"), np.array(x))
        assert ev.jac == pytest.approx(np.array(jac), rel=1e-12, abs=1e-15)

    def test_batch_agrees_with_evaluator(self):
        prob = get_problem("kursawe")
        rng = np.random.Generator(np.random.Philox(22))
        X = rng.uniform(-1.5, 0.5, size=(20, 3))
        F = prob.f_batch(X)
        for x, f in zip(X, F):
            assert f == pytest.approx(evaluate(prob, x).f, abs=1e-12)


class TestViennet:
    def test_origin_value(self):
        ev = evaluate(get_problem("viennet"), np.zeros(2))
        assert ev.f == pytest.approx([0.0, 16.0 / 8.0 + 1.0 / 27.0 + 15.0, -0.1])

    @pytest.mark.parametrize(
        "x, f2",
        [((-2.0, -1.0), 15.0), ((1.0, 1.0), 15.0 + 25.0 / 8.0 + 1.0 / 27.0)],
    )
    def test_second_objective_closed_form(self, x, f2):
        # f2 = (3 x1 - 2 x2 + 4)^2/8 + (x1 - x2 + 1)^2/27 + 15; both points
        # have x2 != 0, where a sign slip in the second square shows.
        prob = get_problem("viennet")
        x = np.array(x)
        assert evaluate(prob, x).f[1] == pytest.approx(f2, abs=1e-12)
        assert prob.f_batch(x[None, :])[0, 1] == pytest.approx(f2, abs=1e-12)

    def test_second_objective_minimizer_has_zero_gradient(self):
        ev = evaluate(get_problem("viennet"), np.array([-2.0, -1.0]))
        assert ev.jac[1] == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_radial_symmetry_of_first_and_third(self):
        prob = get_problem("viennet")
        fa = evaluate(prob, np.array([0.7, -1.1])).f
        fb = evaluate(prob, np.array([-0.7, 1.1])).f
        assert fa[0] == pytest.approx(fb[0], abs=1e-12)
        assert fa[2] == pytest.approx(fb[2], abs=1e-12)

    def test_jacobian_at_ones_matches_differences(self):
        prob = get_problem("viennet")
        x = np.array([1.0, 1.0])
        ev = evaluate(prob, x)
        fd = finite_difference_jacobian(prob, x, 1e-6)
        rel = np.abs(ev.jac - fd) / np.maximum(np.abs(fd), 1e-12)
        assert np.max(rel) <= 1e-6

    def test_batch_agrees_with_evaluator(self):
        prob = get_problem("viennet")
        rng = np.random.Generator(np.random.Philox(23))
        X = rng.uniform(-3.0, 1.5, size=(20, 2))
        F = prob.f_batch(X)
        for x, f in zip(X, F):
            assert f == pytest.approx(evaluate(prob, x).f, abs=1e-12)


class TestJacobiansAgainstDifferences:
    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_fifty_random_points(self, name):
        # Analytic Jacobians match central differences (step 1e-6) within
        # 1e-5 relative error at 50 random box points per problem; near the
        # kursawe |x_i|^0.8 slope singularity points are resampled.
        prob = get_problem(name)
        rng = np.random.Generator(np.random.Philox(31))
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

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_values_finite_on_box(self, name):
        prob = get_problem(name)
        starts = sample_starts(StartSampler(prob.domain_box, 200, 32))
        F = prob.f_batch(starts)
        assert np.all(np.isfinite(F))


def _points_with_zeros(prob, count, seed):
    """``count`` seeded box points, then copies of the first 8 with every
    nonempty set of coordinates set to +0.0 and to -0.0."""
    rng = np.random.Generator(np.random.Philox(seed))
    lo, hi = prob.domain_box[:, 0], prob.domain_box[:, 1]
    X = lo + (hi - lo) * rng.random((count, prob.n))
    rows = [X]
    for bits in range(1, 2**prob.n):
        axes = [a for a in range(prob.n) if bits >> a & 1]
        for zero in (0.0, -0.0):
            Z = X[:8].copy()
            Z[:, axes] = zero
            rows.append(Z)
    return np.vstack(rows)


class TestBatchedJacobian:
    # A built-in problem's evaluator is row 0 of a one-row batch, so these
    # check that a row evaluated alone equals the same row in a batch, bit
    # for bit. The failure retry and the one-start oracle evaluate single
    # points, the descent whole batches; a run follows the same iterates
    # either way only if the two agree.
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_fonseca_fleming_bit_identical_to_evaluator(self, n):
        self._check_bit_identical(fonseca_fleming(n))

    def test_kursawe_bit_identical_to_evaluator(self):
        self._check_bit_identical(get_problem("kursawe"))

    def test_viennet_bit_identical_to_evaluator(self):
        self._check_bit_identical(get_problem("viennet"))

    @staticmethod
    def _check_bit_identical(prob):
        X = _points_with_zeros(prob, 2000, 41)
        J = prob.jac_batch(X)
        expected = np.array([prob.evaluator(x)[1] for x in X])
        assert J.shape == expected.shape == (len(X), prob.m, prob.n)
        assert J.tobytes() == expected.tobytes()
        assert prob.jac_batch(np.zeros((0, prob.n))).shape == (0, prob.m, prob.n)

    @pytest.mark.parametrize("prob", [fonseca_fleming(1), fonseca_fleming(3),
                                      fonseca_fleming(5), kursawe(), viennet()],
                             ids=lambda prob: f"{prob.name}-{prob.n}")
    def test_f_batch_bit_identical_to_evaluator(self, prob):
        X = _points_with_zeros(prob, 20000, 42)
        F = prob.f_batch(X)
        expected = np.array([prob.evaluator(x)[0] for x in X])
        assert F.shape == expected.shape == (len(X), prob.m)
        assert F.tobytes() == expected.tobytes()
        assert prob.f_batch(np.zeros((0, prob.n))).shape == (0, prob.m)


class TestFiniteDifferenceOracle:
    def test_exact_on_linear(self):
        a = np.array([[2.0, -3.0]])
        f_batch = lambda X: X @ a.T
        jac_batch = lambda X: np.broadcast_to(a, (len(X), 1, 2))
        prob = Problem(
            name="linear",
            n=2,
            m=1,
            evaluator=_point_evaluator(f_batch, jac_batch),
            domain_box=np.tile([-1.0, 1.0], (2, 1)),
            default_max_iters=1,
            f_batch=f_batch,
            jac_batch=jac_batch,
        )
        fd = finite_difference_jacobian(prob, np.array([0.3, 0.4]), 1e-4)
        assert fd == pytest.approx(a, abs=1e-10)

    def test_exact_on_quadratic(self):
        f_batch = lambda X: X**2
        jac_batch = lambda X: 2.0 * X[:, None, :]
        prob = Problem(
            name="quad",
            n=1,
            m=1,
            evaluator=_point_evaluator(f_batch, jac_batch),
            domain_box=np.array([[-2.0, 2.0]]),
            default_max_iters=1,
            f_batch=f_batch,
            jac_batch=jac_batch,
        )
        for h in (1e-2, 1e-4):
            fd = finite_difference_jacobian(prob, np.array([1.0]), h)
            assert fd[0, 0] == pytest.approx(2.0, abs=1e-9)

    def test_positive_step_required(self):
        prob = get_problem("viennet")
        with pytest.raises(ValueError):
            finite_difference_jacobian(prob, np.zeros(2), 0.0)


class TestSampler:
    def test_degenerate_box_returns_corner(self):
        pts = sample_starts(StartSampler(np.zeros((3, 2)), 1, 0))
        assert pts == pytest.approx(np.zeros((1, 3)))

    def test_same_seed_identical(self):
        sampler = StartSampler(np.tile([-2.0, 2.0], (3, 1)), 50, 123)
        assert np.array_equal(sample_starts(sampler), sample_starts(sampler))

    def test_different_seeds_differ(self):
        box = np.tile([-2.0, 2.0], (3, 1))
        a = sample_starts(StartSampler(box, 50, 1))
        b = sample_starts(StartSampler(box, 50, 2))
        assert not np.array_equal(a, b)

    def test_mean_converges(self):
        pts = sample_starts(StartSampler(np.tile([0.0, 1.0], (2, 1)), 10_000, 5))
        assert np.max(np.abs(pts.mean(axis=0) - 0.5)) <= 0.02

    def test_points_inside_box(self):
        box = np.array([[-1.5, 0.5], [-1.5, 0.5], [-1.5, 0.5]])
        pts = sample_starts(StartSampler(box, 1000, 3))
        assert np.all(pts >= -1.5) and np.all(pts <= 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            StartSampler(np.tile([0.0, 1.0], (2, 1)), 0, 0)
        with pytest.raises(ValueError):
            StartSampler(np.array([[1.0, 0.0]]), 1, 0)
        # A non-integer count would fail late, in numpy; numpy integers pass.
        for count in (2.5, 2.0, "2"):
            with pytest.raises(ValueError, match="count must be an integer"):
                StartSampler(np.tile([0.0, 1.0], (2, 1)), count, 0)
        assert StartSampler(np.tile([0.0, 1.0], (2, 1)), np.int64(2), 0).count == 2

    def test_non_finite_bounds_rejected(self):
        # Such a box would sample inf and nan coordinates.
        for box in ([[0.0, np.inf], [np.nan, 1.0]], [[-np.inf, 0.0]], [[np.nan, np.nan]]):
            with pytest.raises(ValueError, match="finite"):
                StartSampler(box, 2, 0)
