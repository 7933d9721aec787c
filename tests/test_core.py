"""Tests for problem evaluation, dominance, and the criticality oracle."""

import numpy as np
import pytest

from mgdkit import (
    Evaluation,
    EvaluationError,
    Problem,
    dominates,
    evaluate,
    get_problem,
)
from oracles import critical_oracle


def _toy_problem(evaluator, n=2, m=2, name="toy"):
    return Problem(
        name=name,
        n=n,
        m=m,
        evaluator=evaluator,
        domain_box=np.tile([-1.0, 1.0], (n, 1)),
        default_max_iters=10,
    )


class TestProblemInvariants:
    def test_dimensions_validated(self):
        with pytest.raises(ValueError):
            _toy_problem(lambda x: (np.zeros(2), np.zeros((2, 2))), n=0)

    def test_box_shape_validated(self):
        with pytest.raises(ValueError):
            Problem(
                name="bad",
                n=2,
                m=2,
                evaluator=lambda x: (np.zeros(2), np.zeros((2, 2))),
                domain_box=np.array([[0.0, 1.0]]),
                default_max_iters=10,
            )

    def test_box_ordering_validated(self):
        with pytest.raises(ValueError):
            Problem(
                name="bad",
                n=1,
                m=1,
                evaluator=lambda x: (np.zeros(1), np.zeros((1, 1))),
                domain_box=np.array([[2.0, -2.0]]),
                default_max_iters=10,
            )


    @pytest.mark.parametrize(
        "field, value",
        [("n", 2.0), ("m", 2.0), ("n", "2"), ("default_max_iters", 2.5), ("default_max_iters", 0)],
    )
    def test_sizes_must_be_integers(self, field, value):
        # A float size or budget is rejected here, not when a run first uses it.
        values = dict(name="bad", n=2, m=2, evaluator=lambda x: (np.zeros(2), np.zeros((2, 2))),
                      domain_box=np.tile([-1.0, 1.0], (2, 1)), default_max_iters=10)
        values[field] = value
        with pytest.raises(ValueError, match=field):
            Problem(**values)
        values[field] = np.int64(2)
        assert Problem(**values).n == 2

    @pytest.mark.parametrize("corner, bound", [((1, 1), np.inf), ((0, 0), -np.inf), ((1, 0), np.nan)])
    def test_box_must_be_finite(self, corner, bound):
        # An infinite box is rejected here, not first by a start sampler.
        box = np.tile([-1.0, 1.0], (2, 1))
        box[corner] = bound
        with pytest.raises(ValueError, match="finite"):
            Problem(name="bad", n=2, m=2, evaluator=lambda x: (np.zeros(2), np.zeros((2, 2))),
                    domain_box=box, default_max_iters=10)


class TestEvaluate:
    def test_fonseca_fleming_origin(self):
        prob = get_problem("fonseca-fleming")
        ev = evaluate(prob, np.zeros(3))
        expected = 1.0 - np.exp(-1.0)
        assert ev.f[0] == pytest.approx(expected, abs=1e-12)
        assert ev.f[1] == pytest.approx(expected, abs=1e-12)
        assert ev.f[0] == ev.f[1]

    def test_kursawe_origin(self):
        prob = get_problem("kursawe")
        ev = evaluate(prob, np.zeros(3))
        assert ev.f == pytest.approx([-20.0, 0.0], abs=1e-12)

    def test_viennet_origin(self):
        prob = get_problem("viennet")
        ev = evaluate(prob, np.zeros(2))
        assert ev.f[0] == pytest.approx(0.0, abs=1e-15)
        assert ev.f[1] == pytest.approx(16.0 / 8.0 + 1.0 / 27.0 + 15.0, abs=1e-12)
        assert ev.f[2] == pytest.approx(-0.1, abs=1e-15)

    def test_shapes_and_point_validation(self):
        prob = get_problem("viennet")
        ev = evaluate(prob, np.array([0.3, -0.7]))
        assert ev.f.shape == (3,)
        assert ev.jac.shape == (3, 2)
        with pytest.raises(ValueError):
            evaluate(prob, np.zeros(3))
        with pytest.raises(ValueError):
            evaluate(prob, np.array([np.nan, 0.0]))

    def test_nonfinite_output_names_objective(self):
        def evaluator(x):
            return np.array([np.inf, 0.0]), np.zeros((2, 2))

        prob = _toy_problem(evaluator)
        with pytest.raises(EvaluationError) as err:
            evaluate(prob, np.zeros(2))
        assert err.value.objective_index == 0


class TestDominates:
    def test_strict(self):
        assert dominates(np.array([0.0, 0.0]), np.array([1.0, 1.0]))

    def test_incomparable(self):
        assert not dominates(np.array([0.0, 1.0]), np.array([1.0, 0.0]))

    def test_equal_vectors_do_not_dominate(self):
        assert not dominates(np.array([1.0, 1.0]), np.array([1.0, 1.0]))

    def test_partial_tie_dominates(self):
        assert dominates(np.array([1.0, 0.0]), np.array([1.0, 1.0]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dominates(np.array([1.0]), np.array([1.0, 2.0]))

    def test_irreflexive_asymmetric_transitive(self):
        rng = np.random.Generator(np.random.Philox(7))
        fs = rng.normal(size=(30, 3))
        for fa in fs:
            assert not dominates(fa, fa)
        for fa in fs:
            for fb in fs:
                if dominates(fa, fb):
                    assert not dominates(fb, fa)
        for fa in fs:
            for fb in fs:
                if not dominates(fa, fb):
                    continue
                for fc in fs:
                    if dominates(fb, fc):
                        assert dominates(fa, fc)


class TestCriticalOracle:
    @staticmethod
    def _ev(jac):
        jac = np.asarray(jac, dtype=float)
        return Evaluation(x=np.zeros(jac.shape[1]), f=np.zeros(jac.shape[0]), jac=jac)

    def test_opposed_gradients_critical(self):
        ev = self._ev([[1.0, 0.0], [-1.0, 0.0]])
        assert critical_oracle(ev, n_samples=10_000, seed=0)

    def test_quarter_cone_not_critical(self):
        ev = self._ev([[1.0, 0.0], [0.0, 1.0]])
        assert not critical_oracle(ev, n_samples=10_000, seed=0)

    def test_single_objective_not_critical(self):
        ev = self._ev([[1.0, 1.0]])
        assert not critical_oracle(ev, n_samples=10_000, seed=0)
