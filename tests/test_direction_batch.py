"""The direction step of an iteration against the scalar LP, bit for bit.

``direction._solve_batch`` must give every Jacobian of a batch exactly
what ``solve_direction`` gives it alone: the same p* bytes, the same
beta*, the same case, and the same failure, at every width; from
``_BATCH_MIN_WIDTH`` on it solves them with one batched simplex.  The Jacobians come from
the generator of the direction-LP robustness item: m = 2-3 objectives,
n = 1-5 variables, an overall scale from 1e-8 to 1e8 with each row
rescaled by up to e^+-3, and exactly opposed rows, rows parallel to
within 1e-9, zero rows and all-zero Jacobians mixed in.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mgdkit.direction as direction_mod
from mgdkit import DirectionVariant, solve_direction
from mgdkit.direction import _BATCH_MIN_WIDTH, _solve_batch

WIDTHS = (1, _BATCH_MIN_WIDTH - 1, _BATCH_MIN_WIDTH, 200)
KINDS = ("plain", "opposed", "parallel", "zero-row", "all-zero")


def random_jacobians(rng, width, m, n, log10_scale):
    """``width`` Jacobians (width, m, n), each of a random kind."""
    J = rng.normal(size=(width, m, n)) * 10.0**log10_scale
    J *= np.exp(rng.uniform(-3.0, 3.0, size=(width, m, 1)))
    for jac, kind in zip(J, rng.choice(KINDS, size=width, p=[0.4, 0.2, 0.2, 0.15, 0.05])):
        i, k = rng.choice(m, size=2, replace=False)
        if kind == "opposed":
            jac[k] = -rng.uniform(0.1, 10.0) * jac[i]
        elif kind == "parallel":
            jac[k] = rng.uniform(0.1, 10.0) * jac[i] * (1.0 + 1e-9 * rng.normal(size=n))
        elif kind == "zero-row":
            jac[k] = 0.0
        elif kind == "all-zero":
            jac[:] = 0.0
    return J


def _outcome(jac, variant):
    try:
        return solve_direction(jac, variant)
    except Exception as exc:
        return exc


def assert_same(solved, w, expected):
    """Row w of _solve_batch's (P, beta, cases, errors) against solve_direction."""
    P, beta, cases, errors = solved
    if isinstance(expected, Exception):
        assert type(errors[w]) is type(expected)
        assert str(errors[w]) == str(expected)
        return
    assert w not in errors, errors[w]
    assert P.dtype == expected.p_star.dtype
    assert P[w].shape == expected.p_star.shape
    assert P[w].tobytes() == expected.p_star.tobytes()
    assert repr(float(beta[w])) == repr(expected.beta_star)
    assert cases[w] is expected.case


def check_batch(J, variant):
    """Every row of the batch against solve_direction; the failures seen."""
    solved = _solve_batch(J, variant)
    P, beta, cases, errors = solved
    assert P.shape == (len(J), J.shape[2]) and beta.shape == cases.shape == (len(J),)
    failures = []
    for w, jac in enumerate(J):
        expected = _outcome(jac, variant)
        assert_same(solved, w, expected)
        if isinstance(expected, Exception):
            failures.append(str(expected))
    assert len(errors) == len(failures)
    return failures


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestBatchedEqualsScalar:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        width=st.sampled_from(WIDTHS),
        m=st.integers(2, 3),
        n=st.integers(1, 5),
        log10_scale=st.floats(-8.0, 8.0),
        variant=st.sampled_from(list(DirectionVariant)),
    )
    def test_random_batches(self, seed, width, m, n, log10_scale, variant):
        rng = np.random.default_rng(seed)
        check_batch(random_jacobians(rng, width, m, n, log10_scale), variant)

    @pytest.mark.parametrize("variant", list(DirectionVariant))
    def test_failures_at_large_scale(self, variant):
        # At scale 1e8 the phase-1 infeasibility test is absolute while the
        # right-hand sides grow with the box, so some LPs are reported
        # infeasible; the batch must fail those the same way.
        rng = np.random.default_rng(8)
        failures = []
        for m in (2, 3):
            for n in (2, 4, 5):
                failures += check_batch(random_jacobians(rng, 200, m, n, 8.0), variant)
        assert failures
        assert set(failures) <= {
            "direction LP ended with status infeasible",
            "direction LP ended with status unbounded",
        }

    def test_sums_in_order(self):
        # Added in order, 1 + 1e-16 + 1e-16 is 1.0; compensated, as Python's
        # sum adds floats from 3.12 on, it is 1 + 2**-52.  Both paths add
        # in order on every interpreter, so gamma = max(|J|, |g|) is 1.0.
        jac = np.array([[1.0, 0.0], [1e-16, 1.0], [1e-16, -1.0]])
        expected = solve_direction(jac, DirectionVariant.LP_NEW)
        assert expected.gamma == 1.0
        solved = _solve_batch(np.stack([jac] * _BATCH_MIN_WIDTH), DirectionVariant.LP_NEW)
        for w in range(_BATCH_MIN_WIDTH):
            assert_same(solved, w, expected)

    def test_dropped_rows_and_non_finite_entries(self):
        # lp-new drops the rows of an all-zero Jacobian; a NaN entry sends
        # the Jacobian to solve_direction itself.
        J = np.zeros((_BATCH_MIN_WIDTH, 2, 3))
        J[1] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        J[2] = [[1.0, np.nan, 0.0], [0.0, 1.0, 0.0]]
        for variant in DirectionVariant:
            solved = _solve_batch(J, variant)
            for w, jac in enumerate(J):
                assert_same(solved, w, _outcome(jac, variant))

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("variant", list(DirectionVariant))
    def test_batched_simplex_iff_wide(self, width, variant, monkeypatch):
        # One batched simplex from _BATCH_MIN_WIDTH Jacobians on, none below.
        calls, simplex_batch = [], direction_mod._simplex_batch

        def spy(*args):
            calls.append(len(args[0]))
            return simplex_batch(*args)

        monkeypatch.setattr(direction_mod, "_simplex_batch", spy)
        J = np.random.default_rng(width).normal(size=(width, 2, 3))
        check_batch(J, variant)
        assert calls == ([width] if width >= _BATCH_MIN_WIDTH else [])
