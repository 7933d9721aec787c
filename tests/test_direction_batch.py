"""The direction step against the direction LP stated on plain lists, bit
for bit.

``direction._solve_batch`` must give every Jacobian of a batch exactly
what ``oracles.solve_direction_oracle`` gives it alone: the same p*
bytes, the same beta*, the same case, and the same failure, at every
width; from ``_BATCH_MIN_WIDTH`` on it solves them with one batched
simplex.  ``solve_direction``, the one-Jacobian case, must also give the
oracle's gamma, c_beta and dropped rows.  The Jacobians come from the
generator of the direction-LP robustness item: m = 2-3 objectives,
n = 1-5 variables, an overall scale from 1e-8 to 1e8 with each row
rescaled by up to e^+-3, and exactly opposed rows, rows parallel to
within 1e-9, zero rows and all-zero Jacobians mixed in.  The critical
results are classified on arrays, in at most three ``_simplex`` calls,
and a row's first probe that finds a direction or fails decides it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mgdkit.direction as direction_mod
from mgdkit import CriticalityCase, DirectionVariant, SolverFailure, solve_direction
from mgdkit.direction import _BATCH_MIN_WIDTH, _solve_batch
from oracles import solve_direction_oracle

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


def _solve_all(J, variant):
    """_solve_batch of J with every row of ``variant``."""
    return _solve_batch(J, np.full(len(J), variant is DirectionVariant.LP_NEW))


def _outcome(solve, jac, variant):
    try:
        return solve(jac, variant)
    except Exception as exc:
        return exc


def assert_same(solved, w, expected):
    """Row w of _solve_batch's (P, beta, cases, errors) against the oracle."""
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


def assert_same_result(result, expected):
    """solve_direction's result, or failure, against the oracle's."""
    if isinstance(expected, Exception):
        assert type(result) is type(expected)
        assert str(result) == str(expected)
        return
    assert result.p_star.tobytes() == expected.p_star.tobytes()
    assert repr(result.beta_star) == repr(expected.beta_star)
    assert result.case is expected.case
    assert result.dropped_rows == expected.dropped_rows
    assert repr(result.gamma) == repr(expected.gamma)
    assert repr(result.c_beta) == repr(expected.c_beta)


def check_batch(J, variant, rows=None):
    """Every row of the batch against the oracle, and solve_direction
    against it on ``rows`` (default: all); the failures seen."""
    solved, _ = _solve_all(J, variant)
    P, beta, cases, errors = solved
    assert P.shape == (len(J), J.shape[2]) and beta.shape == cases.shape == (len(J),)
    failures = []
    for w, jac in enumerate(J):
        expected = _outcome(solve_direction_oracle, jac, variant)
        assert_same(solved, w, expected)
        if rows is None or w in rows:
            assert_same_result(_outcome(solve_direction, jac, variant), expected)
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
                failures += check_batch(random_jacobians(rng, 200, m, n, 8.0), variant, range(20))
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
        expected = solve_direction_oracle(jac, DirectionVariant.LP_NEW)
        assert expected.gamma == 1.0
        assert_same_result(solve_direction(jac, DirectionVariant.LP_NEW), expected)
        solved, _ = _solve_all(np.stack([jac] * _BATCH_MIN_WIDTH), DirectionVariant.LP_NEW)
        for w in range(_BATCH_MIN_WIDTH):
            assert_same(solved, w, expected)

    def test_dropped_rows_and_non_finite_entries(self):
        # lp-new drops the rows of an all-zero Jacobian, which has no LP,
        # and one row of J[3], a zero row of its LP; the Jacobian with a NaN
        # entry fails alone, with a ValueError.
        J = np.zeros((_BATCH_MIN_WIDTH, 2, 3))
        J[1] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        J[2] = [[1.0, np.nan, 0.0], [0.0, 1.0, 0.0]]
        J[3] = [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        for variant in DirectionVariant:
            solved, _ = _solve_all(J, variant)
            errors = solved[3]
            assert list(errors) == [2] and type(errors[2]) is ValueError
            for w, jac in enumerate(J):
                if w != 2:
                    assert_same(solved, w, solve_direction_oracle(jac, variant))

    @pytest.mark.parametrize("variant", list(DirectionVariant))
    @pytest.mark.parametrize(
        "jac",
        [
            [[1.0, np.nan, 0.0], [0.0, 1.0, 0.0]],
            [[1.0, np.inf, 0.0], [0.0, 1.0, 0.0]],
            [[1.0, 0.0, 0.0], [0.0, -np.inf, 0.0]],
            np.zeros((0, 3)),
            np.zeros((2, 0)),
        ],
        ids=["nan", "inf", "-inf", "no-rows", "no-columns"],
    )
    def test_non_finite_and_empty_jacobians_rejected(self, jac, variant):
        # Each such Jacobian is a ValueError of its own row in a batch, and
        # solve_direction raises it; the batch's other rows are solved.
        jac = np.asarray(jac, dtype=float)
        with pytest.raises(ValueError, match="Jacobian"):
            solve_direction(jac, variant)
        J = np.stack([jac, np.full_like(jac, 2.0), jac])
        (P, beta, cases, errors), _ = _solve_all(J, variant)
        assert sorted(errors) == ([0, 1, 2] if jac.size == 0 else [0, 2])
        assert all(type(exc) is ValueError for exc in errors.values())
        if jac.size:
            assert_same((P, beta, cases, errors), 1, solve_direction_oracle(J[1], variant))

    @pytest.mark.parametrize("variant", list(DirectionVariant))
    def test_solve_direction_prepares_once(self, variant, monkeypatch):
        # gamma, c_beta and the dropped rows come from the LP's own
        # _prepare call, not from a second one.
        calls = []
        prepare = direction_mod._prepare

        def spy(J, *args):
            calls.append(len(J))
            return prepare(J, *args)

        monkeypatch.setattr(direction_mod, "_prepare", spy)
        for jac in ([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [-1.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]):
            calls.clear()
            jac = np.array(jac)
            assert_same_result(solve_direction(jac, variant), solve_direction_oracle(jac, variant))
            assert calls == [1]

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize(
        "variant, zero_rows",
        [(DirectionVariant.LP_BASE, False), (DirectionVariant.LP_NEW, False), (DirectionVariant.LP_NEW, True)],
        ids=["lp-base", "lp-new", "lp-new-dropped-rows"],
    )
    def test_batched_simplex_iff_wide(self, width, variant, zero_rows, monkeypatch):
        # One batched simplex from _BATCH_MIN_WIDTH Jacobians on and no
        # scalar one; below it a scalar simplex per Jacobian.  A row lp-new
        # drops for its norm (a zero row in every third Jacobian) keeps its
        # Jacobian in the batch.  (lp-base keeps a zero row, which makes
        # its Jacobian critical and adds a call for the cone LPs.)
        calls, core_calls = [], []
        simplex_batch, simplex_core = direction_mod._simplex_batch, direction_mod._simplex_core

        def spy(*args):
            calls.append(len(args[0]))
            return simplex_batch(*args)

        def core_spy(*args):
            core_calls.append(len(args[0]))
            return simplex_core(*args)

        monkeypatch.setattr(direction_mod, "_simplex_batch", spy)
        monkeypatch.setattr(direction_mod, "_simplex_core", core_spy)
        J = np.random.default_rng(width).normal(size=(width, 2, 3))
        if zero_rows:
            J[::3, 0] = 0.0
        check_batch(J, variant, rows=())
        wide = width >= _BATCH_MIN_WIDTH
        assert calls == ([width] if wide else [])
        assert len(core_calls) == (0 if wide else width)


# A zero vertex with the {0} cone: p0 + p1 <= 0, p0 >= 0 and p1 >= 0 leave
# only p = 0, so every probe finds 0 and the Jacobian is critical-zero-only.
ZERO_ONLY_JAC = [[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
# A generated Jacobian whose lp-base LP returns p* = 0 at a cone with
# perpendicular directions: its probe +e_0 finds 0 and -e_0 finds -1.
PERPENDICULAR_JAC = [
    [3.362646795799128e-07, -1.1017789521132064e-06],
    [-6.496524385715884e-08, 2.1286011480640547e-07],
    [-1.0375328336669421e-09, 2.2154004914304926e-09],
]


class TestClassificationOnArrays:
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("variant", list(DirectionVariant))
    def test_at_most_three_simplex_calls(self, width, variant, monkeypatch):
        # One call for the direction LPs, one for lp-base's cone LPs and
        # one for the coordinate probes, whatever the width: every fourth
        # Jacobian, J[0] included, is at a zero vertex, so each call is made.
        calls = []
        simplex = direction_mod._simplex

        def spy(*args):
            calls.append(len(args[0]))
            return simplex(*args)

        monkeypatch.setattr(direction_mod, "_simplex", spy)
        J = random_jacobians(np.random.default_rng(width), width, 3, 2, 0.0)
        J[::4] = ZERO_ONLY_JAC
        check_batch(J, variant, rows=())
        assert len(calls) == (3 if variant is DirectionVariant.LP_BASE else 2)

    @pytest.mark.parametrize(
        "failing, expected",
        [
            # Row 0's probe -e_0 (LP 1) decides before its failing +e_1;
            # row 1 finds nothing before its failing -e_0 (LP 5).
            ({2, 5}, [CriticalityCase.CRITICAL_PERPENDICULAR, "failure 5"]),
            # Row 0's failing +e_0 comes before its deciding -e_0.
            ({0, 7}, ["failure 0", "failure 7"]),
            (set(), [CriticalityCase.CRITICAL_PERPENDICULAR, CriticalityCase.CRITICAL_ZERO_ONLY]),
        ],
    )
    def test_first_deciding_probe(self, failing, expected, monkeypatch):
        # The 2n = 4 probes of each zero-vertex row are LPs 4*row + 0..3 of
        # one call, in the order +e_0, -e_0, +e_1, -e_1; a row's first
        # probe that finds a direction or fails decides it.
        J = np.array([PERPENDICULAR_JAC, ZERO_ONLY_JAC])
        simplex = direction_mod._simplex
        probes = np.tile([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], (2, 1))

        def inject(cs, As, bs):
            Y, failures = simplex(cs, As, bs)
            if np.array_equal(cs, probes):
                failures.update({k: SolverFailure(f"failure {k}") for k in failing})
            return Y, failures

        monkeypatch.setattr(direction_mod, "_simplex", inject)
        (P, beta, cases, errors), _ = _solve_all(J, DirectionVariant.LP_BASE)
        assert not np.abs(P).max() > direction_mod.TOL_ZERO_DIR
        for w, case in enumerate(expected):
            if isinstance(case, str):
                assert str(errors[w]) == case and cases[w] is None
            else:
                assert w not in errors and cases[w] is case


def assert_same_row(solved, w, alone, i):
    """Row w of one _solve_batch result against row i of another, bit for bit."""
    P, beta, cases, errors = solved
    P1, beta1, cases1, errors1 = alone
    if i in errors1:
        assert type(errors[w]) is type(errors1[i]) and str(errors[w]) == str(errors1[i])
        return
    assert w not in errors, errors[w]
    assert P[w].tobytes() == P1[i].tobytes()
    assert repr(float(beta[w])) == repr(float(beta1[i]))
    assert cases[w] is cases1[i]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestMixedVariants:
    def test_mixed_batch_equals_one_variant_calls(self, monkeypatch):
        # A batch whose rows each take lp-base's LP or lp-new's gives every
        # row what the one-variant call on the rows of its kind gives it,
        # bit for bit, at widths 1-40 (across _BATCH_MIN_WIDTH), in at most
        # three _simplex calls.  Every fourth Jacobian is at a zero vertex,
        # so lp-base rows need cone LPs and rows of both kinds need probes;
        # the batches of 16 rows and more solve their LPs in one batched
        # simplex, and the one-variant calls below that width do not.
        calls = []
        simplex = direction_mod._simplex

        def spy(*args):
            calls.append(len(args[0]))
            return simplex(*args)

        monkeypatch.setattr(direction_mod, "_simplex", spy)
        three_calls = 0
        for width in range(1, 41):
            rng = np.random.default_rng(width)
            J = random_jacobians(rng, width, 3, 2, rng.uniform(-4.0, 4.0))
            J[::4] = ZERO_ONLY_JAC
            J[2::4] = PERPENDICULAR_JAC
            new = rng.random(width) < 0.5
            calls.clear()
            mixed, _ = _solve_batch(J, new)
            assert len(calls) <= 3
            three_calls += len(calls) == 3
            for variant, rows in ((DirectionVariant.LP_NEW, np.flatnonzero(new)),
                                  (DirectionVariant.LP_BASE, np.flatnonzero(~new))):
                if rows.size:
                    alone, _ = _solve_all(J[rows], variant)
                    for i, w in enumerate(rows.tolist()):
                        assert_same_row(mixed, w, alone, i)
        assert three_calls > 20
