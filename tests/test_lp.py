"""Tests for the bounded-variable LP solver and its enumeration oracle,
and for the batched simplex against the scalar one."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgdkit import LpResult, LpSpec, LpStatus, SolverFailure, solve_lp
from mgdkit.lp import _simplex_batch, _simplex_core
from oracles import OracleInfeasible, enumerate_vertices_oracle

INF = np.inf


def _spec(c, A, b, lower, upper):
    return LpSpec(
        c=np.asarray(c, dtype=float),
        A=np.asarray(A, dtype=float).reshape(len(b), len(c)),
        b=np.asarray(b, dtype=float),
        lower=np.asarray(lower, dtype=float),
        upper=np.asarray(upper, dtype=float),
    )


def _check_result(spec: LpSpec, res: LpResult):
    assert res.status is LpStatus.OPTIMAL
    assert np.all(spec.A @ res.rho <= spec.b + 1e-8)
    assert np.all(spec.lower - 1e-8 <= res.rho)
    assert np.all(res.rho <= spec.upper + 1e-8)
    assert res.objective_value == pytest.approx(float(spec.c @ res.rho), abs=1e-9)


class TestSolveLpExamples:
    def test_single_variable_upper_corner(self):
        spec = _spec([-1.0], [[1.0]], [1.0], [0.0], [2.0])
        res = solve_lp(spec)
        _check_result(spec, res)
        assert res.rho == pytest.approx([1.0], abs=1e-9)
        assert res.objective_value == pytest.approx(-1.0, abs=1e-9)

    def test_box_only_corner(self):
        spec = _spec([1.0, 1.0], np.empty((0, 2)), [], [-1.0, -1.0], [1.0, 1.0])
        res = solve_lp(spec)
        _check_result(spec, res)
        assert res.rho == pytest.approx([-1.0, -1.0], abs=1e-9)
        assert res.objective_value == pytest.approx(-2.0, abs=1e-9)

    def test_absolute_value_epigraph(self):
        # min beta s.t. p <= beta, -p <= beta, p in [-1, 1], beta <= 0.
        spec = _spec(
            [0.0, 1.0],
            [[1.0, -1.0], [-1.0, -1.0]],
            [0.0, 0.0],
            [-1.0, -INF],
            [1.0, 0.0],
        )
        res = solve_lp(spec)
        assert res.status is LpStatus.OPTIMAL
        assert res.objective_value == pytest.approx(0.0, abs=1e-9)
        # Cross-check against the oracle (finite surrogate for the open bound).
        bounded = _spec(
            spec.c, spec.A, spec.b, [-1.0, -10.0], [1.0, 0.0]
        )
        assert enumerate_vertices_oracle(bounded) == pytest.approx(0.0, abs=1e-9)

    def test_infeasible_status(self):
        spec = _spec([1.0], [[1.0]], [-1.0], [1.0], [2.0])
        assert solve_lp(spec).status is LpStatus.INFEASIBLE

    def test_unbounded_status(self):
        spec = _spec([1.0], np.empty((0, 1)), [], [-INF], [0.0])
        assert solve_lp(spec).status is LpStatus.UNBOUNDED

    @pytest.mark.parametrize(
        "c, lower, upper, rho",
        [
            ([1.0, -2.0], [-1.5, -INF], [INF, 3.0], [-1.5, 3.0]),  # one-sided bounds
            ([0.0, 2.0], [-INF, 0.5], [INF, INF], [0.0, 0.5]),  # a free variable, no cost
        ],
    )
    def test_no_rows_optimal(self, c, lower, upper, rho):
        # No constraint rows and no two-sided bound: the simplex runs with
        # an empty tableau and returns the bounds the costs push toward.
        spec = _spec(c, np.empty((0, 2)), [], lower, upper)
        res = solve_lp(spec)
        _check_result(spec, res)
        assert res.rho.tolist() == rho
        assert res.objective_value == float(np.dot(c, rho))

    @pytest.mark.parametrize(
        "c, lower, upper",
        [
            ([-1.0, 0.0], [0.0, -INF], [INF, 0.0]),  # cost pushes past the open upper side
            ([0.0, 1.0], [-INF, -INF], [INF, INF]),  # a free variable with a cost
            ([1e-3, 1.0], [-INF, 2.0], [4.0, INF]),  # a positive cost on the open lower side
        ],
    )
    def test_no_rows_unbounded(self, c, lower, upper):
        spec = _spec(c, np.empty((0, 2)), [], lower, upper)
        assert solve_lp(spec).status is LpStatus.UNBOUNDED

    def test_determinism(self):
        rng = np.random.Generator(np.random.Philox(3))
        spec = _spec(
            rng.normal(size=3),
            rng.normal(size=(4, 3)),
            rng.normal(size=4) + 2.0,
            [-2.0] * 3,
            [2.0] * 3,
        )
        first = solve_lp(spec)
        for _ in range(5):
            again = solve_lp(spec)
            assert again.rho.tobytes() == first.rho.tobytes()


class TestOracle:
    def test_oracle_matches_named_examples(self):
        cases = [
            _spec([-1.0], [[1.0]], [1.0], [0.0], [2.0]),
            _spec([1.0, 1.0], np.empty((0, 2)), [], [-1.0, -1.0], [1.0, 1.0]),
            _spec([0.0], np.empty((0, 1)), [], [0.0], [1.0]),
        ]
        for spec in cases:
            res = solve_lp(spec)
            assert res.objective_value == pytest.approx(
                enumerate_vertices_oracle(spec), abs=1e-9
            )

    def test_oracle_infeasible(self):
        spec = _spec([0.0, 1.0], [[1.0, 0.0]], [-1.0], [1.0, 0.0], [2.0, 1.0])
        with pytest.raises(OracleInfeasible):
            enumerate_vertices_oracle(spec)

    def test_oracle_size_limits(self):
        with pytest.raises(ValueError):
            enumerate_vertices_oracle(
                _spec([0.0] * 7, np.empty((0, 7)), [], [0.0] * 7, [1.0] * 7)
            )

    def test_oracle_requires_finite_bounds(self):
        with pytest.raises(ValueError):
            enumerate_vertices_oracle(
                _spec([1.0], np.empty((0, 1)), [], [-INF], [1.0])
            )


class TestSpecValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            LpSpec(
                c=np.array([1.0, 2.0]),
                A=np.ones((1, 2)),
                b=np.array([1.0]),
                lower=np.array([0.0]),
                upper=np.array([1.0]),
            )

    def test_bound_ordering(self):
        with pytest.raises(ValueError):
            _spec([1.0], np.empty((0, 1)), [], [2.0], [1.0])

    def test_nan_bounds(self):
        # NaN passes the ordering check; +-inf bounds stay allowed.
        for lower, upper in (([np.nan], [INF]), ([-INF], [np.nan])):
            with pytest.raises(ValueError, match="NaN"):
                _spec([1.0], [[1.0]], [5.0], lower, upper)
        assert solve_lp(_spec([1.0], [[1.0]], [5.0], [-INF], [INF])).status is LpStatus.UNBOUNDED

    def test_nonfinite_objective(self):
        with pytest.raises(ValueError):
            _spec([np.nan], np.empty((0, 1)), [], [0.0], [1.0])


def _random_spec(rng) -> LpSpec:
    d = int(rng.integers(1, 5))
    r = int(rng.integers(0, 7))
    lower = rng.uniform(-5.0, 4.0, size=d)
    upper = lower + rng.uniform(0.0, 5.0 - np.maximum(lower, 0) * 0, size=d)
    upper = np.minimum(upper, 5.0)
    return _spec(
        rng.normal(size=d),
        rng.normal(size=(r, d)),
        rng.normal(size=r),
        lower,
        upper,
    )


def test_random_lps_match_oracle():
    # 200 seeded random LPs: solver value equals the enumeration oracle
    # within 1e-8, or both report infeasibility.
    rng = np.random.Generator(np.random.Philox(2024))
    checked = 0
    while checked < 200:
        spec = _random_spec(rng)
        res = solve_lp(spec)
        try:
            oracle_value = enumerate_vertices_oracle(spec)
        except OracleInfeasible:
            assert res.status is LpStatus.INFEASIBLE
            checked += 1
            continue
        assert res.status is LpStatus.OPTIMAL
        assert res.objective_value == pytest.approx(oracle_value, abs=1e-8)
        _check_result(spec, res)
        checked += 1


LP_KINDS = ("plain", "integer", "feasible", "phase-1", "infeasible", "unbounded")


def random_standard_lps(rng, width, nrows, nvars):
    """``width`` standard-form LPs (cs, As, bs) of one shape, each of a
    random kind: normal data; small integers, whose ties and degenerate
    vertices send the ratio test through Bland's rule; a positive system
    with y = 0 feasible (no phase 1); one with a >= row, which needs
    phase 1; a nonnegative row with a negative right-hand side
    (infeasible); and a column that a negative cost may grow without
    bound (unbounded)."""
    cs = rng.normal(size=(width, nvars))
    As = rng.normal(size=(width, nrows, nvars))
    bs = rng.normal(size=(width, nrows))
    for c, A, b, kind in zip(cs, As, bs, rng.choice(LP_KINDS, size=width)):
        if kind == "integer":
            c[:], A[:], b[:] = (rng.integers(-3, 4, size=x.shape) for x in (c, A, b))
        elif kind in ("feasible", "phase-1"):
            A[:], b[:] = np.abs(A) + 0.1, np.abs(b) + 1.0
            if kind == "phase-1":
                A[0], b[0] = -A[0], -0.5 * b[0] / nvars
        elif kind == "infeasible":
            A[0], b[0] = np.abs(A[0]), -np.abs(b[0]) - 1.0
        elif kind == "unbounded":
            c[0], A[:, 0], b[:] = -1.0 - abs(c[0]), -np.abs(A[:, 0]), np.abs(b)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size=(width, 1))
    return cs * scale, As * scale[:, :, None], bs * scale


def _core_outcome(c, A, b):
    try:
        return _simplex_core(c.tolist(), A.tolist(), b.tolist())
    except SolverFailure as exc:
        return exc, None


def check_batched_simplex(cs, As, bs):
    """Each LP of one _simplex_batch call against _simplex_core alone: the
    bytes of y where optimal, else the same status or SolverFailure
    message.  Returns the outcomes seen."""
    Y, outcomes = _simplex_batch(cs, As, bs)
    assert Y.shape == cs.shape
    seen = []
    for w in range(len(cs)):
        status, y = _core_outcome(cs[w], As[w], bs[w])
        if status is LpStatus.OPTIMAL:
            assert w not in outcomes, outcomes[w]
            assert Y[w].tobytes() == np.array(y).tobytes()
        elif isinstance(status, SolverFailure):
            assert type(outcomes[w]) is SolverFailure
            assert str(outcomes[w]) == str(status)
        else:
            assert outcomes[w] is status
        seen.append(status if isinstance(status, LpStatus) else type(status))
    return seen


def with_signed_zeros(rng, cs, As, bs):
    """The LPs with about a third of the entries of As and bs set to 0.0 or
    -0.0, and in each LP of two rows or more one row twice another, so that
    a pivot on either can bring the other's right-hand side to a zero."""
    W, nrows, nvars = As.shape
    As, bs = As.copy(), bs.copy()
    for x in (As, bs):
        hit = rng.random(x.shape) < 1 / 3
        x[hit] = rng.choice([0.0, -0.0], size=np.count_nonzero(hit))
    if nrows > 1:
        for A, b in zip(As, bs):
            r, k = rng.choice(nrows, size=2, replace=False)
            A[k], b[k] = 2.0 * A[r], 2.0 * b[r]
    return cs, As, bs


class TestBatchedSimplexEqualsScalar:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        width=st.sampled_from((1, 2, 16, 60)),
        nrows=st.integers(1, 7),
        nvars=st.integers(1, 6),
    )
    def test_random_batches(self, seed, width, nrows, nvars):
        check_batched_simplex(*random_standard_lps(np.random.default_rng(seed), width, nrows, nvars))

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        width=st.sampled_from((1, 2, 16, 60)),
        nrows=st.integers(1, 7),
        nvars=st.integers(1, 6),
    )
    def test_signed_zeros(self, seed, width, nrows, nvars):
        # The scalar pivot skips the columns where the scaled pivot row is
        # zero but always updates the RHS, so every y, its zero signs
        # included, stays the batch's.
        rng = np.random.default_rng(seed)
        check_batched_simplex(*with_signed_zeros(rng, *random_standard_lps(rng, width, nrows, nvars)))

    def test_every_outcome_seen(self):
        # The generator reaches optimal LPs with and without phase 1,
        # infeasible and unbounded ones, in one batch.
        rng = np.random.default_rng(3)
        cs, As, bs = random_standard_lps(rng, 200, 4, 3)
        seen = check_batched_simplex(cs, As, bs)
        assert {LpStatus.OPTIMAL, LpStatus.INFEASIBLE, LpStatus.UNBOUNDED} <= set(seen)
        optimal = np.array([s is LpStatus.OPTIMAL for s in seen])
        assert (optimal & (bs < 0).any(axis=1)).any()


def with_zero_rows(rng, cs, As, bs):
    """The LPs with an all-zero row of right-hand side 0 inserted, each at
    a random position of its own."""
    W, nrows, nvars = As.shape
    At, bt = np.zeros((W, nrows + 1, nvars)), np.zeros((W, nrows + 1))
    for w, i in enumerate(rng.integers(0, nrows + 1, size=W)):
        At[w] = np.insert(As[w], i, 0.0, axis=0)
        bt[w] = np.insert(bs[w], i, 0.0)
    return cs, At, bt


class TestZeroRows:
    # A zero row with a zero right-hand side reads 0 <= 0: it gets no
    # artificial, no ratio test picks it and no pivot changes it, so both
    # simplexes give what they give without it, to the bit.
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        width=st.sampled_from((1, 16, 60)),
        nrows=st.integers(1, 6),
        nvars=st.integers(1, 5),
    )
    def test_zero_row_changes_nothing(self, seed, width, nrows, nvars):
        rng = np.random.default_rng(seed)
        lps = random_standard_lps(rng, width, nrows, nvars)
        zero = with_zero_rows(rng, *lps)
        Y, outcomes = _simplex_batch(*lps)
        Yz, outcomes_z = _simplex_batch(*zero)
        assert {w: (type(o), str(o)) for w, o in outcomes_z.items()} == {
            w: (type(o), str(o)) for w, o in outcomes.items()
        }
        optimal = [w for w in range(width) if w not in outcomes]
        assert Yz[optimal].tobytes() == Y[optimal].tobytes()
        for w in range(width):
            status, y = _core_outcome(*(x[w] for x in lps))
            status_z, y_z = _core_outcome(*(x[w] for x in zero))
            assert type(status_z) is type(status) and str(status_z) == str(status)
            assert np.array(y_z).tobytes() == np.array(y).tobytes()
