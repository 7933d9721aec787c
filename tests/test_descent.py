"""Tests for backtracking line search and the descent loops."""

import dataclasses
import itertools

import numpy as np
import pytest

from mgdkit import (
    PROBLEMS,
    BacktrackParams,
    BacktrackVariant,
    CriticalityCase,
    DirectionConfig,
    DirectionVariant,
    EvaluationError,
    Problem,
    Termination,
    backtrack,
    dominates,
    evaluate,
    get_problem,
    run_mgd,
    sample_starts,
    solve_direction,
    StartSampler,
)
import mgdkit.descent as descent_mod
from mgdkit.descent import TraceRecord, _lockstep
from mgdkit.direction import _BATCH_MIN_WIDTH, _solve_batch
from mgdkit.problems import _point_evaluator
from oracles import SegmentKind, classify_subsequences, run_mgd_oracle

LP_NEW = DirectionConfig(variant=DirectionVariant.LP_NEW)
LP_BASE = DirectionConfig(variant=DirectionVariant.LP_BASE)


def _toy_problem(name, n, m, f_batch, jac_batch, box, K):
    """A problem stated in its kernels, its evaluator row 0 of a one-row batch."""
    return Problem(
        name=name,
        n=n,
        m=m,
        evaluator=_point_evaluator(f_batch, jac_batch),
        domain_box=np.tile(box, (n, 1)),
        default_max_iters=K,
        f_batch=f_batch,
        jac_batch=jac_batch,
    )


def _problem_1d_pair():
    # f1 = x^2, f2 = (x - 2)^2 on the line.
    return _toy_problem(
        "quadratic-pair", 1, 2,
        lambda X: np.hstack([X**2, (X - 2.0) ** 2]),
        lambda X: np.stack([2.0 * X, 2.0 * (X - 2.0)], axis=1),
        [-5.0, 5.0], 100,
    )


def _problem_single_quadratic():
    return _toy_problem(
        "single-quadratic", 2, 1,
        lambda X: np.vecdot(X, X)[:, None],
        lambda X: (2.0 * X)[:, None, :],
        [-2.0, 2.0], 200,
    )


def _problem_opposed_linear():
    # f1 = x1, f2 = -x1: every point is critical with opposed gradients.
    return _toy_problem(
        "opposed-linear", 2, 2,
        lambda X: np.column_stack([X[:, 0], -X[:, 0]]),
        lambda X: np.broadcast_to([[1.0, 0.0], [-1.0, 0.0]], (len(X), 2, 2)),
        [-1.0, 1.0], 50,
    )


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            BacktrackParams(c1=0.0)
        with pytest.raises(ValueError):
            BacktrackParams(alpha=1.0)
        with pytest.raises(ValueError):
            BacktrackParams(eta0=0.0)
        with pytest.raises(ValueError):
            BacktrackParams(theta=0)
        for eta_hat in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError):
                BacktrackParams(eta_hat=eta_hat)

    def test_theta_must_be_an_integer(self):
        # A float theta would build a ladder of ceil(theta) steps but a
        # fallback step of alpha**theta; numpy integers are integers.
        for theta in (2.5, 3.0, "3", None):
            with pytest.raises(ValueError, match="theta"):
                BacktrackParams(theta=theta)
        params = BacktrackParams(alpha=0.5, theta=np.int64(3))
        assert params._ladder.tolist() == [1.0, 0.5, 0.25]
        assert params.fallback_step == 0.125

    def test_fallback_default(self):
        params = BacktrackParams(eta0=1.0, alpha=0.8, theta=40)
        assert params.fallback_step == pytest.approx(0.8**40)
        assert BacktrackParams(eta_hat=0.0).fallback_step == 0.0


def _one_step(eta, c1=0.1):
    """Backtracking whose ladder is the single step ``eta``."""
    return BacktrackParams(c1=c1, eta0=eta, theta=1)


class TestArmijo:
    # f = x^2 at x = 1 with p = -2: the slope is -4.
    def test_quarter_step_passes(self):
        prob = _problem_single_quadratic()
        ev = evaluate(prob, np.array([1.0, 0.0]))
        p = np.array([-2.0, 0.0])
        eta, _, satisfied = backtrack(prob, ev, p, _one_step(0.25))
        assert satisfied  # f = 0.25 <= 1 - 0.25 * 0.1 * 4
        assert eta == 0.25

    def test_full_step_fails(self):
        prob = _problem_single_quadratic()
        ev = evaluate(prob, np.array([1.0, 0.0]))
        p = np.array([-2.0, 0.0])
        params = _one_step(1.0)
        eta, _, satisfied = backtrack(prob, ev, p, params)
        assert not satisfied  # f = 1 > 1 - 1.0 * 0.1 * 4
        assert eta == params.fallback_step

    def test_small_steps_pass_for_descent_directions(self):
        prob = _problem_1d_pair()
        ev = evaluate(prob, np.array([3.0]))
        p = np.array([-1.0])  # descent for both objectives at x=3
        for eta in (1e-3, 1e-5, 1e-8):
            step, _, satisfied = backtrack(prob, ev, p, _one_step(eta))
            assert satisfied
            assert step == eta

    def test_eta_must_be_positive(self):
        with pytest.raises(ValueError):
            _one_step(0.0)
        with pytest.raises(ValueError):
            _one_step(-0.25)


class TestBacktrack:
    def test_ladder_hits_seventh_step(self):
        prob = _problem_1d_pair()
        ev = evaluate(prob, np.array([3.0]))
        d = solve_direction(ev.jac, DirectionVariant.LP_NEW)
        assert d.p_star == pytest.approx([-8.0], abs=1e-8)
        params = BacktrackParams(c1=1e-9, alpha=0.8, eta0=1.0, theta=40)
        eta, x_new, satisfied = backtrack(prob, ev, d.p_star, params)
        assert satisfied
        assert eta == pytest.approx(0.8**7)
        assert x_new == pytest.approx(ev.x + eta * d.p_star)
        # Cross-check against a direct scan over the ladder.
        slopes = ev.jac @ d.p_star
        for t in range(40):
            cand = 1.0 * 0.8**t
            f_new, _ = prob.evaluator(ev.x + cand * d.p_star)
            if np.all(f_new <= ev.f + 1e-9 * cand * slopes):
                assert cand == pytest.approx(eta)
                break

    def test_descent_direction_always_satisfiable(self):
        prob = _problem_single_quadratic()
        ev = evaluate(prob, np.array([1.0, -0.5]))
        _, _, satisfied = backtrack(
            prob, ev, -ev.jac[0], BacktrackParams(theta=60)
        )
        assert satisfied

    def test_zero_direction_returns_full_step(self):
        prob = _problem_1d_pair()
        ev = evaluate(prob, np.array([3.0]))
        eta, x_new, satisfied = backtrack(
            prob, ev, np.zeros(1), BacktrackParams()
        )
        assert satisfied
        assert eta == pytest.approx(1.0)
        assert x_new == pytest.approx(ev.x)


def _kursawe_starts(count, seed=5):
    prob = get_problem("kursawe")
    return prob, sample_starts(StartSampler(prob.domain_box, count, seed))


class TestRunMgd:
    def test_single_objective_is_gradient_descent(self):
        prob = _problem_single_quadratic()
        res = run_mgd(
            prob,
            np.array([1.0, 0.0]),
            BacktrackParams(variant=BacktrackVariant.BT_NEW),
            LP_NEW,
            K=100,
        )
        values = [rec.f[0] for rec in res.trace] + [res.f_hat[0]]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert res.f_hat[0] < 1e-4

    def test_opposed_linear_drifts_along_null_direction(self):
        # Every point is critical with the feasible cone perpendicular to
        # both gradients, so the sequence may move only along directions on
        # which every objective is constant.
        prob = _problem_opposed_linear()
        for variant in BacktrackVariant:
            res = run_mgd(
                prob,
                np.array([0.3, -0.2]),
                BacktrackParams(variant=variant),
                LP_NEW,
                K=50,
            )
            assert res.x_hat[0] == pytest.approx(0.3)
            assert res.f_hat == pytest.approx([0.3, -0.3])
            for rec in res.trace:
                assert rec.critical_case is CriticalityCase.CRITICAL_PERPENDICULAR
                assert rec.f == pytest.approx([0.3, -0.3])

    def test_base_traces_strictly_decrease(self):
        prob, starts = _kursawe_starts(10)
        params = BacktrackParams(variant=BacktrackVariant.BT_BASE)
        for x0 in starts:
            res = run_mgd(prob, x0, params, LP_NEW, K=300)
            fs = [rec.f for rec in res.trace if rec.eta > 0] + [res.f_hat]
            for fa, fb in zip(fs, fs[1:]):
                if np.array_equal(fa, fb):
                    continue
                assert np.all(fb <= fa)
                assert np.any(fb < fa)

    def test_new_steps_never_dominated_by_predecessor(self):
        prob, starts = _kursawe_starts(10, seed=6)
        params = BacktrackParams(variant=BacktrackVariant.BT_NEW)
        for x0 in starts:
            res = run_mgd(prob, x0, params, LP_NEW, K=300)
            fs = [rec.f for rec in res.trace if rec.eta > 0] + [res.f_hat]
            for fa, fb in zip(fs, fs[1:]):
                assert not dominates(fa, fb)

    def test_zero_fallback_matches_base_points(self):
        # With the fallback step forced to zero, the non-domination strategy
        # visits exactly the distinct points of the strict-decrease strategy.
        prob, starts = _kursawe_starts(20, seed=7)
        for x0 in starts:
            base = run_mgd(
                prob,
                x0,
                BacktrackParams(variant=BacktrackVariant.BT_BASE),
                LP_NEW,
                K=300,
            )
            new = run_mgd(
                prob,
                x0,
                BacktrackParams(variant=BacktrackVariant.BT_NEW, eta_hat=0.0),
                LP_NEW,
                K=300,
            )
            pts_base = {tuple(rec.x) for rec in base.trace} | {tuple(base.x_hat)}
            pts_new = {tuple(rec.x) for rec in new.trace} | {tuple(new.x_hat)}
            assert pts_base == pts_new

    def test_stored_set_is_antichain(self):
        prob, starts = _kursawe_starts(10, seed=8)
        params = BacktrackParams(variant=BacktrackVariant.BT_NEW)
        for x0 in starts:
            res = run_mgd(prob, x0, params, LP_NEW, K=500)
            assert res.stored_x.shape == (len(res.stored_f), prob.n)
            assert res.stored_f.shape == (len(res.stored_x), prob.m)
            fs = list(res.stored_f)
            for i, fa in enumerate(fs):
                for j, fb in enumerate(fs):
                    if i != j:
                        assert not dominates(fa, fb)
                assert not dominates(res.f_hat, fa)

    def test_final_points_critical_on_smooth_problem(self):
        prob = get_problem("fonseca-fleming")
        starts = sample_starts(StartSampler(prob.domain_box, 20, 9))
        params = BacktrackParams(variant=BacktrackVariant.BT_NEW)
        bound = 1.0 / np.sqrt(3.0) + 0.05
        for x0 in starts:
            res = run_mgd(prob, x0, params, LP_NEW, K=250)
            # Terminal point is critical under the raw-gradient LP, up to
            # the spatial resolution of the fallback step: once the sequence
            # is within one fallback step of the critical set, iterates
            # oscillate around it at that scale and the residual optimum is
            # proportional to the remaining distance.
            ev = evaluate(prob, res.x_hat)
            d = solve_direction(ev.jac, DirectionVariant.LP_BASE)
            assert abs(d.beta_star) <= 10.0 * params.fallback_step
            # And it lies on the equal-coordinates optimal segment.
            x = res.x_hat
            assert np.max(np.abs(x[:, None] - x[None, :])) <= 0.05
            assert np.all(np.abs(x) <= bound)

    def test_used_up_budget_counts_every_step(self):
        # A run that takes all K steps reports K iterations, not K - 1.
        prob = get_problem("fonseca-fleming")
        x0 = np.array([1.5, -1.0, 0.3])
        params = BacktrackParams(variant=BacktrackVariant.BT_NEW)
        one = run_mgd(prob, x0, params, LP_NEW, K=1)
        assert one.termination is Termination.MAX_ITERS
        assert not np.array_equal(one.x_hat, x0)
        assert one.iterations == 1
        many = run_mgd(prob, x0, params, LP_NEW, K=5)
        assert many.termination is Termination.MAX_ITERS
        assert many.iterations == len(many.trace) == 5

    def test_invalid_budget(self):
        prob = _problem_single_quadratic()
        with pytest.raises(ValueError):
            run_mgd(prob, np.zeros(2), BacktrackParams(), LP_NEW, K=0)
        # A non-integer budget would fail late, in range().
        for K in (2.5, 2.0):
            with pytest.raises(ValueError, match="K must be an integer"):
                run_mgd(prob, np.zeros(2), BacktrackParams(), LP_NEW, K=K)
        assert run_mgd(prob, np.zeros(2), BacktrackParams(), LP_NEW, K=np.int64(2)).iterations <= 2

    def test_failed_run_keeps_error_type_and_attributes(self):
        # Objective 1 turns non-finite once the run passes x = 3: the run
        # ends with evaluate's EvaluationError naming it, the iteration
        # prefixed to its message, here and in the one-start oracle.
        base = _problem_1d_pair()

        def f_batch(X):
            F = base.f_batch(X)
            F[X[:, 0] < 3.0, 1] = np.nan
            return F

        problem = dataclasses.replace(
            base, evaluator=_point_evaluator(f_batch, base.jac_batch), f_batch=f_batch
        )
        params = BacktrackParams(variant=BacktrackVariant.BT_NEW)
        errors = []
        for run in (run_mgd, run_mgd_oracle):
            with pytest.raises(EvaluationError) as info:
                run(problem, np.array([4.0]), params, LP_NEW)
            errors.append(info.value)
        got, expected = errors
        assert got.objective_index == expected.objective_index == 1
        assert str(got) == str(expected)
        assert str(got).startswith("iteration ") and not str(got).startswith("iteration 0:")


def assert_record_types(rec):
    """A TraceRecord's scalar fields hold Python scalars and a case."""
    assert type(rec.k) is int and type(rec.beta_star) is float and type(rec.eta) is float
    assert type(rec.armijo_satisfied) is bool
    assert isinstance(rec.critical_case, CriticalityCase)


def assert_same_run(got, expected):
    """Every RunResult field, each TraceRecord included, exactly equal: the
    arrays byte for byte (so -0.0 is not 0.0 and no dtype changes), the
    scalars of the same Python types."""
    assert got.termination is expected.termination
    assert got.iterations == expected.iterations
    for name in ("x_hat", "f_hat", "stored_x", "stored_f"):
        a, b = getattr(got, name), getattr(expected, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert len(got.trace) == len(expected.trace)
    for a, b in zip(got.trace, expected.trace):
        assert_record_types(a)
        for name in ("x", "f", "p_star"):
            u, v = getattr(a, name), getattr(b, name)
            assert (u.dtype, u.shape, u.tobytes()) == (v.dtype, v.shape, v.tobytes()), name
        for name in ("k", "beta_star", "eta", "armijo_satisfied", "critical_case"):
            assert getattr(a, name) == getattr(b, name), name


def _lockstep_of(prob, X0, params, cfg, K, record_trace=True):
    """One lockstep of the rows of X0, all with the variants of ``params``
    and ``cfg``: one outcome per row."""
    lp_new = np.full(len(X0), cfg.variant is DirectionVariant.LP_NEW)
    outcomes = _lockstep(prob, X0, lp_new, params, cfg.epsilon, (params.variant,), K, record_trace)
    assert list(outcomes) == [params.variant]
    return outcomes[params.variant]


class TestLockstep:
    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_matches_one_start_oracle(self, name):
        # 12 starts advanced together give, run for run, what each start
        # gives alone.  At K = 40 every termination kind occurs, so runs
        # leave the batch at different iterations.
        prob = get_problem(name)
        starts = sample_starts(StartSampler(prob.domain_box, 12, 3))
        backtrackings = [
            dict(variant=BacktrackVariant.BT_BASE),
            dict(variant=BacktrackVariant.BT_NEW),
            dict(variant=BacktrackVariant.BT_NEW, eta_hat=0.0),
        ]
        seen = set()
        for bt, cfg, record in itertools.product(backtrackings, (LP_BASE, LP_NEW), (True, False)):
            params = BacktrackParams(**bt)
            runs = _lockstep_of(prob, starts, params, cfg, 40, record)
            assert len(runs) == len(starts)
            for x0, run in zip(starts, runs):
                expected = run_mgd_oracle(prob, x0, params, cfg, K=40, record_trace=record)
                assert_same_run(run, expected)
                seen.add(run.termination)
        assert seen == set(Termination)

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_batched_lp_matches_one_start_oracle(self, name, monkeypatch):
        # With _BATCH_MIN_WIDTH + 1 starts the direction LPs go through the
        # batched simplex until runs leave the batch, and through the scalar
        # solver after; each run still equals the one-start oracle, which
        # solves every LP by itself.
        widths, all_widths, zero_steps = [], [], 0

        def spy(J, *args):
            widths.append(len(J))
            return _solve_batch(J, *args)

        monkeypatch.setattr(descent_mod, "_solve_batch", spy)
        prob = get_problem(name)
        starts = sample_starts(StartSampler(prob.domain_box, _BATCH_MIN_WIDTH + 1, 5))
        for bt, cfg in itertools.product(BacktrackVariant, (LP_BASE, LP_NEW)):
            params = BacktrackParams(variant=bt)
            widths.clear()
            runs = _lockstep_of(prob, starts, params, cfg, 12)
            # One direction call per iteration, for the runs live at it: a
            # run has one trace record per iteration it was live.
            live = [sum(len(run.trace) > k for run in runs) for k in range(12)]
            assert widths == [w for w in live if w]
            all_widths += widths
            for x0, run in zip(starts, runs):
                # Every record, the zero-step ones that a stopped run logs too.
                for rec in run.trace:
                    assert_record_types(rec)
                    zero_steps += rec.eta == 0.0
                assert_same_run(run, run_mgd_oracle(prob, x0, params, cfg, K=12))
        assert min(all_widths) < _BATCH_MIN_WIDTH <= max(all_widths)
        assert zero_steps

    def test_runs_storing_nothing_share_one_empty_pair(self):
        # A pool job pickles the shared pair once, not once per run.
        prob = get_problem("kursawe")
        starts = sample_starts(StartSampler(prob.domain_box, 6, 2))
        params = BacktrackParams(variant=BacktrackVariant.BT_BASE)
        runs = _lockstep_of(prob, starts, params, LP_NEW, 20)
        assert len({id(run.stored_x) for run in runs}) == 1
        assert len({id(run.stored_f) for run in runs}) == 1
        assert runs[0].stored_x.shape == (0, prob.n)
        assert runs[0].stored_f.shape == (0, prob.m)

    def test_no_starts(self):
        prob = get_problem("kursawe")
        assert _lockstep_of(prob, np.zeros((0, 3)), BacktrackParams(), LP_NEW, 5) == []


def assert_same_outcome(got, expected):
    """A RunResult as assert_same_run checks it, or the same exception type and message."""
    if isinstance(expected, Exception):
        assert type(got) is type(expected) and str(got) == str(expected)
    else:
        assert_same_run(got, expected)


def _twins(prob, starts, K, record=True):
    """One lockstep of each start under lp-base and lp-new (rows direction
    by direction) with both backtrackings, the bt-new-only outcomes and
    the bt-base-only outcomes, in which each run leaves at its cut."""
    X0 = np.tile(starts, (2, 1))
    lp_new = np.repeat([False, True], len(starts))
    params = BacktrackParams()
    both = _lockstep(prob, X0, lp_new, params, 1.0, tuple(BacktrackVariant), K, record)
    assert list(both) == list(BacktrackVariant)
    new_alone, base_alone = (
        _lockstep(prob, X0, lp_new, params, 1.0, (v,), K, record)[v]
        for v in (BacktrackVariant.BT_NEW, BacktrackVariant.BT_BASE)
    )
    return both, new_alone, base_alone


class TestBtBaseTwins:
    def test_twins_equal_bt_base_runs(self):
        # Every bt-base result of a lockstep with both backtrackings, whose
        # rows run on past their cuts, equals that start's bt-base-only run,
        # whose rows leave at them, and the bt-new results equal the
        # bt-new-only runs, on every problem, traced or not.  The twins
        # cover ladder failures at k = 0 and later, and runs that end on a zero
        # direction or at the budget before any ladder failure, some of
        # whose bt-new runs store points that their twins do not: on the
        # opposed-linear problem each step keeps both objectives, so its
        # point is stored.
        seen = set()
        problems = [get_problem(name) for name in sorted(PROBLEMS)] + [_problem_opposed_linear()]
        for prob, K, record in itertools.product(problems, (3, 40), (True, False)):
            starts = sample_starts(StartSampler(prob.domain_box, 12, 3))
            both, new_alone, base_alone = _twins(prob, starts, K, record)
            for new, twin, expected_new, expected in zip(
                both[BacktrackVariant.BT_NEW], both[BacktrackVariant.BT_BASE], new_alone, base_alone
            ):
                assert_same_outcome(new, expected_new)
                assert_same_outcome(twin, expected)
                if expected.termination is Termination.DOMINATED_STEP:
                    seen.add("cut at 0" if expected.iterations == 0 else "cut later")
                else:
                    seen.add(expected.termination)
                    if len(new.stored_x):
                        seen.add("stored points left out")
        assert seen == {"cut at 0", "cut later", Termination.ZERO_DIRECTION,
                        Termination.MAX_ITERS, "stored points left out"}

    def test_failures_before_and_after_the_cut(self):
        # A run that fails before its first ladder failure fails in both
        # results; one that fails after it fails only its bt-new result,
        # and its twin is still cut there.  The failures come from a point
        # each run reaches, at iteration 0 and one past its cut.
        prob = get_problem("fonseca-fleming")
        starts = sample_starts(StartSampler(prob.domain_box, 12, 3))
        clean, _, _ = _twins(prob, starts, 40)
        cuts = [twin.iterations for twin in clean[BacktrackVariant.BT_BASE]]
        traces = [run.trace for run in clean[BacktrackVariant.BT_NEW]]
        before = next(j for j, k in enumerate(cuts) if k >= 2)
        after = next(j for j, k in enumerate(cuts) if j != before and len(traces[j]) > k + 2)
        bad = {traces[before][1].x.tobytes(), traces[after][cuts[after] + 2].x.tobytes()}

        def check(X):
            if any(x.tobytes() in bad for x in np.atleast_2d(X)):
                raise RuntimeError("bad point")

        faulty = dataclasses.replace(
            prob,
            evaluator=lambda x: check(x) or prob.evaluator(x),
            f_batch=lambda X: check(X) or prob.f_batch(X),
            jac_batch=lambda X: check(X) or prob.jac_batch(X),
        )
        both, new_alone, base_alone = _twins(faulty, starts, 40)
        news, twins = both[BacktrackVariant.BT_NEW], both[BacktrackVariant.BT_BASE]
        for outcomes in zip(news, twins, new_alone, base_alone):
            new, twin, expected_new, expected = outcomes
            assert_same_outcome(new, expected_new)
            assert_same_outcome(twin, expected)
        failed = {j for j, run in enumerate(news) if isinstance(run, Exception)}
        assert failed == {before, after}
        assert str(news[before]) == "iteration 0: bad point"
        assert twins[before] is news[before]
        assert str(news[after]) == f"iteration {cuts[after] + 1}: bad point"
        assert twins[after].termination is Termination.DOMINATED_STEP
        assert twins[after].iterations == cuts[after]


def _rec(k, eta, satisfied, case):
    return TraceRecord(
        k=k,
        x=np.zeros(1),
        f=np.zeros(1),
        p_star=np.zeros(1),
        beta_star=0.0,
        eta=eta,
        armijo_satisfied=satisfied,
        critical_case=case,
    )


class TestClassifySubsequences:
    def test_all_satisfied_single_segment(self):
        trace = [
            _rec(k, 0.5, True, CriticalityCase.NOT_CRITICAL) for k in range(4)
        ]
        assert classify_subsequences(trace) == [(SegmentKind.NPC, 0, 3)]

    def test_fallback_at_critical_closes_segment(self):
        trace = [
            _rec(0, 0.5, True, CriticalityCase.NOT_CRITICAL),
            _rec(1, 1e-4, False, CriticalityCase.CRITICAL_PERPENDICULAR),
            _rec(2, 0.5, True, CriticalityCase.NOT_CRITICAL),
        ]
        segments = classify_subsequences(trace)
        assert segments[0] == (SegmentKind.PC_ETA_HAT, 0, 1)
        assert segments[1] == (SegmentKind.NPC, 2, 2)

    def test_zero_step_at_critical_tail(self):
        trace = [
            _rec(0, 0.5, True, CriticalityCase.NOT_CRITICAL),
            _rec(1, 0.0, True, CriticalityCase.CRITICAL_ZERO_ONLY),
        ]
        assert classify_subsequences(trace) == [(SegmentKind.PC_0, 0, 1)]

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            classify_subsequences([])
