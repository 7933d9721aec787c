"""Backtracking line search and the multiple-gradient descent loops.

Two strategies are provided: the classic one that insists on a strict
decrease of every objective (and stops as soon as no backtracking step
achieves it), and the non-domination one that, when the Armijo condition
fails for every step, still takes a small fallback step as long as the
new point is not dominated by the current one.  The latter can keep
moving along regions of Pareto critical points; intermediate points that
are not dominated by their successor are stored as candidate Pareto
optimals and pruned to an antichain at the end.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .core import Evaluation, Problem, _check_integer, _dominates_rows, evaluate
# dominates stays importable here: bench/instrument.py wraps descent.dominates.
from .core import dominates  # noqa: F401
# So does solve_direction: bench/instrument.py wraps descent.solve_direction.
from .direction import (  # noqa: F401
    TOL_ZERO_DIR,
    CriticalityCase,
    DirectionConfig,
    DirectionVariant,
    _solve_batch,
    solve_direction,
)
from .metrics import nondominated_mask


class BacktrackVariant(Enum):
    BT_BASE = "bt-base"
    BT_NEW = "bt-new"


class Termination(Enum):
    MAX_ITERS = "max-iters"
    DOMINATED_STEP = "dominated-step"
    ZERO_DIRECTION = "zero-direction"


@dataclass(frozen=True)
class BacktrackParams:
    c1: float = 1e-9
    alpha: float = 0.8
    eta0: float = 1.0
    theta: int = 40
    eta_hat: Optional[float] = None  # defaults to eta0 * alpha**theta
    variant: BacktrackVariant = BacktrackVariant.BT_NEW

    def __post_init__(self):
        object.__setattr__(self, "variant", BacktrackVariant(self.variant))
        if not 0 < self.c1 < 1:
            raise ValueError("c1 must lie in (0, 1)")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        if not (self.eta0 > 0 and math.isfinite(self.eta0)):
            raise ValueError("eta0 must be positive and finite")
        try:
            theta_ok = not isinstance(self.theta, bool) and operator.index(self.theta) >= 1
        except TypeError:
            theta_ok = False
        if not theta_ok:
            raise ValueError("theta must be a positive integer")
        if self.eta_hat is not None and not (self.eta_hat >= 0 and math.isfinite(self.eta_hat)):
            raise ValueError("eta_hat must be >= 0 and finite")
        object.__setattr__(
            self, "_ladder", self.eta0 * self.alpha ** np.arange(self.theta)
        )

    @property
    def fallback_step(self) -> float:
        if self.eta_hat is not None:
            return self.eta_hat
        return self.eta0 * self.alpha**self.theta


@dataclass(frozen=True)
class TraceRecord:
    k: int
    x: np.ndarray
    f: np.ndarray
    p_star: np.ndarray
    beta_star: float
    eta: float
    armijo_satisfied: bool
    critical_case: CriticalityCase


@dataclass(frozen=True)
class RunResult:
    trace: list[TraceRecord]
    x_hat: np.ndarray
    f_hat: np.ndarray
    stored_x: np.ndarray  # (k, n) pruned candidates, in the order stored
    stored_f: np.ndarray  # (k, m) their objectives
    termination: Termination
    iterations: int


def _armijo_ladder(
    problem: Problem,
    X: np.ndarray,
    F: np.ndarray,
    J: np.ndarray,
    P: np.ndarray,
    params: BacktrackParams,
) -> tuple[np.ndarray, np.ndarray]:
    """The Armijo ladder of W runs at once, through one stacked (W*theta, n)
    objective evaluation.

    Row i holds a run's point, objectives, Jacobian and direction.
    Returns each run's step, the first eta0 * alpha**t (t < theta) after
    which every objective decreases enough, or the fallback step, and
    whether such a t was found.
    """
    etas = params._ladder
    W, n = X.shape
    FL = problem.f_batch(
        (X[:, None, :] + etas[:, None] * P[:, None, :]).reshape(W * etas.size, n)
    ).reshape(W, etas.size, -1)
    # np.matmul, not einsum or a sum of products: it rounds each row's
    # slopes exactly as jac @ p does for one run.
    slopes = np.matmul(J, P[:, :, None])[:, :, 0]
    ok = (FL <= F[:, None, :] + etas[:, None] * (params.c1 * slopes)[:, None, :]).all(axis=2)
    satisfied = ok.any(axis=1)
    return np.where(satisfied, etas[ok.argmax(axis=1)], params.fallback_step), satisfied


def backtrack(
    problem: Problem, eval_k: Evaluation, p: np.ndarray, params: BacktrackParams
) -> tuple[float, np.ndarray, bool]:
    """Shrink the step until the Armijo condition holds for all objectives.

    Tries eta0 * alpha**t for t = 0..theta-1 and returns the first
    success; if none succeeds, returns the fallback step with
    satisfied_all = False.
    """
    p = np.asarray(p, dtype=float)
    eta, satisfied = _armijo_ladder(
        problem, eval_k.x[None], eval_k.f[None], eval_k.jac[None], p[None], params
    )
    eta = float(eta[0])
    return eta, eval_k.x + eta * p, bool(satisfied[0])


def _ladder_rows(
    problem: Problem, X: np.ndarray, F: np.ndarray, J: np.ndarray, P: np.ndarray,
    params: BacktrackParams,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """The :func:`_armijo_ladder` of the rows, and {row: exception} of the
    rows whose own ladder raises: when the stacked ladder raises, each row
    retries alone, so only those rows fail; their rows hold a zero step."""
    try:
        return (*_armijo_ladder(problem, X, F, J, P, params), {})
    except Exception:
        pass  # retried row by row below, where the error is kept per row
    eta, sat, errors = np.zeros(len(X)), np.zeros(len(X), dtype=bool), {}
    for i in range(len(X)):
        row = slice(i, i + 1)
        try:
            (eta[i],), (sat[i],) = _armijo_ladder(problem, X[row], F[row], J[row], P[row], params)
        except Exception as exc:
            errors[i] = exc
    return eta, sat, errors


def _evaluate_rows(problem: Problem, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
    """Objectives (W, m) and Jacobians (W, m, n) at the rows of X.

    One call to each batched kernel when every row is a finite point and
    the outputs are finite and of the right shapes.  Otherwise each row
    goes through :func:`evaluate` by itself, so only the offending rows
    fail, each with evaluate's own error; those are returned as
    {row: exception} and their output rows are left unset.
    """
    W, m, n = len(X), problem.m, problem.n
    if X.ndim == 2 and X.shape[1] == n and np.isfinite(X).all():
        try:
            F = np.asarray(problem.f_batch(X), dtype=float)
            J = np.asarray(problem.jac_batch(X), dtype=float)
        except Exception:
            pass  # retried row by row below, where the error is kept per row
        else:
            if (
                F.shape == (W, m)
                and J.shape == (W, m, n)
                and np.isfinite(F).all()
                and np.isfinite(J).all()
            ):
                return F, J, {}
    F, J, errors = np.empty((W, m)), np.empty((W, m, n)), {}
    for i, x in enumerate(X):
        try:
            ev = evaluate(problem, x)
        except Exception as exc:
            errors[i] = exc
        else:
            F[i], J[i] = ev.f, ev.jac
    return F, J, errors


def _at_iteration(k: int, exc: Exception) -> Exception:
    """``exc`` restated with the iteration it ended, as run_mgd raises it:
    its type and attributes, its message prefixed ``iteration k: ``; an
    exception whose type takes other constructor arguments as it is."""
    try:
        err = type(exc)(f"iteration {k}: {exc}")
    except Exception:  # a type whose constructor takes other arguments
        return exc
    vars(err).update(vars(exc))
    err.__cause__ = exc
    return err


def _rows(keep: np.ndarray, *arrays):
    """The rows of each array where ``keep`` holds: the arrays themselves if it holds for all."""
    if np.count_nonzero(keep) == len(keep):  # a third of keep.all()'s cost on a few rows
        return arrays
    idx = keep.nonzero()[0]
    return [a[idx] for a in arrays]


def _lockstep(
    problem: Problem,
    X0: np.ndarray,
    lp_new: np.ndarray,
    params: BacktrackParams,
    epsilon: float,
    backtrackings: tuple,
    K: Optional[int] = None,
    record_trace: bool = True,
) -> dict:
    """Run one multiple-gradient descent sequence from each row of ``X0``,
    with lp-new's direction LP where ``lp_new`` holds, else lp-base's, the
    step settings of ``params`` and each backtracking of ``backtrackings``.

    All live runs advance together: each iteration makes one batched
    objective and one batched Jacobian call for the new iterates, one
    direction call for the LPs of all live runs, of both kinds
    (``_solve_batch``, which gives each run the direction it would get
    alone) and one objective call for every run's Armijo ladder.  A run
    stops, fails or stores a point without affecting the others, and every
    run follows exactly the iterates it would follow alone.

    Each stage (the direction, the ladder, the step) returns {row:
    exception} of the runs it fails; those and the runs it stops leave the
    live rows in one narrowing per stage, and a stage that fails and stops
    none narrows nothing.  Each iteration logs the points it stores, and
    its trace rows, as one block of arrays for all runs.  After the loop
    each log is split by run once, and every run's stored points are
    pruned to those that no stored point and not its final point dominates.

    bt-base differs from bt-new only from a run's first iteration k whose
    ladder finds no Armijo step: there bt-base stops, and bt-new takes the
    fallback step.  So every bt-base result is read off its run's first
    ladder failure, its cut: the point and objectives at k, the trace up
    to k and a zero step at k, ``dominated-step`` after k iterations and no
    stored points.  Without bt-new the run leaves the batch at its cut.  A
    run that ends or fails before any cut gives bt-base its own outcome,
    without stored points.

    Returns {backtracking: outcomes} for each of ``backtrackings``: one
    entry per start, its :class:`RunResult` or the exception that ended
    it, its message prefixed by the iteration ("iteration k: ...").
    """
    if K is None:
        K = problem.default_max_iters
    _check_integer("K", K, 1)
    bt_new = BacktrackVariant.BT_NEW in backtrackings
    X0 = np.array(X0, dtype=float)  # a copy: runs that end at their start keep its rows
    # Run j's exception, or its (x_hat, f_hat, termination, iterations)
    # until its RunResult is built after the loop; None if it left at its cut.
    out: list = [None] * len(X0)
    # Blocks of (runs, X, F) of the stored points and of
    # (runs, k, X, F, P, beta, eta, satisfied, cases) of the traced rows.
    stored_log, trace_log = [], []
    cuts, uncut = {}, np.ones(len(X0), dtype=bool)  # {run: its cut's TraceRecord}

    def log_trace(k, runs, X, F, P, beta, cases, eta, satisfied):
        if record_trace:
            w = runs.size
            if not isinstance(eta, np.ndarray):  # stop's zero step, one value for all rows
                eta, satisfied = np.full(w, eta), np.full(w, satisfied)
            trace_log.append((runs, np.full(w, k), X, F, P, beta, eta, satisfied, cases))

    def end(runs, X, F, termination, k):
        # The runs end at their rows of X and F after k iterations.
        for j, x, f in zip(runs.tolist(), X, F):
            out[j] = x, f, termination, k

    def fail(k, errors):
        # The live runs of the rows in errors fail; returns the mask of the
        # others, or None when none fails.
        if not errors:
            return None
        keep = np.ones(live.size, dtype=bool)
        for i, exc in errors.items():
            out[live[i]] = _at_iteration(k, exc)
            keep[i] = False
        return keep

    def stop(k, keep, mask, satisfied, termination):
        # The kept runs (all for None) where mask holds end at the current X
        # and F, their iteration k logged as a zero step; returns the mask
        # of the others, or None when none has failed or stopped.
        if keep is not None:
            mask &= keep
        if not np.count_nonzero(mask):
            return keep
        rows = _rows(mask, live, X, F, P, beta, cases)
        log_trace(k, *rows, 0.0, satisfied)
        end(*rows[:3], termination, k)
        return ~mask if keep is None else keep & ~mask

    # X, F and J are never written once made: each iteration makes new
    # ones, so the rows logged and handed out as final points stay valid.
    live, X = np.arange(len(X0)), X0
    F, J, errors = _evaluate_rows(problem, X)
    keep = fail(0, errors)
    if keep is not None:
        live, X, F, J = _rows(keep, live, X, F, J)

    for k in range(K):
        if not live.size:
            break
        # The direction: a zero one stops its run.
        (P, beta, cases, errors), _ = _solve_batch(J, lp_new[live], epsilon)
        keep = fail(k, errors)
        zero = np.abs(P).max(axis=1) <= TOL_ZERO_DIR
        keep = stop(k, keep, zero, True, Termination.ZERO_DIRECTION)
        if keep is not None:
            live, X, F, J, P, beta, cases = _rows(keep, live, X, F, J, P, beta, cases)
            if not live.size:
                break

        # The ladder: a run's first step without an Armijo step is its cut,
        # where the run leaves the batch when bt-new is not asked for.
        eta, sat, errors = _ladder_rows(problem, X, F, J, P, params)
        keep = fail(k, errors)
        first = ~sat & uncut[live]
        if keep is not None:
            first &= keep
        for i in np.flatnonzero(first).tolist():
            j = int(live[i])
            uncut[j] = False
            cuts[j] = TraceRecord(k, X[i], F[i], P[i], float(beta[i]), 0.0, False, cases[i])
        if not bt_new and np.count_nonzero(first):
            keep = ~first if keep is None else keep & ~first
        if keep is not None:
            live, X, F, P, beta, cases, eta, sat = _rows(keep, live, X, F, P, beta, cases, eta, sat)
            if not live.size:
                break

        # The step: a fallback step to a point the current one dominates stops its run.
        X_new = X + eta[:, None] * P
        F_new, J_new, errors = _evaluate_rows(problem, X_new)
        keep = fail(k, errors)
        if not sat.all():
            keep = stop(k, keep, ~sat & _dominates_rows(F, F_new), False,
                        Termination.DOMINATED_STEP)
        if keep is not None:
            live, X, F, P, beta, cases, eta, sat, X_new, F_new, J_new = _rows(
                keep, live, X, F, P, beta, cases, eta, sat, X_new, F_new, J_new
            )

        if bt_new:
            # The points their successor does not dominate.
            store = ~_dominates_rows(F_new, F)
            if np.count_nonzero(store):
                stored_log.append(_rows(store, live, X, F))
        log_trace(k, live, X, F, P, beta, cases, eta, sat)
        X, F, J = X_new, F_new, J_new
        # A fallback step of zero was accepted: the sequence is constant
        # from here on; finishing the budget would change nothing.
        moved = eta != 0.0
        if not moved.all():
            end(*_rows(~moved, live, X, F), Termination.ZERO_DIRECTION, k)
            live, X, F, J = _rows(moved, live, X, F, J)

    end(live, X, F, Termination.MAX_ITERS, K)

    stored, stored_rows = _by_run(stored_log, len(out))
    traced, trace_rows = _by_run(trace_log, len(out))
    # One TraceRecord per traced row.  The log's columns are its fields in
    # order; the scalar ones go in as Python ints, floats, bools and cases.
    columns = [c.tolist() if c.ndim == 1 else c for c in traced]
    records = [TraceRecord(*fields) for fields in zip(*columns)]
    # Runs that store nothing share one pair of empty arrays, so a pool job
    # pickles it once.
    nothing = np.empty((0, problem.n)), np.empty((0, problem.m))
    for j, run in enumerate(out):
        if not isinstance(run, tuple):  # failed, or left at its cut
            continue
        x_hat, f_hat, termination, iterations = run
        stored_x, stored_f = nothing
        rows = stored_rows[j]
        if rows.size:
            # The stored points that no stored point and not the final one
            # dominates, in the order stored.
            SX, SF = stored
            keep = rows[nondominated_mask(np.vstack([SF[rows], f_hat]))[:-1]]
            stored_x, stored_f = SX[keep], SF[keep]
        trace = [records[i] for i in trace_rows[j].tolist()]
        out[j] = RunResult(trace, x_hat, f_hat, stored_x, stored_f, termination, iterations)
    # bt-base: a run's cut, else its own outcome without stored points.
    base = [
        run if not isinstance(run, RunResult) or run.stored_x is nothing[0]
        else RunResult(run.trace, run.x_hat, run.f_hat, *nothing, run.termination, run.iterations)
        for run in out
    ]
    for j, last in cuts.items():
        trace = [records[i] for i in trace_rows[j][: last.k].tolist()] + [last]
        base[j] = RunResult(trace if record_trace else [], last.x, last.f, *nothing,
                            Termination.DOMINATED_STEP, last.k)
    outcomes = {BacktrackVariant.BT_BASE: base, BacktrackVariant.BT_NEW: out}
    return {b: outcomes[b] for b in backtrackings}


def _by_run(log: list, n_runs: int) -> tuple[list, list]:
    """The columns of a log of (runs, *columns) blocks, each concatenated
    once, and the indices of each run's rows in them, in the order logged.
    Empties the log, so that its blocks are freed before the columns are read."""
    if not log:
        return [], [np.empty(0, dtype=int)] * n_runs
    runs, *columns = map(np.concatenate, zip(*log))
    log.clear()
    order = np.argsort(runs, kind="stable")
    starts = np.searchsorted(runs, np.arange(1, n_runs), sorter=order)  # of runs 1, 2, ...
    return columns, np.split(order, starts)


def run_mgd(
    problem: Problem,
    x0: np.ndarray,
    params: BacktrackParams,
    dir_cfg: DirectionConfig,
    K: Optional[int] = None,
    record_trace: bool = True,
) -> RunResult:
    """Run one multiple-gradient descent sequence from ``x0``: the
    one-start, one-variant case of :func:`_lockstep`, raising the
    exception that ends the run."""
    lp_new = np.full(1, dir_cfg.variant is DirectionVariant.LP_NEW)
    outcomes = _lockstep(problem, [x0], lp_new, params, dir_cfg.epsilon, (params.variant,),
                         K, record_trace)
    (result,) = outcomes[params.variant]
    if isinstance(result, Exception):
        raise result
    return result

