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
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

# dominates stays importable here: bench/instrument.py wraps descent.dominates.
from .core import Evaluation, Problem, _dominates_rows, dominates, evaluate  # noqa: F401
# So does solve_direction: bench/instrument.py wraps descent.solve_direction.
from .direction import (  # noqa: F401
    TOL_ZERO_DIR,
    CriticalityCase,
    DirectionConfig,
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
    paper_semantics: bool = False  # disable the zero-direction early stop

    def __post_init__(self):
        if not 0 < self.c1 < 1:
            raise ValueError("c1 must lie in (0, 1)")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        if not (self.eta0 > 0 and math.isfinite(self.eta0)):
            raise ValueError("eta0 must be positive and finite")
        if self.theta < 1:
            raise ValueError("theta must be a positive integer")
        if self.eta_hat is not None and self.eta_hat < 0:
            raise ValueError("eta_hat must be >= 0")
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


class SegmentKind(Enum):
    PC_ETA_HAT = "pc-eta-hat"
    PC_0 = "pc-0"
    NPC = "npc"


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
    FL = problem.eval_f_batch(
        (X[:, None, :] + etas[:, None] * P[:, None, :]).reshape(W * etas.size, n)
    ).reshape(W, etas.size, -1)
    # np.matmul, not einsum or a sum of products: it rounds each row's
    # slopes exactly as jac @ p does for one run.
    slopes = np.matmul(J, P[:, :, None])[:, :, 0]
    ok = np.all(FL <= F[:, None, :] + etas[:, None] * (params.c1 * slopes)[:, None, :], axis=2)
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
            F = np.asarray(problem.eval_f_batch(X), dtype=float)
            J = np.asarray(problem.eval_jac_batch(X), dtype=float)
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
    """The rows of each array where ``keep`` is True."""
    idx = np.flatnonzero(keep)
    return [a[idx] for a in arrays]


def run_mgd_batch(
    problem: Problem,
    X0: np.ndarray,
    params: BacktrackParams,
    dir_cfg: DirectionConfig,
    K: Optional[int] = None,
    record_trace: bool = True,
) -> list[RunResult | Exception]:
    """Run one multiple-gradient descent sequence from each row of ``X0``.

    All live runs advance together: each iteration makes one batched
    objective and one batched Jacobian call for the new iterates, one
    direction call for the LPs of all live runs (``_solve_batch``, which
    gives each run the direction it would get alone) and one objective
    call for every run's Armijo ladder.  A run stops, fails or stores a
    point without affecting the others, and every run follows exactly the
    iterates it would follow alone.

    Returns one entry per start: its :class:`RunResult`, or the exception
    that ended it, with the message prefixed by the iteration
    ("iteration k: ...").
    """
    if K is None:
        K = problem.default_max_iters
    if K < 1:
        raise ValueError("K must be >= 1")
    bt_new = params.variant is BacktrackVariant.BT_NEW
    paper = params.paper_semantics
    X0 = np.asarray(X0, dtype=float)
    out: list[RunResult | Exception] = [None] * len(X0)
    traces: list = [[] for _ in out]
    stored: list = [([], []) for _ in out]

    def record(k, j, x, f, p, beta_star, case, eta, satisfied):
        if record_trace:
            traces[j].append(
                TraceRecord(
                    k=k,
                    x=x,
                    f=f,
                    p_star=p,
                    beta_star=beta_star,
                    eta=eta,
                    armijo_satisfied=satisfied,
                    critical_case=case,
                )
            )

    # Runs that store nothing share one pair of empty arrays, so a pool job
    # pickles it once.
    nothing = np.empty((0, problem.n)), np.empty((0, problem.m))

    def finish(j, x, f, termination, iterations):
        stored_x, stored_f = _prune_stored(*stored[j], f) if stored[j][1] else nothing
        out[j] = RunResult(
            trace=traces[j],
            x_hat=x,
            f_hat=f,
            stored_x=stored_x,
            stored_f=stored_f,
            termination=termination,
            iterations=iterations,
        )

    def stop(k, mask, X, F, P, beta, cases, satisfied, termination):
        # The runs where mask holds end at their current iterate, and
        # iteration k is recorded as a zero step.
        for i in np.flatnonzero(mask):
            record(k, live[i], X[i], F[i], P[i], float(beta[i]), cases[i], 0.0, satisfied)
            finish(live[i], X[i], F[i], termination, k)

    def drop_failed(k, errors):
        # The runs of rows in errors fail; returns the mask of the others.
        for i, exc in errors.items():
            out[live[i]] = _at_iteration(k, exc)
        keep = np.ones(len(live), dtype=bool)
        keep[list(errors)] = False
        return keep

    # X, F and J are never written once made: each iteration makes new
    # ones, so the rows handed out as trace and final points stay valid.
    live = np.arange(len(X0))
    F, J, errors = _evaluate_rows(problem, X0)
    X = X0
    if errors:
        live, X, F, J = _rows(drop_failed(0, errors), live, X, F, J)

    for k in range(K):
        if not live.size:
            break
        P, beta, cases, errors = _solve_batch(J, dir_cfg.variant, dir_cfg.epsilon)
        if errors:
            live, X, F, J, P, beta, cases = _rows(
                drop_failed(k, errors), live, X, F, J, P, beta, cases
            )
            if not live.size:
                break

        if not paper:
            zero = np.abs(P).max(axis=1) <= TOL_ZERO_DIR
            if zero.any():
                stop(k, zero, X, F, P, beta, cases, True, Termination.ZERO_DIRECTION)
                live, X, F, J, P, beta, cases = _rows(~zero, live, X, F, J, P, beta, cases)
                if not live.size:
                    break

        try:
            eta, sat = _armijo_ladder(problem, X, F, J, P, params)
        except Exception:
            # Retry run by run, so only runs whose own ladder fails fail.
            eta, sat, errors = np.empty(live.size), np.empty(live.size, dtype=bool), {}
            for i in range(live.size):
                try:
                    (eta[i],), (sat[i],) = _armijo_ladder(
                        problem, X[i : i + 1], F[i : i + 1], J[i : i + 1], P[i : i + 1], params
                    )
                except Exception as exc:
                    errors[i] = exc
            keep = drop_failed(k, errors)
            live, X, F, J, P, beta, cases, eta, sat = _rows(
                keep, live, X, F, J, P, beta, cases, eta, sat
            )

        if not bt_new and not sat.all():
            stop(k, ~sat, X, F, P, beta, cases, False, Termination.DOMINATED_STEP)
            live, X, F, J, P, beta, cases, eta, sat = _rows(
                sat, live, X, F, J, P, beta, cases, eta, sat
            )

        X_new = X + eta[:, None] * P
        F_new, J_new, errors = _evaluate_rows(problem, X_new)
        if errors:
            keep = drop_failed(k, errors)
            live, X, F, P, beta, cases, eta, sat, X_new, F_new, J_new = _rows(
                keep, live, X, F, P, beta, cases, eta, sat, X_new, F_new, J_new
            )

        dominated = ~sat & _dominates_rows(F, F_new)
        if dominated.any():
            stop(k, dominated, X, F, P, beta, cases, False, Termination.DOMINATED_STEP)
            live, X, F, P, beta, cases, eta, sat, X_new, F_new, J_new = _rows(
                ~dominated, live, X, F, P, beta, cases, eta, sat, X_new, F_new, J_new
            )

        if bt_new:
            # Copies of just the stored rows, so a stored point does not
            # keep the whole iteration's arrays alive.
            idx = np.flatnonzero(~_dominates_rows(F_new, F))
            for j, x, f in zip(live[idx], X[idx], F[idx]):
                stored[j][0].append(x)
                stored[j][1].append(f)
        if record_trace:
            for i, (b, e, s) in enumerate(zip(beta.tolist(), eta.tolist(), sat.tolist())):
                record(k, live[i], X[i], F[i], P[i], b, cases[i], e, s)
        X, F, J = X_new, F_new, J_new
        if not paper:
            # A fallback step of zero was accepted: the sequence is constant
            # from here on; finishing the budget would change nothing.
            still = eta != 0.0
            if not still.all():
                for i in np.flatnonzero(~still):
                    finish(live[i], X[i], F[i], Termination.ZERO_DIRECTION, k)
                live, X, F, J = _rows(still, live, X, F, J)

    for i, j in enumerate(live):
        finish(j, X[i], F[i], Termination.MAX_ITERS, K)
    return out


def run_mgd(
    problem: Problem,
    x0: np.ndarray,
    params: BacktrackParams,
    dir_cfg: DirectionConfig,
    K: Optional[int] = None,
    record_trace: bool = True,
) -> RunResult:
    """Run one multiple-gradient descent sequence from ``x0``: the
    one-start case of :func:`run_mgd_batch`, raising the exception that
    ends the run."""
    (result,) = run_mgd_batch(
        problem, np.asarray(x0, dtype=float)[None], params, dir_cfg, K, record_trace
    )
    if isinstance(result, Exception):
        raise result
    return result


def _prune_stored(
    stored_x: list[np.ndarray], stored_f: list[np.ndarray], f_hat: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Stored points not dominated by any stored point or the final one,
    as (k, n) and (k, m) arrays in the order stored."""
    keep = np.flatnonzero(nondominated_mask(np.vstack([*stored_f, f_hat]))[:-1])
    return np.array(stored_x)[keep], np.array(stored_f)[keep]


def classify_subsequences(trace: list[TraceRecord]) -> list[tuple[SegmentKind, int, int]]:
    """Partition a trace into the critical-end / non-critical taxonomy.

    Returns (kind, first_k, last_k) per maximal segment: segments closed
    by a fallback step at a critical iterate, segments ending in a zero
    step at a critical iterate, and segments containing no critical end.
    """
    if not trace:
        raise ValueError("trace must be non-empty")
    segments: list[tuple[SegmentKind, int, int]] = []
    start = trace[0].k
    for rec in trace:
        critical = rec.critical_case is not CriticalityCase.NOT_CRITICAL
        if critical and not rec.armijo_satisfied and rec.eta > 0:
            segments.append((SegmentKind.PC_ETA_HAT, start, rec.k))
            start = rec.k + 1
    if start <= trace[-1].k:
        tail = [r for r in trace if r.k >= start]
        last = tail[-1]
        if last.critical_case is not CriticalityCase.NOT_CRITICAL and last.eta == 0.0:
            segments.append((SegmentKind.PC_0, start, last.k))
        else:
            segments.append((SegmentKind.NPC, start, last.k))
    return segments
