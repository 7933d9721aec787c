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

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .core import Evaluation, Problem, dominates, evaluate
from .direction import TOL_ZERO_DIR, CriticalityCase, DirectionConfig, solve_direction
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
        if self.eta0 <= 0:
            raise ValueError("eta0 must be positive")
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
    stored_set: list[tuple[np.ndarray, np.ndarray]]  # pruned candidates (x, f)
    termination: Termination
    iterations: int


class SegmentKind(Enum):
    PC_ETA_HAT = "pc-eta-hat"
    PC_0 = "pc-0"
    NPC = "npc"


def backtrack(
    problem: Problem, eval_k: Evaluation, p: np.ndarray, params: BacktrackParams
) -> tuple[float, np.ndarray, bool]:
    """Shrink the step until the Armijo condition holds for all objectives.

    Tries eta0 * alpha**t for t = 0..theta-1 and returns the first
    success; if none succeeds, returns the fallback step with
    satisfied_all = False.
    """
    x, f, slopes = eval_k.x, eval_k.f, eval_k.jac @ p
    etas = params._ladder
    F = problem.eval_f_batch(x + etas[:, None] * p)
    ok = np.all(F <= f + etas[:, None] * (params.c1 * slopes), axis=1)
    hits = np.nonzero(ok)[0]
    if hits.size:
        eta = float(etas[hits[0]])
        return eta, x + eta * p, True
    eta = params.fallback_step
    return eta, x + eta * p, False


def run_mgd(
    problem: Problem,
    x0: np.ndarray,
    params: BacktrackParams,
    dir_cfg: DirectionConfig,
    K: Optional[int] = None,
    record_trace: bool = True,
) -> RunResult:
    """Run one multiple-gradient descent sequence from ``x0``."""
    if K is None:
        K = problem.default_max_iters
    if K < 1:
        raise ValueError("K must be >= 1")

    trace: list[TraceRecord] = []
    stored_x: list[np.ndarray] = []
    stored_f: list[np.ndarray] = []
    termination = Termination.MAX_ITERS
    bt_new = params.variant is BacktrackVariant.BT_NEW

    def record(k, ev, d, eta, satisfied):
        if record_trace:
            trace.append(
                TraceRecord(
                    k=k,
                    x=ev.x,
                    f=ev.f,
                    p_star=d.p_star,
                    beta_star=d.beta_star,
                    eta=eta,
                    armijo_satisfied=satisfied,
                    critical_case=d.case,
                )
            )

    try:
        ev = evaluate(problem, np.asarray(x0, dtype=float))
    except Exception as exc:
        raise type(exc)(f"iteration 0: {exc}") from exc

    for k in range(K):
        try:
            d = solve_direction(ev.jac, dir_cfg.variant, dir_cfg.epsilon)
            if not params.paper_semantics and np.abs(d.p_star).max() <= TOL_ZERO_DIR:
                record(k, ev, d, 0.0, True)
                termination = Termination.ZERO_DIRECTION
                break

            eta, x_new, satisfied = backtrack(problem, ev, d.p_star, params)
            if not satisfied and not bt_new:
                record(k, ev, d, 0.0, False)
                termination = Termination.DOMINATED_STEP
                break
            ev_new = evaluate(problem, x_new)
            if not satisfied and dominates(ev.f, ev_new.f):
                record(k, ev, d, 0.0, False)
                termination = Termination.DOMINATED_STEP
                break
        except Exception as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            raise type(exc)(f"iteration {k}: {exc}") from exc

        if bt_new and not dominates(ev_new.f, ev.f):
            stored_x.append(ev.x)
            stored_f.append(ev.f)
        record(k, ev, d, eta, satisfied)
        ev = ev_new
        if eta == 0.0 and not params.paper_semantics:
            # Fallback step of zero accepted: the sequence is constant from
            # here on; finishing the budget would change nothing.
            termination = Termination.ZERO_DIRECTION
            break
    else:
        k = K  # the budget is used up: all K steps were taken

    return RunResult(
        trace=trace,
        x_hat=ev.x,
        f_hat=ev.f,
        stored_set=_prune_stored(stored_x, stored_f, ev.f),
        termination=termination,
        iterations=k,
    )


def _prune_stored(
    stored_x: list[np.ndarray], stored_f: list[np.ndarray], f_hat: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Stored points not dominated by any stored point or the final one."""
    if not stored_f:
        return []
    F = np.vstack([np.array(stored_f), f_hat[None, :]])
    mask = nondominated_mask(F)[:-1]
    return [
        (x, f) for x, f, keep in zip(stored_x, stored_f, mask) if keep
    ]


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
