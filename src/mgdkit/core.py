"""Core multi-objective types, evaluation, and dominance relations."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class EvaluationError(RuntimeError):
    """Raised when an objective or gradient evaluates to a non-finite value."""

    def __init__(self, message: str, objective_index: Optional[int] = None):
        super().__init__(message)
        self.objective_index = objective_index


def _check_integer(name: str, value, low: Optional[int] = None) -> int:
    """``operator.index(value)``; a ValueError unless ``value`` is an
    integer (one that ``operator.index`` takes, numpy's too, but not a
    bool) of at least ``low``, if given."""
    try:
        if isinstance(value, bool):  # operator.index(True) is 1
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer") from None
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}")
    return value


@dataclass(frozen=True)
class Problem:
    """An unconstrained m-objective problem on R^n with analytic Jacobian.

    ``evaluator`` maps a point x (shape (n,)) to a pair ``(f, jac)`` with
    f of shape (m,) and jac of shape (m, n), row i being grad f_i(x).
    ``f_batch`` maps an (N, n) array of points to an (N, m) array of
    objective values, and ``jac_batch`` maps them to the (N, m, n) stack
    of their Jacobians.  The descent evaluates its iterates and line
    searches through the kernels and the domain scan its grid, and
    ``evaluate`` a single point through ``evaluator``, so the three must
    agree bit for bit.  The built-in problems state their objectives only
    in the kernels and take ``evaluator`` as row 0 of a one-row batch.
    """

    name: str
    n: int
    m: int
    evaluator: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    domain_box: np.ndarray  # shape (n, 2), columns (lower, upper)
    default_max_iters: int
    f_batch: Callable[[np.ndarray], np.ndarray]
    jac_batch: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        _check_integer("n", self.n, 1)
        _check_integer("m", self.m, 1)
        _check_integer("default_max_iters", self.default_max_iters, 1)
        box = np.asarray(self.domain_box, dtype=float)
        if box.shape != (self.n, 2):
            raise ValueError(f"domain_box must have shape ({self.n}, 2)")
        if not np.isfinite(box).all():
            raise ValueError("domain_box bounds must be finite")
        if not np.all(box[:, 0] < box[:, 1]):
            raise ValueError("domain_box lower bounds must be < upper bounds")
        object.__setattr__(self, "domain_box", box)


@dataclass(frozen=True)
class Evaluation:
    """Objective values and Jacobian of a problem at one point."""

    x: np.ndarray  # (n,)
    f: np.ndarray  # (m,)
    jac: np.ndarray  # (m, n)


def evaluate(problem: Problem, x: np.ndarray) -> Evaluation:
    """Evaluate objectives and analytic Jacobian at ``x``.

    Raises :class:`EvaluationError` naming the first offending objective
    if any output entry is non-finite.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.n,):
        raise ValueError(f"point must have shape ({problem.n},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("point coordinates must be finite")
    f, jac = problem.evaluator(x)
    f = np.asarray(f, dtype=float)
    jac = np.asarray(jac, dtype=float)
    if f.shape != (problem.m,) or jac.shape != (problem.m, problem.n):
        raise ValueError("evaluator returned wrongly shaped outputs")
    if not (np.isfinite(f).all() and np.isfinite(jac).all()):
        bad = np.nonzero(~(np.isfinite(f) & np.isfinite(jac).all(axis=1)))[0]
        i = int(bad[0]) if bad.size else 0
        raise EvaluationError(
            f"objective {i} of problem '{problem.name}' produced a "
            f"non-finite value at x={x.tolist()}",
            objective_index=i,
        )
    return Evaluation(x=x, f=f, jac=jac)


def _dominates_rows(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row i is True iff A[i] dominates B[i]: A[i] <= B[i] componentwise
    and A[i] != B[i] (exact comparisons)."""
    return (A <= B).all(axis=1) & (A != B).any(axis=1)


def dominates(fa: np.ndarray, fb: np.ndarray) -> bool:
    """True iff fa dominates fb: the one-row case of :func:`_dominates_rows`."""
    fa = np.asarray(fa, dtype=float)
    fb = np.asarray(fb, dtype=float)
    if fa.shape != fb.shape:
        raise ValueError(f"length mismatch: {fa.shape} vs {fb.shape}")
    return bool(_dominates_rows(fa.reshape(1, -1), fb.reshape(1, -1))[0])
