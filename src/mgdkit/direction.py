"""Shared-descent-direction subproblems and Pareto-criticality classification.

Two LP formulations are supported: the baseline one (minimize the worst
gradient/direction product over the unit box) and the new one (follow the
anti-gradient sum, with normalized constraint rows and a gradient-scaled
box).  Solutions are classified into one non-critical and three critical
cases according to the geometry of the feasible non-ascent directions.

Each LP is written once, on arrays of W Jacobians, each row with its own
variant: ``_prepare`` states their data, ``_standard_form`` writes a
direction LP, or a non-ascent cone LP of the classification, in the
simplex's standard form, and ``_simplex`` solves them, batched from
``_BATCH_MIN_WIDTH`` LPs on and one by one below.  ``_solve_batch`` is
the direction step of a descent iteration, and ``solve_direction`` its
one-Jacobian case.  The step classifies on arrays, in at most three
``_simplex`` calls: the direction LPs, lp-base's cone LPs, and the
coordinate probes at p* = 0, where a row's first probe that finds a
direction or fails decides its case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .lp import LpStatus, SolverFailure, _simplex_batch, _simplex_core

TOL_GRAD = 1e-12  # lp-new drops gradient rows with norm <= this
TOL_ZERO_DIR = 1e-9  # beta*, cone minima and |p|inf within this of 0 count as 0

# From this many LPs of one shape on, one batched simplex beats a scalar
# simplex per LP (crossover measured per LP on descent Jacobians; see
# CHANGES.md).  Below it _simplex solves them one by one.
_BATCH_MIN_WIDTH = 16


class DirectionVariant(Enum):
    LP_BASE = "lp-base"
    LP_NEW = "lp-new"


class CriticalityCase(Enum):
    NOT_CRITICAL = "not-critical"
    CRITICAL_PERPENDICULAR = "critical-perpendicular"
    CRITICAL_ZERO_ONLY = "critical-zero-only"
    CRITICAL_NON_NULL = "critical-non-null"


@dataclass(frozen=True)
class DirectionConfig:
    variant: DirectionVariant = DirectionVariant.LP_NEW
    epsilon: float = 1.0

    def __post_init__(self):
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError("epsilon must be positive and finite")


@dataclass(frozen=True)
class DirectionResult:
    p_star: np.ndarray
    beta_star: float
    dropped_rows: tuple[int, ...]
    case: CriticalityCase
    gamma: float
    c_beta: Optional[float] = None

    @property
    def is_critical(self) -> bool:
        return self.case is not CriticalityCase.NOT_CRITICAL


def _sum_in_order(a: np.ndarray, axis: int) -> np.ndarray:
    """The sum of ``a`` along ``axis`` (>= 0), added in order from 0.0:
    ((0.0 + a0) + a1) + ....  A running sum adds in order by definition
    (np.sum adds pairwise, and Python's ``sum`` compensates from 3.12 on);
    the closing + 0.0 makes the -0.0 that a sum of -0.0 terms leaves the
    0.0 that a sum from 0.0 gives, and changes no other value."""
    return np.add.accumulate(a, axis=axis)[(slice(None),) * axis + (-1,)] + 0.0


def _prepare(J: np.ndarray, new: np.ndarray, epsilon: float):
    """The direction LPs of the Jacobians J (W, m, n), as arrays; ``new``
    (W,) marks the rows that take lp-new's LP, the others take lp-base's.

    Returns (g, keep, gamma, c_beta, G, c_p): the gradient sums (W, n),
    the mask (W, m) of the rows each LP keeps, the box half-width and
    the beta weight (W,), the constraint rows G (W, m, n) and the
    objective c_p (W, n) of  min c_p.p + c_beta*beta  s.t.  G_i p <= beta
    for each kept row i, |p|inf <= gamma, beta <= 0.  lp-base keeps every
    raw gradient row in the unit box, with c_p = 0 and c_beta = 1.  lp-new
    drops the rows of norm at most ``TOL_GRAD`` and normalizes the others,
    weighs p by g and beta by |g| + epsilon, and takes gamma = max(|J|, |g|).
    A dropped row stays in G as a zero row, so every LP of a batch has the
    same shape.
    """
    W, m, n = J.shape
    # The rows of J and g in one array, for their norms and largest entry.
    Jg = np.empty((W, m + 1, n))
    Jg[:, :m] = J
    g = Jg[:, m]
    g[:] = _sum_in_order(J, 1)
    norms = np.sqrt(_sum_in_order(Jg * Jg, 2))
    gamma = np.abs(Jg).max(axis=(1, 2))
    keep = norms[:, :m] > TOL_GRAD
    G = np.where(keep[:, :, None], J / norms[:, :m, None], 0.0)
    c_beta, c_p = norms[:, m] + epsilon, g
    if not new.all():
        # The lp-base rows: each row's values depend on that row alone.
        base = ~new
        keep[base], gamma[base], c_beta[base], G[base] = True, 1.0, 1.0, J[base]
        c_p = np.where(new[:, None], g, 0.0)
    return g, keep, gamma, c_beta, G, c_p


def _standard_form(c_p, G, box, c_beta=None, keep=None):
    """(cs, As, bs) of W LPs  min c_p.p + c_beta*beta  s.t.  G_i p <= beta
    for each row i that ``keep`` (W, m) marks, |p|inf <= box, beta <= 0,
    in the simplex's standard form: p shifted by +box onto [0, 2*box],
    beta entering as -y with y >= 0.  A row that is not kept is a zero row
    of G with a zero beta entry: it reads 0 <= 0, which no pivot touches.

    Without ``c_beta`` the beta column is left out, which gives the
    non-ascent cone LP  min c_p.p  s.t.  G p <= 0, |p|inf <= box.
    """
    W, m, n = G.shape
    k = n if c_beta is None else n + 1
    As = np.zeros((W, m + n, k))
    As[:, :m, :n] = G
    # Entry (m + j, j) of an LP's (m + n, k) block is its flat entry
    # m*k + j*(k + 1): the unit rows of the box.  (No -1: W may be 0.)
    As.reshape(W, (m + n) * k)[:, m * k :: k + 1] = 1.0
    bs = np.empty((W, m + n))
    bs[:, :m] = box[:, None] * _sum_in_order(G, 2)
    bs[:, m:] = (2.0 * box)[:, None]
    if c_beta is None:
        return c_p, As, bs
    As[:, :m, n] = keep
    cs = np.empty((W, k))
    cs[:, :n] = c_p
    cs[:, n] = -c_beta
    return cs, As, bs


def _simplex(cs, As, bs):
    """Solve W standard-form LPs of one shape: one ``_simplex_batch`` from
    ``_BATCH_MIN_WIDTH`` LPs on, ``_simplex_core`` for each LP below.

    Returns (Y (W, nvars), failures): failures maps each LP without an
    optimum to its SolverFailure; Y holds every other LP's solution.
    """
    if len(cs) >= _BATCH_MIN_WIDTH:
        Y, outcomes = _simplex_batch(cs, As, bs)
    else:
        Y, outcomes = np.zeros(cs.shape), {}
        for w in range(len(cs)):
            try:
                status, y = _simplex_core(cs[w].tolist(), As[w].tolist(), bs[w].tolist())
            except SolverFailure as exc:
                outcomes[w] = exc
            else:
                if status is LpStatus.OPTIMAL:
                    Y[w] = y
                else:
                    outcomes[w] = status
    return Y, {
        w: SolverFailure(f"direction LP ended with status {o.value}") if isinstance(o, LpStatus) else o
        for w, o in outcomes.items()
    }


def _cone_minima(C: np.ndarray, G: np.ndarray, box: np.ndarray):
    """(minima, failures) of  min C[w].p  s.t.  G[w] p <= 0, |p|inf <= box[w]."""
    Y, failures = _simplex(*_standard_form(C, G, box))
    return _sum_in_order(C * (Y - box[:, None]), 1), failures


def _solve_batch(
    J: np.ndarray,
    variant=DirectionVariant.LP_NEW,
    epsilon: float = 1.0,
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, dict], Optional[tuple]]:
    """The direction step of one descent iteration: the direction LP of
    each Jacobian of ``J`` (W, m, n), solved and classified.  ``variant``
    is the DirectionVariant of every row, or a (W,) bool array that marks
    the lp-new rows, the others being lp-base.

    Returns ((P (W, n), beta (W,), cases (W,), errors), lps): row w holds
    the p*, beta* and CriticalityCase of J[w], unless errors maps w to the
    exception its step raised: a ValueError for a Jacobian with a
    non-finite entry or without rows or columns, a SolverFailure for an
    LP without an optimum.  ``lps`` is (keep, gamma, c_beta) of
    ``_prepare``, the rows kept, box and beta weight of each LP, or None
    when the Jacobians have no entries.

    ``_prepare`` states the LPs of both kinds, all of one shape, and one
    ``_simplex`` call solves them: an lp-new row dropped for its norm is a
    zero row, and a Jacobian with every row dropped has no LP
    (critical-zero-only, p* = 0).  Critical results (beta* >= -TOL_ZERO_DIR)
    are classified on arrays by min g.p over the non-ascent cone, read off
    an lp-new row's LP value and solved for the lp-base rows in one call:
    below -TOL_ZERO_DIR it is critical-non-null, else a p* off 0 is
    critical-perpendicular.  At p* = 0 one call solves each row's 2n
    probes  min +-p_j  over the cone, in the order +e_0, -e_0, +e_1, ...:
    the first to find a minimum below -TOL_ZERO_DIR (critical-perpendicular)
    or to fail (its SolverFailure) decides the row, and a row with neither
    is critical-zero-only.
    """
    J = np.asarray(J, dtype=float)
    W, m, n = J.shape
    if isinstance(variant, DirectionVariant):
        new = np.full(W, variant is DirectionVariant.LP_NEW)
    else:
        new = np.asarray(variant, dtype=bool)
    P, beta, cases, errors = np.zeros((W, n)), np.zeros(W), np.empty(W, dtype=object), {}
    if m == 0 or n == 0:
        errors = {w: ValueError(f"a Jacobian of shape {(m, n)} has no entries") for w in range(W)}
        return (P, beta, cases, errors), None

    def fail(rows, failures):
        # Row rows[k] fails with failures[k] and leaves ``live``.
        for k, exc in failures.items():
            errors[int(rows[k])], cases[rows[k]], live[rows[k]] = exc, None, False

    with np.errstate(all="ignore"):
        g, keep, gamma, c_beta, G, c_p = _prepare(J, new, epsilon)
        result = (P, beta, cases, errors), (keep, gamma, c_beta)
        # Rows still being classified: those with an LP (else p* = 0), then the critical.
        finite = np.isfinite(J).all(axis=(1, 2))
        live = finite & keep.any(axis=1)
        if not live.all():
            cases[~live] = CriticalityCase.CRITICAL_ZERO_ONLY
            for w in np.flatnonzero(~finite).tolist():
                errors[w], cases[w] = ValueError("a Jacobian entry is not finite"), None
        lps = np.flatnonzero(live)
        # take copies rows of 2-d and 3-d arrays for a fraction of [lps]'s cost.
        box = gamma[lps]
        form = _standard_form(c_p.take(lps, 0), G.take(lps, 0), box, c_beta[lps], keep.take(lps, 0))
        Y, failures = _simplex(*form)
        P[lps] = Y[:, :n] - box[:, None]
        beta[lps] = -Y[:, n]
        cases[lps] = CriticalityCase.NOT_CRITICAL
        fail(lps, failures)
        live &= ~(beta < -TOL_ZERO_DIR)
        if not live.any():
            return result
        # min g.p over the cone: an lp-new row's LP value less its beta
        # term, rounded as the oracle's; the lp-base rows solve their cone LP.
        min_gp = (_sum_in_order(c_p * P, 1) + c_beta * beta) - c_beta * beta
        rows = np.flatnonzero(live & ~new)
        if rows.size:
            min_gp[rows], failures = _cone_minima(g.take(rows, 0), G.take(rows, 0), gamma[rows])
            fail(rows, failures)
        non_null = live & (min_gp < -TOL_ZERO_DIR)
        cases[non_null], live[non_null] = CriticalityCase.CRITICAL_NON_NULL, False
        if not live.any():
            return result
        cases[live] = CriticalityCase.CRITICAL_PERPENDICULAR
        zero = np.flatnonzero(live & ~(np.abs(P).max(axis=1) > TOL_ZERO_DIR))
        if not zero.size:
            return result
        # Probes tell a {0} cone from a perpendicular one (0.0 - eye: zeros are +0.0).
        eye, k = np.eye(n), 2 * n
        C = np.tile(np.stack([eye, 0.0 - eye], axis=1).reshape(k, n), (zero.size, 1))
        minima, failures = _cone_minima(C, G.take(zero.repeat(k), 0), gamma[zero.repeat(k)])
        decided = (minima < -TOL_ZERO_DIR).reshape(zero.size, k)
        decided.flat[list(failures)] = True
        cases[zero[~decided.any(axis=1)]] = CriticalityCase.CRITICAL_ZERO_ONLY
        fail(zero, {i // k: e for i, e in failures.items() if i % k == decided[i // k].argmax()})
    return result


def solve_direction(
    jac: np.ndarray,
    variant: DirectionVariant = DirectionVariant.LP_NEW,
    epsilon: float = 1.0,
) -> DirectionResult:
    """Solve the chosen direction LP for one Jacobian (m, n) and classify
    the outcome: the one-row case of :func:`_solve_batch`, whose error it
    raises."""
    J = np.asarray(jac, dtype=float)[None]
    ((p,), (beta,), (case,), errors), lps = _solve_batch(J, variant, epsilon)
    if errors:
        raise errors[0]
    keep, gamma, c_beta = lps
    return DirectionResult(
        p_star=p,
        beta_star=float(beta),
        dropped_rows=tuple(np.flatnonzero(~keep[0]).tolist()),
        case=case,
        gamma=float(gamma[0]),
        c_beta=float(c_beta[0]) if variant is DirectionVariant.LP_NEW else None,
    )


def solve_blockwise(
    jacs: Sequence[np.ndarray],
    variant: DirectionVariant = DirectionVariant.LP_NEW,
    epsilon: float = 1.0,
) -> list[DirectionResult]:
    """Solve independent direction subproblems, one per Jacobian, in order,
    each by :func:`solve_direction`.  The first failing block's solver
    failure is re-raised with the block's index."""
    if len(jacs) == 0:
        raise ValueError("jacs must be non-empty")
    out = []
    for i, jac in enumerate(jacs):
        try:
            out.append(solve_direction(jac, variant, epsilon))
        except SolverFailure as exc:
            raise SolverFailure(f"block {i}: {exc}") from exc
    return out
