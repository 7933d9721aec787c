"""Shared-descent-direction subproblems and Pareto-criticality classification.

Two LP formulations are supported: the baseline one (minimize the worst
gradient/direction product over the unit box) and the new one (follow the
anti-gradient sum, with normalized constraint rows and a gradient-scaled
box).  Solutions are classified into one non-critical and three critical
cases according to the geometry of the feasible non-ascent directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from operator import add
from typing import Optional, Sequence

import numpy as np

from .lp import LpStatus, SolverFailure, _simplex_batch, _simplex_core

TOL_GRAD = 1e-12  # lp-new drops gradient rows with norm <= this
TOL_ZERO_DIR = 1e-9  # beta*, cone minima and |p|inf within this of 0 count as 0

# From this many Jacobians per call on, one batched simplex beats a scalar
# solve per Jacobian (crossover measured per LP on descent Jacobians; see
# CHANGES.md).  Below it the descent loop solves them one by one.
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


def _fast_direction_lp(
    c_p: list, G: list, box: float, c_beta: Optional[float] = None
) -> tuple[float, list, float]:
    """min c_p.p + c_beta*beta  s.t.  G p <= beta e, |p|inf <= box, beta <= 0.

    Without ``c_beta`` the beta column is left out, which gives the
    non-ascent cone LP  min c_p.p  s.t.  G p <= 0, |p|inf <= box  (and
    beta = 0).  Plain-list reduction to the simplex's standard form, so
    the hot loop skips the array plumbing.  Returns (value, p, beta).
    """
    n = len(c_p)
    cs = list(c_p)
    tail = []
    if c_beta is not None:
        cs.append(-c_beta)  # beta enters as -y with y >= 0
        tail = [1.0]
    As, bs = [], []
    for row in G:  # p shifted by +box onto [0, 2*box]
        As.append(list(row) + tail)
        bs.append(box * _seq_sum(row))
    two = 2.0 * box
    for j in range(n):
        e = [0.0] * len(cs)
        e[j] = 1.0
        As.append(e)
        bs.append(two)
    status, y = _simplex_core(cs, As, bs)
    if status is not LpStatus.OPTIMAL:
        raise SolverFailure(f"direction LP ended with status {status.value}")
    p = [y[j] - box for j in range(n)]
    value = _seq_sum(ci * pi for ci, pi in zip(c_p, p))
    beta = 0.0
    if c_beta is not None:
        beta = -y[n]
        value += c_beta * beta
    return value, p, beta


def solve_direction(
    jac: np.ndarray,
    variant: DirectionVariant = DirectionVariant.LP_NEW,
    epsilon: float = 1.0,
) -> DirectionResult:
    """Solve the chosen direction LP and classify the outcome."""
    jac = np.asarray(jac, dtype=float)
    m, n = jac.shape
    J = jac.tolist()
    g = [_seq_sum(col) for col in zip(*J)]

    if variant is DirectionVariant.LP_NEW:
        norms = [math.sqrt(_seq_sum(v * v for v in row)) for row in J]
        dropped = tuple(i for i, nm in enumerate(norms) if nm <= TOL_GRAD)
        gam = max(
            max(abs(v) for row in J for v in row),
            max(abs(v) for v in g),
        )
        c_beta = math.sqrt(_seq_sum(v * v for v in g)) + epsilon
        if len(dropped) == m:
            return DirectionResult(
                p_star=np.zeros(n),
                beta_star=0.0,
                dropped_rows=dropped,
                case=CriticalityCase.CRITICAL_ZERO_ONLY,
                gamma=gam,
                c_beta=c_beta,
            )
        G = [
            [v / norms[i] for v in J[i]]
            for i in range(m)
            if norms[i] > TOL_GRAD
        ]
        value, p, beta_star = _fast_direction_lp(g, G, gam, c_beta)
    else:
        dropped = ()
        G = J
        value, p, beta_star = _fast_direction_lp([0.0] * n, G, 1.0, 1.0)
        gam = 1.0
        c_beta = None

    if beta_star < -TOL_ZERO_DIR:
        case = CriticalityCase.NOT_CRITICAL
    else:
        case = _classify_critical(g, G, gam, p, beta_star, value, variant, c_beta)

    return DirectionResult(
        p_star=np.array(p),
        beta_star=beta_star,
        dropped_rows=dropped,
        case=case,
        gamma=gam,
        c_beta=c_beta,
    )


def _classify_critical(
    g: list,
    G: list,
    box: float,
    p_star: list,
    beta_star: float,
    value: float,
    variant: DirectionVariant,
    c_beta: Optional[float],
) -> CriticalityCase:
    """Distinguish the three critical cases at beta* = 0.

    The discriminator is min g.p over the feasible non-ascent cone: a
    strictly negative minimum means a non-null direction descending for
    at least one objective; otherwise the cone either is {0} or consists
    of directions perpendicular to every gradient.
    """
    n = len(p_star)
    if variant is DirectionVariant.LP_NEW:
        # At a critical point the beta term vanishes, so the solved LP's
        # value already is min g.p over the cone.
        min_gp = value - c_beta * beta_star
    else:
        min_gp = _fast_direction_lp(g, G, box)[0]

    if min_gp < -TOL_ZERO_DIR:
        return CriticalityCase.CRITICAL_NON_NULL
    if max(abs(v) for v in p_star) > TOL_ZERO_DIR:
        return CriticalityCase.CRITICAL_PERPENDICULAR
    # Returned vertex is 0; probe each coordinate for nonzero feasible
    # directions to tell the {0} cone from a perpendicular one.
    for j in range(n):
        for sign in (1.0, -1.0):
            c = [0.0] * n
            c[j] = sign
            if _fast_direction_lp(c, G, box)[0] < -TOL_ZERO_DIR:
                return CriticalityCase.CRITICAL_PERPENDICULAR
    return CriticalityCase.CRITICAL_ZERO_ONLY


def _seq_sum(terms):
    """((0.0 + t0) + t1) + ...: floats, or arrays elementwise, added in
    order.  Python's ``sum`` adds in this order only before 3.12 (later
    it compensates), so the scalar and the batched path both use this."""
    return reduce(add, terms, 0.0)


def _solve_alone(jac, variant, epsilon):
    """solve_direction's result, or the exception it raises."""
    try:
        return solve_direction(jac, variant, epsilon)
    except Exception as exc:
        return exc


def _solve_batch(
    J: np.ndarray,
    variant: DirectionVariant = DirectionVariant.LP_NEW,
    epsilon: float = 1.0,
) -> list:
    """:func:`solve_direction` for each Jacobian of ``J`` (W, m, n), with
    one batched simplex for all of them.

    Returns, per Jacobian, the DirectionResult solve_direction returns or
    the exception it raises, equal to the bit: the preparation repeats
    its arithmetic elementwise (in-order sums, square roots,
    quotients) and ``_simplex_batch`` repeats ``_simplex_core``'s pivots.
    The rare cases go to solve_direction itself: Jacobians with a
    non-finite entry, lp-new Jacobians with a row dropped for its norm,
    and LPs left with a redundant row after phase 1.  Critical results
    are classified one by one, as in solve_direction.
    """
    J = np.asarray(J, dtype=float)
    W, m, n = J.shape
    if m == 0 or n == 0:
        return [_solve_alone(jac, variant, epsilon) for jac in J]
    lp_new = variant is DirectionVariant.LP_NEW
    alone = ~np.isfinite(J).all(axis=(1, 2))
    with np.errstate(all="ignore"):
        g = _seq_sum(J[:, i] for i in range(m))
        if lp_new:
            norms = np.sqrt(_seq_sum(J[:, :, j] * J[:, :, j] for j in range(n)))
            alone |= (norms <= TOL_GRAD).any(axis=1)
            box = np.maximum(np.abs(J).max(axis=(1, 2)), np.abs(g).max(axis=1))
            c_beta = np.sqrt(_seq_sum(g[:, j] * g[:, j] for j in range(n))) + epsilon
            G, c_p = J / norms[:, :, None], g
        else:
            box, c_beta, G, c_p = np.ones(W), np.ones(W), J, np.zeros((W, n))
        lps = np.flatnonzero(~alone)
        if alone.any():
            box, c_beta, G, c_p, g = box[lps], c_beta[lps], G[lps], c_p[lps], g[lps]
        # _fast_direction_lp's standard form: p shifted by +box onto
        # [0, 2*box], beta entering as -y with y >= 0.
        cols = np.arange(n)
        As = np.zeros((lps.size, m + n, n + 1))
        As[:, :m, :n] = G
        As[:, :m, n] = 1.0
        As[:, m + cols, cols] = 1.0
        bs = np.empty((lps.size, m + n))
        bs[:, :m] = box[:, None] * _seq_sum(G[:, :, j] for j in range(n))
        bs[:, m:] = (2.0 * box)[:, None]
        Y, outcomes = _simplex_batch(np.concatenate([c_p, -c_beta[:, None]], axis=1), As, bs)
        P = Y[:, :n] - box[:, None]

    out: list = [None] * W
    for w in np.flatnonzero(alone).tolist():
        out[w] = _solve_alone(J[w], variant, epsilon)
    for k, (w, beta, gam, cb) in enumerate(
        zip(lps.tolist(), (-Y[:, n]).tolist(), box.tolist(), c_beta.tolist())
    ):
        if k in outcomes:
            status = outcomes[k]
            if status is None:
                out[w] = _solve_alone(J[w], variant, epsilon)
            elif isinstance(status, LpStatus):
                out[w] = SolverFailure(f"direction LP ended with status {status.value}")
            else:
                out[w] = status
            continue
        if beta < -TOL_ZERO_DIR:
            case = CriticalityCase.NOT_CRITICAL
        else:
            p = P[k].tolist()
            value = _seq_sum(ci * pi for ci, pi in zip(c_p[k].tolist(), p))
            value += cb * beta
            try:
                case = _classify_critical(
                    g[k].tolist(), G[k].tolist(), gam, p, beta, value, variant,
                    cb if lp_new else None,
                )
            except Exception as exc:
                out[w] = exc
                continue
        out[w] = DirectionResult(
            p_star=P[k],
            beta_star=beta,
            dropped_rows=(),
            case=case,
            gamma=gam,
            c_beta=cb if lp_new else None,
        )
    return out


def solve_blockwise(
    jacs: Sequence[np.ndarray],
    variant: DirectionVariant = DirectionVariant.LP_NEW,
    epsilon: float = 1.0,
) -> list[DirectionResult]:
    """Solve independent direction subproblems, one per Jacobian, in order.

    The blocks of each shape are stacked and solved by one batched simplex
    (``_solve_batch``), which gives every block what :func:`solve_direction`
    gives it alone.  The first failing block's solver failure is re-raised
    with the block's index.
    """
    if len(jacs) == 0:
        raise ValueError("jacs must be non-empty")
    jacs = [np.asarray(jac, dtype=float) for jac in jacs]
    shapes: dict = {}
    for i, jac in enumerate(jacs):
        shapes.setdefault(jac.shape, []).append(i)
    out: list = [None] * len(jacs)
    for idx in shapes.values():
        solved = _solve_batch(np.stack([jacs[i] for i in idx]), variant, epsilon)
        for i, res in zip(idx, solved):
            out[i] = res
    for i, res in enumerate(out):
        if isinstance(res, SolverFailure):
            raise SolverFailure(f"block {i}: {res}") from res
        if isinstance(res, Exception):
            raise res
    return out
