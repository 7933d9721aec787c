"""Dense solver for small bounded-variable linear programs.

Solves  min c.rho  s.t.  A rho <= b,  lower <= rho <= upper,
where bound entries may be -inf/+inf.  The problem is reduced to standard
form (nonnegative variables, inequality rows) and solved with a two-phase
primal simplex using Bland's rule, which makes the result deterministic
and guarantees termination.  The tableau is kept in plain Python lists:
the LPs here are tiny (a handful of variables and rows), where list
arithmetic beats numpy's per-element overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

_TOL = 1e-9  # feasibility / optimality tolerance
_PIVOT_MIN = 1e-11  # below this the pivot is considered a numerical breakdown


class SolverFailure(RuntimeError):
    """Numerical breakdown inside the simplex iteration."""


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpSpec:
    c: np.ndarray  # (d,)
    A: np.ndarray  # (r, d)
    b: np.ndarray  # (r,)
    lower: np.ndarray  # (d,), entries may be -inf
    upper: np.ndarray  # (d,), entries may be +inf

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        A = np.asarray(self.A, dtype=float).reshape(-1, c.size)
        b = np.asarray(self.b, dtype=float)
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if A.shape != (b.size, c.size) or lower.size != c.size or upper.size != c.size:
            raise ValueError("inconsistent LP dimensions")
        if np.any(lower > upper):
            raise ValueError("lower bounds must not exceed upper bounds")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("non-finite entries in c, A, or b")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def d(self) -> int:
        return self.c.size


@dataclass(frozen=True)
class LpResult:
    status: LpStatus
    rho: Optional[np.ndarray] = None
    objective_value: Optional[float] = None


def _to_standard_form(spec: LpSpec):
    """Rewrite the bounded-variable LP as min cs.y, As y <= bs, y >= 0.

    Returns (cs, As, bs, col_orig, col_sign, shift) so that
    rho = shift + sum over standard columns of sign * y.
    """
    d = spec.d
    cols = []  # (orig index, sign)
    extra_rows = []  # (std var index, rhs) for two-sided bounds
    shift = np.zeros(d)
    for j in range(d):
        lo, up = spec.lower[j], spec.upper[j]
        if np.isfinite(lo):
            cols.append((j, 1.0))
            shift[j] = lo
            if np.isfinite(up):
                extra_rows.append((len(cols) - 1, up - lo))
        elif np.isfinite(up):
            cols.append((j, -1.0))
            shift[j] = up
        else:
            cols.append((j, 1.0))
            cols.append((j, -1.0))

    col_orig = np.array([j for j, _ in cols])
    col_sign = np.array([s for _, s in cols])

    As_main = spec.A[:, col_orig] * col_sign
    bs_main = spec.b - spec.A @ shift
    cs = spec.c[col_orig] * col_sign

    if extra_rows:
        Ae = np.zeros((len(extra_rows), len(cols)))
        be = np.empty(len(extra_rows))
        for i, (k, rhs) in enumerate(extra_rows):
            Ae[i, k] = 1.0
            be[i] = rhs
        As = np.vstack([As_main, Ae])
        bs = np.concatenate([bs_main, be])
    else:
        As, bs = As_main, bs_main
    return cs, As, bs, col_orig, col_sign, shift


def _pivot(T, basis, nrows, width, row, col):
    Tr = T[row]
    piv = Tr[col]
    if abs(piv) < _PIVOT_MIN:
        raise SolverFailure(f"pivot {piv} below breakdown threshold")
    inv = 1.0 / piv
    for j in range(width):
        Tr[j] *= inv
    for i in range(nrows + 1):
        if i != row:
            Ti = T[i]
            f = Ti[col]
            if f != 0.0:
                for j in range(width):
                    Ti[j] -= f * Tr[j]
    basis[row] = col


def _iterate(T, basis, nrows, ncols):
    """Bland-rule pivots to optimality; False means unbounded."""
    width = ncols + 1
    cost = T[nrows]
    while True:
        entering = -1
        for j in range(ncols):
            if cost[j] < -_TOL:
                entering = j
                break
        if entering < 0:
            return True
        best_row, best_ratio = -1, float("inf")
        for i in range(nrows):
            a = T[i][entering]
            if a > _TOL:
                ratio = T[i][ncols] / a
                if ratio < best_ratio - _TOL or (
                    abs(ratio - best_ratio) <= _TOL
                    and (best_row < 0 or basis[i] < basis[best_row])
                ):
                    best_row, best_ratio = i, ratio
        if best_row < 0:
            return False
        _pivot(T, basis, nrows, width, best_row, entering)


def _simplex_core(cs, As, bs):
    """Two-phase simplex on standard form (lists). Returns (status, y)."""
    nrows, nvars = len(bs), len(cs)
    nart = sum(1 for b in bs if b < 0)
    ncols = nvars + nrows + nart
    T = [[0.0] * (ncols + 1) for _ in range(nrows + 1)]
    basis = [0] * nrows
    art_cols = []
    k = 0
    for i in range(nrows):
        neg = bs[i] < 0
        s = -1.0 if neg else 1.0
        row = T[i]
        Ai = As[i]
        for j in range(nvars):
            row[j] = s * Ai[j]
        row[nvars + i] = s
        row[ncols] = s * bs[i]
        if neg:
            col = nvars + nrows + k
            row[col] = 1.0
            basis[i] = col
            art_cols.append(col)
            k += 1
        else:
            basis[i] = nvars + i

    if nart:
        # Phase 1: minimize the sum of artificials.
        cost = T[nrows]
        art_set = set(art_cols)
        for i in range(nrows):
            if basis[i] in art_set:
                Ti = T[i]
                for j in range(ncols + 1):
                    cost[j] -= Ti[j]
        for col in art_cols:
            cost[col] = 0.0
        if not _iterate(T, basis, nrows, ncols):
            raise SolverFailure("phase-1 objective unbounded")
        if -T[nrows][ncols] > 1e-7:
            return LpStatus.INFEASIBLE, None
        # Drive leftover (degenerate) artificials out, drop redundant rows.
        keep = []
        for i in range(nrows):
            if basis[i] in art_set:
                for j in range(nvars + nrows):
                    if abs(T[i][j]) > _TOL:
                        _pivot(T, basis, nrows, ncols + 1, i, j)
                        break
                else:
                    continue  # redundant row
            keep.append(i)
        width = nvars + nrows
        T = [[T[i][j] for j in range(width)] + [T[i][ncols]] for i in keep]
        basis = [basis[i] for i in keep]
        nrows = len(basis)
        T.append([0.0] * (width + 1))
        ncols = width

    # Phase 2: install the true objective row.
    cost = T[nrows]
    for j in range(ncols + 1):
        cost[j] = 0.0
    for j in range(nvars):
        cost[j] = cs[j]
    for i in range(nrows):
        bcol = basis[i]
        cb = cs[bcol] if bcol < nvars else 0.0
        if cb != 0.0:
            Ti = T[i]
            for j in range(ncols + 1):
                cost[j] -= cb * Ti[j]
    if not _iterate(T, basis, nrows, ncols):
        return LpStatus.UNBOUNDED, None

    y = [0.0] * nvars
    for i in range(nrows):
        if basis[i] < nvars:
            y[basis[i]] = T[i][ncols]
    return LpStatus.OPTIMAL, y


def solve_lp(spec: LpSpec) -> LpResult:
    """Solve a bounded-variable LP; infeasible/unbounded go into status."""
    cs, As, bs, col_orig, col_sign, shift = _to_standard_form(spec)

    if bs.size == 0:
        # Pure box problem: the optimum sits at y = 0 unless some cost is
        # negative, in which case that variable escapes to +infinity.
        if np.any(cs < -_TOL):
            return LpResult(status=LpStatus.UNBOUNDED)
        rho = shift
        return LpResult(LpStatus.OPTIMAL, rho=rho, objective_value=float(spec.c @ rho))

    status, y = _simplex_core(cs.tolist(), As.tolist(), bs.tolist())
    if status is not LpStatus.OPTIMAL:
        return LpResult(status=status)
    rho = shift.copy()
    np.add.at(rho, col_orig, col_sign * np.asarray(y))
    return LpResult(LpStatus.OPTIMAL, rho=rho, objective_value=float(spec.c @ rho))
