"""Dense solver for small bounded-variable linear programs.

Solves  min c.rho  s.t.  A rho <= b,  lower <= rho <= upper,
where bound entries may be -inf/+inf.  The problem is reduced to standard
form (nonnegative variables, inequality rows) and solved with a two-phase
primal simplex using Bland's rule, which makes the result deterministic
and guarantees termination.

There are two statements of the simplex.  ``_simplex_core`` keeps one
tableau in plain Python lists: the LPs here are tiny (a handful of
variables and rows), and for one LP list arithmetic beats numpy's
per-call overhead.  ``_simplex_batch`` solves many LPs of one shape in
one padded numpy tableau and makes, for each of them, the pivots
``_simplex_core`` makes, with the same floating-point operations on
every entry the scalar pivot updates; the entries it skips (see
``_pivot``) could differ only in the sign of a zero that nothing reads,
so y is the same to the bit.  Both run the same phases on one tableau:
phase 1 drives the artificials out where a row has an entry above
``_TOL`` to pivot on, and phase 2 keeps the artificial columns but never
brings one in, so no row is dropped and neither statement hands an LP
to the other.
``direction._simplex`` picks one by the number of LPs it is given: the
batch from ``direction._BATCH_MIN_WIDTH`` LPs on, the measured
crossover, and the scalar simplex per LP below.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

_TOL = 1e-9  # feasibility / optimality tolerance
_PHASE1_TOL = 1e-7  # a phase-1 optimum (sum of artificials) above this: infeasible


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
        if np.isnan(lower).any() or np.isnan(upper).any():
            raise ValueError("bounds must not be NaN")
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


def _pivot(T, basis, nrows, ncols, row, col):
    """Pivot on T[row][col], updating the first ``ncols`` columns and the
    RHS.  A column where the scaled pivot row is ±0 is left as it is: with
    finite multipliers the full update would change at most the sign of a
    zero there, and no tolerance test, nonzero multiplier or RHS update
    reads that sign.  The RHS, which y reads, is always updated."""
    Tr = T[row]
    inv = 1.0 / Tr[col]
    rhs = len(Tr) - 1
    Tr[rhs] *= inv
    cols = [rhs]
    for j in range(ncols):
        if Tr[j] != 0.0:
            Tr[j] *= inv
            cols.append(j)
    for i in range(nrows + 1):
        if i != row:
            Ti = T[i]
            f = Ti[col]
            if f != 0.0:
                for j in cols:
                    Ti[j] -= f * Tr[j]
    basis[row] = col


def _iterate(T, basis, nrows, nenter):
    """Bland-rule pivots to optimality, bringing in only the first
    ``nenter`` columns, which are all that its pivots update besides the
    RHS; False means unbounded."""
    cost = T[nrows]
    while True:
        entering = -1
        for j in range(nenter):
            if cost[j] < -_TOL:
                entering = j
                break
        if entering < 0:
            return True
        best_row, best_ratio = -1, float("inf")
        for i in range(nrows):
            a = T[i][entering]
            if a > _TOL:
                ratio = T[i][-1] / a
                if ratio < best_ratio - _TOL or (
                    abs(ratio - best_ratio) <= _TOL
                    and (best_row < 0 or basis[i] < basis[best_row])
                ):
                    best_row, best_ratio = i, ratio
        if best_row < 0:
            return False
        _pivot(T, basis, nrows, nenter, best_row, entering)


def _simplex_core(cs, As, bs):
    """Two-phase simplex on standard form (lists). Returns (status, y)."""
    nrows, nvars = len(bs), len(cs)
    nart = sum(1 for b in bs if b < 0)
    base = nvars + nrows  # the first artificial column
    ncols = base + nart
    # Row i is s * [As[i], e_i, RHS bs[i]] with s = -1 where bs[i] < 0, plus
    # its artificial there; -a is exactly (-1.0) * a, as a is 1.0 * a.
    pad = [0.0] * (ncols + 1 - nvars)
    T, basis = [], []
    k = base
    for i in range(nrows):
        b = bs[i]
        if b < 0:
            row = [-a for a in As[i]] + pad
            row[nvars + i], row[ncols], row[k] = -1.0, -b, 1.0
            basis.append(k)
            k += 1
        else:
            row = As[i] + pad
            row[nvars + i], row[ncols] = 1.0, b
            basis.append(nvars + i)
        T.append(row)
    T.append([0.0] * (ncols + 1))

    if nart:
        # Phase 1: minimize the sum of artificials.
        cost = T[nrows]
        for i in range(nrows):
            if basis[i] >= base:
                Ti = T[i]
                for j in range(ncols + 1):
                    cost[j] -= Ti[j]
        for j in range(base, ncols):
            cost[j] = 0.0
        if not _iterate(T, basis, nrows, ncols):
            raise SolverFailure("phase-1 objective unbounded")
        if -T[nrows][ncols] > _PHASE1_TOL:
            return LpStatus.INFEASIBLE, None
        # Drive leftover (degenerate) artificials out on the first column
        # with an entry above _TOL.  Where a row has none, its artificial
        # stays basic at a level within _PHASE1_TOL of 0; phase 2 never
        # brings an artificial in, and y never reads one.
        for i in range(nrows):
            if basis[i] >= base:
                Ti = T[i]
                for j in range(base):
                    if abs(Ti[j]) > _TOL:
                        _pivot(T, basis, nrows, ncols, i, j)
                        break

    # Phase 2: install the true objective row, in the first base columns:
    # nothing reads its artificial columns or its RHS from here on.
    T[nrows] = cost = cs + pad
    for i in range(nrows):
        bcol = basis[i]
        cb = cs[bcol] if bcol < nvars else 0.0
        if cb != 0.0:
            Ti = T[i]
            for j in range(base):
                cost[j] -= cb * Ti[j]
    if not _iterate(T, basis, nrows, base):
        return LpStatus.UNBOUNDED, None

    y = [0.0] * nvars
    for i in range(nrows):
        if basis[i] < nvars:
            y[basis[i]] = T[i][ncols]
    return LpStatus.OPTIMAL, y


def _bland_rows(ratios, basis):
    """``_iterate``'s leaving-row fold for many LPs at once: the rows in
    order, each taken if its ratio beats the best by more than ``_TOL``,
    or ties it within ``_TOL`` with a smaller basic column.  Rows that
    may not leave hold +inf.  Returns each LP's row, -1 where none.

    The tolerance makes the outcome depend on the row order, so it is not
    an argmin of the ratios.
    """
    best = np.full(len(ratios), np.inf)
    best_row = np.full(len(ratios), -1)
    best_basis = np.full(len(ratios), np.iinfo(basis.dtype).max)
    for i in range(ratios.shape[1]):
        ratio, b = ratios[:, i], basis[:, i]
        take = (ratio < best - _TOL) | ((np.abs(ratio - best) <= _TOL) & (b < best_basis))
        best = np.where(take, ratio, best)
        best_row[take] = i
        best_basis = np.where(take, b, best_basis)
    return best_row


def _pivot_batch(T, basis, lps, rows, cols):
    """``_pivot`` at (rows[k], cols[k]) of LP lps[k], for every k at once:
    Tr = T[row] * (1/piv), then Ti -= f * Tr for every other row whose
    entry f in the pivot column is nonzero.  Both simplexes pivot only on
    entries with magnitude above ``_TOL``."""
    piv = T[lps, rows, cols]
    whole = lps.size == len(T)
    sub = T if whole else T[lps]
    at = np.arange(lps.size)
    Tr = sub[at, rows] * (1.0 / piv)[:, None]
    f = sub[at, :, cols]
    f[at, rows] = 0.0
    np.subtract(sub, f[:, :, None] * Tr[:, None, :], out=sub, where=(f != 0.0)[:, :, None])
    sub[at, rows] = Tr
    if not whole:
        T[lps] = sub
    basis[lps, rows] = cols


def _iterate_batch(T, basis, ncols):
    """``_iterate`` for every LP of a batched tableau, in place.

    Each LP makes the pivots ``_iterate`` makes for it alone, until no
    reduced cost in its first ``ncols`` columns is below ``-_TOL``; an LP
    at its optimum (or with a zeroed cost row) stays as it is.  Returns
    the LPs found unbounded, whose cost rows are then zeroed.
    """
    nrows = T.shape[1] - 1
    cost, rhs = T[:, nrows, :ncols], T[:, :nrows, -1]
    every = np.arange(len(T))
    unbounded = []
    while True:
        neg = cost < -_TOL
        entering = neg.argmax(axis=1)  # the first negative reduced cost
        lps = np.flatnonzero(neg[every, entering])
        if not lps.size:
            return unbounded
        cols = entering[lps]
        col = T[lps, :nrows, cols]
        ratios = np.divide(rhs[lps], col, out=np.full(col.shape, np.inf), where=col > _TOL)
        # Where the second smallest ratio exceeds the smallest one, r, by
        # more than 2*_TOL + 1e-15*|r| (the difference rounded as the fold
        # rounds it), the fold of _bland_rows takes r's row: r beats any
        # earlier best by more than _TOL after rounding, and no later row
        # comes within _TOL of it.  Ties, near-ties and LPs without a
        # candidate row go through the fold.  A one-row LP has no second.
        rows = ratios.argmin(axis=1)
        best = ratios[np.arange(lps.size), rows]
        second = np.partition(ratios, 1, axis=1)[:, 1] if nrows > 1 else np.inf
        clear = second - best > 2 * _TOL + 1e-15 * np.abs(best)
        if not clear.all():
            fold = np.flatnonzero(~clear)
            rows[fold] = _bland_rows(ratios[fold], basis[lps[fold]])
            none = rows < 0
            if none.any():
                unbounded.extend(lps[none].tolist())
                T[lps[none], nrows] = 0.0
                lps, rows, cols = lps[~none], rows[~none], cols[~none]
        _pivot_batch(T, basis, lps, rows, cols)


def _simplex_batch(cs, As, bs):
    """``_simplex_core`` for W standard-form LPs of one shape at once.

    ``cs`` is (W, nvars), ``As`` (W, nrows, nvars) and ``bs`` (W, nrows).
    All LPs share one padded (W, nrows + 1, nvars + nrows + max_art + 1)
    tableau: an LP with fewer artificials has zero columns there, whose
    zero cost never lets them enter, and an LP without artificials has a
    zero phase-1 cost row, so phase 1 leaves it as it is.  Phase 2 runs
    on the phase-1 tableau and leaves the artificial columns out of the
    entering scan, as ``_simplex_core`` does.  Every LP makes the pivots
    ``_simplex_core`` makes for it alone, so its y is the same to the bit.

    Returns (Y, outcomes): Y is (W, nvars), valid where the LP is optimal;
    outcomes maps every other LP to its LpStatus or its SolverFailure.
    """
    W, nrows, nvars = As.shape
    neg = bs < 0
    base = nvars + nrows  # the first artificial column
    ncols = base + int(neg.sum(axis=1).max(initial=0))
    art = base + np.cumsum(neg, axis=1) - 1  # each LP numbers its own artificials
    rows = np.arange(nrows)
    s = np.where(neg, -1.0, 1.0)
    T = np.zeros((W, nrows + 1, ncols + 1))
    T[:, :nrows, :nvars] = s[:, :, None] * As
    T[:, rows, nvars + rows] = s
    T[:, :nrows, -1] = s * bs
    basis = np.where(neg, art, nvars + rows)
    w, i = np.nonzero(neg)
    T[w, i, art[w, i]] = 1.0
    cost = T[:, nrows]
    outcomes: dict = {}

    with np.errstate(all="ignore"):
        if w.size:
            # Phase 1: minimize the sum of artificials.
            for i in np.flatnonzero(neg.any(axis=0)).tolist():
                np.subtract(cost, T[:, i], out=cost, where=neg[:, i, None])
            cost[:, base:ncols] = 0.0
            for j in _iterate_batch(T, basis, ncols):
                outcomes[j] = SolverFailure("phase-1 objective unbounded")
            for j in np.flatnonzero(-cost[:, -1] > _PHASE1_TOL).tolist():
                outcomes.setdefault(j, LpStatus.INFEASIBLE)
            # Drive leftover (degenerate) artificials out, row by row, on
            # the first column with an entry above _TOL, as _simplex_core
            # does; an LP whose row has none keeps its artificial basic.
            settled = np.zeros(W, dtype=bool)
            settled[list(outcomes)] = True
            for i in np.flatnonzero((basis >= base).any(axis=0)).tolist():
                big = np.abs(T[:, i, :base]) > _TOL
                lps = np.flatnonzero((basis[:, i] >= base) & ~settled & big.any(axis=1))
                if lps.size:
                    _pivot_batch(T, basis, lps, np.full(lps.size, i), big[lps].argmax(axis=1))

        # Phase 2: install the true objective row.
        cost[:] = 0.0
        cost[:, :nvars] = cs
        cb = np.where(
            basis < nvars, np.take_along_axis(cs, np.minimum(basis, nvars - 1), axis=1), 0.0
        )
        for i in np.flatnonzero((cb != 0.0).any(axis=0)).tolist():
            np.subtract(
                cost, cb[:, i, None] * T[:, i], out=cost, where=(cb[:, i] != 0.0)[:, None]
            )
        cost[list(outcomes)] = 0.0
        for j in _iterate_batch(T, basis, base):
            outcomes[j] = LpStatus.UNBOUNDED

    Y = np.zeros((W, nvars))
    w, i = np.nonzero(basis < nvars)
    Y[w, basis[w, i]] = T[w, i, -1]
    return Y, outcomes


def solve_lp(spec: LpSpec) -> LpResult:
    """Solve a bounded-variable LP; infeasible/unbounded go into status."""
    cs, As, bs, col_orig, col_sign, shift = _to_standard_form(spec)
    status, y = _simplex_core(cs.tolist(), As.tolist(), bs.tolist())
    if status is not LpStatus.OPTIMAL:
        return LpResult(status=status)
    rho = shift.copy()
    np.add.at(rho, col_orig, col_sign * np.asarray(y))
    return LpResult(LpStatus.OPTIMAL, rho=rho, objective_value=float(spec.c @ rho))
