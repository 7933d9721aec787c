"""Non-dominated filtering, the global Pareto ratio, and domain scans."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import Problem, _check_integer
from .direction import TOL_GRAD

_SCAN_CHUNK = 4096  # grid cells per batched Jacobian call in critical_region_scan


def nondominated_mask(F: np.ndarray) -> np.ndarray:
    """Boolean mask of rows of F not dominated by any other row.

    Equal duplicate rows all survive (equality is not domination), and
    -0.0 equals 0.0.  Rows may hold +-inf; a NaN, or F with no columns,
    raises ValueError.  The rows are sorted lexicographically, so that
    every dominator of a row comes before it.  For m = 2 a running minimum
    of f2 answers every row; for m = 3 divide and conquer by levels over
    the (f2, f3) ranks does, with one sort per level; larger m compares
    each row with all others.
    """
    F = np.asarray(F, dtype=float)
    if F.ndim != 2:
        raise ValueError("F must be a 2-d array of objective rows")
    M, m = F.shape
    if m == 0:
        raise ValueError("F must have at least one objective column")
    if np.isnan(F).any():
        raise ValueError("F must not hold NaN")
    if M == 0:
        return np.zeros(0, dtype=bool)
    if m == 1:
        return F[:, 0] == F[:, 0].min()
    order = np.lexsort(F.T[::-1])
    Fs = F[order]
    if m == 2:
        sorted_mask = _mask_sorted_2d(Fs)
    elif m == 3:
        sorted_mask = _mask_sorted_3d(Fs)
    else:
        sorted_mask = _mask_sorted_generic(Fs)
    mask = np.empty(M, dtype=bool)
    mask[order] = sorted_mask
    return mask


def _group_starts(Fs: np.ndarray) -> np.ndarray:
    """Index of the first row of each run of identical consecutive rows."""
    new = np.ones(Fs.shape[0], dtype=bool)
    new[1:] = np.any(Fs[1:] != Fs[:-1], axis=1)
    starts = np.nonzero(new)[0]
    # Map every row to the start of its group of equal rows.
    return starts[np.cumsum(new) - 1]


def _mask_sorted_2d(Fs: np.ndarray) -> np.ndarray:
    # In lexicographic order every potential dominator of a row precedes
    # it, except rows equal to it, which cannot dominate.  A row is
    # dominated iff some row before its equality group has f2 <= its f2.
    g = _group_starts(Fs)
    cummin = np.minimum.accumulate(Fs[:, 1])
    return ~((g > 0) & (cummin[np.maximum(g - 1, 0)] <= Fs[:, 1]))


def _mask_sorted_3d(Fs: np.ndarray) -> np.ndarray:
    # A row is dominated iff some row before its equality group has f2 <=
    # and f3 <= its own.  Divide and conquer by levels over each group's
    # first row (Kung, Luccio & Preparata 1975): at block size s every right
    # half-block queries its left sibling, all blocks in one sort.
    g = _group_starts(Fs)
    first = np.flatnonzero(g == np.arange(len(g)))
    K = len(first)
    # Ranks shared by equal values, so -0.0 and 0.0 tie.
    r2, r3 = (np.searchsorted(np.sort(c), c) for c in Fs[first, 1:].T)
    idx = np.arange(K)
    dominated = np.zeros(K, dtype=bool)
    s = 1
    while s < K:
        bk, right = idx // (2 * s) * K, (idx & s) > 0
        # Timsort ("stable") gains from the near-sorted keys of low levels.
        order = np.argsort((bk + r2) * 2 + right, kind="stable")
        # Left rows' f3 ranks, offset by block so that no earlier block's
        # can win the running minimum; right rows enter it as K, above all.
        rank = (r3 - bk)[order]
        right = right[order]
        best = np.minimum.accumulate(np.where(right, K, rank))
        dominated[order] |= right & (best <= rank)
        s *= 2
    keep = np.ones(len(Fs), dtype=bool)
    keep[first] = ~dominated
    return keep[g]


def _mask_sorted_generic(Fs: np.ndarray) -> np.ndarray:
    M = Fs.shape[0]
    mask = np.ones(M, dtype=bool)
    for i in range(M):
        f = Fs[i]
        dominated = np.all(Fs <= f, axis=1) & np.any(Fs != f, axis=1)
        mask[i] = not np.any(dominated)
    return mask


def nondominated_filter(points: Sequence[tuple]) -> list[tuple]:
    """Elements whose f is not dominated by any other element's f.

    ``points`` is a sequence of (x, f) pairs; equal-f duplicates all
    survive.  Output preserves input order.
    """
    if not points:
        return []
    F = np.array([np.asarray(f, dtype=float) for _, f in points])
    mask = nondominated_mask(F)
    return [p for p, keep in zip(points, mask) if keep]


def global_pareto_ratio(runs: Sequence[np.ndarray]) -> tuple[float, np.ndarray]:
    """Fraction of runs with a point non-dominated across all runs.

    ``runs`` holds one (k, m) array of objective rows per run; a run with
    no output, such as a failed one, is a (0, m) array.  A run counts when
    at least one of its rows survives non-dominated filtering of the union
    of every run's rows (equal f-values across runs do not dominate each
    other, so shared optima count for all runs attaining them).  Returns
    the ratio and :func:`nondominated_mask` of the runs' rows stacked in
    order.
    """
    N = len(runs)
    if N < 1:
        raise ValueError("need at least one run")
    mask = nondominated_mask(np.vstack(runs))
    # Each row's run, counted with a set: np.unique loads more of numpy.
    owner = np.repeat(np.arange(N), [len(run) for run in runs])
    return len(set(owner[mask].tolist())) / N, mask


def critical_region_scan(
    problem: Problem,
    box: np.ndarray,
    resolution: Sequence[int],
    pair: tuple[int, int],
    tol: float,
    tol_grad: float = TOL_GRAD,
) -> np.ndarray:
    """Mark grid cells where two normalized gradients nearly cancel.

    Evaluates the Jacobian at the cell centers of a regular grid over
    ``box`` and marks points with ||g_i/||g_i|| + g_j/||g_j|| ||_2 < tol
    for the 1-based objective pair (i, j); cells where either gradient
    norm is <= tol_grad stay unmarked.  Returns a boolean array shaped
    like the grid.

    The cells are evaluated ``_SCAN_CHUNK`` at a time through
    ``problem.jac_batch``, so apart from the one-byte-per-cell mask the
    working memory is bounded by the chunk, not the grid; the result is
    the same as evaluating the cells one by one with ``problem.evaluator``.
    """
    box = np.asarray(box, dtype=float).reshape(-1, 2)
    n = box.shape[0]
    if n != problem.n:
        raise ValueError("box dimension must match the problem")
    resolution = [_check_integer("resolution", r) for r in resolution]
    if len(resolution) != n or any(r < 2 for r in resolution):
        raise ValueError("resolution needs >= 2 cells per axis")
    try:
        i, j = pair
        i, j = _check_integer("pair", i), _check_integer("pair", j)  # True is no objective number
    except (TypeError, ValueError):
        i = j = 0  # not two objective numbers: rejected below
    if not (1 <= i <= problem.m and 1 <= j <= problem.m) or i == j:
        raise ValueError("pair must be two distinct objective numbers")
    if not math.isfinite(tol):
        raise ValueError("tol must be finite")
    if not math.isfinite(tol_grad):
        raise ValueError("tol_grad must be finite")
    i, j = i - 1, j - 1

    axes = [
        box[a, 0] + (np.arange(resolution[a]) + 0.5) * (box[a, 1] - box[a, 0]) / resolution[a]
        for a in range(n)
    ]
    cells = math.prod(resolution)
    mask = np.zeros(cells, dtype=bool)
    for start in range(0, cells, _SCAN_CHUNK):
        # The chunk's cell centres, in the grid's C order.
        idx = np.unravel_index(np.arange(start, min(start + _SCAN_CHUNK, cells)), resolution)
        jac = problem.jac_batch(np.column_stack([axes[a][idx[a]] for a in range(n)]))
        gi, gj = jac[:, i], jac[:, j]
        # np.linalg.norm of a vector is sqrt(dot(g, g)); vecdot is its row-wise form.
        ni = np.sqrt(np.vecdot(gi, gi))
        nj = np.sqrt(np.vecdot(gj, gj))
        with np.errstate(divide="ignore", invalid="ignore"):
            s = gi / ni[:, None] + gj / nj[:, None]
            near = np.sqrt(np.vecdot(s, s)) < tol
        mask[start : start + _SCAN_CHUNK] = (ni > tol_grad) & (nj > tol_grad) & near
    return mask.reshape(resolution)
