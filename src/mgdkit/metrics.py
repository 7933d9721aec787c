"""Non-dominated filtering, the global Pareto ratio, and domain scans."""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from typing import Sequence

import numpy as np

from .core import Problem
from .direction import TOL_GRAD

_SCAN_CHUNK = 4096  # grid cells per batched Jacobian call in critical_region_scan


def nondominated_mask(F: np.ndarray) -> np.ndarray:
    """Boolean mask of rows of F not dominated by any other row.

    Equal duplicate rows all survive (equality is not domination).  Uses
    sweep algorithms for m <= 3 (sort by the first objective, then check
    each point against the minima of the points before it); falls back to
    pairwise comparison for larger m.
    """
    F = np.asarray(F, dtype=float)
    if F.ndim != 2:
        raise ValueError("F must be a 2-d array of objective rows")
    M, m = F.shape
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
    # Sweep in lexicographic order keeping a staircase of the (f2, f3)
    # minima of the rows seen so far: keys ascending in f2, values
    # strictly descending in f3.  A row is dominated iff the staircase
    # entry with the largest f2 <= its f2 has f3 <= its f3.  Rows of an
    # equality group are queried before any of them is inserted.
    M = Fs.shape[0]
    mask = np.ones(M, dtype=bool)
    keys: list[float] = []  # f2, ascending
    vals: list[float] = []  # f3, strictly descending
    rows = Fs.tolist()
    i = 0
    while i < M:
        j = i + 1
        while j < M and rows[j] == rows[i]:
            j += 1
        _, f2, f3 = rows[i]
        pos = bisect_right(keys, f2) - 1
        if pos >= 0 and vals[pos] <= f3:
            mask[i:j] = False
        else:
            ins = bisect_left(keys, f2)
            end = ins
            while end < len(keys) and vals[end] >= f3:
                end += 1
            keys[ins:end] = [f2]
            vals[ins:end] = [f3]
        i = j
    return mask


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
    ``problem.eval_jac_batch``, so apart from the one-byte-per-cell mask
    the working memory is bounded by the chunk, not the grid; the result
    is the same as evaluating the cells one by one with
    ``problem.evaluator``.
    """
    box = np.asarray(box, dtype=float).reshape(-1, 2)
    n = box.shape[0]
    if n != problem.n:
        raise ValueError("box dimension must match the problem")
    resolution = [int(r) for r in resolution]
    if len(resolution) != n or any(r < 2 for r in resolution):
        raise ValueError("resolution needs >= 2 cells per axis")
    try:
        i, j = map(operator.index, pair)
    except TypeError:
        i = j = 0  # not objective numbers: rejected below
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
        jac = problem.eval_jac_batch(np.column_stack([axes[a][idx[a]] for a in range(n)]))
        gi, gj = jac[:, i], jac[:, j]
        # np.linalg.norm of a vector is sqrt(dot(g, g)); vecdot is its row-wise form.
        ni = np.sqrt(np.vecdot(gi, gi))
        nj = np.sqrt(np.vecdot(gj, gj))
        with np.errstate(divide="ignore", invalid="ignore"):
            s = gi / ni[:, None] + gj / nj[:, None]
            near = np.sqrt(np.vecdot(s, s)) < tol
        mask[start : start + _SCAN_CHUNK] = (ni > tol_grad) & (nj > tol_grad) & near
    return mask.reshape(resolution)
