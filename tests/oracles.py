"""Reference code for the tests: slow, independent oracles.

None of this runs in an experiment.  Each function restates a quantity
the library computes by other means, so the tests can compare the two:
criticality by sampling directions, LP optima by enumerating vertices,
Jacobians by central differences, lp-new's normalized rows, the
critical-region scan cell by cell, the descent one start at a time,
non-dominance pair by pair, a variant's Pareto ratio and front in two
stages, and the output files' JSON and CSV text one value at a time.
"""

import json
from itertools import combinations
from typing import Optional

import numpy as np

from mgdkit import (
    BacktrackParams,
    BacktrackVariant,
    DirectionConfig,
    Evaluation,
    LpSpec,
    Problem,
    RunResult,
    Termination,
    dominates,
    evaluate,
    nondominated_mask,
    solve_direction,
)
from mgdkit.descent import TraceRecord
from mgdkit.direction import TOL_ZERO_DIR


class OracleInfeasible(Exception):
    """The vertex-enumeration oracle found no feasible point."""


def critical_oracle(evaluation: Evaluation, n_samples: int, seed: int) -> bool:
    """Sampling oracle for Pareto criticality.

    Draws ``n_samples`` unit directions uniformly on the sphere and returns
    False as soon as one is a shared descent direction (jac @ v < 0
    componentwise).  A True answer only means no shared descent direction
    was found among the samples; callers must use instances whose descent
    cones are wide enough for the sample size.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    jac = evaluation.jac
    n = jac.shape[1]
    rng = np.random.default_rng(seed)
    batch = 4096
    remaining = n_samples
    while remaining > 0:
        k = min(batch, remaining)
        V = rng.normal(size=(k, n))
        norms = np.linalg.norm(V, axis=1)
        V = V[norms > 0] / norms[norms > 0, None]
        if np.any(np.all(V @ jac.T < 0, axis=1)):
            return False
        remaining -= k
    return True


def enumerate_vertices_oracle(spec: LpSpec) -> float:
    """Exact optimum by enumerating basic feasible points.

    Requires d <= 6, r <= 10, and finite bounds.  Raises
    :class:`OracleInfeasible` when no feasible point exists.
    """
    d, r = spec.d, spec.b.size
    if d > 6 or r > 10:
        raise ValueError("oracle limited to d <= 6, r <= 10")
    if not (np.all(np.isfinite(spec.lower)) and np.all(np.isfinite(spec.upper))):
        raise ValueError("oracle requires finite bounds")

    rows = [spec.A] if r else []
    rhs = [spec.b] if r else []
    eye = np.eye(d)
    rows += [eye, -eye]
    rhs += [spec.upper, -spec.lower]
    M = np.vstack(rows)
    q = np.concatenate(rhs)

    best = np.inf
    feasible = False
    for idx in combinations(range(M.shape[0]), d):
        sub = M[list(idx)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x = np.linalg.solve(sub, q[list(idx)])
        if np.all(M @ x <= q + 1e-8):
            feasible = True
            best = min(best, float(spec.c @ x))
    if not feasible:
        raise OracleInfeasible("no basic feasible point")
    return best


def finite_difference_jacobian(problem: Problem, x: np.ndarray, h: float) -> np.ndarray:
    """Central-difference Jacobian, the oracle for analytic gradients."""
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=float)
    jac = np.empty((problem.m, problem.n))
    for j in range(problem.n):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        fp, _ = problem.evaluator(xp)
        fm, _ = problem.evaluator(xm)
        jac[:, j] = (np.asarray(fp) - np.asarray(fm)) / (2.0 * h)
    return jac


def normalize_rows(jac: np.ndarray, tol_grad: float) -> tuple[np.ndarray, tuple[int, ...]]:
    """Euclidean-normalize rows, dropping those with norm <= tol_grad."""
    if tol_grad <= 0:
        raise ValueError("tol_grad must be positive")
    jac = np.asarray(jac, dtype=float)
    norms = np.linalg.norm(jac, axis=1)
    keep = norms > tol_grad
    dropped = tuple(int(i) for i in np.nonzero(~keep)[0])
    return jac[keep] / norms[keep, None], dropped


def critical_region_scan_oracle(
    problem: Problem, box: np.ndarray, resolution, pair, tol: float, tol_grad: float
) -> np.ndarray:
    """``critical_region_scan`` one cell at a time through ``problem.evaluator``."""
    box = np.asarray(box, dtype=float).reshape(-1, 2)
    n = box.shape[0]
    axes = [
        box[a, 0] + (np.arange(resolution[a]) + 0.5) * (box[a, 1] - box[a, 0]) / resolution[a]
        for a in range(n)
    ]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    pts = grid.reshape(-1, n)
    i, j = pair[0] - 1, pair[1] - 1
    mask = np.zeros(pts.shape[0], dtype=bool)
    for idx, x in enumerate(pts):
        _, jac = problem.evaluator(x)
        gi, gj = jac[i], jac[j]
        ni = np.linalg.norm(gi)
        nj = np.linalg.norm(gj)
        if ni <= tol_grad or nj <= tol_grad:
            continue
        mask[idx] = np.linalg.norm(gi / ni + gj / nj) < tol
    return mask.reshape(resolution)


def _backtrack_oracle(
    problem: Problem, ev: Evaluation, p: np.ndarray, params: BacktrackParams
) -> tuple[float, np.ndarray, bool]:
    """The Armijo ladder of one run: the first step eta0 * alpha**t that
    decreases every objective enough, else the fallback step."""
    x, f, slopes = ev.x, ev.f, ev.jac @ p
    etas = params._ladder
    F = problem.eval_f_batch(x + etas[:, None] * p)
    ok = np.all(F <= f + etas[:, None] * (params.c1 * slopes), axis=1)
    hits = np.nonzero(ok)[0]
    if hits.size:
        eta = float(etas[hits[0]])
        return eta, x + eta * p, True
    eta = params.fallback_step
    return eta, x + eta * p, False


def _at_iteration(k: int, exc: Exception) -> Exception:
    """``exc`` with the iteration it ended: the same type and attributes,
    the message prefixed, unless the type takes other constructor
    arguments; then ``exc`` itself."""
    try:
        err = type(exc)(f"iteration {k}: {exc}")
    except Exception:
        return exc
    err.__dict__.update(exc.__dict__)
    err.__cause__ = exc
    return err


def run_mgd_oracle(
    problem: Problem,
    x0: np.ndarray,
    params: BacktrackParams,
    dir_cfg: DirectionConfig,
    K: Optional[int] = None,
    record_trace: bool = True,
) -> RunResult:
    """One multiple-gradient descent sequence from ``x0``, one iteration at
    a time through ``evaluate``: the reference for ``run_mgd_batch``."""
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
        raise _at_iteration(0, exc)

    for k in range(K):
        try:
            d = solve_direction(ev.jac, dir_cfg.variant, dir_cfg.epsilon)
            if not params.paper_semantics and np.abs(d.p_star).max() <= TOL_ZERO_DIR:
                record(k, ev, d, 0.0, True)
                termination = Termination.ZERO_DIRECTION
                break

            eta, x_new, satisfied = _backtrack_oracle(problem, ev, d.p_star, params)
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
            raise _at_iteration(k, exc)

        if bt_new and not dominates(ev_new.f, ev.f):
            stored_x.append(ev.x)
            stored_f.append(ev.f)
        record(k, ev, d, eta, satisfied)
        ev = ev_new
        if eta == 0.0 and not params.paper_semantics:
            termination = Termination.ZERO_DIRECTION
            break
    else:
        k = K

    keep = np.flatnonzero(nondominated_mask(np.array(stored_f + [ev.f]))[:-1])
    return RunResult(
        trace=trace,
        x_hat=ev.x,
        f_hat=ev.f,
        stored_x=np.array(stored_x).reshape(-1, problem.n)[keep],
        stored_f=np.array(stored_f).reshape(-1, problem.m)[keep],
        termination=termination,
        iterations=k,
    )


def nondominated_mask_oracle(F: np.ndarray) -> np.ndarray:
    """``nondominated_mask`` by comparing every pair of rows with ``dominates``."""
    F = np.asarray(F, dtype=float)
    return np.array([not any(dominates(g, f) for g in F) for f in F], dtype=bool)


def ratio_and_front_oracle(results: list) -> tuple[float, list]:
    """A variant's Pareto ratio and front in two stages, pair by pair: each
    run's final point filtered together with its stored points, then the
    union of the survivors, run by run.  ``results`` holds one RunResult per
    run, None for a failed one; the front is a list of (x, f) pairs."""
    union = []
    for j, r in enumerate(results):
        if r is not None:
            own = [(r.x_hat, r.f_hat), *zip(r.stored_x, r.stored_f)]
            union += [(j, x, f) for x, f in own if not any(dominates(g, f) for _, g in own)]
    front = [(j, x, f) for j, x, f in union if not any(dominates(g, f) for _, _, g in union)]
    return len({j for j, _, _ in front}) / len(results), [(x, f) for _, x, f in front]


def json_text_oracle(obj, indent: int = 0) -> str:
    """The JSON text of ``harness._json_text``, one recursive call per
    value: floats at 17 significant digits, keys and other scalars through
    ``json.dumps``."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {json_text_oracle(v, indent + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {json_text_oracle(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    return json.dumps(str(obj))


def _cell_oracle(value) -> str:
    if isinstance(value, float):
        return format(float(value), ".17g")
    if isinstance(value, bool):
        return str(int(value))
    return str(value)


def table_text_oracle(rows: list, fmt: str) -> str:
    """The text of ``harness._table_text``, one call per cell: in CSV a list
    value spreads over one column per entry, headed by its key and index."""
    if fmt == "json":
        return json_text_oracle(rows) + "\n"
    if not rows:
        return ""
    header = []
    for k, v in rows[0].items():
        header += [f"{k}{i}" for i in range(len(v))] if isinstance(v, list) else [k]
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row.values():
            cells += map(_cell_oracle, v) if isinstance(v, list) else [_cell_oracle(v)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
