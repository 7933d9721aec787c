"""Reference code for the tests: slow, independent oracles.

None of this runs in an experiment.  Each function restates a quantity
the library computes by other means, so the tests can compare the two:
criticality by sampling directions, LP optima by enumerating vertices,
Jacobians by central differences, lp-new's normalized rows, the
direction LPs and their classification on plain lists, the
critical-region scan cell by cell, the descent one start at a time,
non-dominance pair by pair, a variant's Pareto ratio and front in two
stages, and the output files' JSON and CSV text one value at a time, from
front and trace rows as dicts.  ``classify_subsequences`` splits a
trace into segments by how they end; only the tests use it.
"""

import json
import math
from enum import Enum
from functools import reduce
from itertools import combinations
from operator import add
from typing import Optional

import numpy as np

from mgdkit import (
    BacktrackParams,
    BacktrackVariant,
    CriticalityCase,
    DirectionConfig,
    DirectionResult,
    DirectionVariant,
    Evaluation,
    LpSpec,
    LpStatus,
    Problem,
    RunResult,
    SolverFailure,
    Termination,
    dominates,
    evaluate,
    nondominated_mask,
    solve_direction,
)
from mgdkit.descent import TraceRecord
from mgdkit.direction import TOL_GRAD, TOL_ZERO_DIR
from mgdkit.lp import _simplex_core


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


def _direction_lp_oracle(
    c_p: list, G: list, box: float, c_beta: Optional[float] = None
) -> tuple[float, list, float]:
    """min c_p.p + c_beta*beta  s.t.  G p <= beta e, |p|inf <= box, beta <= 0.

    Without ``c_beta`` the beta column is left out, which gives the
    non-ascent cone LP  min c_p.p  s.t.  G p <= 0, |p|inf <= box  (and
    beta = 0).  Plain-list reduction to the simplex's standard form.
    Returns (value, p, beta).
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


def solve_direction_oracle(
    jac: np.ndarray,
    variant: DirectionVariant = DirectionVariant.LP_NEW,
    epsilon: float = 1.0,
) -> DirectionResult:
    """``solve_direction`` stated on plain lists, one Jacobian at a time:
    the same LP, the same in-order sums and the same simplex, so its
    results are equal to the bit, except that it does not reject a
    non-finite or empty Jacobian."""
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
        value, p, beta_star = _direction_lp_oracle(g, G, gam, c_beta)
    else:
        dropped = ()
        G = J
        value, p, beta_star = _direction_lp_oracle([0.0] * n, G, 1.0, 1.0)
        gam = 1.0
        c_beta = None

    if beta_star < -TOL_ZERO_DIR:
        case = CriticalityCase.NOT_CRITICAL
    else:
        case = _classify_critical_oracle(g, G, gam, p, beta_star, value, variant, c_beta)

    return DirectionResult(
        p_star=np.array(p),
        beta_star=beta_star,
        dropped_rows=dropped,
        case=case,
        gamma=gam,
        c_beta=c_beta,
    )


def _classify_critical_oracle(
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
        min_gp = _direction_lp_oracle(g, G, box)[0]

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
            if _direction_lp_oracle(c, G, box)[0] < -TOL_ZERO_DIR:
                return CriticalityCase.CRITICAL_PERPENDICULAR
    return CriticalityCase.CRITICAL_ZERO_ONLY


def _seq_sum(terms):
    """((0.0 + t0) + t1) + ...: floats added in order.  Python's ``sum``
    adds in this order only before 3.12 (later it compensates)."""
    return reduce(add, terms, 0.0)


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
    F = problem.f_batch(x + etas[:, None] * p)
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
    a time through ``evaluate``: the reference for ``descent._lockstep``
    and ``run_mgd``."""
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
            if np.abs(d.p_star).max() <= TOL_ZERO_DIR:
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
        if eta == 0.0:
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


def _dominates_oracle(a: tuple, b: tuple) -> bool:
    """Objective rows as tuples of Python floats: a dominates b when it is
    <= in every objective and != in at least one (so -0.0 equals 0.0)."""
    return a != b and all(u <= v for u, v in zip(a, b))


def nondominated_mask_oracle(F: np.ndarray) -> np.ndarray:
    """``nondominated_mask`` by comparing every pair of rows."""
    rows = list(map(tuple, np.asarray(F, dtype=float).tolist()))
    return np.array([not any(_dominates_oracle(g, f) for g in rows) for f in rows], dtype=bool)


def ratio_and_front_oracle(results: list) -> tuple[float, list]:
    """A variant's Pareto ratio and front in two stages, pair by pair: each
    run's final point filtered together with its stored points, then the
    union of the survivors, run by run.  ``results`` holds one RunResult per
    run, None for a failed one; the front is a list of (x, f) pairs."""
    union = []  # (run, x, f, f as a tuple of floats)
    for j, r in enumerate(results):
        if r is not None:
            own = [(r.x_hat, r.f_hat), *zip(r.stored_x, r.stored_f)]
            own = [(j, x, f, tuple(f.tolist())) for x, f in own]
            union += [p for p in own if not any(_dominates_oracle(g, p[3]) for *_, g in own)]
    front = [(j, x, f) for j, x, f, t in union
             if not any(_dominates_oracle(g, t) for *_, g in union)]
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
    if obj is None or isinstance(obj, (bool, np.bool_)):
        return json.dumps(obj if obj is None else bool(obj))
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


def front_rows_oracle(X: np.ndarray, F: np.ndarray) -> list:
    """A front table's rows as dicts, one per point: its ``x`` and ``f``."""
    return [{"x": x, "f": f} for x, f in zip(X.tolist(), F.tolist())]


def trace_rows_oracle(result: RunResult) -> list:
    """A trace table's rows as dicts, one per iteration, keys in column order."""
    return [
        {
            "k": rec.k,
            "x": rec.x.tolist(),
            "f": rec.f.tolist(),
            "eta": rec.eta,
            "beta_star": rec.beta_star,
            "armijo_satisfied": bool(rec.armijo_satisfied),
            "critical_case": rec.critical_case.value,
        }
        for rec in result.trace
    ]


def table_text_oracle(header: list, rows: list, fmt: str) -> str:
    """The text of ``harness._table_text`` from rows of dicts with keys in
    column order, one call per cell: in CSV a line of the names in
    ``header``, written for a table without rows too, then one line per
    row, where a list value spreads over one column per entry."""
    if fmt == "json":
        return json_text_oracle(rows) + "\n"
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row.values():
            cells += map(_cell_oracle, v) if isinstance(v, list) else [_cell_oracle(v)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


class SegmentKind(Enum):
    PC_ETA_HAT = "pc-eta-hat"
    PC_0 = "pc-0"
    NPC = "npc"


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
