"""Benchmark problems with analytic Jacobians and start-point sampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Problem


def _ff_f_batch(a: float):
    def f_batch(X: np.ndarray) -> np.ndarray:
        D1, D2 = X - a, X + a
        return np.column_stack(
            [1.0 - np.exp(-np.vecdot(D1, D1)), 1.0 - np.exp(-np.vecdot(D2, D2))]
        )

    return f_batch


def _ff_jac_batch(a: float):
    def jac_batch(X: np.ndarray) -> np.ndarray:
        D1, D2 = X - a, X + a
        e1 = np.exp(-np.vecdot(D1, D1))
        e2 = np.exp(-np.vecdot(D2, D2))
        return np.stack([(2.0 * e1)[:, None] * D1, (2.0 * e2)[:, None] * D2], axis=1)

    return jac_batch


def fonseca_fleming(n: int = 3) -> Problem:
    """Two shifted-Gaussian objectives; Pareto set is the segment between
    the two objective minimizers on the equal-coordinates diagonal."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a = 1.0 / np.sqrt(n)

    def evaluator(x: np.ndarray):
        d1, d2 = x - a, x + a
        e1 = np.exp(-np.dot(d1, d1))
        e2 = np.exp(-np.dot(d2, d2))
        f = np.array([1.0 - e1, 1.0 - e2])
        jac = np.vstack([2.0 * e1 * d1, 2.0 * e2 * d2])
        return f, jac

    return Problem(
        name="fonseca-fleming",
        n=n,
        m=2,
        evaluator=evaluator,
        domain_box=np.tile([-2.0, 2.0], (n, 1)),
        default_max_iters=250,
        f_batch=_ff_f_batch(a),
        jac_batch=_ff_jac_batch(a),
    )


def _kursawe_f_batch(X: np.ndarray) -> np.ndarray:
    s1 = np.hypot(X[:, 0], X[:, 1])
    s2 = np.hypot(X[:, 1], X[:, 2])
    f1 = -10.0 * (np.exp(-0.2 * s1) + np.exp(-0.2 * s2))
    f2 = np.sum(np.abs(X) ** 0.8 + 5.0 * np.sin(X**3), axis=1)
    return np.column_stack([f1, f2])


def _kursawe_evaluator(x: np.ndarray):
    s1 = np.hypot(x[0], x[1])
    s2 = np.hypot(x[1], x[2])
    e1 = np.exp(-0.2 * s1)
    e2 = np.exp(-0.2 * s2)
    f1 = -10.0 * (e1 + e2)
    f2 = float(np.sum(np.abs(x) ** 0.8 + 5.0 * np.sin(x**3)))

    # d/dx of -10 exp(-0.2 s) is 2 exp(-0.2 s) x / s; the s = 0 slice is a
    # removable direction-dependent singularity, set to 0 there.
    r1 = 2.0 * e1 / s1 if s1 > 0 else 0.0
    r2 = 2.0 * e2 / s2 if s2 > 0 else 0.0
    g1 = np.array([r1 * x[0], r1 * x[1] + r2 * x[1], r2 * x[2]])

    ax = np.abs(x)
    # |x|^0.8 has unbounded slope at 0; define the derivative as 0 there.
    with np.errstate(divide="ignore", invalid="ignore"):
        pw = np.where(ax > 0, 0.8 * np.sign(x) * ax ** (-0.2), 0.0)
    g2 = pw + 15.0 * x**2 * np.cos(x**3)
    return np.array([f1, f2]), np.vstack([g1, g2])


def _kursawe_jac_batch(X: np.ndarray) -> np.ndarray:
    # The arithmetic of _kursawe_evaluator's Jacobian, row by row.
    s1 = np.hypot(X[:, 0], X[:, 1])
    s2 = np.hypot(X[:, 1], X[:, 2])
    e1 = np.exp(-0.2 * s1)
    e2 = np.exp(-0.2 * s2)
    ax = np.abs(X)
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = np.where(s1 > 0, 2.0 * e1 / s1, 0.0)
        r2 = np.where(s2 > 0, 2.0 * e2 / s2, 0.0)
        pw = np.where(ax > 0, 0.8 * np.sign(X) * ax ** (-0.2), 0.0)
    g1 = np.column_stack([r1 * X[:, 0], r1 * X[:, 1] + r2 * X[:, 1], r2 * X[:, 2]])
    g2 = pw + 15.0 * X**2 * np.cos(X**3)
    return np.stack([g1, g2], axis=1)


def kursawe() -> Problem:
    return Problem(
        name="kursawe",
        n=3,
        m=2,
        evaluator=_kursawe_evaluator,
        domain_box=np.tile([-1.5, 0.5], (3, 1)),
        default_max_iters=1500,
        f_batch=_kursawe_f_batch,
        jac_batch=_kursawe_jac_batch,
    )


def _viennet_f_batch(X: np.ndarray) -> np.ndarray:
    r2 = X[:, 0] ** 2 + X[:, 1] ** 2
    f1 = 0.5 * r2 + np.sin(r2)
    f2 = (
        (3.0 * X[:, 0] - 2.0 * X[:, 1] + 4.0) ** 2 / 8.0
        + (X[:, 0] - X[:, 1] + 1.0) ** 2 / 27.0
        + 15.0
    )
    f3 = 1.0 / (r2 + 1.0) - 1.1 * np.exp(-r2)
    return np.column_stack([f1, f2, f3])


def _viennet_evaluator(x: np.ndarray):
    x1, x2 = x
    r2 = x1 * x1 + x2 * x2
    u = 3.0 * x1 - 2.0 * x2 + 4.0
    v = x1 - x2 + 1.0
    q = r2 + 1.0
    er = np.exp(-r2)
    f = np.array(
        [
            0.5 * r2 + np.sin(r2),
            u * u / 8.0 + v * v / 27.0 + 15.0,
            1.0 / q - 1.1 * er,
        ]
    )
    a1 = 1.0 + 2.0 * np.cos(r2)
    # q * q, not q ** 2: a numpy scalar's ** 2 goes through pow and can
    # round apart from the array square that _viennet_jac_batch takes.
    a3 = 2.0 * (1.1 * er - 1.0 / (q * q))
    jac = np.array(
        [
            [a1 * x1, a1 * x2],
            [0.75 * u + 2.0 * v / 27.0, -0.5 * u - 2.0 * v / 27.0],
            [a3 * x1, a3 * x2],
        ]
    )
    return f, jac


def _viennet_jac_batch(X: np.ndarray) -> np.ndarray:
    # The arithmetic of _viennet_evaluator's Jacobian, row by row.
    x1, x2 = X[:, 0], X[:, 1]
    r2 = x1 * x1 + x2 * x2
    u = 3.0 * x1 - 2.0 * x2 + 4.0
    v = x1 - x2 + 1.0
    a1 = 1.0 + 2.0 * np.cos(r2)
    a3 = 2.0 * (1.1 * np.exp(-r2) - 1.0 / (r2 + 1.0) ** 2)
    return np.stack(
        [
            np.column_stack([a1 * x1, a1 * x2]),
            np.column_stack([0.75 * u + 2.0 * v / 27.0, -0.5 * u - 2.0 * v / 27.0]),
            np.column_stack([a3 * x1, a3 * x2]),
        ],
        axis=1,
    )


def viennet() -> Problem:
    """Viennet's three objectives on x in [-3, 1.5]^2, with r2 = x1^2 + x2^2
    (Viennet, Fonteix & Marc 1996, Int. J. Systems Science 27(2)):
    f1 = r2/2 + sin(r2), f2 = (3 x1 - 2 x2 + 4)^2/8 + (x1 - x2 + 1)^2/27 + 15,
    f3 = 1/(r2 + 1) - 1.1 exp(-r2)."""
    return Problem(
        name="viennet",
        n=2,
        m=3,
        evaluator=_viennet_evaluator,
        domain_box=np.tile([-3.0, 1.5], (2, 1)),
        default_max_iters=7500,
        f_batch=_viennet_f_batch,
        jac_batch=_viennet_jac_batch,
    )


PROBLEMS = {
    "fonseca-fleming": fonseca_fleming,
    "kursawe": kursawe,
    "viennet": viennet,
}


def get_problem(name: str) -> Problem:
    try:
        return PROBLEMS[name]()
    except KeyError:
        raise ValueError(f"unknown problem '{name}' (choose from {sorted(PROBLEMS)})")


SAMPLER_GENERATOR = "philox-64"  # counter-based; recorded in run metadata


@dataclass(frozen=True)
class StartSampler:
    box: np.ndarray  # (n, 2)
    count: int
    seed: int

    def __post_init__(self):
        box = np.asarray(self.box, dtype=float).reshape(-1, 2)
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if np.any(box[:, 0] > box[:, 1]):
            raise ValueError("box lower bounds must be <= upper bounds")
        object.__setattr__(self, "box", box)


def sample_starts(sampler: StartSampler) -> np.ndarray:
    """I.i.d. uniform points in the box, reproducible from the seed."""
    rng = np.random.Generator(np.random.Philox(sampler.seed))
    lo, hi = sampler.box[:, 0], sampler.box[:, 1]
    return lo + (hi - lo) * rng.random((sampler.count, sampler.box.shape[0]))
