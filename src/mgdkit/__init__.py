"""Multi-objective gradient descent toolkit.

Unconstrained multi-objective minimization by descent along directions
obtained from small linear programs, with two direction subproblems, two
backtracking strategies, benchmark problems, Pareto-front metrics, and a
reproducible multi-start experiment harness.
"""

from .core import (
    EvaluationError,
    Evaluation,
    Problem,
    dominates,
    evaluate,
)
from .descent import (
    BacktrackParams,
    BacktrackVariant,
    RunResult,
    SegmentKind,
    Termination,
    TraceRecord,
    backtrack,
    classify_subsequences,
    run_mgd,
    run_mgd_batch,
)
from .direction import (
    CriticalityCase,
    DirectionConfig,
    DirectionResult,
    DirectionVariant,
    solve_blockwise,
    solve_direction,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    VariantResult,
    emit_traces,
    run_experiment,
)
from .lp import (
    LpResult,
    LpSpec,
    LpStatus,
    SolverFailure,
    solve_lp,
)
from .metrics import (
    critical_region_scan,
    global_pareto_ratio,
    nondominated_filter,
    nondominated_mask,
)
from .problems import (
    PROBLEMS,
    StartSampler,
    fonseca_fleming,
    get_problem,
    kursawe,
    sample_starts,
    viennet,
)

__version__ = "0.1.0"

__all__ = [
    "BacktrackParams",
    "BacktrackVariant",
    "CriticalityCase",
    "DirectionConfig",
    "DirectionResult",
    "DirectionVariant",
    "Evaluation",
    "EvaluationError",
    "ExperimentConfig",
    "ExperimentReport",
    "LpResult",
    "LpSpec",
    "LpStatus",
    "PROBLEMS",
    "Problem",
    "RunResult",
    "SegmentKind",
    "SolverFailure",
    "StartSampler",
    "Termination",
    "TraceRecord",
    "VariantResult",
    "backtrack",
    "classify_subsequences",
    "critical_region_scan",
    "dominates",
    "emit_traces",
    "evaluate",
    "fonseca_fleming",
    "get_problem",
    "global_pareto_ratio",
    "kursawe",
    "nondominated_filter",
    "nondominated_mask",
    "run_experiment",
    "run_mgd",
    "run_mgd_batch",
    "sample_starts",
    "solve_blockwise",
    "solve_direction",
    "solve_lp",
    "viennet",
]
