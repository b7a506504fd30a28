"""epscut: feasibility solver for f(x) <= 0 via shifted-cut projections.

The solver linearizes f at each iterate with a bundle of generalized
gradients, shifts every cut by a slowly vanishing eps_i, and projects the
iterate exactly onto the resulting polyhedron. Supporting pieces: an exact
polyhedral projection kernel with KKT certificates, a problem
zoo with subgradient oracles, shift schedules, rate/regularity diagnostics,
and a CLI for reproducible runs.
"""

from .diagnostics import (
    ContrastReport,
    RateFit,
    claim_contrast,
    estimate_kappa,
    fit_decay_rate,
)
from .errors import (
    DimensionMismatchError,
    EpscutError,
    InfeasiblePolyhedronError,
    InsufficientDataError,
    NoFeasibleSampleFoundError,
    NotAvailableError,
    ProjectionFailedError,
    SublevelEmptyError,
    ZeroNormalError,
)
from .geometry import (
    CutPolyhedron,
    ProjectionResult,
    VariationalInequalityReport,
    as_vector,
    chebyshev_point,
    check_variational_inequality,
    project_polyhedron,
)
from .problems import (
    BallBody,
    BallProblem,
    Evaluation,
    HalfspaceBody,
    MaxAffineProblem,
    MaxQuadraticsProblem,
    Problem,
    ShiftedBallProblem,
    SipDistanceProblem,
    check_approximate_convexity,
    evaluate,
    exact_sublevel_distance,
    nonconvex_default_boundary,
    nonconvex_default_problem,
    problem_from_dict,
    problem_to_dict,
    supports_sublevel_distance,
)
from .schedule import EpsilonSchedule, eps_at, parse_schedule
from .solver import (
    SolveOptions,
    SolveTrace,
    TerminationStatus,
    TraceRow,
    build_cuts,
    solve,
    solve_multistart,
)
from .traceio import (
    parse_trace_csv,
    trace_to_csv,
    trace_to_dict,
    trace_to_json,
)

__version__ = "0.1.0"
