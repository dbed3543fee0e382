"""Adaptive least-squares finite elements for first-order system
reformulations of second-order elliptic problems on polygonal domains.

The package couples a lowest-order conforming discretization (continuous
piecewise affines for the scalar, lowest-order edge elements for the flux)
with the solve / estimate / mark / refine loop, using the least-squares
functional itself as the error estimator.  Systems are solved either
exactly through a sparse factorization or inexactly by a contractive
preconditioned conjugate gradient iteration with nested warm starts.
"""

from .assembly import assemble_system, eval_discrete
from .driver import (AdaptiveConfig, AdaptiveHistory, HistoryRow, LevelRecord,
                     QuadSpec, SolverSpec, StopSpec, run_adaptive)
from .errors import (ConfigurationError, IdentityViolationError,
                     MeshValidityError, NumericalEstimateError, SolverError)
from .estimator import (EstimatorReport, LevelEstimator, compute_error_norms,
                        compute_indicators, discrete_v_norm)
from .formats import (parse_config, read_history, read_mesh_text,
                      serialize_config, write_history, write_mesh_text,
                      write_vtk)
from .marking import MarkingSpec, doerfler_bruteforce, mark, verify_marking_axiom
from .mesh import (Mesh, MeshDiagnostics, ancestor_map, builtin_domain,
                   refine_nvb, refine_uniform, validate)
from .problems import ExactSolution, Problem, ProblemSpec, make_problem
from .quadrature import QuadRule, quadrature_rule
from .solver import (FixedSteps, IncrementStop, PcgResult, ResidualTol,
                     SparseSpd, estimate_pcg_contraction, exact_solve,
                     pcg_run)
from .spaces import (DofMap, build_dofmap, eval_local_basis,
                     prolongation_matrix, prolongate)
from .verify import (BUDGETS, RateFit, discrete_reliability_check, fit_rate,
                     galerkin_orthogonality_check, helmholtz_config,
                     interpolation_rate_check, local_efficiency_check,
                     lshape_config, pythagoras_check, run_all,
                     sandwich_constants, smooth_poisson_config)

__version__ = "0.1.0"

__all__ = [
    "SparseSpd", "assemble_system", "eval_discrete",
    "AdaptiveConfig", "AdaptiveHistory", "HistoryRow", "LevelRecord",
    "QuadSpec", "SolverSpec", "StopSpec", "run_adaptive",
    "ConfigurationError", "IdentityViolationError", "MeshValidityError",
    "NumericalEstimateError", "SolverError", "EstimatorReport",
    "LevelEstimator", "compute_error_norms",
    "compute_indicators", "discrete_v_norm", "parse_config", "read_history",
    "read_mesh_text", "serialize_config", "write_history", "write_mesh_text",
    "write_vtk", "MarkingSpec", "doerfler_bruteforce", "mark",
    "verify_marking_axiom", "Mesh", "MeshDiagnostics", "ancestor_map",
    "builtin_domain", "refine_nvb", "refine_uniform", "validate",
    "ExactSolution", "Problem",
    "ProblemSpec", "make_problem", "QuadRule", "quadrature_rule", "FixedSteps",
    "IncrementStop", "PcgResult", "ResidualTol", "estimate_pcg_contraction",
    "exact_solve", "pcg_run", "DofMap", "build_dofmap", "eval_local_basis",
    "prolongation_matrix", "prolongate", "BUDGETS", "RateFit",
    "discrete_reliability_check", "fit_rate", "galerkin_orthogonality_check",
    "helmholtz_config", "interpolation_rate_check", "local_efficiency_check",
    "lshape_config", "pythagoras_check", "run_all", "sandwich_constants",
    "smooth_poisson_config",
]
