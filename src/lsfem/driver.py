"""The adaptive loop: solve, estimate, mark, refine.

``run_adaptive`` runs the loop; ``config.solver.kind`` picks the solve:
``exact`` factorizes every level's system once, for its one solve, and
keeps no factor; ``pcg`` runs PCG per level, warm-started by prolongating
the previous level's final iterate (nested iteration) unless that is
switched off.  Every level appends one history row; the final level is the
first one hitting a stopping rule and marks nothing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .assembly import assemble_system
from .estimator import LevelEstimator, compute_error_norms, compute_indicators
from .marking import MarkingSpec, mark
from .mesh import DOMAINS, builtin_domain, refine_nvb
from .problems import ProblemSpec, make_problem
from .quadrature import quadrature_rule
from .solver import PRECONDS, FixedSteps, IncrementStop, exact_solve, pcg_run
from .spaces import build_dofmap, prolongate
from .typecheck import check_fields


@dataclass(frozen=True)
class SolverSpec:
    kind: str = "exact"                 # exact | pcg
    precond: str = "jacobi"             # none | jacobi
    eta_ref: str = "current"            # current | initial
    nested: bool = True
    max_steps: int = 500
    n_steps: Optional[int] = None       # fixed step count per level
    lam: Optional[float] = None         # increment criterion factor

    def __post_init__(self):
        check_fields(self)
        if self.kind not in ("exact", "pcg"):
            raise ConfigurationError(f"unknown solver kind {self.kind!r}")
        if self.kind == "pcg" and (self.n_steps is None) == (self.lam is None):
            raise ConfigurationError(
                "pcg solver requires exactly one of n_steps or lam")
        if self.n_steps is not None and not self.n_steps >= 1:
            raise ConfigurationError("solver n_steps must be at least 1")
        if self.lam is not None and not self.lam > 0:
            raise ConfigurationError("solver lam must be positive")
        if not self.max_steps >= 1:
            raise ConfigurationError("solver max_steps must be at least 1")
        if self.precond not in PRECONDS:
            raise ConfigurationError(f"unknown preconditioner {self.precond!r}")
        if self.eta_ref not in ("current", "initial"):
            raise ConfigurationError(
                f"solver eta_ref must be 'current' or 'initial', got {self.eta_ref!r}")


@dataclass(frozen=True)
class QuadSpec:
    assembly_order: int = 4
    estimator_order: Optional[int] = None   # defaults to assembly_order + 2

    def __post_init__(self):
        check_fields(self)
        for name in ("assembly_order", "estimator_order"):
            value = getattr(self, name)
            if value is not None and not 1 <= value <= 10:
                raise ConfigurationError(f"{name} must be in 1..10")

    def resolved_estimator_order(self):
        return (self.assembly_order + 2 if self.estimator_order is None
                else self.estimator_order)


@dataclass(frozen=True)
class StopSpec:
    max_ndof: int = 50_000
    max_levels: int = 1000
    eta_tol: float = 0.0

    def __post_init__(self):
        check_fields(self)
        if not (self.max_ndof >= 1 and self.max_levels >= 0):
            raise ConfigurationError("stop limits must be positive")
        if not self.eta_tol >= 0:
            raise ConfigurationError("eta_tol must be nonnegative")


@dataclass(frozen=True)
class AdaptiveConfig:
    """A run configuration; field order is the key order of a written
    ``config.yaml``, and a field without a default is a required key.

    Every spec checks its own values when it is built, so a config that
    exists is a valid one.
    """

    domain: str
    problem: ProblemSpec
    marking: MarkingSpec = field(default_factory=MarkingSpec)
    solver: SolverSpec = field(default_factory=SolverSpec)
    quadrature: QuadSpec = field(default_factory=QuadSpec)
    stop: StopSpec = field(default_factory=StopSpec)
    theta_schedule: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        check_fields(self)
        if self.domain not in DOMAINS:
            raise ConfigurationError(f"unknown domain {self.domain!r}")
        if self.theta_schedule is not None:
            for theta in self.theta_schedule:
                if not 0.0 < theta <= 1.0:
                    raise ConfigurationError("theta_schedule entry out of (0, 1]")
        if self.problem.manufactured is not None and self.domain != "unit_square":
            raise ConfigurationError(
                "manufactured solutions are defined on the unit square only")


@dataclass
class HistoryRow:
    level: int
    n_elements: int
    n_dofs: int
    eta_total: float
    error_v: Optional[float]
    marked_count: int
    solver_iterations: int
    wall_time_s: float


@dataclass
class LevelRecord:
    """Full state of one level: mesh, dof map, system, solution and
    reports.  No factor is kept: an exact solve drops its factor when it
    returns.

    ``run_adaptive`` returns the last level's record as
    ``AdaptiveHistory.final`` and every level's only with ``keep_records``.
    """

    level: int
    mesh: object
    dofmap: object
    system: object
    rhs: np.ndarray
    coef: np.ndarray
    report: object
    error_report: object
    marked: Optional[np.ndarray]
    increment_final: Optional[float]


@dataclass
class AdaptiveHistory:
    rows: list
    records: Optional[list] = None
    final: Optional[LevelRecord] = None     # set by run_adaptive

    def column(self, name):
        return np.array([getattr(row, name) for row in self.rows
                         if getattr(row, name) is not None], dtype=float)

    @property
    def n_levels(self):
        return len(self.rows)


def _marking_for_level(config, level):
    if config.theta_schedule:
        theta = float(config.theta_schedule[min(level, len(config.theta_schedule) - 1)])
        return MarkingSpec(strategy=config.marking.strategy, theta=theta)
    return config.marking


def _eta_lipschitz(quadrature):
    """Energy-norm Lipschitz constant of the level estimator, or None.

    eta(x) = ||F - L x|| over the estimator's quadrature points, whose
    weights are positive, so eta(x) <= eta(y) + ||L (x - y)||.  ``Problem``
    holds a, b and c as constant fields, so L v is piecewise P1 and |L v|^2
    piecewise P2: when both the assembly and the estimator rule are exact
    to degree 2, ||L v|| is ||v||_A and the constant is 1.  A lower rule
    breaks that identity, and the constant is unknown.
    """
    orders = (quadrature.assembly_order, quadrature.resolved_estimator_order())
    if all(quadrature_rule(q).exactness_degree >= 2 for q in orders):
        return 1.0
    return None


def _solve_level(config, problem, mesh, dofmap, system, rhs, prev):
    """Solve one level; returns (coef, iterations, increment_final)."""
    solver = config.solver
    if solver.kind == "exact":
        return exact_solve(system, rhs), 0, None
    if prev is not None:
        x0 = prolongate(prev[0], prev[1], mesh, dofmap, prev[2])
    else:
        x0 = np.zeros(dofmap.n_total)
    est_order = config.quadrature.resolved_estimator_order()
    if solver.n_steps is not None:
        stop = FixedSteps(solver.n_steps)
    elif solver.eta_ref == "initial":
        eta_ref = compute_indicators(mesh, dofmap, problem, x0,
                                     est_order).total
        stop = IncrementStop(solver.lam, eta_ref, solver.max_steps)
    else:
        # the level part is built once; a PCG step evaluates the residual
        # of its iterate only where the eta bound lets it stop
        estimate = LevelEstimator(mesh, dofmap, problem, est_order)
        stop = IncrementStop(solver.lam, lambda x: estimate(x).total,
                             solver.max_steps,
                             eta_lipschitz=_eta_lipschitz(config.quadrature))
    result = pcg_run(system, rhs, precond=solver.precond, x0=x0, stop=stop)
    return result.x, result.iterations, result.increments[-1]


def run_adaptive(config, keep_records=False, level_sink=None):
    """Run the adaptive loop described by ``config``.

    Returns an ``AdaptiveHistory`` with one row per level and the last
    level's ``LevelRecord`` as ``final``.  With ``keep_records`` every
    level's record is kept in ``records``, and with it every level's
    system and mesh; otherwise a level's system, load and reports are
    released before the next level is refined and assembled, so at most one
    level's system is alive at a time.  A factor lives only inside
    ``exact_solve``.  Only nested PCG keeps an earlier level, the previous
    one, whose final iterate it prolongates.
    """
    problem = make_problem(config.problem)
    est_order = config.quadrature.resolved_estimator_order()

    mesh = builtin_domain(config.domain)
    prev = None     # (mesh, dofmap, coef) of the previous level, if nested
    rows = []
    records = [] if keep_records else None

    level = 0
    while True:
        t0 = time.perf_counter()
        dofmap = build_dofmap(mesh)
        system, rhs = assemble_system(mesh, dofmap, problem,
                                      config.quadrature.assembly_order)
        coef, iterations, increment_final = _solve_level(
            config, problem, mesh, dofmap, system, rhs, prev)

        report = compute_indicators(mesh, dofmap, problem, coef, est_order)
        error_report = None
        if problem.exact is not None:
            error_report = compute_error_norms(mesh, dofmap, coef,
                                               problem.exact, est_order)

        final = (report.total <= config.stop.eta_tol
                 or dofmap.n_total >= config.stop.max_ndof
                 or level >= config.stop.max_levels)
        marked = None
        if not final:
            marked = mark(_marking_for_level(config, level), report.per_element)

        row = HistoryRow(
            level=level,
            n_elements=mesh.n_elements,
            n_dofs=dofmap.n_total,
            eta_total=report.total,
            error_v=None if error_report is None else error_report.total,
            marked_count=0 if marked is None else int(marked.size),
            solver_iterations=iterations,
            wall_time_s=time.perf_counter() - t0,
        )
        rows.append(row)
        record = LevelRecord(
            level=level, mesh=mesh, dofmap=dofmap, system=system, rhs=rhs,
            coef=coef, report=report, error_report=error_report,
            marked=marked, increment_final=increment_final)
        if records is not None:
            records.append(record)
        if level_sink is not None:
            level_sink(row)

        if final:
            break
        if config.solver.kind == "pcg" and config.solver.nested:
            prev = (mesh, dofmap, coef)
        # unless kept in records, the system dies here, before the next
        # level is built, and the mesh once the next dof map replaces its own
        del record, system, rhs, report, error_report
        mesh = refine_nvb(mesh, marked)
        level += 1

    return AdaptiveHistory(rows=rows, records=records, final=record)
