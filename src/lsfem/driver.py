"""The adaptive loop: solve, estimate, mark, refine.

``run_adaptive`` runs the loop; ``config.solver.kind`` picks the solve:
``exact`` factorizes every level's system, ``pcg`` runs PCG per level,
warm-started by prolongating the previous level's final iterate (nested
iteration) unless that is switched off.  Every level appends one history
row; the final level is the first one hitting a stopping rule and marks
nothing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .assembly import assemble_system
from .estimator import compute_error_norms, compute_indicators
from .marking import MarkingSpec, mark
from .mesh import builtin_domain, refine_nvb
from .problems import ProblemSpec, make_problem
from .solver import FixedSteps, IncrementStop, exact_solve, pcg_run
from .spaces import build_dofmap, prolongate

_DOMAINS = ("unit_square", "l_shape")


@dataclass(frozen=True)
class SolverSpec:
    kind: str = "exact"                 # exact | pcg
    precond: str = "jacobi"             # none | jacobi
    n_steps: Optional[int] = None       # fixed step count per level
    lam: Optional[float] = None         # increment criterion factor
    eta_ref: str = "current"            # current | initial
    max_steps: int = 500
    nested: bool = True


@dataclass(frozen=True)
class QuadSpec:
    assembly_order: int = 4
    estimator_order: Optional[int] = None   # defaults to assembly_order + 2

    def resolved_estimator_order(self):
        return (self.assembly_order + 2 if self.estimator_order is None
                else self.estimator_order)


@dataclass(frozen=True)
class StopSpec:
    max_ndof: int = 50_000
    max_levels: int = 1000
    eta_tol: float = 0.0


@dataclass(frozen=True)
class AdaptiveConfig:
    domain: str = "unit_square"
    problem: ProblemSpec = field(default_factory=ProblemSpec)
    marking: MarkingSpec = field(default_factory=MarkingSpec)
    theta_schedule: Optional[tuple] = None
    solver: SolverSpec = field(default_factory=SolverSpec)
    quadrature: QuadSpec = field(default_factory=QuadSpec)
    stop: StopSpec = field(default_factory=StopSpec)
    output_dir: Optional[str] = None


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
    """Full per-level state, retained only on request."""

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

    def column(self, name):
        return np.array([getattr(row, name) for row in self.rows
                         if getattr(row, name) is not None], dtype=float)

    @property
    def n_levels(self):
        return len(self.rows)


def _validate_config(config):
    if config.domain not in _DOMAINS:
        raise ConfigurationError(f"unknown domain {config.domain!r}")
    solver = config.solver
    if solver.kind not in ("exact", "pcg"):
        raise ConfigurationError(f"unknown solver kind {solver.kind!r}")
    if solver.kind == "pcg":
        if (solver.n_steps is None) == (solver.lam is None):
            raise ConfigurationError(
                "pcg solver requires exactly one of n_steps or lam")
        if solver.n_steps is not None and solver.n_steps < 1:
            raise ConfigurationError("solver n_steps must be at least 1")
        if solver.lam is not None and solver.lam <= 0:
            raise ConfigurationError("solver lam must be positive")
        if solver.precond not in ("none", "jacobi"):
            raise ConfigurationError(f"unknown preconditioner {solver.precond!r}")
        if solver.eta_ref not in ("current", "initial"):
            raise ConfigurationError(
                f"solver eta_ref must be 'current' or 'initial', got {solver.eta_ref!r}")
    for name in ("assembly_order", "estimator_order"):
        value = getattr(config.quadrature, name)
        if value is not None and not 1 <= int(value) <= 10:
            raise ConfigurationError(f"{name} must be in 1..10")
    if config.stop.max_ndof < 1 or config.stop.max_levels < 0:
        raise ConfigurationError("stop limits must be positive")
    if config.stop.eta_tol < 0:
        raise ConfigurationError("eta_tol must be nonnegative")
    if config.theta_schedule is not None:
        for theta in config.theta_schedule:
            if not 0.0 < float(theta) <= 1.0:
                raise ConfigurationError("theta_schedule entry out of (0, 1]")
    if config.problem.manufactured is not None and config.domain != "unit_square":
        raise ConfigurationError(
            "manufactured solutions are defined on the unit square only")


def _marking_for_level(config, level):
    if config.theta_schedule:
        theta = float(config.theta_schedule[min(level, len(config.theta_schedule) - 1)])
        return MarkingSpec(strategy=config.marking.strategy, theta=theta)
    return config.marking


def run_adaptive(config, keep_records=False, level_sink=None):
    """Run the adaptive loop described by ``config``."""
    _validate_config(config)
    problem = make_problem(config.problem)
    solver = config.solver
    est_order = config.quadrature.resolved_estimator_order()

    mesh = builtin_domain(config.domain)
    prev = None                 # (mesh, dofmap, coef) of the previous level
    rows = []
    records = [] if keep_records else None

    level = 0
    while True:
        t0 = time.perf_counter()
        dofmap = build_dofmap(mesh)
        system, rhs = assemble_system(mesh, dofmap, problem,
                                      config.quadrature.assembly_order)

        increment_final = None
        if solver.kind == "exact":
            coef = exact_solve(system, rhs)
            iterations = 0
        else:
            if solver.nested and prev is not None:
                x0 = prolongate(prev[0], prev[1], mesh, dofmap, prev[2])
            else:
                x0 = np.zeros(dofmap.n_total)
            if solver.n_steps is not None:
                stop = FixedSteps(solver.n_steps)
            else:
                if solver.eta_ref == "initial":
                    eta_ref = compute_indicators(mesh, dofmap, problem, x0,
                                                 est_order).total
                    stop = IncrementStop(solver.lam, eta_ref, solver.max_steps)
                else:
                    def eta_fn(x, _m=mesh, _d=dofmap):
                        return compute_indicators(_m, _d, problem, x,
                                                  est_order).total
                    stop = IncrementStop(solver.lam, eta_fn, solver.max_steps)
            result = pcg_run(system, rhs, precond=solver.precond, x0=x0,
                             stop=stop, keep_iterates=False)
            coef = result.x
            iterations = result.iterations
            increment_final = result.increments[-1] if result.increments else 0.0

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
        if records is not None:
            records.append(LevelRecord(
                level=level, mesh=mesh, dofmap=dofmap, system=system, rhs=rhs,
                coef=coef, report=report, error_report=error_report,
                marked=marked, increment_final=increment_final))
        if level_sink is not None:
            level_sink(row)

        if final:
            break
        prev = (mesh, dofmap, coef)
        mesh = refine_nvb(mesh, marked)
        level += 1

    return AdaptiveHistory(rows=rows, records=records)

