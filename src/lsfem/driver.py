"""The adaptive loop: solve, estimate, mark, refine.

``run_adaptive`` runs the loop; ``config.solver.kind`` picks the solve:
``exact`` factorizes every level's system once, for its one solve, and
keeps no factor; ``pcg`` runs PCG per level, warm-started by prolongating
the previous level's final iterate (nested iteration) unless that is
switched off.  Every level appends one history row; the final level is the
first one hitting a stopping rule and marks nothing.  The lambda rule
stops PCG at the first step with ||x_n - x_{n-1}||_A <= lam * eta, or
after ``IncrementStop``'s cap of 500 steps.  Every assembly order a config
can name is exact to degree 2, so the energy-norm bound of that rule holds
with the constant 1 and PCG evaluates eta only at steps that may stop.

Each level builds one ``LevelEstimator``, the quadrature tables of the
estimator rule, of order ``assembly_order + 2``, and every use of that
rule on the level reads it: the lambda rule inside PCG (eta at x_n), the
level report and the error norms.  Where the lambda rule stopped PCG it
has evaluated eta at the final iterate already, and that report is the
level's.  The driver passes the estimator to ``compute_indicators`` and
``compute_error_norms`` as ``estimator=``, so the bits are those of fresh
calls.
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
from .solver import PRECONDS, FixedSteps, IncrementStop, exact_solve, pcg_run
from .spaces import build_dofmap, prolongate
from .typecheck import check_fields


@dataclass(frozen=True)
class SolverSpec:
    kind: str = "exact"                 # exact | pcg
    precond: str = "jacobi"             # none | jacobi
    eta_ref: str = "current"            # current only
    nested: bool = True
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
        if self.kind == "exact" and (self.n_steps, self.lam) != (None, None):
            raise ConfigurationError(
                "exact solver takes neither n_steps nor lam")
        if self.precond not in PRECONDS:
            raise ConfigurationError(f"unknown preconditioner {self.precond!r}")
        if self.eta_ref != "current":
            raise ConfigurationError(
                f"solver eta_ref must be 'current', got {self.eta_ref!r}")


@dataclass(frozen=True)
class QuadSpec:
    assembly_order: int = 4     # 2..8: the estimator rule is two orders up

    def __post_init__(self):
        check_fields(self)
        if not 2 <= self.assembly_order <= 8:
            raise ConfigurationError("assembly_order must be in 2..8")

    def resolved_estimator_order(self):
        return self.assembly_order + 2


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

    def __post_init__(self):
        check_fields(self)
        if self.domain not in DOMAINS:
            raise ConfigurationError(f"unknown domain {self.domain!r}")
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
    """Full state of one level: its history row, mesh, dof map, system,
    solution and reports.  No factor is kept: an exact solve drops its
    factor when it returns.

    ``run_adaptive`` hands every level's record to its ``level_sink`` and
    returns the last one as ``AdaptiveHistory.final``.
    """

    row: HistoryRow
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
    final: Optional[LevelRecord] = None     # set by run_adaptive

    def column(self, name):
        return np.array([getattr(row, name) for row in self.rows
                         if getattr(row, name) is not None], dtype=float)

    @property
    def n_levels(self):
        return len(self.rows)


def _solve_level(config, problem, dofmap, system, rhs, prev):
    """Solve one level and build its estimator.

    Returns (coef, iterations, increment_final, estimator, report):
    ``estimator`` is the level's ``LevelEstimator``, built after
    ``exact_solve`` on the exact path, so it is never alive during a
    factorization, and before PCG, whose lambda rule calls it.  ``report``
    is the ``EstimatorReport`` that the lambda rule evaluated at ``coef``
    itself, as it does at every iterate where it stops PCG, else None.
    """
    solver = config.solver
    est_order = config.quadrature.resolved_estimator_order()
    if solver.kind == "exact":
        coef = exact_solve(system, rhs)
        return (coef, 0, None, LevelEstimator(dofmap, problem, est_order),
                None)
    estimator = LevelEstimator(dofmap, problem, est_order)
    if prev is not None:
        x0 = prolongate(prev[0], dofmap, prev[1])
    else:
        x0 = np.zeros(dofmap.n_total)
    last = {}       # the last iterate the lambda rule evaluated, its report

    def eta(x):
        last["x"], last["report"] = x, estimator(x)
        return last["report"].total

    if solver.n_steps is not None:
        stop = FixedSteps(solver.n_steps)
    else:
        # both rules are exact to degree 2, so ||L v|| is ||v||_A: a PCG
        # step evaluates eta only where the bound lets it stop
        stop = IncrementStop(solver.lam, eta, eta_lipschitz=1.0)
    result = pcg_run(system, rhs, precond=solver.precond, x0=x0, stop=stop)
    report = last["report"] if last.get("x") is result.x else None
    return (result.x, result.iterations, result.increments[-1], estimator,
            report)


def run_adaptive(config, level_sink=None):
    """Run the adaptive loop described by ``config``.

    Returns an ``AdaptiveHistory`` with one row per level and the last
    level's ``LevelRecord`` as ``final``.  ``level_sink``, if given, is
    called with each level's record once the level is marked.  The loop
    drops its own hold on a level's system, load, solution and reports
    before the next level is refined, and on its marks right after, so
    unless the sink keeps records, at most one level's system is alive at
    a time and nothing of an earlier level is alive at a factorization.
    A factor lives only inside ``exact_solve``.  Only nested PCG keeps an
    earlier level, the previous one, whose final iterate it prolongates.

    The level's estimator tables are built once: before PCG, which needs
    them for the lambda rule, and after ``exact_solve`` on the exact path,
    so they are never alive during a factorization.  They serve the level
    report and the error norms and are dropped before marking, so no
    earlier level's tables are alive when the next level is assembled.
    """
    problem = make_problem(config.problem)
    est_order = config.quadrature.resolved_estimator_order()

    mesh = builtin_domain(config.domain)
    prev = None     # (dofmap, coef) of the previous level, if nested
    rows = []

    level = 0
    while True:
        t0 = time.perf_counter()
        dofmap = build_dofmap(mesh)
        system, rhs = assemble_system(mesh, dofmap, problem,
                                      config.quadrature.assembly_order)
        coef, iterations, increment_final, estimator, report = _solve_level(
            config, problem, dofmap, system, rhs, prev)
        if report is None:
            report = compute_indicators(mesh, dofmap, problem, coef,
                                        est_order, estimator=estimator)
        error_report = None
        if problem.exact is not None:
            error_report = compute_error_norms(dofmap, coef, problem.exact,
                                               est_order, estimator=estimator)
        # the level's quadrature tables die before marking and refinement
        del estimator

        final = (report.total <= config.stop.eta_tol
                 or dofmap.n_total >= config.stop.max_ndof
                 or level >= config.stop.max_levels)
        marked = None
        if not final:
            marked = mark(config.marking, report.per_element)

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
            row=row, mesh=mesh, dofmap=dofmap, system=system, rhs=rhs,
            coef=coef, report=report, error_report=error_report,
            marked=marked, increment_final=increment_final)
        if level_sink is not None:
            level_sink(record)

        if final:
            break
        if config.solver.kind == "pcg" and config.solver.nested:
            prev = (dofmap, coef)
        # unless the sink keeps the record, the system, the solution (which
        # nested PCG keeps in prev) and the marks die here, so nothing of
        # this level but its mesh is alive at the next level's factor, and
        # the mesh dies once the next dof map replaces its own
        del record, system, rhs, coef, report, error_report
        mesh = refine_nvb(mesh, marked)
        del marked
        level += 1

    return AdaptiveHistory(rows=rows, final=record)
