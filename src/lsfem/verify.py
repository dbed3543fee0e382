"""Numerical verification of the identities the workbench relies on.

Every check here measures a quantity that the theory pins down (an identity
defect, a contraction factor, a convergence rate, a constant) and compares
it against a named budget from ``BUDGETS``.  Checks either return their
measurements or raise; ``run_all`` packages them into a report consumed by
the command line and the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .assembly import assemble_system, discrete_state, _quad_points
from .driver import (AdaptiveConfig, QuadSpec, SolverSpec, StopSpec,
                     run_adaptive)
from .errors import IdentityViolationError
from .estimator import compute_error_norms, compute_indicators, discrete_v_norm
from .marking import MarkingSpec, doerfler_bruteforce, mark, verify_marking_axiom
from .mesh import (ancestor_map, builtin_domain, element_geometry, patch,
                   refine_nvb, refine_uniform, validate)
from .problems import ProblemSpec, make_problem
from .quadrature import quadrature_rule
from .solver import FixedSteps, ResidualTol, estimate_pcg_contraction, exact_solve, pcg_run
from .spaces import build_dofmap, prolongation_matrix

BUDGETS = {
    "pythagoras_defect": 1e-8,
    "galerkin_defect": 1e-8,
    "additivity_defect": 1e-13,
    "sandwich_spread_smooth": 3.0,
    "sandwich_spread_indefinite": 5.0,
    "sandwich_min_dofs": 100,
    "local_efficiency_factor": 3.0,
    "drel_constant_cap": 100.0,
    "drel_spread": 4.0,
    "drel_cardinality_factor": 20.0,
    "interp_rate_low": 0.85,
    "interp_rate_high": 1.15,
    "smooth_rate_low": -0.6,
    "smooth_rate_high": -0.4,
    "lshape_uniform_rate_low": -0.40,
    "lshape_uniform_rate_high": -0.26,
    "lshape_adaptive_rate_max": -0.45,
    "eta_decay_factor": 0.05,
    "error_decay_factor": 0.05,
    "pcg_contraction_slack": 1e-8,
    "marking_trials": 1000,
    "rate_tail_levels": 5,
}


# -- reference configurations -------------------------------------------------

def smooth_poisson_config(solver_kind="exact", max_ndof=20_000, n_steps=None,
                          lam=None, nested=True, precond="jacobi",
                          strategy="doerfler", theta=0.5):
    """Smooth manufactured Poisson problem on the unit square."""
    return AdaptiveConfig(
        domain="unit_square",
        problem=ProblemSpec(kind="poisson", manufactured="poly_bubble"),
        marking=MarkingSpec(strategy=strategy, theta=theta),
        solver=SolverSpec(kind=solver_kind, precond=precond, n_steps=n_steps,
                          lam=lam, nested=nested),
        quadrature=QuadSpec(assembly_order=4),
        stop=StopSpec(max_ndof=max_ndof),
    )


def lshape_config(strategy="doerfler", theta=0.5, max_ndof=20_000):
    """Reentrant-corner problem with constant load, estimator-driven only."""
    return AdaptiveConfig(
        domain="l_shape",
        problem=ProblemSpec(kind="poisson", f=1.0),
        marking=MarkingSpec(strategy=strategy, theta=theta),
        solver=SolverSpec(kind="exact"),
        quadrature=QuadSpec(assembly_order=4),
        stop=StopSpec(max_ndof=max_ndof),
    )


def helmholtz_config(omega=3.0, max_ndof=20_000):
    """Indefinite reaction problem, manufactured sine solution."""
    return AdaptiveConfig(
        domain="unit_square",
        problem=ProblemSpec(kind="general", manufactured="sine", omega=omega),
        marking=MarkingSpec(strategy="doerfler", theta=0.5),
        solver=SolverSpec(kind="exact"),
        quadrature=QuadSpec(assembly_order=6),
        stop=StopSpec(max_ndof=max_ndof),
    )


# -- rate fitting -------------------------------------------------------------

@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    levels_used: int


def _loglog_fit(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 3:
        raise ValueError("rate fit needs at least 3 levels")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("rate fit needs positive data")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    residual = ly - (slope * lx + intercept)
    total = ly - ly.mean()
    denom = float(total @ total)
    r2 = 1.0 if denom == 0.0 else 1.0 - float(residual @ residual) / denom
    return RateFit(slope=float(slope), intercept=float(intercept),
                   r_squared=r2, levels_used=int(x.size))


def fit_rate(history, quantity="eta_total", tail_levels=5):
    """Least-squares slope of log(quantity) against log(n_dofs)."""
    pairs = [(row.n_dofs, getattr(row, quantity)) for row in history.rows
             if getattr(row, quantity) is not None and getattr(row, quantity) > 0]
    if len(pairs) < 3:
        raise ValueError("rate fit needs at least 3 usable history rows")
    pairs = pairs[-int(tail_levels):]
    if len(pairs) < 3:
        raise ValueError("tail window leaves fewer than 3 rows")
    x, y = zip(*pairs)
    return _loglog_fit(x, y)


# -- identity checks ----------------------------------------------------------

def pythagoras_check(mesh, dofmap, problem, quad_order=8, trials=20,
                     seed=2024_0901):
    """Defect of ||L(u* - v)||^2 = eta(u_h*)^2 + ||u_h* - v||_A^2.

    Works for any problem with data F in L2: the left side equals the
    residual norm ||F - L v|| because L u* = F.  Returns the worst relative
    defect over random discrete candidates v.

    System, right-hand side, and indicators are all evaluated with the same
    quadrature rule: the split is the algebraic orthogonality of the
    least-squares projection in the quadrature-induced inner product, so a
    mixed-order evaluation would leave a data-dependent defect.
    """
    system, rhs = assemble_system(mesh, dofmap, problem, quad_order=quad_order)
    x_star = exact_solve(system, rhs)
    eta_sq = compute_indicators(mesh, dofmap, problem, x_star, quad_order).total ** 2
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        v = rng.standard_normal(dofmap.n_total)
        lhs = compute_indicators(mesh, dofmap, problem, v, quad_order).total ** 2
        d = x_star - v
        rhs_val = eta_sq + float(d @ (system.matrix @ d))
        defect = abs(lhs - rhs_val) / max(lhs, 1e-300)
        worst = max(worst, defect)
    return worst


def galerkin_orthogonality_check(coarse_mesh, coarse_dm, fine_mesh, fine_dm,
                                 problem, quad_order=4):
    """Fine residual of the coarse solution, tested against coarse functions.

    With exact solves b(u*_fine - u*_coarse, v) vanishes for every coarse v;
    assembled, that is P^T (rhs_fine - A_fine P x_coarse) = 0.
    """
    c_system, c_rhs = assemble_system(coarse_mesh, coarse_dm, problem, quad_order)
    f_system, f_rhs = assemble_system(fine_mesh, fine_dm, problem, quad_order)
    x_c = exact_solve(c_system, c_rhs)
    P = prolongation_matrix(coarse_mesh, coarse_dm, fine_mesh, fine_dm)
    residual = f_rhs - f_system.matrix @ (P @ x_c)
    defect = P.T @ residual
    scale = max(float(np.abs(c_rhs).max()), 1e-300)
    return float(np.abs(defect).max()) / scale


def estimator_additivity_check(report):
    """total^2 must equal the sum of squared indicators."""
    total_sq = report.total ** 2
    sum_sq = float(np.sum(report.per_element ** 2))
    return abs(total_sq - sum_sq) / max(total_sq, 1e-300)


# -- estimator-vs-error comparisons -------------------------------------------

@dataclass
class SandwichResult:
    levels: list
    ratios: list
    spread: float


def sandwich_constants(history, min_dofs=0):
    """Per-level eta / error ratios and their max/min spread."""
    levels, ratios = [], []
    for row in history.rows:
        if row.error_v is None or row.error_v <= 0 or row.n_dofs < min_dofs:
            continue
        levels.append(row.level)
        ratios.append(row.eta_total / row.error_v)
    if not ratios:
        raise ValueError("history carries no usable error values")
    spread = max(ratios) / min(ratios)
    return SandwichResult(levels=levels, ratios=ratios, spread=float(spread))


@dataclass
class LocalEfficiencyResult:
    per_element: np.ndarray
    max_ratio: float
    global_ratio: float


def local_efficiency_check(mesh, dofmap, problem, coef, quad_order=8):
    """eta_T against the exact error on the element patch.

    Requires a manufactured solution.  A vanishing patch error with a
    non-vanishing indicator is an identity violation.
    """
    if problem.exact is None:
        raise ValueError("local efficiency needs a manufactured solution")
    report = compute_indicators(mesh, dofmap, problem, coef, quad_order)
    errors = compute_error_norms(mesh, dofmap, coef, problem.exact, quad_order)
    err_sq = errors.per_element ** 2
    ratios = np.zeros(mesh.n_elements)
    scale = max(report.total, 1e-300)
    for t in range(mesh.n_elements):
        neighborhood = patch(mesh, t)
        patch_err = float(np.sqrt(err_sq[neighborhood].sum()))
        if patch_err == 0.0:
            if report.per_element[t] > 1e-12 * scale:
                raise IdentityViolationError(
                    f"element {t}: indicator {report.per_element[t]:.3e} "
                    f"with zero patch error")
            ratios[t] = 0.0
        else:
            ratios[t] = report.per_element[t] / patch_err
    global_ratio = (report.total / errors.total) if errors.total > 0 else 0.0
    return LocalEfficiencyResult(per_element=ratios,
                                 max_ratio=float(ratios.max()),
                                 global_ratio=float(global_ratio))


# -- discrete reliability ------------------------------------------------------

@dataclass
class DrelResult:
    c_drel: float
    diff_norm: float
    eta_refined: float
    n_refined_zone: int
    n_new_elements: int
    cardinality_ratio: float
    degenerate: bool = False


def discrete_reliability_check(problem, coarse_mesh, coarse_dm, coarse_coef,
                               fine_mesh, fine_dm, fine_coef, quad_order=6):
    """Measure ||u*_fine - u*_coarse||_V / eta(refined zone).

    The refined zone R collects the coarse elements whose patch does not
    survive into the fine mesh; its cardinality is compared against the
    number of newly created elements.
    """
    amap = ancestor_map(fine_mesh, coarse_mesh)
    n_new = fine_mesh.n_elements - coarse_mesh.n_elements
    if n_new == 0:
        return DrelResult(c_drel=0.0, diff_norm=0.0, eta_refined=0.0,
                          n_refined_zone=0, n_new_elements=0,
                          cardinality_ratio=0.0, degenerate=True)
    descendant_count = np.bincount(amap, minlength=coarse_mesh.n_elements)
    survived = descendant_count == 1
    in_zone = np.array([not np.all(survived[patch(coarse_mesh, t)])
                        for t in range(coarse_mesh.n_elements)])
    zone = np.flatnonzero(in_zone)

    P = prolongation_matrix(coarse_mesh, coarse_dm, fine_mesh, fine_dm)
    diff = np.asarray(fine_coef, dtype=float) - P @ np.asarray(coarse_coef, dtype=float)
    diff_norm = discrete_v_norm(fine_mesh, fine_dm, diff, quad_order=4)

    report = compute_indicators(coarse_mesh, coarse_dm, problem, coarse_coef,
                                quad_order)
    eta_zone = report.subset_total(zone)
    if eta_zone == 0.0:
        if diff_norm > 1e-10 * max(1.0, discrete_v_norm(fine_mesh, fine_dm,
                                                        fine_coef, 4)):
            raise IdentityViolationError(
                "solution changed although the refined zone carries no residual")
        c = 0.0
    else:
        c = diff_norm / eta_zone
    return DrelResult(c_drel=float(c), diff_norm=float(diff_norm),
                      eta_refined=float(eta_zone),
                      n_refined_zone=int(zone.size), n_new_elements=int(n_new),
                      cardinality_ratio=float(zone.size) / float(n_new))


# -- interpolation rates --------------------------------------------------------

def _h1_seminorm_error(mesh, dofmap, coef, u_fn, grad_fn, quad_order=8):
    """Full H1 error of the scalar part of a coefficient vector."""
    rule = quadrature_rule(quad_order)
    u, grad, _, _ = discrete_state(mesh, dofmap, coef, rule)
    phys, w_abs = _quad_points(mesh, rule)
    flat = phys.reshape(-1, 2)
    du = u_fn(flat).reshape(u.shape) - u
    dg = grad_fn(flat).reshape(grad.shape) - grad
    sq = du ** 2 + dg[..., 0] ** 2 + dg[..., 1] ** 2
    return float(np.sqrt(max(np.einsum("tq,tq->", sq, w_abs), 0.0)))


def _hdiv_error(mesh, dofmap, coef, tau_fn, div_fn, quad_order=8):
    """Full H(div) error of the vector part of a coefficient vector."""
    rule = quadrature_rule(quad_order)
    _, _, sigma, div = discrete_state(mesh, dofmap, coef, rule)
    phys, w_abs = _quad_points(mesh, rule)
    flat = phys.reshape(-1, 2)
    ds = tau_fn(flat).reshape(sigma.shape) - sigma
    dd = div_fn(flat).reshape(div.shape) - div
    sq = ds[..., 0] ** 2 + ds[..., 1] ** 2 + dd ** 2
    return float(np.sqrt(max(np.einsum("tq,tq->", sq, w_abs), 0.0)))


def nodal_interpolation(mesh, dofmap, u_fn):
    """Coefficients of the vertex interpolant (edge block zero)."""
    coef = np.zeros(dofmap.n_total)
    verts = dofmap.interior_vertices
    if verts.size:
        coef[:dofmap.n_h1] = u_fn(mesh.vertices[verts])
    return coef


def edge_moment_interpolation(mesh, dofmap, tau_fn, n_gauss=5):
    """Coefficients of the edge-flux interpolant (vertex block zero).

    The dof on an edge is the mean normal flux along the global edge
    normal, integrated with a Gauss rule on the segment.
    """
    xg, wg = np.polynomial.legendre.leggauss(n_gauss)
    s = 0.5 * (xg + 1.0)
    wg = 0.5 * wg
    pa = mesh.vertices[mesh.edges[:, 0]]
    pb = mesh.vertices[mesh.edges[:, 1]]
    pts = pa[:, None, :] + s[None, :, None] * (pb - pa)[:, None, :]
    tau = tau_fn(pts.reshape(-1, 2)).reshape(pts.shape)
    flux = np.einsum("egk,ek->eg", tau, mesh.edge_normals)
    coef = np.zeros(dofmap.n_total)
    coef[dofmap.n_h1:] = flux @ wg
    return coef


def interpolation_rate_check(levels=5, quad_order=8):
    """First-order convergence of both canonical interpolation operators.

    Uses u = sin(pi x) sin(pi y) and tau = grad u on a sequence of uniformly
    quartered unit-square meshes; returns the fitted rates against the mesh
    size together with the interpolation error of a constant (which must be
    at machine precision).
    """
    def u_fn(p):
        return np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])

    def grad_fn(p):
        x, y = p[:, 0], p[:, 1]
        return np.pi * np.column_stack([np.cos(np.pi * x) * np.sin(np.pi * y),
                                        np.sin(np.pi * x) * np.cos(np.pi * y)])

    def div_fn(p):
        return -2.0 * np.pi ** 2 * u_fn(p)

    def const_fn(p):
        out = np.empty((len(p), 2))
        out[:, 0] = 1.0
        out[:, 1] = 2.0
        return out

    def zero_fn(p):
        return np.zeros(len(p))

    hs, h1_errors, hdiv_errors = [], [], []
    # two burn-in rounds: the 8-element mesh is pre-asymptotic for the
    # interpolation constants and would pollute the rate fit
    mesh = refine_uniform(builtin_domain("unit_square"), rounds=2)
    reproduction_defect = 0.0
    for _ in range(levels):
        mesh = refine_uniform(mesh, rounds=2)
        dofmap = build_dofmap(mesh)
        hs.append(max(element_geometry(mesh, t).diam
                      for t in range(mesh.n_elements)))
        coef = nodal_interpolation(mesh, dofmap, u_fn)
        h1_errors.append(_h1_seminorm_error(mesh, dofmap, coef, u_fn, grad_fn,
                                            quad_order))
        coef_rt = edge_moment_interpolation(mesh, dofmap, grad_fn)
        hdiv_errors.append(_hdiv_error(mesh, dofmap, coef_rt, grad_fn, div_fn,
                                       quad_order))
        # constant fields live in the lowest-order edge space, so the
        # interpolant must reproduce them to rounding
        coef_const = edge_moment_interpolation(mesh, dofmap, const_fn)
        reproduction_defect = max(
            reproduction_defect,
            _hdiv_error(mesh, dofmap, coef_const, const_fn, zero_fn, 4))

    return {
        "nodal_h1": _loglog_fit(hs, h1_errors),
        "rt_hdiv": _loglog_fit(hs, hdiv_errors),
        "constant_defect": reproduction_defect,
    }


# -- report plumbing -------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: dict
    budget: str


@dataclass
class VerificationReport:
    results: list

    @property
    def ok(self):
        return all(r.passed for r in self.results)

    def render(self):
        lines = []
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            facts = ", ".join(f"{k}={v:.6g}" if isinstance(v, float)
                              else f"{k}={v}" for k, v in r.measured.items())
            lines.append(f"[{status}] {r.name}: {facts} (budget: {r.budget})")
        lines.append(f"{sum(r.passed for r in self.results)}/{len(self.results)} "
                     f"checks passed")
        return "\n".join(lines)


def _check(name, passed, measured, budget):
    return CheckResult(name=name, passed=bool(passed), measured=measured,
                       budget=budget)


# -- suites ----------------------------------------------------------------------

def _suite_mesh():
    results = []
    mesh0 = builtin_domain("unit_square")
    fine = refine_nvb(mesh0, [0])
    parent_area = element_geometry(mesh0, 0).area
    child = element_geometry(fine, 0)
    halving = abs(child.area * 2.0 - parent_area)
    hratio = child.h / element_geometry(mesh0, 0).h
    results.append(_check(
        "bisection: child area is exactly half, h contracts by 2^(-1/2)",
        halving == 0.0 and abs(hratio - 2 ** -0.5) < 1e-14,
        {"area_defect": halving, "h_ratio": hratio},
        "exact halving, ratio 2^(-1/2) to 1e-14"))

    mesh = builtin_domain("unit_square")
    min_angles = []
    for _ in range(10):
        mesh = refine_uniform(mesh)
        diag = validate(mesh)
        if not diag.ok:
            results.append(_check("uniform refinement conformity", False,
                                  {"violations": len(diag.conformity_violations)},
                                  "no violations"))
            return results
        min_angles.append(min(element_geometry(mesh, t).min_angle
                              for t in range(mesh.n_elements)))
    stable = all(a >= min_angles[1] - 1e-12 for a in min_angles[1:])
    results.append(_check(
        "shape regularity: minimum angle locks after two uniform rounds",
        stable,
        {"min_angle_deg": float(np.degrees(min(min_angles)))},
        "no decay past generation 2"))

    rng = np.random.default_rng(123)
    mesh = builtin_domain("l_shape")
    ok_conf, ok_gone = True, True
    for _ in range(6):
        k = rng.integers(1, mesh.n_elements + 1)
        marked = np.sort(rng.choice(mesh.n_elements, size=k, replace=False))
        old_triples = {tuple(sorted(mesh.elements[t])) for t in marked}
        mesh = refine_nvb(mesh, marked)
        new_triples = {tuple(sorted(tri)) for tri in mesh.elements.tolist()}
        ok_gone &= not (old_triples & new_triples)
        ok_conf &= validate(mesh).ok
    results.append(_check(
        "random refinement: conformity preserved, marked elements replaced",
        ok_conf and ok_gone, {"final_elements": mesh.n_elements},
        "validate().ok and no marked triple survives"))
    return results


def _suite_marking():
    results = []
    rng = np.random.default_rng(42)
    trials = BUDGETS["marking_trials"]
    axiom_ok = True
    bulk_ok = True
    greedy_ok = True
    for i in range(trials):
        n = int(rng.integers(1, 13))
        eta = rng.uniform(0.0, 1.0, size=n)
        if i % 7 == 0:
            eta[rng.integers(0, n)] = 0.0
        theta = float(rng.uniform(0.05, 1.0))
        for strategy in ("maximum", "equilibration", "doerfler"):
            marked = mark(MarkingSpec(strategy=strategy, theta=theta), eta)
            axiom_ok &= verify_marking_axiom(eta, marked)
        marked = mark(MarkingSpec(strategy="doerfler", theta=theta), eta)
        if np.any(eta > 0):
            bulk_ok &= (np.sum(eta[marked] ** 2)
                        >= theta * np.sum(eta ** 2) - 1e-12)
        reference = doerfler_bruteforce(eta, theta)
        greedy_ok &= marked.size == reference.size
    results.append(_check(
        f"marking axiom over {trials} random indicator vectors",
        axiom_ok, {"trials": trials}, "max unmarked <= max marked"))
    results.append(_check(
        "doerfler bulk property on random vectors", bulk_ok,
        {"trials": trials}, "marked squares reach theta * total^2"))
    results.append(_check(
        "doerfler greedy prefix is minimum cardinality", greedy_ok,
        {"trials": trials}, "matches exhaustive search"))
    return results


def _solver_fixture():
    mesh = refine_uniform(builtin_domain("unit_square"), rounds=3)
    dofmap = build_dofmap(mesh)
    problem = make_problem(ProblemSpec(kind="poisson", manufactured="poly_bubble"))
    system, rhs = assemble_system(mesh, dofmap, problem, 4)
    return system, rhs


def _suite_solver():
    results = []
    system, rhs = _solver_fixture()
    x_star = exact_solve(system, rhs)

    worst = 0.0
    for precond in ("jacobi", "none"):
        c_pcg, q_ctr = estimate_pcg_contraction(system, precond)
        run = pcg_run(system, rhs, precond=precond, x0=None,
                      stop=FixedSteps(200), reference=x_star,
                      keep_iterates=False)
        e = np.array(run.energy_errors)
        floor = 1e-10 * e[0]
        for n in range(len(e) - 1):
            if e[n] <= floor:
                break
            worst = max(worst, e[n + 1] / (q_ctr * e[n]))
    results.append(_check(
        "pcg per-step energy contraction within measured q_ctr",
        worst <= 1.0 + BUDGETS["pcg_contraction_slack"],
        {"worst_ratio": worst}, "<= 1 + 1e-8"))

    run = pcg_run(system, rhs, precond="none", x0=None,
                  stop=ResidualTol(1e-12, max_steps=system.n + 5))
    results.append(_check(
        "plain cg finite termination within n + 5 steps",
        run.stop_reason == "residual_tol",
        {"n": system.n, "iterations": run.iterations}, "residual 1e-12"))
    return results


def _identity_fixtures():
    fixtures = []
    mesh = refine_uniform(builtin_domain("unit_square"), rounds=2)
    fixtures.append(("smooth poisson", mesh,
                     make_problem(ProblemSpec(kind="poisson",
                                              manufactured="poly_bubble"))))
    mesh = refine_uniform(builtin_domain("l_shape"), rounds=2)
    fixtures.append(("corner singularity", mesh,
                     make_problem(ProblemSpec(kind="poisson", f=1.0))))
    mesh = refine_uniform(builtin_domain("unit_square"), rounds=2)
    fixtures.append(("indefinite reaction", mesh,
                     make_problem(ProblemSpec(kind="general",
                                              manufactured="sine", omega=3.0))))
    return fixtures


def _suite_identities():
    results = []
    worst = 0.0
    for name, mesh, problem in _identity_fixtures():
        dofmap = build_dofmap(mesh)
        worst = max(worst, pythagoras_check(mesh, dofmap, problem))
    results.append(_check(
        "orthogonal residual split on three fixtures", worst
        <= BUDGETS["pythagoras_defect"],
        {"max_defect": worst}, "relative defect <= 1e-8"))

    worst = 0.0
    for name, mesh, problem in _identity_fixtures()[:2]:
        dm = build_dofmap(mesh)
        rng = np.random.default_rng(7)
        marked = np.sort(rng.choice(mesh.n_elements,
                                    size=max(1, mesh.n_elements // 3),
                                    replace=False))
        fine = refine_nvb(mesh, marked)
        fdm = build_dofmap(fine)
        worst = max(worst, galerkin_orthogonality_check(mesh, dm, fine, fdm,
                                                        problem))
    results.append(_check(
        "galerkin orthogonality across refinement", worst
        <= BUDGETS["galerkin_defect"],
        {"max_defect": worst}, "relative defect <= 1e-8"))

    mesh = refine_uniform(builtin_domain("unit_square"), rounds=2)
    dm = build_dofmap(mesh)
    problem = make_problem(ProblemSpec(kind="poisson", manufactured="poly_bubble"))
    system, rhs = assemble_system(mesh, dm, problem, 4)
    report = compute_indicators(mesh, dm, problem, exact_solve(system, rhs), 6)
    defect = estimator_additivity_check(report)
    results.append(_check(
        "indicator additivity", defect <= BUDGETS["additivity_defect"],
        {"defect": defect}, "<= 1e-13"))

    eff = local_efficiency_check(mesh, dm, problem, exact_solve(system, rhs))
    bound = BUDGETS["local_efficiency_factor"] * max(eff.global_ratio, 1e-300)
    results.append(_check(
        "local efficiency against patch errors",
        eff.max_ratio <= bound,
        {"max_ratio": eff.max_ratio, "global_ratio": eff.global_ratio},
        "max <= 3 x global"))
    return results


def _suite_reliability(n_pairs=20, seed=2024_1105):
    problem = make_problem(ProblemSpec(kind="poisson", manufactured="poly_bubble"))
    config = replace(smooth_poisson_config(),
                     stop=StopSpec(max_ndof=10 ** 9, max_levels=4))
    history = run_adaptive(config, keep_records=True)
    base = history.records[-1]
    rng = np.random.default_rng(seed)
    values, card_ok = [], True
    for _ in range(n_pairs):
        size = max(1, int(0.3 * base.mesh.n_elements))
        marked = np.sort(rng.choice(base.mesh.n_elements, size=size,
                                    replace=False))
        fine = refine_nvb(base.mesh, marked)
        fdm = build_dofmap(fine)
        fsystem, frhs = assemble_system(fine, fdm, problem, 4)
        fcoef = exact_solve(fsystem, frhs)
        res = discrete_reliability_check(problem, base.mesh, base.dofmap,
                                         base.coef, fine, fdm, fcoef)
        if not res.degenerate:
            values.append(res.c_drel)
            card_ok &= (res.n_refined_zone
                        <= BUDGETS["drel_cardinality_factor"] * res.n_new_elements)
    values = np.array(values)
    spread = float(values.max() / values.min()) if values.min() > 0 else np.inf
    results = [
        _check("discrete reliability constant stays desk-scale",
               float(values.max()) <= BUDGETS["drel_constant_cap"],
               {"max_c": float(values.max()), "min_c": float(values.min())},
               "<= 100"),
        _check("discrete reliability constants cluster",
               spread <= BUDGETS["drel_spread"],
               {"spread": spread}, "max/min <= 4"),
        _check("refined zone stays proportional to new elements", card_ok,
               {"pairs": int(values.size)}, "#zone <= 20 x #new"),
    ]
    return results


def _suite_rates():
    results = []
    interp = interpolation_rate_check()
    for key in ("nodal_h1", "rt_hdiv"):
        fit = interp[key]
        results.append(_check(
            f"interpolation rate ({key})",
            BUDGETS["interp_rate_low"] <= fit.slope <= BUDGETS["interp_rate_high"],
            {"slope": fit.slope, "r2": fit.r_squared}, "in [0.85, 1.15]"))
    results.append(_check(
        "constant fields reproduced by edge interpolation",
        interp["constant_defect"] <= 1e-12,
        {"defect": interp["constant_defect"]}, "<= 1e-12"))

    history = run_adaptive(smooth_poisson_config())
    fit = fit_rate(history, "eta_total", BUDGETS["rate_tail_levels"])
    results.append(_check(
        "smooth adaptive eta rate",
        BUDGETS["smooth_rate_low"] <= fit.slope <= BUDGETS["smooth_rate_high"],
        {"slope": fit.slope, "r2": fit.r_squared}, "in [-0.6, -0.4]"))
    eta = history.column("eta_total")
    err = history.column("error_v")
    results.append(_check(
        "smooth run decay budgets",
        eta[-1] <= BUDGETS["eta_decay_factor"] * eta[0]
        and err[-1] <= BUDGETS["error_decay_factor"] * err[0],
        {"eta_ratio": float(eta[-1] / eta[0]),
         "error_ratio": float(err[-1] / err[0])}, "<= 0.05"))
    sandwich = sandwich_constants(history, BUDGETS["sandwich_min_dofs"])
    results.append(_check(
        "smooth sandwich spread",
        sandwich.spread <= BUDGETS["sandwich_spread_smooth"],
        {"spread": sandwich.spread}, "<= 3"))

    uniform = run_adaptive(lshape_config(strategy="uniform", max_ndof=50_000))
    fit_u = fit_rate(uniform, "eta_total", BUDGETS["rate_tail_levels"])
    adaptive = run_adaptive(lshape_config())
    fit_a = fit_rate(adaptive, "eta_total", BUDGETS["rate_tail_levels"])
    results.append(_check(
        "corner-singular uniform rate is suboptimal",
        BUDGETS["lshape_uniform_rate_low"] <= fit_u.slope
        <= BUDGETS["lshape_uniform_rate_high"],
        {"slope": fit_u.slope, "r2": fit_u.r_squared}, "in [-0.40, -0.26]"))
    results.append(_check(
        "corner-singular adaptive rate is restored",
        fit_a.slope <= BUDGETS["lshape_adaptive_rate_max"],
        {"slope": fit_a.slope, "r2": fit_a.r_squared}, "<= -0.45"))

    helm = run_adaptive(helmholtz_config())
    sandwich_h = sandwich_constants(helm, BUDGETS["sandwich_min_dofs"])
    eta_h = helm.column("eta_total")
    err_h = helm.column("error_v")
    results.append(_check(
        "indefinite reaction run converges with bounded sandwich",
        eta_h[-1] <= BUDGETS["eta_decay_factor"] * eta_h[0]
        and err_h[-1] <= BUDGETS["error_decay_factor"] * err_h[0]
        and sandwich_h.spread <= BUDGETS["sandwich_spread_indefinite"],
        {"eta_ratio": float(eta_h[-1] / eta_h[0]),
         "spread": sandwich_h.spread}, "decay <= 0.05, spread <= 5"))
    return results


_SUITES = {
    "mesh": _suite_mesh,
    "marking": _suite_marking,
    "solver": _suite_solver,
    "identities": _suite_identities,
    "reliability": _suite_reliability,
    "rates": _suite_rates,
}

SUITE_NAMES = ("all",) + tuple(_SUITES)


def run_all(suite="all"):
    """Run one named verification suite (or all of them)."""
    if suite == "all":
        names = list(_SUITES)
    elif suite in _SUITES:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    results = []
    for name in names:
        results.extend(_SUITES[name]())
    return VerificationReport(results=results)
