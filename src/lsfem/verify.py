"""Numerical verification of the paper's claims and of the identities the
workbench relies on.

Measurement helpers (``fit_rate``, ``sandwich_constants``,
``pythagoras_check``, ...) return raw numbers.  The ``check_*`` functions
take already-computed inputs (a run history, refinement pairs, solved
systems), compare every measured quantity against a named bound in
``BUDGETS`` and return ``CheckResult`` lists; each bound is written only
there.  ``lsfem verify`` and the acceptance criteria share these checks:
``run_all`` builds small inputs of its own and calls them, and
``tests/test_acceptance.py`` calls them on its reference runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .assembly import assemble_system
from .driver import (AdaptiveConfig, QuadSpec, SolverSpec, StopSpec,
                     run_adaptive)
from .errors import IdentityViolationError
from .estimator import (LevelEstimator, compute_error_norms,
                        compute_indicators, discrete_v_norm)
from .marking import MarkingSpec, doerfler_bruteforce, mark, verify_marking_axiom
from .mesh import (ancestor_map, builtin_domain, refine_nvb, refine_uniform,
                   validate)
from .problems import ProblemSpec, _sine_exact, _zero_exact, make_problem
from .solver import ResidualTol, estimate_pcg_contraction, exact_solve, pcg_run
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
    "h_ratio_defect": 5e-16,
    "constant_reproduction_defect": 1e-12,
    "angle_lock_tol": 1e-12,
    "pcg_energy_floor": 1e-10,
    "bulk_tol": 1e-12,
    "cg_residual_tol": 1e-12,
    "cg_extra_steps": 5,
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


def helmholtz_config(c=-9.0, max_ndof=20_000):
    """Indefinite reaction problem, manufactured sine solution."""
    return AdaptiveConfig(
        domain="unit_square",
        problem=ProblemSpec(kind="general", manufactured="sine", c=c),
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
    """Least-squares slope of log(quantity) against log(n_dofs) over the
    last ``tail_levels`` usable rows, an integer of at least 3."""
    if (isinstance(tail_levels, bool)
            or not isinstance(tail_levels, (int, np.integer))
            or tail_levels < 3):
        raise ValueError(
            f"tail_levels must be an integer of at least 3, got {tail_levels!r}")
    pairs = [(row.n_dofs, getattr(row, quantity)) for row in history.rows
             if getattr(row, quantity) is not None and getattr(row, quantity) > 0]
    if len(pairs) < 3:
        raise ValueError("rate fit needs at least 3 usable history rows")
    x, y = zip(*pairs[-tail_levels:])
    return _loglog_fit(x, y)


# -- identity checks ----------------------------------------------------------

def pythagoras_check(dofmap, problem, quad_order=8, trials=20,
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
    system, rhs = assemble_system(dofmap.mesh, dofmap, problem,
                                  quad_order=quad_order)
    x_star = exact_solve(system, rhs)
    estimate = LevelEstimator(dofmap, problem, quad_order)
    eta_sq = estimate(x_star).total ** 2
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        v = rng.standard_normal(dofmap.n_total)
        lhs = estimate(v).total ** 2
        d = x_star - v
        rhs_val = eta_sq + float(d @ (system.matrix @ d))
        defect = abs(lhs - rhs_val) / max(lhs, 1e-300)
        worst = max(worst, defect)
    return worst


def galerkin_orthogonality_check(coarse_dm, fine_dm, problem, quad_order=4):
    """Fine residual of the coarse solution, tested against coarse functions.

    With exact solves b(u*_fine - u*_coarse, v) vanishes for every coarse v;
    assembled, that is P^T (rhs_fine - A_fine P x_coarse) = 0.
    """
    c_system, c_rhs = assemble_system(coarse_dm.mesh, coarse_dm, problem,
                                      quad_order)
    f_system, f_rhs = assemble_system(fine_dm.mesh, fine_dm, problem, quad_order)
    x_c = exact_solve(c_system, c_rhs)
    P = prolongation_matrix(coarse_dm, fine_dm)
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


def _patch_sums(mesh, values):
    """Per element, the sum of ``values`` over its patch: the elements that
    share at least one vertex with it."""
    nt = mesh.n_elements
    incidence = sp.csr_matrix(
        (np.ones(3 * nt), mesh.elements.ravel(), np.arange(0, 3 * nt + 1, 3)),
        shape=(nt, mesh.n_vertices))
    return ((incidence @ incidence.T) > 0) @ values


def local_efficiency_check(dofmap, problem, coef, quad_order=8):
    """eta_T against the exact error on the element patch.

    Requires a manufactured solution.  A vanishing patch error with a
    non-vanishing indicator is an identity violation.
    """
    if problem.exact is None:
        raise ValueError("local efficiency needs a manufactured solution")
    mesh = dofmap.mesh
    report = compute_indicators(mesh, dofmap, problem, coef, quad_order)
    errors = compute_error_norms(dofmap, coef, problem.exact, quad_order)
    eta = report.per_element
    patch_err = np.sqrt(_patch_sums(mesh, errors.per_element ** 2))
    zero = patch_err == 0.0
    violations = np.flatnonzero(zero & (eta > 1e-12 * max(report.total, 1e-300)))
    if violations.size:
        t = violations[0]
        raise IdentityViolationError(
            f"element {t}: indicator {eta[t]:.3e} with zero patch error")
    ratios = np.zeros(mesh.n_elements)
    ratios[~zero] = eta[~zero] / patch_err[~zero]
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


def discrete_reliability_check(problem, coarse_dm, coarse_coef, fine_dm,
                               fine_coef, quad_order=6):
    """Measure ||u*_fine - u*_coarse||_V / eta(refined zone).

    The refined zone R collects the coarse elements whose patch does not
    survive into the fine mesh; its cardinality is compared against the
    number of newly created elements.
    """
    coarse_mesh, fine_mesh = coarse_dm.mesh, fine_dm.mesh
    amap = ancestor_map(fine_mesh, coarse_mesh)
    n_new = fine_mesh.n_elements - coarse_mesh.n_elements
    if n_new == 0:
        return DrelResult(c_drel=0.0, diff_norm=0.0, eta_refined=0.0,
                          n_refined_zone=0, n_new_elements=0,
                          cardinality_ratio=0.0, degenerate=True)
    # the zone holds the elements touching a vertex of a split element
    split = np.bincount(amap, minlength=coarse_mesh.n_elements) > 1
    touched = np.zeros(coarse_mesh.n_vertices, dtype=bool)
    touched[coarse_mesh.elements[split]] = True
    zone = np.flatnonzero(touched[coarse_mesh.elements].any(axis=1))

    P = prolongation_matrix(coarse_dm, fine_dm)
    diff = np.asarray(fine_coef, dtype=float) - P @ np.asarray(coarse_coef, dtype=float)
    diff_norm = discrete_v_norm(fine_dm, diff, quad_order=4)

    report = compute_indicators(coarse_mesh, coarse_dm, problem, coarse_coef,
                                quad_order)
    eta_zone = report.subset_total(zone)
    if eta_zone == 0.0:
        if diff_norm > 1e-10 * max(1.0, discrete_v_norm(fine_dm, fine_coef, 4)):
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

def nodal_interpolation(dofmap, u_fn):
    """Coefficients of the vertex interpolant (edge block zero)."""
    coef = np.zeros(dofmap.n_total)
    verts = dofmap.interior_vertices
    if verts.size:
        coef[:dofmap.n_h1] = u_fn(dofmap.mesh.vertices[verts])
    return coef


def edge_moment_interpolation(dofmap, tau_fn, n_gauss=5):
    """Coefficients of the edge-flux interpolant (vertex block zero).

    The dof on an edge is the mean normal flux along the global edge
    normal, integrated with a Gauss rule on the segment.
    """
    mesh = dofmap.mesh
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
    sine = _sine_exact(np.eye(2))           # sigma = grad u

    def const_fn(p):
        return np.tile([1.0, 2.0], (len(p), 1))

    # each interpolant has one block zero, so it is measured against an
    # exact solution whose other half is zero
    scalar = replace(_zero_exact(), u=sine.u, grad_u=sine.grad_u)
    flux = replace(_zero_exact(), sigma=sine.sigma, div_sigma=sine.div_sigma)
    constant = replace(_zero_exact(), sigma=const_fn)
    hs, h1_errors, hdiv_errors = [], [], []
    # two burn-in rounds: the 8-element mesh is pre-asymptotic for the
    # interpolation constants and would pollute the rate fit
    mesh = refine_uniform(builtin_domain("unit_square"), rounds=2)
    reproduction_defect = 0.0
    for _ in range(levels):
        mesh = refine_uniform(mesh, rounds=2)
        dofmap = build_dofmap(mesh)
        hs.append(float(mesh.geometry["edge_len"].max()))
        coef = nodal_interpolation(dofmap, sine.u)
        h1_errors.append(compute_error_norms(dofmap, coef, scalar,
                                             quad_order).total)
        coef_rt = edge_moment_interpolation(dofmap, sine.sigma)
        hdiv_errors.append(compute_error_norms(dofmap, coef_rt, flux,
                                               quad_order).total)
        # constant fields live in the lowest-order edge space, so the
        # interpolant must reproduce them to rounding
        coef_const = edge_moment_interpolation(dofmap, const_fn)
        reproduction_defect = max(
            reproduction_defect,
            compute_error_norms(dofmap, coef_const, constant, 4).total)

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

    def __post_init__(self):
        self.passed = bool(self.passed)

    def render(self):
        facts = ", ".join(f"{k}={v:.6g}" if isinstance(v, float)
                          else f"{k}={v}" for k, v in self.measured.items())
        return f"{self.name}: {facts} (budget: {self.budget})"


@dataclass
class VerificationReport:
    results: list

    @property
    def ok(self):
        return all(r.passed for r in self.results)

    def render(self):
        lines = [f"[{'PASS' if r.passed else 'FAIL'}] {r.render()}"
                 for r in self.results]
        lines.append(f"{sum(r.passed for r in self.results)}/{len(self.results)} "
                     f"checks passed")
        return "\n".join(lines)


def _b(key):
    """A budget value as written in budget text."""
    return f"{BUDGETS[key]:g}"


# -- checks shared by ``lsfem verify`` and the acceptance criteria -------------

def _decay_check(label, history):
    eta = history.column("eta_total")
    err = history.column("error_v")
    eta_ratio = float(eta[-1] / eta[0])
    error_ratio = float(err[-1] / err[0])
    return CheckResult(
        f"{label} run decay budgets",
        eta_ratio <= BUDGETS["eta_decay_factor"]
        and error_ratio <= BUDGETS["error_decay_factor"],
        {"eta_ratio": eta_ratio, "error_ratio": error_ratio},
        f"eta_ratio <= {_b('eta_decay_factor')}, "
        f"error_ratio <= {_b('error_decay_factor')}")


def _sandwich_check(label, history, spread_key):
    sandwich = sandwich_constants(history, BUDGETS["sandwich_min_dofs"])
    return CheckResult(
        f"{label} sandwich spread", sandwich.spread <= BUDGETS[spread_key],
        {"spread": sandwich.spread, "levels": len(sandwich.ratios)},
        f"max/min of eta/error <= {_b(spread_key)} "
        f"from {_b('sandwich_min_dofs')} dofs")


def _rate_check(name, fit, low_key, high_key):
    return CheckResult(
        name, BUDGETS[low_key] <= fit.slope <= BUDGETS[high_key],
        {"slope": fit.slope, "r2": fit.r_squared},
        f"in [{_b(low_key)}, {_b(high_key)}]")


def check_smooth_run(history):
    """Decay, eta rate and sandwich spread of the smooth exact run."""
    fit = fit_rate(history, "eta_total", BUDGETS["rate_tail_levels"])
    return [_decay_check("smooth", history),
            _rate_check("smooth adaptive eta rate", fit,
                        "smooth_rate_low", "smooth_rate_high"),
            _sandwich_check("smooth", history, "sandwich_spread_smooth")]


def check_corner_rates(uniform, adaptive):
    """Reentrant corner: the uniform rate is suboptimal, the adaptive one is
    restored and steeper than the uniform one."""
    fit_u, fit_a = (fit_rate(run, "eta_total", BUDGETS["rate_tail_levels"])
                    for run in (uniform, adaptive))
    return [
        _rate_check("corner-singular uniform rate is suboptimal", fit_u,
                    "lshape_uniform_rate_low", "lshape_uniform_rate_high"),
        CheckResult("corner-singular adaptive rate is restored",
                    fit_a.slope <= BUDGETS["lshape_adaptive_rate_max"],
                    {"slope": fit_a.slope, "r2": fit_a.r_squared},
                    f"<= {_b('lshape_adaptive_rate_max')}"),
        CheckResult("corner-singular adaptive rate beats uniform",
                    fit_a.slope < fit_u.slope,
                    {"adaptive_slope": fit_a.slope, "uniform_slope": fit_u.slope},
                    "adaptive < uniform"),
    ]


def check_indefinite_run(history):
    """Decay and sandwich spread of the indefinite reaction run."""
    return [_decay_check("indefinite reaction", history),
            _sandwich_check("indefinite reaction", history,
                            "sandwich_spread_indefinite")]


def check_interpolation(rates):
    """First-order interpolation rates and exact reproduction of constant
    fields; ``rates`` is the result of ``interpolation_rate_check``."""
    results = [_rate_check(f"interpolation rate ({key})", rates[key],
                           "interp_rate_low", "interp_rate_high")
               for key in ("nodal_h1", "rt_hdiv")]
    results.append(CheckResult(
        "constant fields reproduced by edge interpolation",
        rates["constant_defect"] <= BUDGETS["constant_reproduction_defect"],
        {"defect": rates["constant_defect"]},
        f"<= {_b('constant_reproduction_defect')}"))
    return results


def check_pcg_contraction(runs):
    """Each PCG step of ``(system, rhs, precond, steps)`` runs contracts the
    energy error by the measured q_ctr; steps starting below
    ``pcg_energy_floor`` times the initial error are rounding noise.

    A run ends after ``steps`` steps or once the residual falls to
    ``cg_residual_tol`` relative.  The energy error of CG does not grow,
    and at that residual it was at most 2.5e-12 of the initial one on
    uniform unit-square and L-shape meshes up to 769 dofs (Poisson and
    ``general`` data, Jacobi or none), so the steps left out would start
    below the floor.  A cap at n + ``cg_extra_steps`` would not do: there
    CG took up to n + 23 steps to reach the floor."""
    worst, n_systems = 0.0, 0
    for system, rhs, precond, steps in runs:
        _, q_ctr = estimate_pcg_contraction(system, precond)
        run = pcg_run(system, rhs, precond=precond,
                      stop=ResidualTol(BUDGETS["cg_residual_tol"],
                                       max_steps=steps),
                      reference=exact_solve(system, rhs))
        e = np.array(run.energy_errors)
        active = e[:-1] > BUDGETS["pcg_energy_floor"] * e[0]
        if not active.any():
            continue
        ratio = float((e[1:][active] / e[:-1][active]).max())
        worst = max(worst, ratio / q_ctr)
        n_systems += 1
    return [CheckResult(
        "pcg per-step energy contraction within measured q_ctr",
        n_systems > 0 and worst <= 1.0 + BUDGETS["pcg_contraction_slack"],
        {"worst_ratio": worst, "systems": n_systems},
        f"step ratio / q_ctr <= 1 + {_b('pcg_contraction_slack')}")]


# random indicator families: seed, length range [low, high), square the
# uniform draws, and zero one entry on every k-th trial
_INDICATOR_FAMILIES = {
    "long": (2024_1201, (1, 200), True, None),
    "short_with_zeros": (42, (1, 13), False, 7),
    "short": (2024_1202, (2, 13), False, None),
}


def _indicator_family(seed, lengths, square, zero_every):
    rng = np.random.default_rng(seed)
    for i in range(BUDGETS["marking_trials"]):
        n = int(rng.integers(*lengths))
        eta = rng.random(n)
        if square:
            eta = eta ** 2
        if zero_every and i % zero_every == 0:
            eta[rng.integers(0, n)] = 0.0
        yield eta, float(rng.uniform(0.05, 1.0))


def check_marking_axiom(levels=()):
    """Largest unmarked indicator never beats the largest marked one.

    Checked for every strategy on all random indicator families and on the
    recorded ``(indicators, marked)`` pairs in ``levels``.
    """
    cases = [(eta, mark(MarkingSpec(strategy, theta), eta))
             for family in _INDICATOR_FAMILIES.values()
             for eta, theta in _indicator_family(*family)
             for strategy in ("maximum", "equilibration", "doerfler")]
    levels = list(levels)
    violations = sum(not verify_marking_axiom(eta, marked)
                     for eta, marked in cases + levels)
    return [CheckResult(
        "marking axiom on random vectors and recorded levels",
        violations == 0,
        {"markings": len(cases), "levels": len(levels),
         "violations": violations},
        "max unmarked <= max marked")]


def check_doerfler_bulk():
    """Doerfler marking reaches the bulk and is exactly the exhaustive
    minimum-cardinality set on the short random indicator families."""
    trials = misses = mismatches = 0
    for name in ("short_with_zeros", "short"):
        for eta, theta in _indicator_family(*_INDICATOR_FAMILIES[name]):
            marked = mark(MarkingSpec("doerfler", theta), eta)
            squares = eta ** 2
            misses += bool(np.any(eta > 0) and squares[marked].sum()
                           < theta * squares.sum() - BUDGETS["bulk_tol"])
            reference = np.sort(doerfler_bruteforce(eta, theta))
            mismatches += not np.array_equal(marked, reference)
            trials += 1
    return [
        CheckResult("doerfler bulk property on random vectors", misses == 0,
                    {"trials": trials, "misses": misses},
                    f"marked squares >= theta * total^2 - {_b('bulk_tol')}"),
        CheckResult("doerfler greedy set is the exhaustive minimum",
                    mismatches == 0,
                    {"trials": trials, "mismatches": mismatches},
                    "equals doerfler_bruteforce"),
    ]


def check_refinement_pairs(pairs):
    """Bisection facts for ``(coarse, marked, fine)`` triples: the fine mesh
    is conforming, no marked element survives, each fine element is its
    ancestor halved exactly k times (dyadic coordinates keep the areas
    exact), and h = area^(1/2) contracts by 2^(-1/2) when k = 1."""
    n_pairs = nonconforming = survivors = inexact = 0
    h_defect = 0.0
    for coarse, marked, fine in pairs:
        n_pairs += 1
        nonconforming += not validate(fine).ok
        marked = np.asarray(marked, dtype=np.intp)
        both = np.sort(np.concatenate([coarse.elements[marked],
                                       fine.elements]), axis=1)
        _, inverse = np.unique(both, axis=0, return_inverse=True)
        inverse = inverse.ravel()
        survivors += int(np.isin(inverse[:marked.size],
                                 inverse[marked.size:]).sum())
        area_f = fine.signed_areas()
        area_c = coarse.signed_areas()[ancestor_map(fine, coarse)]
        ratio = area_c / area_f
        k = np.rint(np.log2(ratio))
        inexact += int(np.count_nonzero(ratio != np.power(2.0, k)))
        once = k == 1
        if once.any():
            h_ratio = np.sqrt(area_f[once] / area_c[once])
            h_defect = max(h_defect, float(np.abs(h_ratio - 2.0 ** -0.5).max()))
    return [CheckResult(
        "refinement: conforming, marked elements replaced, areas halve exactly",
        nonconforming == survivors == inexact == 0
        and h_defect <= BUDGETS["h_ratio_defect"],
        {"pairs": n_pairs, "nonconforming": nonconforming,
         "marked_survivors": survivors, "inexact_areas": inexact,
         "h_defect": h_defect},
        f"counts 0, |h ratio - 2^(-1/2)| <= {_b('h_ratio_defect')}")]


def _min_angle(mesh):
    """The smallest interior angle of all elements, in radians."""
    coords, length = mesh.vertices[mesh.elements], mesh.geometry["edge_len"]
    # the angle at vertex i lies between local edges i + 2 and i + 1
    u = coords[:, [1, 2, 0]] - coords
    w = coords[:, [2, 0, 1]] - coords
    cos = (np.einsum("tid,tid->ti", u, w)
           / (length[:, [2, 0, 1]] * length[:, [1, 2, 0]]))
    return float(np.arccos(np.clip(cos, -1.0, 1.0)).min())


def check_angle_lock(meshes):
    """Shape regularity: ``meshes`` are successive uniform refinements, the
    first refined once; from the second on, the minimum angle never drops
    below the second mesh's."""
    minima = [_min_angle(mesh) for mesh in meshes]
    later = min(minima[2:])
    return [CheckResult(
        "shape regularity: minimum angle locks after two uniform rounds",
        later >= minima[1] - BUDGETS["angle_lock_tol"],
        {"rounds": len(minima), "second_round_deg": float(np.degrees(minima[1])),
         "later_min_deg": float(np.degrees(later))},
        f"later minimum >= second round's - {_b('angle_lock_tol')} rad")]


def identity_fixtures():
    """(name, mesh, problem) fixtures of the identity checks."""
    square = refine_uniform(builtin_domain("unit_square"), rounds=2)
    return [
        ("smooth poisson", square,
         make_problem(ProblemSpec(kind="poisson", manufactured="poly_bubble"))),
        ("corner singularity", refine_uniform(builtin_domain("l_shape"), rounds=2),
         make_problem(ProblemSpec(kind="poisson", f=1.0))),
        ("indefinite reaction", square,
         make_problem(ProblemSpec(kind="general", manufactured="sine",
                                  c=-9.0))),
    ]


def check_residual_split(fixtures):
    """eta(v)^2 = eta(x*)^2 + ||x* - v||_A^2 on ``(name, mesh, problem)``
    fixtures."""
    worst = max(pythagoras_check(build_dofmap(mesh), problem)
                for _, mesh, problem in fixtures)
    return [CheckResult(
        "orthogonal residual split", worst <= BUDGETS["pythagoras_defect"],
        {"max_defect": worst, "fixtures": len(fixtures)},
        f"relative defect <= {_b('pythagoras_defect')}")]


def check_discrete_reliability(base, problem):
    """Discrete reliability on random refinements of one solved level.

    ``base`` is the ``LevelRecord`` of a level of ``problem`` solved
    exactly; its mesh is refined at 20 random element sets and each
    refinement solved exactly.
    """
    rng = np.random.default_rng(2024_1105)
    values, zone_ratio = [], 0.0
    for _ in range(20):
        size = max(1, int(0.3 * base.mesh.n_elements))
        marked = np.sort(rng.choice(base.mesh.n_elements, size=size,
                                    replace=False))
        fine = refine_nvb(base.mesh, marked)
        fdm = build_dofmap(fine)
        fsystem, frhs = assemble_system(fine, fdm, problem, 4)
        res = discrete_reliability_check(problem, base.dofmap, base.coef, fdm,
                                         exact_solve(fsystem, frhs))
        if not res.degenerate:
            values.append(res.c_drel)
            zone_ratio = max(zone_ratio, res.cardinality_ratio)
    values = np.array(values)
    spread = float(values.max() / values.min()) if values.min() > 0 else np.inf
    return [
        CheckResult("discrete reliability constant stays desk-scale",
                    float(values.max()) <= BUDGETS["drel_constant_cap"],
                    {"max_c": float(values.max()), "min_c": float(values.min())},
                    f"<= {_b('drel_constant_cap')}"),
        CheckResult("discrete reliability constants cluster",
                    spread <= BUDGETS["drel_spread"],
                    {"spread": spread}, f"max/min <= {_b('drel_spread')}"),
        CheckResult("refined zone stays proportional to new elements",
                    zone_ratio <= BUDGETS["drel_cardinality_factor"],
                    {"pairs": int(values.size), "max_zone_ratio": zone_ratio},
                    f"#zone <= {_b('drel_cardinality_factor')} x #new"),
    ]


# -- suites ----------------------------------------------------------------------

def _suite_mesh():
    base = builtin_domain("unit_square")
    uniform = [refine_uniform(base)]
    for _ in range(9):
        uniform.append(refine_uniform(uniform[-1]))
    pairs = [(base, [0], refine_nvb(base, [0]))]
    pairs += [(coarse, np.arange(coarse.n_elements), fine)
              for coarse, fine in zip([base] + uniform, uniform)]
    rng = np.random.default_rng(123)
    mesh = builtin_domain("l_shape")
    for _ in range(6):
        k = rng.integers(1, mesh.n_elements + 1)
        marked = np.sort(rng.choice(mesh.n_elements, size=k, replace=False))
        pairs.append((mesh, marked, refine_nvb(mesh, marked)))
        mesh = pairs[-1][2]
    return check_refinement_pairs(pairs) + check_angle_lock(uniform)


def _suite_marking():
    return check_marking_axiom() + check_doerfler_bulk()


def _suite_solver():
    mesh = refine_uniform(builtin_domain("unit_square"), rounds=3)
    problem = make_problem(ProblemSpec(kind="poisson", manufactured="poly_bubble"))
    system, rhs = assemble_system(mesh, build_dofmap(mesh), problem, 4)
    results = check_pcg_contraction([(system, rhs, precond, 200)
                                     for precond in ("jacobi", "none")])
    extra = BUDGETS["cg_extra_steps"]
    run = pcg_run(system, rhs, precond="none",
                  stop=ResidualTol(BUDGETS["cg_residual_tol"],
                                   max_steps=len(rhs) + extra))
    results.append(CheckResult(
        f"plain cg finite termination within n + {extra} steps",
        run.stop_reason == "residual_tol",
        {"n": len(rhs), "iterations": run.iterations,
         "stop_reason": run.stop_reason},
        f"residual {_b('cg_residual_tol')}"))
    return results


def _suite_identities():
    fixtures = identity_fixtures()
    results = check_residual_split(fixtures)

    worst = 0.0
    for _, mesh, problem in fixtures[:2]:
        dm = build_dofmap(mesh)
        rng = np.random.default_rng(7)
        marked = np.sort(rng.choice(mesh.n_elements,
                                    size=max(1, mesh.n_elements // 3),
                                    replace=False))
        fine = refine_nvb(mesh, marked)
        worst = max(worst, galerkin_orthogonality_check(
            dm, build_dofmap(fine), problem))
    results.append(CheckResult(
        "galerkin orthogonality across refinement",
        worst <= BUDGETS["galerkin_defect"], {"max_defect": worst},
        f"relative defect <= {_b('galerkin_defect')}"))

    _, mesh, problem = fixtures[0]
    dm = build_dofmap(mesh)
    system, rhs = assemble_system(mesh, dm, problem, 4)
    coef = exact_solve(system, rhs)
    defect = estimator_additivity_check(compute_indicators(mesh, dm, problem,
                                                           coef, 6))
    results.append(CheckResult(
        "indicator additivity", defect <= BUDGETS["additivity_defect"],
        {"defect": defect}, f"<= {_b('additivity_defect')}"))

    eff = local_efficiency_check(dm, problem, coef)
    bound = BUDGETS["local_efficiency_factor"] * max(eff.global_ratio, 1e-300)
    results.append(CheckResult(
        "local efficiency against patch errors",
        eff.max_ratio <= bound,
        {"max_ratio": eff.max_ratio, "global_ratio": eff.global_ratio},
        f"max <= {_b('local_efficiency_factor')} x global"))
    return results


_RELIABILITY_LEVEL = 4      # level of the smooth exact run that is refined


def _suite_reliability():
    config = replace(smooth_poisson_config(),
                     stop=StopSpec(max_ndof=10 ** 9,
                                   max_levels=_RELIABILITY_LEVEL))
    return check_discrete_reliability(run_adaptive(config).final,
                                      make_problem(config.problem))


def _suite_rates():
    return (check_interpolation(interpolation_rate_check())
            + check_smooth_run(run_adaptive(smooth_poisson_config()))
            + check_corner_rates(
                run_adaptive(lshape_config(strategy="uniform", max_ndof=50_000)),
                run_adaptive(lshape_config()))
            + check_indefinite_run(run_adaptive(helmholtz_config())))


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
