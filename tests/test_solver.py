import numpy as np
import pytest
import scipy.sparse as sp

import lsfem.solver
from lsfem import (FixedSteps, IncrementStop, ProblemSpec, ResidualTol,
                   SolverError, assemble_system, builtin_domain, build_dofmap,
                   estimate_pcg_contraction, exact_solve, make_problem,
                   pcg_run, refine_uniform)


def _random_spd(n, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    return B @ B.T + n * np.eye(n)


def _lsfem_system(rounds=2):
    mesh = refine_uniform(builtin_domain("unit_square"), rounds=rounds)
    dm = build_dofmap(mesh)
    prob = make_problem(ProblemSpec(kind="poisson", f=1.0))
    return assemble_system(mesh, dm, prob)


def test_contraction_estimate_oracles():
    diag = sp.diags([1.0, 4.0]).tocsr()
    c, q = estimate_pcg_contraction(diag, precond="none")
    assert np.isclose(c, 4.0, atol=1e-12)
    assert np.isclose(q, np.sqrt(0.75), atol=1e-12)
    # jacobi rescales any positive diagonal matrix to the identity
    c, q = estimate_pcg_contraction(diag, precond="jacobi")
    assert np.isclose(c, 1.0, atol=1e-12)
    assert np.isclose(q, 0.0, atol=1e-7)
    c, q = estimate_pcg_contraction(sp.eye(5, format="csr"), precond="none")
    assert np.isclose(c, 1.0, atol=1e-12)


def test_pcg_one_step_exact_on_preconditioned_identity():
    diag = sp.diags([1.0, 4.0]).tocsr()
    res = pcg_run(diag, np.array([2.0, 8.0]), precond="jacobi",
                  stop=ResidualTol(1e-14))
    assert res.iterations == 1
    np.testing.assert_allclose(res.x, [2.0, 2.0], atol=1e-14)
    assert res.stop_reason == "residual_tol"


def test_finite_termination():
    n = 40
    A = _random_spd(n, seed=3)
    rng = np.random.default_rng(4)
    b = rng.standard_normal(n)
    res = pcg_run(sp.csr_matrix(A), b, precond="none",
                  stop=ResidualTol(1e-12, max_steps=n + 5))
    assert res.stop_reason == "residual_tol"
    assert res.iterations <= n + 5
    np.testing.assert_allclose(A @ res.x, b, atol=1e-9 * np.abs(b).max())


def test_energy_error_monotone_and_contraction_bound():
    system, rhs = _lsfem_system()
    star = exact_solve(system, rhs)
    _, q = estimate_pcg_contraction(system, precond="jacobi")
    res = pcg_run(system, rhs, precond="jacobi", stop=FixedSteps(40),
                  reference=star)
    e = np.array(res.energy_errors)
    floor = 1e-10 * e[0]
    assert np.all(e[1:] <= e[:-1] * (1 + 1e-12) + floor)
    active = e[:-1] > floor
    ratios = e[1:][active] / e[:-1][active]
    assert ratios.max() <= q * (1 + 1e-8)


def test_warm_start_at_solution_stays_put():
    system, rhs = _lsfem_system(rounds=1)
    star = exact_solve(system, rhs)
    res = pcg_run(system, rhs, precond="jacobi", x0=star, stop=FixedSteps(3))
    # the direct solve leaves a rounding-level residual, so steps are tiny
    # but not exactly null
    assert max(res.increments) <= 1e-12
    np.testing.assert_allclose(res.x, star, atol=1e-12)
    assert res.stop_reason == "max_iter"
    # a literally zero residual takes the null-step branch
    null = pcg_run(sp.eye(3, format="csr"), np.zeros(3), precond="none",
                   stop=FixedSteps(2))
    assert null.increments == [0.0, 0.0]
    np.testing.assert_array_equal(null.x, np.zeros(3))
    # so does a residual so small that r.z underflows to zero, as a run far
    # past convergence reaches
    tiny = pcg_run(sp.eye(2, format="csr"), np.full(2, 1e-170),
                   precond="jacobi", stop=FixedSteps(2))
    assert tiny.increments == [0.0, 0.0]


def test_increment_stop_with_callable_reference():
    system, rhs = _lsfem_system(rounds=1)
    res = pcg_run(system, rhs, precond="jacobi",
                  stop=IncrementStop(lam=1.0, eta=lambda x: 1e6))
    assert res.iterations == 1
    assert res.stop_reason == "increment_criterion"
    res = pcg_run(system, rhs, precond="jacobi",
                  stop=IncrementStop(lam=1e-8, eta=lambda x: 1e-12,
                                     max_steps=7))
    assert res.iterations == 7
    assert res.stop_reason == "max_iter"


def test_result_bookkeeping():
    system, rhs = _lsfem_system(rounds=1)
    star = exact_solve(system, rhs)
    res = pcg_run(system, rhs, precond="jacobi", stop=FixedSteps(5),
                  reference=star)
    assert res.iterations == 5
    assert len(res.increments) == 5
    assert len(res.energy_errors) == 6
    # the last energy error is that of the returned iterate
    d = star - res.x
    assert res.energy_errors[-1] == float(np.sqrt(d @ (system.matrix @ d)))


def test_nested_iteration_beats_cold_start():
    """A warm start along the cold error direction finishes strictly earlier.

    Scaling the initial error scales every CG residual by the same factor,
    so with a threshold fixed relative to the right-hand side the warm run
    crosses it first.
    """
    system, _ = _lsfem_system(rounds=3)
    rng = np.random.default_rng(6)
    rhs = rng.standard_normal(system.matrix.shape[0])
    star = exact_solve(system, rhs)
    stop = ResidualTol(1e-10, max_steps=5000)
    cold = pcg_run(system, rhs, precond="jacobi", stop=stop)
    nested = pcg_run(system, rhs, precond="jacobi", x0=(1 - 1e-3) * star,
                     stop=stop)
    assert cold.stop_reason == "residual_tol"
    assert nested.iterations < cold.iterations


def test_validation_errors():
    diag = sp.diags([1.0, 4.0]).tocsr()
    with pytest.raises(ValueError):
        FixedSteps(0)
    with pytest.raises(ValueError):
        IncrementStop(lam=0.0, eta=lambda x: 1.0)
    with pytest.raises(ValueError):
        IncrementStop(lam=-1.0, eta=lambda x: 1.0)
    with pytest.raises(ValueError):
        IncrementStop(lam=0.1, eta=lambda x: 1.0, max_steps=0)
    with pytest.raises(ValueError):
        ResidualTol(0.0)
    for max_steps in (0, -4):
        with pytest.raises(ValueError):
            ResidualTol(1e-10, max_steps=max_steps)
    with pytest.raises(ValueError):
        pcg_run(diag, np.zeros(3))
    with pytest.raises(ValueError):
        pcg_run(diag, np.zeros(2), x0=np.zeros(5))
    with pytest.raises(SolverError):
        pcg_run(diag, np.zeros(2), precond="ssor")
    # a NaN tolerance never stops, and a step count is a whole number
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            IncrementStop(lam=bad, eta=lambda x: 1.0)
        with pytest.raises(ValueError, match="finite and positive"):
            ResidualTol(bad)
    for count in (1.5, 2.0, True, "3"):
        with pytest.raises(ValueError, match="must be an integer"):
            FixedSteps(count)
        with pytest.raises(ValueError, match="must be an integer"):
            IncrementStop(lam=0.1, eta=lambda x: 1.0, max_steps=count)
        with pytest.raises(ValueError, match="must be an integer"):
            ResidualTol(1e-10, max_steps=count)
    assert FixedSteps(np.int64(2)).max_steps == 2


def test_indefinite_matrix_rejected():
    with pytest.raises(SolverError):
        exact_solve(sp.diags([1.0, -1.0]).tocsr(), np.ones(2))
    with pytest.raises(SolverError):
        pcg_run(sp.diags([1.0, 0.0]).tocsr(), np.ones(2), precond="jacobi")
    with pytest.raises(SolverError, match="non-positive curvature"):
        pcg_run(sp.diags([1.0, -1.0]).tocsr(), np.ones(2), precond="none")
    with pytest.raises(SolverError):
        estimate_pcg_contraction(sp.diags([1.0, -1.0]).tocsr(),
                                 precond="none")


@pytest.mark.parametrize("stop", [FixedSteps(5),
                                  IncrementStop(lam=0.1, eta=lambda x: 1.0)],
                         ids=["fixed", "increment"])
@pytest.mark.parametrize("matrix, fake_diag, rhs", [
    (_random_spd(3, seed=8), -np.ones(3), np.ones(3)),
    (np.eye(2), np.array([1.0, -1.0]), np.ones(2)),
], ids=["rz_negative", "rz_zero_nonzero_residual"])
def test_pcg_breakdown_of_an_indefinite_preconditioner(monkeypatch, matrix,
                                                       fake_diag, rhs, stop):
    """A preconditioner that is not SPD raises instead of taking null
    steps; ``_preconditioner`` is the one place that defines it."""
    monkeypatch.setattr(lsfem.solver, "_preconditioner",
                        lambda matrix, precond: fake_diag)
    with pytest.raises(SolverError, match="preconditioner is not positive"):
        pcg_run(sp.csr_matrix(matrix), rhs, stop=stop)


def test_pcg_rejects_a_nan_curvature():
    """d.Ad = inf - inf is NaN, which must fail the curvature test rather
    than feed NaN into the iterate."""
    A = sp.diags([1e308, -1e308]).tocsr()
    with np.errstate(invalid="ignore"), \
            pytest.raises(SolverError, match="curvature d.Ad = nan"):
        pcg_run(A, np.array([10.0, 10.0]), precond="none", stop=FixedSteps(1))


def test_pcg_runs_far_past_convergence():
    """Once the residual is near 1e-161, d.Ad underflows to 0 while r.z is
    still positive (step 111 here); the SPD system takes null steps."""
    mesh = builtin_domain("l_shape")
    dm = build_dofmap(mesh)
    prob = make_problem(ProblemSpec(kind="poisson", manufactured="poly_bubble"))
    system, rhs = assemble_system(mesh, dm, prob, quad_order=4)
    assert dm.n_total == 13
    res = pcg_run(system, rhs, precond="jacobi", stop=FixedSteps(150))
    assert res.iterations == 150 and res.increments[-1] == 0.0
    np.testing.assert_allclose(res.x, exact_solve(system, rhs), atol=1e-12)


def test_pcg_zero_curvature_in_the_kernel_raises():
    """d.Ad = 0 on a search direction of normal size lies in the kernel of a
    singular matrix: that is not an underflow, so it raises."""
    A = sp.csr_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    with pytest.raises(SolverError, match="non-positive curvature d.Ad = 0"):
        pcg_run(A, np.ones(2), precond="none", stop=FixedSteps(3))


def _solve_exact(system, rhs, x0):
    return exact_solve(system, rhs)


def _solve_pcg(system, rhs, x0):
    return pcg_run(system, rhs, precond="jacobi", x0=x0, stop=FixedSteps(3))


@pytest.mark.parametrize("value", [float("nan"), float("inf")],
                         ids=["nan", "inf"])
@pytest.mark.parametrize("solve, where", [
    (_solve_exact, "rhs"), (_solve_pcg, "rhs"), (_solve_pcg, "x0"),
], ids=["exact_solve-rhs", "pcg_run-rhs", "pcg_run-x0"])
def test_solvers_reject_non_finite_input(solve, where, value):
    """A non-finite right-hand side or start is misuse, not a system to
    solve: both solvers raise instead of returning NaNs.  ``exact_solve``
    takes no start."""
    system = _random_spd(3, seed=5)
    vectors = {"rhs": np.ones(3), "x0": np.zeros(3)}
    vectors[where][0] = value
    with pytest.raises(ValueError, match="non-finite"):
        solve(sp.csr_matrix(system), vectors["rhs"], vectors["x0"])


def test_exact_solve_validates_rhs_length():
    system, _ = _lsfem_system(rounds=1)
    with pytest.raises(ValueError):
        exact_solve(system, np.zeros(system.matrix.shape[0] + 2))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-3, True])
def test_increment_stop_rejects_a_fixed_eta_that_is_not_a_norm(value):
    """A fixed eta is rejected, a norm or not: the rule takes a callable,
    and a fixed reference is one that ignores its argument."""
    for eta in (value, abs(value), 1.0, None):
        with pytest.raises(ValueError, match="eta must be callable"):
            IncrementStop(lam=0.1, eta=eta)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        IncrementStop(lam=0.1, eta=lambda x: 1.0, eta_lipschitz=value)
    stop = IncrementStop(lam=0.1, eta=lambda x: 0.0, eta_lipschitz=0.0)
    assert stop.eta_lipschitz == 0.0


@pytest.mark.parametrize("lipschitz", [None, 1.0], ids=["every", "bounded"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_pcg_raises_when_an_evaluated_eta_is_not_a_norm(lipschitz, bad):
    """A NaN eta would make ``increment <= lam * eta`` false at every step
    and run silently to ``max_steps``; it raises at the first evaluation."""
    system, rhs = _lsfem_system(rounds=1)
    stop = IncrementStop(lam=0.1, eta=lambda x: bad, max_steps=50,
                         eta_lipschitz=lipschitz)
    with pytest.raises(SolverError, match="PCG step 1: it must be finite"):
        pcg_run(system, rhs, precond="jacobi", stop=stop)


def test_bounded_stop_evaluates_only_steps_that_may_stop():
    """The energy error ||x* - x||_A is 1-Lipschitz in the A-norm.  With
    that constant fewer steps evaluate it, and the run stops at the step
    and iterate of an evaluation at every step."""
    system, rhs = _lsfem_system(rounds=3)
    A = system.matrix
    star = exact_solve(system, rhs)
    calls = []

    def energy_error(x):
        calls.append(1)
        d = star - x
        return float(np.sqrt(d @ (A @ d)))

    every = pcg_run(system, rhs, stop=IncrementStop(0.05, energy_error))
    assert len(calls) == every.iterations > 10
    calls.clear()
    bounded = pcg_run(system, rhs, stop=IncrementStop(0.05, energy_error,
                                                      eta_lipschitz=1.0))
    assert 1 <= len(calls) < every.iterations / 2
    assert bounded.stop_reason == every.stop_reason == "increment_criterion"
    assert bounded.iterations == every.iterations
    assert bounded.increments == every.increments
    assert bounded.x.tobytes() == every.x.tobytes()
