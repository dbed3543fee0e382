"""The energy-norm bound on eta that lets the lambda rule skip evaluations.

The driver gives the level estimator the constant 1, which holds when the
assembly and the estimator rule are both exact to degree 2: L v is then
piecewise P1, so both rules integrate |L v|^2 exactly and ||L v|| at the
estimator's points is ||v||_A.  Every assembly order ``QuadSpec`` accepts
gives such a pair.  The premise tests fail first if a problem gains a
variable coefficient.  The equivalence tests run ``pcg_run`` with
that constant against the same stop with the constant unknown, which
evaluates eta after every step, and require every bit to agree.  They
pair assembly and estimator rules freely, beyond the ``assembly_order +
2`` that a config derives, and pass the constant directly.
"""

import numpy as np
import pytest

from lsfem import (ConfigurationError, IncrementStop, LevelEstimator,
                   ProblemSpec, QuadSpec, assemble_system, builtin_domain,
                   build_dofmap, exact_solve, make_problem, pcg_run,
                   refine_nvb, refine_uniform)
from lsfem.quadrature import quadrature_rule
from lsfem.spaces import prolongate

PROBLEMS = {
    "poisson": ProblemSpec(kind="poisson", f=1.0),
    "general": ProblemSpec(kind="general", f=1.0, a=((2.0, 0.5), (0.5, 1.0)),
                           b=(1.0, -0.5), c=0.5),
    "helmholtz": ProblemSpec(kind="general", f=1.0, c=-9.0),
}


def _graded_lshape(rounds=12):
    """The L-shape refined ``rounds`` times at the reentrant corner: element
    areas from 2^-13 to 1/4."""
    mesh = builtin_domain("l_shape")
    for _ in range(rounds):
        corner = np.hypot(*mesh.element_geometry()[0].transpose(2, 0, 1))
        mesh = refine_nvb(mesh, np.flatnonzero(corner.min(axis=1) == 0.0))
    return mesh


@pytest.fixture(scope="module")
def graded():
    mesh = _graded_lshape()
    return mesh, build_dofmap(mesh)


@pytest.mark.parametrize("kind", sorted(PROBLEMS))
def test_matrix_is_the_same_at_every_order_from_two(graded, kind):
    """From order 2 on every rule assembles the exact Gram matrix of the
    piecewise-P1 operator images; the centroid rule does not."""
    mesh, dm = graded
    problem = make_problem(PROBLEMS[kind])
    mats = {q: assemble_system(mesh, dm, problem, q)[0].matrix
            for q in range(1, 11)}
    diag = mats[2].diagonal()
    assert diag.min() > 0.0

    def defect(q):
        diff = (mats[q] - mats[2]).tocoo()
        return float(np.max(np.abs(diff.data) / np.sqrt(
            diag[diff.row] * diag[diff.col]), initial=0.0))

    for q in range(3, 11):
        assert defect(q) <= 1e-13, q
    assert defect(1) > 1e-3


@pytest.mark.parametrize("kind", sorted(PROBLEMS))
def test_estimator_norm_is_the_energy_norm_from_order_two(graded, kind):
    """With f = 0, eta(v) = ||L v|| at the estimator's points, which is
    ||v||_A at orders 2..10 and not at order 1."""
    mesh, dm = graded
    spec = PROBLEMS[kind]
    system, _ = assemble_system(mesh, dm, make_problem(spec), 4)
    unloaded = make_problem(ProblemSpec(**{**vars(spec), "f": 0.0}))
    v = np.random.default_rng(5).standard_normal(dm.n_total)
    energy = float(np.sqrt(v @ (system.matrix @ v)))
    for order in range(2, 11):
        eta = LevelEstimator(dm, unloaded, order)(v).total
        assert abs(eta - energy) <= 1e-13 * energy, order
    eta = LevelEstimator(dm, unloaded, 1)(v).total
    assert abs(eta - energy) > 1e-6 * energy


def _lipschitz(assembly_order, estimator_order):
    """The constant 1 where both rules are exact to degree 2, else None."""
    orders = (assembly_order, estimator_order)
    if all(quadrature_rule(q).exactness_degree >= 2 for q in orders):
        return 1.0
    return None


def test_every_accepted_order_has_both_rules_exact_to_degree_two():
    """The driver passes the constant 1 for every config: each assembly
    order ``QuadSpec`` accepts and its estimator rule, two orders up, are
    both exact to degree 2.  The centroid rule, order 1, is not and is
    refused, as are the orders whose estimator rule does not exist."""
    for order in range(2, 9):
        spec = QuadSpec(order)
        assert _lipschitz(order, spec.resolved_estimator_order()) == 1.0
    assert _lipschitz(1, 3) is None
    for order in (0, 1, 9):
        with pytest.raises(ConfigurationError):
            QuadSpec(order)


@pytest.fixture(scope="module")
def levels():
    """A coarse graded level, solved exactly, and its uniform refinement."""
    problem = make_problem(PROBLEMS["general"])
    coarse = _graded_lshape(rounds=8)
    coarse_dm = build_dofmap(coarse)
    coarse_x = exact_solve(*assemble_system(coarse, coarse_dm, problem))
    mesh = refine_uniform(coarse)
    dm = build_dofmap(mesh)
    nested = prolongate(coarse_dm, dm, coarse_x)
    systems = {q: assemble_system(mesh, dm, problem, q) for q in (1, 4)}
    return problem, mesh, dm, systems, {"cold": None, "nested": nested}


def _run(system, rhs, x0, estimate, lam, max_steps, lipschitz):
    calls = []

    def eta(x):
        calls.append(1)
        return estimate(x).total

    result = pcg_run(system, rhs, x0=x0,
                     stop=IncrementStop(lam, eta, max_steps,
                                        eta_lipschitz=lipschitz))
    return result, len(calls)


@pytest.mark.parametrize("start", ["cold", "nested"])
@pytest.mark.parametrize("assembly_order", [1, 4])
@pytest.mark.parametrize("estimator_order", [1, 2, 6, 10])
@pytest.mark.parametrize("lam, max_steps", [(0.02, 500), (1e-8, 12)],
                         ids=["increment", "max_steps"])
def test_bounded_stop_matches_every_step_evaluation(levels, start,
                                                    assembly_order,
                                                    estimator_order, lam,
                                                    max_steps):
    problem, mesh, dm, systems, starts = levels
    system, rhs = systems[assembly_order]
    estimate = LevelEstimator(dm, problem, estimator_order)
    lipschitz = _lipschitz(assembly_order, estimator_order)
    every, every_calls = _run(system, rhs, starts[start], estimate, lam,
                              max_steps, None)
    bounded, calls = _run(system, rhs, starts[start], estimate, lam,
                          max_steps, lipschitz)
    assert bounded.x.tobytes() == every.x.tobytes()
    assert bounded.iterations == every.iterations
    assert bounded.increments == every.increments
    assert bounded.stop_reason == every.stop_reason
    assert every.stop_reason == ("max_iter" if max_steps == 12
                                 else "increment_criterion")
    assert every_calls == every.iterations
    if lipschitz is None:
        assert calls == every_calls
    else:
        assert 1 <= calls < every_calls / 2
