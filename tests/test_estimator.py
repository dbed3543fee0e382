import numpy as np
import pytest

from lsfem import (LevelEstimator, ProblemSpec, assemble_system,
                   builtin_domain, build_dofmap, compute_error_norms,
                   compute_indicators, discrete_v_norm, eval_discrete,
                   exact_solve, make_problem, quadrature_rule, refine_nvb,
                   refine_uniform)
from lsfem.problems import eval_operator


def test_zero_function_indicator_oracle():
    """With v = 0 and f = 1 the residual is the constant (1, 0, 0)."""
    mesh = builtin_domain("unit_square")
    dm = build_dofmap(mesh)
    prob = make_problem(ProblemSpec(kind="poisson", f=1.0))
    report = compute_indicators(mesh, dm, prob, np.zeros(dm.n_total))
    np.testing.assert_allclose(report.per_element,
                               np.sqrt(0.5) * np.ones(2), atol=1e-15)
    assert np.isclose(report.total, 1.0, atol=1e-15)


def test_indicator_additivity_and_subsets():
    mesh = refine_uniform(builtin_domain("l_shape"), rounds=2)
    dm = build_dofmap(mesh)
    prob = make_problem(ProblemSpec(kind="poisson", f=1.0))
    system, rhs = assemble_system(mesh, dm, prob)
    coef = exact_solve(system, rhs)
    report = compute_indicators(mesh, dm, prob, coef)
    assert np.isclose(report.total ** 2, np.sum(report.per_element ** 2),
                      rtol=1e-13)
    everything = report.subset_total(np.arange(mesh.n_elements))
    assert np.isclose(everything, report.total, rtol=1e-13)
    half = np.arange(mesh.n_elements // 2)
    rest = np.arange(mesh.n_elements // 2, mesh.n_elements)
    assert np.isclose(report.subset_total(half) ** 2
                      + report.subset_total(rest) ** 2,
                      report.total ** 2, rtol=1e-13)
    assert report.subset_total([]) == 0.0


def test_solution_minimizes_estimator():
    """The discrete minimizer has the smallest total among perturbations."""
    mesh = refine_uniform(builtin_domain("unit_square"), rounds=2)
    dm = build_dofmap(mesh)
    prob = make_problem(ProblemSpec(kind="poisson", f=1.0))
    system, rhs = assemble_system(mesh, dm, prob)
    star = exact_solve(system, rhs)
    base = compute_indicators(mesh, dm, prob, star).total
    rng = np.random.default_rng(31)
    for scale in (1e-3, 1e-1, 1.0):
        delta = scale * rng.standard_normal(dm.n_total)
        perturbed = compute_indicators(mesh, dm, prob, star + delta).total
        assert perturbed >= base - 1e-14


def test_discrete_v_norm_against_pointwise_quadrature():
    mesh = refine_uniform(builtin_domain("unit_square"), rounds=1)
    dm = build_dofmap(mesh)
    rng = np.random.default_rng(13)
    coef = rng.standard_normal(dm.n_total)
    rule = quadrature_rule(4)
    total = 0.0
    for t in range(mesh.n_elements):
        coords = mesh.vertices[mesh.elements[t]]
        d1, d2 = coords[1] - coords[0], coords[2] - coords[0]
        area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
        for q, w in enumerate(rule.weights):
            u, g, s, d = eval_discrete(mesh, dm, coef, t,
                                       rule.points[q] @ coords)
            total += area * w * (u * u + g @ g + s @ s + d * d)
    assert np.isclose(discrete_v_norm(mesh, dm, coef), np.sqrt(total),
                      rtol=1e-13)


def test_v_norm_scales_linearly():
    mesh = refine_uniform(builtin_domain("unit_square"), rounds=1)
    dm = build_dofmap(mesh)
    rng = np.random.default_rng(8)
    coef = rng.standard_normal(dm.n_total)
    one = discrete_v_norm(mesh, dm, coef)
    assert np.isclose(discrete_v_norm(mesh, dm, 3.0 * coef), 3.0 * one,
                      rtol=1e-13)
    assert discrete_v_norm(mesh, dm, np.zeros(dm.n_total)) == 0.0


def test_error_norm_zero_for_zero_solution():
    mesh = refine_uniform(builtin_domain("unit_square"), rounds=1)
    dm = build_dofmap(mesh)
    prob = make_problem(ProblemSpec(kind="poisson", manufactured="zero"))
    report = compute_error_norms(mesh, dm, np.zeros(dm.n_total), prob.exact)
    assert report.total == 0.0


def test_error_and_estimator_comparable_on_solved_problem():
    """Both quantities measure the same distance up to fixed constants."""
    mesh = refine_uniform(builtin_domain("unit_square"), rounds=3)
    dm = build_dofmap(mesh)
    prob = make_problem(ProblemSpec(kind="poisson", manufactured="poly_bubble"))
    system, rhs = assemble_system(mesh, dm, prob)
    coef = exact_solve(system, rhs)
    eta = compute_indicators(mesh, dm, prob, coef).total
    err = compute_error_norms(mesh, dm, coef, prob.exact).total
    assert 0.2 <= eta / err <= 5.0


def test_residual_matches_pointwise_operator():
    """Indicators square-integrate F - L v; cross-check one element."""
    mesh = builtin_domain("unit_square")
    dm = build_dofmap(mesh)
    prob = make_problem(ProblemSpec(kind="general", f=2.0,
                                    a=[[1.5, 0.25], [0.25, 1.0]],
                                    b=[1.0, 0.5], c=0.75))
    rng = np.random.default_rng(23)
    coef = rng.standard_normal(dm.n_total)
    report = compute_indicators(mesh, dm, prob, coef, quad_order=4)
    rule = quadrature_rule(4)
    coords = mesh.vertices[mesh.elements[0]]
    acc = 0.0
    for q, w in enumerate(rule.weights):
        point = rule.points[q] @ coords
        state = eval_discrete(mesh, dm, coef, 0, point)
        op = eval_operator(prob, point, state)
        res = np.array([prob.f_fn(point[None, :])[0], 0.0, 0.0]) - op
        acc += 0.5 * w * float(res @ res)
    assert np.isclose(report.per_element[0], np.sqrt(acc), rtol=1e-13)


def test_error_norm_shrinks_under_refinement():
    prob = make_problem(ProblemSpec(kind="poisson", manufactured="poly_bubble"))
    totals = []
    mesh = builtin_domain("unit_square")
    for _ in range(3):
        mesh = refine_uniform(mesh, rounds=1)
        dm = build_dofmap(mesh)
        system, rhs = assemble_system(mesh, dm, prob)
        coef = exact_solve(system, rhs)
        totals.append(compute_error_norms(mesh, dm, coef, prob.exact).total)
    assert totals[0] > totals[1] > totals[2]


@pytest.mark.parametrize("spec", [
    {"kind": "poisson", "f": 1.0},
    {"kind": "general", "f": 2.0, "a": [[1.5, 0.25], [0.25, 1.0]],
     "b": [1.0, -0.5], "c": 0.75},
])
def test_level_estimator_reuse_matches_fresh_calls(spec):
    """One level part serves many vectors, in any order, bit for bit."""
    mesh = refine_nvb(refine_uniform(builtin_domain("l_shape"), rounds=2),
                      [0, 5, 9])
    dm = build_dofmap(mesh)
    prob = make_problem(ProblemSpec(**spec))
    system, rhs = assemble_system(mesh, dm, prob)
    vectors = [np.zeros(dm.n_total),
               np.random.default_rng(3).standard_normal(dm.n_total),
               exact_solve(system, rhs)]
    copies = [v.copy() for v in vectors]
    fresh = [compute_indicators(mesh, dm, prob, v, quad_order=5)
             for v in vectors]
    estimate = LevelEstimator(mesh, dm, prob, quad_order=5)
    for order in ([0, 1, 2], [2, 1, 0], [1, 2, 0, 1]):
        for i in order:
            report = estimate(vectors[i])
            np.testing.assert_array_equal(report.per_element,
                                          fresh[i].per_element)
            assert report.total == fresh[i].total
    for v, c in zip(vectors, copies):
        np.testing.assert_array_equal(v, c)
