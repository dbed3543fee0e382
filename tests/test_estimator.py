import tracemalloc

import numpy as np
import pytest

import lsfem.assembly
import lsfem.estimator
from lsfem import (EstimatorReport, LevelEstimator, ProblemSpec,
                   assemble_system, builtin_domain, build_dofmap,
                   compute_error_norms, compute_indicators, discrete_v_norm,
                   eval_discrete, exact_solve, make_problem, quadrature_rule,
                   refine_nvb, refine_uniform)
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
    # a mask, floats or a wrapped index is not a set of elements
    small = EstimatorReport(per_element=np.array([3.0, 4.0, 12.0]), total=13.0)
    unsigned = np.array([0, 2], dtype=np.uint8)
    assert small.subset_total(unsigned) == np.sqrt(153.0)
    for bad, message in (([True, False, True], "integer element indices"),
                         (np.ones(3, dtype=bool), "integer element indices"),
                         ([0.0, 2.0], "integer element indices"),
                         ([3], "out of range"), ([-1], "out of range")):
        with pytest.raises(ValueError, match=message):
            small.subset_total(bad)


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
            u, g, s, d = eval_discrete(dm, coef, t, rule.points[q] @ coords)
            total += area * w * (u * u + g @ g + s @ s + d * d)
    assert np.isclose(discrete_v_norm(dm, coef), np.sqrt(total),
                      rtol=1e-13)


def test_v_norm_scales_linearly():
    mesh = refine_uniform(builtin_domain("unit_square"), rounds=1)
    dm = build_dofmap(mesh)
    rng = np.random.default_rng(8)
    coef = rng.standard_normal(dm.n_total)
    one = discrete_v_norm(dm, coef)
    assert np.isclose(discrete_v_norm(dm, 3.0 * coef), 3.0 * one,
                      rtol=1e-13)
    assert discrete_v_norm(dm, np.zeros(dm.n_total)) == 0.0


def test_error_norm_zero_for_zero_solution():
    mesh = refine_uniform(builtin_domain("unit_square"), rounds=1)
    dm = build_dofmap(mesh)
    prob = make_problem(ProblemSpec(kind="poisson", manufactured="zero"))
    report = compute_error_norms(dm, np.zeros(dm.n_total), prob.exact)
    assert report.total == 0.0


def test_error_norm_without_exact_solution_rejected(monkeypatch):
    """A missing manufactured solution is refused before any table is
    built."""
    dm = build_dofmap(builtin_domain("unit_square"))

    def no_tables(*args):
        raise AssertionError("quadrature tables built")

    monkeypatch.setattr(lsfem.estimator, "QuadFields", no_tables)
    with pytest.raises(ValueError, match="need a manufactured solution"):
        compute_error_norms(dm, np.zeros(dm.n_total), None)


def test_error_and_estimator_comparable_on_solved_problem():
    """Both quantities measure the same distance up to fixed constants."""
    mesh = refine_uniform(builtin_domain("unit_square"), rounds=3)
    dm = build_dofmap(mesh)
    prob = make_problem(ProblemSpec(kind="poisson", manufactured="poly_bubble"))
    system, rhs = assemble_system(mesh, dm, prob)
    coef = exact_solve(system, rhs)
    eta = compute_indicators(mesh, dm, prob, coef).total
    err = compute_error_norms(dm, coef, prob.exact).total
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
        state = eval_discrete(dm, coef, 0, point)
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
        totals.append(compute_error_norms(dm, coef, prob.exact).total)
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
    estimate = LevelEstimator(dm, prob, quad_order=5)
    for order in ([0, 1, 2], [2, 1, 0], [1, 2, 0, 1]):
        for i in order:
            report = estimate(vectors[i])
            np.testing.assert_array_equal(report.per_element,
                                          fresh[i].per_element)
            assert report.total == fresh[i].total
    for v, c in zip(vectors, copies):
        np.testing.assert_array_equal(v, c)


def test_shared_estimator_keeps_bits_and_rejects_another_level():
    """``estimator=`` gives the bits of fresh calls and is refused for
    another dof map, rule order or problem."""
    mesh = refine_nvb(refine_uniform(builtin_domain("unit_square"), rounds=2),
                      [0, 3])
    dm = build_dofmap(mesh)
    prob = make_problem(ProblemSpec(kind="poisson", manufactured="poly_bubble"))
    coef = np.random.default_rng(5).standard_normal(dm.n_total)
    estimate = LevelEstimator(dm, prob, quad_order=5)
    pairs = [(compute_indicators(mesh, dm, prob, coef, 5, estimator=estimate),
              compute_indicators(mesh, dm, prob, coef, 5)),
             (compute_error_norms(dm, coef, prob.exact, 5, estimator=estimate),
              compute_error_norms(dm, coef, prob.exact, 5))]
    for shared, fresh in pairs:
        assert np.array_equal(shared.per_element, fresh.per_element)
        assert shared.total == fresh.total

    other_dm = build_dofmap(mesh)
    other_prob = make_problem(ProblemSpec(kind="poisson",
                                          manufactured="poly_bubble"))
    with pytest.raises(ValueError, match="another dof map"):
        compute_indicators(mesh, other_dm, prob, coef, 5, estimator=estimate)
    with pytest.raises(ValueError, match="rule order 5, not 6"):
        compute_indicators(mesh, dm, prob, coef, estimator=estimate)
    with pytest.raises(ValueError, match="another problem"):
        compute_indicators(mesh, dm, other_prob, coef, 5, estimator=estimate)
    with pytest.raises(ValueError, match="another dof map"):
        compute_error_norms(other_dm, coef, prob.exact, 5, estimator=estimate)
    with pytest.raises(ValueError, match="rule order 5, not 4"):
        compute_error_norms(dm, coef, prob.exact, 4, estimator=estimate)


@pytest.mark.parametrize("spec", [
    ProblemSpec(kind="poisson", manufactured="poly_bubble"),
    ProblemSpec(kind="general", manufactured="sine",
                a=[[2.0, 0.5], [0.5, 1.0]], b=[0.3, -0.7], c=1.5),
], ids=["poly_bubble", "general_sine"])
def test_blocked_estimates_match_single_block(spec, monkeypatch):
    """Indicators and errors evaluated in blocks of ``assembly._BLOCK``
    elements keep every bit of a single-block evaluation, totals included."""
    prob = make_problem(spec)
    mesh = refine_nvb(refine_uniform(builtin_domain("unit_square"), rounds=4),
                      [0, 3, 5])                    # graded, 36 elements
    dm = build_dofmap(mesh)
    assert mesh.n_elements % 7 and (dm.element_dofs() < 0).any()
    coef = np.random.default_rng(11).standard_normal(dm.n_total)
    estimate = LevelEstimator(dm, prob)

    def reports():
        return [estimate(coef), compute_indicators(mesh, dm, prob, coef),
                compute_error_norms(dm, coef, prob.exact)]

    monkeypatch.setattr(lsfem.assembly, "_BLOCK", mesh.n_elements)
    whole = reports()
    monkeypatch.setattr(lsfem.assembly, "_BLOCK", 7)
    for blocked, single in zip(reports(), whole):
        assert np.array_equal(blocked.per_element, single.per_element)
        assert blocked.total == single.total


def test_estimator_memory_peak_bounded(array_bytes):
    """One call works in blocks, so its transient memory stays a block's
    worth, and the estimator's own tables stay within 48 bytes per element
    and quadrature point.

    The ``tracemalloc`` peak counts every numpy buffer, so it does not
    depend on the machine.  At 24,576 elements and 12 points the call
    peaks at 3,443,552 bytes; the bound, 3.8e6, leaves 10 %.  It is below
    the 7,864,320 bytes that a third of the point, weight, edge-field and
    load tables allowed while the estimator kept the edge fields ``rel``;
    evaluating the whole level at once needed about 2.5 times that.  The
    tables are 46.0 bytes per element and point: points, weights and load
    32, and corners, hat gradients, RT0 scale and dofs 168 per element.
    With ``rel`` kept they were 86.0.
    """
    mesh = refine_uniform(builtin_domain("l_shape"), rounds=12)
    dm = build_dofmap(mesh)
    prob = make_problem(ProblemSpec(kind="general", f=1.0,
                                    a=[[1.05, 0.02], [0.02, 0.97]],
                                    b=[0.03, -0.07]))
    coef = np.random.default_rng(3).standard_normal(dm.n_total)
    estimate = LevelEstimator(dm, prob)
    tracemalloc.start()
    try:
        estimate(coef)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nt, nq = estimate.w_abs.shape
    assert (nt, nq) == (24_576, 12)
    assert peak <= 3.8e6
    own = array_bytes(estimate, set(), skip=("dofmap", "problem"))
    assert own <= 48 * nt * nq


def test_error_norm_memory_peak_bounded():
    """``compute_error_norms`` builds its level tables and then works in
    blocks.  At 32,768 elements its ``tracemalloc`` peak is 19,632,712
    bytes; the bound, 21.6e6, leaves 10 %.  It is below the 37,748,736
    bytes that four thirds of the point, weight and edge-field tables
    allowed while those included ``rel``, whose peak was 33,788,680; a
    whole-level evaluation with ``rel`` needed about 64.5e6."""
    mesh = refine_uniform(builtin_domain("unit_square"), rounds=14)
    dm = build_dofmap(mesh)
    prob = make_problem(ProblemSpec(kind="poisson", manufactured="poly_bubble"))
    coef = np.random.default_rng(3).standard_normal(dm.n_total)
    mesh.geometry, mesh.edge_signs                  # cached level data
    tracemalloc.start()
    try:
        compute_error_norms(dm, coef, prob.exact)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mesh.n_elements == 32_768
    assert peak <= 21.6e6


# each entry point called as (dofmap, problem, coef)
ENTRY_POINTS = {
    "compute_indicators": lambda dm, prob, coef: compute_indicators(
        dm.mesh, dm, prob, coef),
    "compute_error_norms": lambda dm, prob, coef: compute_error_norms(
        dm, coef, prob.exact),
    "discrete_v_norm": lambda dm, prob, coef: discrete_v_norm(dm, coef),
    "LevelEstimator": lambda dm, prob, coef: LevelEstimator(dm, prob)(coef),
}


@pytest.mark.parametrize("shape", ["short", "long", "column"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_coefficient_vector_of_another_length_rejected(entry, shape):
    """A vector one entry too long was cut short without a message, and one
    entry too short raised a bare ``IndexError``."""
    mesh = refine_uniform(builtin_domain("unit_square"), rounds=2)
    dm = build_dofmap(mesh)
    prob = make_problem(ProblemSpec(kind="poisson", manufactured="poly_bubble"))
    n = dm.n_total
    coef = {"short": np.zeros(n - 1), "long": np.zeros(n + 1),
            "column": np.zeros((n, 1))}[shape]
    with pytest.raises(ValueError, match="does not match the dof map"):
        ENTRY_POINTS[entry](dm, prob, coef)
