from dataclasses import replace

import numpy as np
import pytest

from lsfem import (ProblemSpec, assemble_system, builtin_domain, build_dofmap,
                   exact_solve, make_problem, refine_nvb, refine_uniform)
from lsfem.driver import AdaptiveHistory, HistoryRow
from lsfem.errors import IdentityViolationError
from lsfem.problems import _zero_exact
from lsfem.solver import FixedSteps, estimate_pcg_contraction, pcg_run
from lsfem.verify import (BUDGETS, SUITE_NAMES, check_pcg_contraction,
                          check_smooth_run, discrete_reliability_check, fit_rate,
                          galerkin_orthogonality_check,
                          local_efficiency_check, pythagoras_check, run_all,
                          sandwich_constants, smooth_poisson_config)


def _rows(dofs, etas, errors=None):
    rows = []
    for k, (n, eta) in enumerate(zip(dofs, etas)):
        err = None if errors is None else errors[k]
        rows.append(HistoryRow(level=k, n_elements=n, n_dofs=n, eta_total=eta,
                               error_v=err, marked_count=1,
                               solver_iterations=0, wall_time_s=0.0))
    return AdaptiveHistory(rows=rows)


def test_fit_rate_recovers_power_law():
    dofs = [10, 40, 90, 400, 2500]
    history = _rows(dofs, [3.0 * n ** -0.5 for n in dofs])
    fit = fit_rate(history, "eta_total", tail_levels=5)
    assert abs(fit.slope + 0.5) < 1e-12
    assert abs(fit.intercept - np.log(3.0)) < 1e-12
    assert fit.r_squared > 1 - 1e-12
    assert fit.levels_used == 5


def test_fit_rate_tail_window():
    dofs = [10, 20, 40, 80, 160, 320]
    history = _rows(dofs, [1.0, 0.9, 2.0, 1.0, 0.5, 0.25])
    fit = fit_rate(history, tail_levels=3)
    assert fit.levels_used == 3
    assert abs(fit.slope + 1.0) < 1e-12


def test_fit_rate_needs_three_rows():
    with pytest.raises(ValueError):
        fit_rate(_rows([10, 20], [1.0, 0.5]))
    with pytest.raises(ValueError):
        fit_rate(_rows([10, 20, 40], [1.0, 0.5, 0.25]), tail_levels=2)
    # zero values are unusable and drop out
    with pytest.raises(ValueError):
        fit_rate(_rows([10, 20, 40], [1.0, 0.0, 0.25]))


@pytest.mark.parametrize("tail", [0, -2, 2, 3.0, 5.5, "5", True, None])
def test_fit_rate_rejects_a_bad_tail(tail):
    """A tail below 3 or not an integer raises instead of fitting every row
    (0) or dropping the first ones (-2)."""
    dofs = [10, 20, 40, 80, 160, 320, 640, 1280]
    history = _rows(dofs, [n ** -0.5 for n in dofs])
    with pytest.raises(ValueError, match="tail_levels must be an integer"):
        fit_rate(history, tail_levels=tail)
    assert fit_rate(history, tail_levels=np.int64(3)).levels_used == 3


def test_sandwich_constants_synthetic():
    history = _rows([10, 100, 1000], [2.0, 1.0, 0.4],
                    errors=[1.0, 0.8, 0.2])
    result = sandwich_constants(history)
    assert result.ratios == [2.0, 1.25, 2.0]
    assert np.isclose(result.spread, 1.6)
    filtered = sandwich_constants(history, min_dofs=100)
    assert filtered.levels == [1, 2]
    with pytest.raises(ValueError):
        sandwich_constants(_rows([10, 20], [1.0, 0.5]))


def test_smooth_run_checks_read_budgets(monkeypatch):
    dofs = [100, 1000, 10_000, 40_000, 100_000]
    values = [n ** -0.5 for n in dofs]
    history = _rows(dofs, values, errors=values)
    assert all(check.passed for check in check_smooth_run(history))
    monkeypatch.setitem(BUDGETS, "smooth_rate_high", -0.51)
    decay, rate, sandwich = check_smooth_run(history)
    assert decay.passed and sandwich.passed and not rate.passed
    assert rate.measured["slope"] == pytest.approx(-0.5)
    assert "-0.51" in rate.budget


def _solved(mesh, prob):
    dm = build_dofmap(mesh)
    system, rhs = assemble_system(mesh, dm, prob)
    return dm, exact_solve(system, rhs)


def test_pcg_contraction_stops_where_full_runs_agree():
    """Runs stopped at the residual tolerance measure what the full
    fixed-step runs measure, bit for bit.  With ``general`` data the worst
    step comes late (step 48 at 65 dofs with Jacobi, at 3.5e-7 of the
    initial energy error), so a looser tolerance would cut it off."""
    problems = [make_problem(ProblemSpec(kind="poisson",
                                         manufactured="poly_bubble")),
                make_problem(ProblemSpec(kind="general", f=1.0,
                                         a=[[2.0, 0.5], [0.5, 1.0]],
                                         b=[0.3, -0.7], c=1.5))]
    runs = []
    for rounds in range(5):
        mesh = refine_uniform(builtin_domain("unit_square"), rounds=rounds)
        for problem in problems:
            system, rhs = assemble_system(mesh, build_dofmap(mesh), problem, 4)
            runs += [(system, rhs, precond, 200)
                     for precond in ("jacobi", "none")]
    worst = 0.0
    for system, rhs, precond, steps in runs:
        _, q_ctr = estimate_pcg_contraction(system, precond)
        e = np.array(pcg_run(system, rhs, precond=precond,
                             stop=FixedSteps(steps),
                             reference=exact_solve(system, rhs)).energy_errors)
        active = e[:-1] > BUDGETS["pcg_energy_floor"] * e[0]
        worst = max(worst, float((e[1:][active] / e[:-1][active]).max()) / q_ctr)
    assert check_pcg_contraction(runs)[0].measured == {
        "worst_ratio": worst, "systems": len(runs)}


def test_pythagoras_zero_for_minimizer_perturbations():
    mesh = refine_uniform(builtin_domain("unit_square"), rounds=2)
    prob = make_problem(ProblemSpec(kind="poisson", f=1.0))
    dm, _ = _solved(mesh, prob)
    defect = pythagoras_check(dm, prob, trials=10)
    assert defect <= BUDGETS["pythagoras_defect"]


def test_galerkin_orthogonality_between_levels():
    coarse = refine_uniform(builtin_domain("unit_square"), rounds=1)
    prob = make_problem(ProblemSpec(kind="poisson", f=1.0))
    cdm = build_dofmap(coarse)
    fine = refine_nvb(coarse, [0, 3])
    fdm = build_dofmap(fine)
    resid = galerkin_orthogonality_check(cdm, fdm, prob)
    assert resid <= BUDGETS["galerkin_defect"]


def test_local_efficiency_requires_exact_solution():
    mesh = builtin_domain("unit_square")
    dm = build_dofmap(mesh)
    prob = make_problem(ProblemSpec(kind="poisson", f=1.0))
    with pytest.raises(ValueError):
        local_efficiency_check(dm, prob, np.zeros(dm.n_total))


def test_local_efficiency_bounded_on_solved_fixture():
    mesh = refine_uniform(builtin_domain("unit_square"), rounds=3)
    prob = make_problem(ProblemSpec(kind="poisson", manufactured="poly_bubble"))
    dm, coef = _solved(mesh, prob)
    result = local_efficiency_check(dm, prob, coef)
    assert result.per_element.shape == (mesh.n_elements,)
    assert result.max_ratio <= (BUDGETS["local_efficiency_factor"]
                                * result.global_ratio)


def test_local_efficiency_rejects_indicator_with_zero_patch_error():
    """A zero discrete function against a zero 'exact' solution has no
    error anywhere, while f = 1 leaves a residual on every element."""
    mesh = refine_uniform(builtin_domain("unit_square"), rounds=1)
    dm = build_dofmap(mesh)
    prob = replace(make_problem(ProblemSpec(kind="poisson", f=1.0)),
                   exact=_zero_exact())
    with pytest.raises(IdentityViolationError,
                       match=r"^element 0: indicator .* with zero patch error$"):
        local_efficiency_check(dm, prob, np.zeros(dm.n_total))


def test_drel_degenerate_without_refinement():
    mesh = refine_uniform(builtin_domain("unit_square"), rounds=1)
    prob = make_problem(ProblemSpec(kind="poisson", f=1.0))
    dm, coef = _solved(mesh, prob)
    result = discrete_reliability_check(prob, dm, coef, dm, coef)
    assert result.degenerate
    assert result.c_drel == 0.0


def test_drel_uniform_refinement_covers_everything():
    """Bisecting every element puts every coarse element in the zone."""
    coarse = refine_uniform(builtin_domain("unit_square"), rounds=1)
    prob = make_problem(ProblemSpec(kind="poisson", f=1.0))
    cdm, ccoef = _solved(coarse, prob)
    fine = refine_nvb(coarse, np.arange(coarse.n_elements))
    fdm, fcoef = _solved(fine, prob)
    result = discrete_reliability_check(prob, cdm, ccoef, fdm, fcoef)
    assert not result.degenerate
    assert result.n_refined_zone == coarse.n_elements
    assert result.n_new_elements == fine.n_elements - coarse.n_elements
    assert result.c_drel > 0


def test_drel_local_refinement_zone_is_partial():
    coarse = refine_uniform(builtin_domain("unit_square"), rounds=3)
    prob = make_problem(ProblemSpec(kind="poisson", f=1.0))
    cdm, ccoef = _solved(coarse, prob)
    fine = refine_nvb(coarse, [0])
    fdm, fcoef = _solved(fine, prob)
    result = discrete_reliability_check(prob, cdm, ccoef, fdm, fcoef)
    assert 0 < result.n_refined_zone < coarse.n_elements


def test_run_all_quick_suites():
    for suite in ("mesh", "marking"):
        report = run_all(suite)
        assert report.ok
        text = report.render()
        assert "[PASS]" in text
        assert "[FAIL]" not in text
    with pytest.raises(ValueError):
        run_all("everything")


def test_suite_names_exported():
    assert SUITE_NAMES[0] == "all"
    for name in ("mesh", "marking", "solver", "identities", "reliability",
                 "rates"):
        assert name in SUITE_NAMES


def test_config_presets_are_valid():
    config = smooth_poisson_config()
    assert config.solver.kind == "exact"
    assert config.stop.max_ndof == 20_000
    pcg = smooth_poisson_config(solver_kind="pcg", n_steps=1)
    assert pcg.solver.n_steps == 1
