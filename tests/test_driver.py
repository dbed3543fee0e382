from dataclasses import replace

import numpy as np
import pytest

from lsfem import (AdaptiveConfig, ConfigurationError, MarkingSpec, QuadSpec,
                   SolverSpec, StopSpec, run_adaptive)
from lsfem.driver import _marking_for_level
from lsfem.problems import ProblemSpec

SMOOTH = AdaptiveConfig(
    domain="unit_square",
    problem=ProblemSpec(kind="poisson", manufactured="poly_bubble"),
    marking=MarkingSpec("doerfler", 0.5),
    solver=SolverSpec(kind="exact"),
    stop=StopSpec(max_ndof=300),
)


def test_history_shape_and_monotone_growth():
    history = run_adaptive(SMOOTH)
    rows = history.rows
    assert history.n_levels >= 4
    assert [row.level for row in rows] == list(range(len(rows)))
    dofs = history.column("n_dofs")
    assert np.all(np.diff(dofs) > 0)
    assert dofs[-1] >= 300
    assert all(row.marked_count > 0 for row in rows[:-1])
    assert rows[-1].marked_count == 0
    assert all(row.solver_iterations == 0 for row in rows)
    assert all(row.error_v is not None for row in rows)
    assert rows[-1].eta_total < rows[0].eta_total
    assert all(row.wall_time_s >= 0 for row in rows)
    assert history.records is None


def test_records_align_with_rows():
    history = run_adaptive(SMOOTH, keep_records=True)
    assert len(history.records) == history.n_levels
    for row, rec in zip(history.rows, history.records):
        assert rec.level == row.level
        assert rec.mesh.n_elements == row.n_elements
        assert rec.dofmap.n_total == row.n_dofs
        assert np.isclose(rec.report.total, row.eta_total)
        resid = np.abs(rec.system.matvec(rec.coef) - rec.rhs).max()
        assert resid <= 1e-10 * max(1.0, np.abs(rec.rhs).max())
        if row.marked_count:
            assert rec.marked.size == row.marked_count
        else:
            assert rec.marked is None


def test_stop_rules():
    one_level = run_adaptive(replace(SMOOTH, stop=StopSpec(eta_tol=1e9)))
    assert one_level.n_levels == 1
    assert one_level.rows[0].marked_count == 0
    assert run_adaptive(replace(SMOOTH, stop=StopSpec(max_levels=0))).n_levels == 1
    capped = run_adaptive(replace(SMOOTH, stop=StopSpec(max_levels=3,
                                                        max_ndof=10 ** 6)))
    assert capped.n_levels == 4          # levels 0..3
    tol = run_adaptive(replace(SMOOTH, stop=StopSpec(max_ndof=10 ** 6,
                                                     eta_tol=0.05)))
    assert tol.rows[-1].eta_total <= 0.05
    assert all(row.eta_total > 0.05 for row in tol.rows[:-1])


def test_theta_schedule_clamps_to_last_entry():
    config = replace(SMOOTH, theta_schedule=(0.9, 0.2))
    assert _marking_for_level(config, 0).theta == 0.9
    assert _marking_for_level(config, 1).theta == 0.2
    assert _marking_for_level(config, 7).theta == 0.2
    assert _marking_for_level(SMOOTH, 3) is SMOOTH.marking
    # schedule affects the run: an aggressive first theta marks more
    eager = run_adaptive(replace(SMOOTH, theta_schedule=(1.0,),
                                 stop=StopSpec(max_levels=1)))
    lazy = run_adaptive(replace(SMOOTH, theta_schedule=(0.1,),
                                 stop=StopSpec(max_levels=1)))
    assert eager.rows[0].marked_count > lazy.rows[0].marked_count


def test_level_sink_streams_rows():
    seen = []
    history = run_adaptive(SMOOTH, level_sink=seen.append)
    assert seen == history.rows


def test_pcg_run_reports_iterations():
    config = replace(SMOOTH,
                     solver=SolverSpec(kind="pcg", n_steps=2, nested=True),
                     stop=StopSpec(max_ndof=400))
    history = run_adaptive(config)
    assert all(row.solver_iterations == 2 for row in history.rows)
    # estimator still talks about the inexact iterate, so it stays positive
    assert history.rows[-1].eta_total > 0


def test_nested_start_saves_iterations():
    base = replace(
        SMOOTH,
        problem=ProblemSpec(kind="poisson", manufactured="poly_bubble"),
        solver=SolverSpec(kind="pcg", lam=0.1, eta_ref="current",
                          max_steps=500, nested=True),
        stop=StopSpec(max_ndof=2000))
    nested = run_adaptive(base)
    cold = run_adaptive(
        replace(base, solver=replace(base.solver, nested=False)))
    total_nested = int(nested.column("solver_iterations").sum())
    total_cold = int(cold.column("solver_iterations").sum())
    assert total_nested < total_cold


def test_uniform_refinement_halves_error_every_two_rounds():
    """First-order rate: two all-marked rounds halve the mesh size."""
    config = replace(SMOOTH, marking=MarkingSpec("uniform", 0.5),
                     stop=StopSpec(max_levels=6, max_ndof=10 ** 6))
    history = run_adaptive(config)
    err = history.column("error_v")
    factor = err[-3] / err[-1]
    assert 1.7 <= factor <= 2.3


def test_eta_ref_initial_accepted():
    config = replace(SMOOTH,
                     solver=SolverSpec(kind="pcg", lam=0.5,
                                       eta_ref="initial"),
                     stop=StopSpec(max_ndof=200))
    history = run_adaptive(config)
    assert history.n_levels >= 2


@pytest.mark.parametrize("mutate", [
    dict(domain="disk"),
    dict(solver=SolverSpec(kind="cg")),
    dict(solver=SolverSpec(kind="pcg")),                        # neither
    dict(solver=SolverSpec(kind="pcg", n_steps=1, lam=0.1)),    # both
    dict(solver=SolverSpec(kind="pcg", n_steps=0)),
    dict(solver=SolverSpec(kind="pcg", lam=-0.1)),
    dict(solver=SolverSpec(kind="pcg", n_steps=1, precond="ilu")),
    dict(solver=SolverSpec(kind="pcg", n_steps=1, eta_ref="final")),
    dict(quadrature=QuadSpec(assembly_order=11)),
    dict(quadrature=QuadSpec(assembly_order=4, estimator_order=0)),
    dict(stop=StopSpec(max_ndof=0)),
    dict(stop=StopSpec(max_levels=-1)),
    dict(stop=StopSpec(eta_tol=-1.0)),
    dict(theta_schedule=(0.5, 0.0)),
    dict(domain="l_shape"),             # manufactured needs the unit square
])
def test_invalid_configs_rejected(mutate):
    with pytest.raises(ConfigurationError):
        run_adaptive(replace(SMOOTH, **mutate))

