import json
import os
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse.linalg import SuperLU

import lsfem.driver
import lsfem.estimator
from lsfem import (AdaptiveConfig, ConfigurationError, LevelEstimator,
                   MarkingSpec, QuadSpec, SolverSpec, SparseSpd, StopSpec,
                   compute_error_norms, compute_indicators, exact_solve,
                   run_adaptive)
from lsfem.assembly import QuadFields
from lsfem.problems import ProblemSpec, make_problem

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

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


def _run_keeping_records(config):
    """Run ``config`` with a sink that keeps every level's record."""
    records = []
    return run_adaptive(config, level_sink=records.append), records


def test_records_align_with_rows():
    history, records = _run_keeping_records(SMOOTH)
    assert len(records) == history.n_levels
    for row, rec in zip(history.rows, records):
        assert rec.row is row
        assert rec.mesh.n_elements == row.n_elements
        assert rec.dofmap.n_total == row.n_dofs
        assert np.isclose(rec.report.total, row.eta_total)
        resid = np.abs(rec.system.matrix @ rec.coef - rec.rhs).max()
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


def test_level_sink_streams_rows():
    seen = []
    history = run_adaptive(SMOOTH, level_sink=seen.append)
    assert [record.row for record in seen] == history.rows
    assert seen[-1] is history.final


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
                          nested=True),
        stop=StopSpec(max_ndof=2000))
    nested = run_adaptive(base)
    cold = run_adaptive(
        replace(base, solver=replace(base.solver, nested=False)))
    total_nested = int(nested.column("solver_iterations").sum())
    total_cold = int(cold.column("solver_iterations").sum())
    assert total_nested < total_cold


LAMBDA_PCG = replace(
    SMOOTH,
    solver=SolverSpec(kind="pcg", lam=0.02, eta_ref="current", nested=True),
    stop=StopSpec(max_ndof=800))


def _count_factor_calls(monkeypatch):
    """Patch ``SparseSpd.factor`` to record the system of every call."""
    calls = []
    real_factor = SparseSpd.factor

    def counting_factor(self):
        calls.append(self)
        return real_factor(self)

    monkeypatch.setattr(SparseSpd, "factor", counting_factor)
    return calls


def test_pcg_path_builds_no_factor(monkeypatch):
    calls = _count_factor_calls(monkeypatch)
    history = run_adaptive(LAMBDA_PCG)
    assert history.n_levels >= 4
    assert calls == []


def test_exact_path_factors_once_per_level(monkeypatch):
    calls = _count_factor_calls(monkeypatch)
    history, records = _run_keeping_records(SMOOTH)
    assert history.n_levels >= 4
    assert len(calls) == history.n_levels
    assert all(call is rec.system for call, rec in zip(calls, records))


def _array_bytes(obj, seen):
    """Bytes of the numpy buffers reachable from ``obj`` through dicts and
    instance attributes, each buffer counted once; a ``mesh`` attribute is
    not followed, so a dof map counts only its own tables."""
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        if obj.base is not None or id(obj) in seen:
            return 0
        seen.add(id(obj))
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_array_bytes(value, seen) for value in obj.values())
    if hasattr(obj, "__dict__"):
        return sum(_array_bytes(value, seen)
                   for key, value in vars(obj).items() if key != "mesh")
    return 0


def test_factorization_sees_only_the_level_live_set(monkeypatch):
    """No assembly transient is alive while a level is factorized.

    On every level of an exact run of the uniform L-shape to 12 rounds
    (49,153 dofs), the memory ``tracemalloc`` sees at the entry of
    ``SparseSpd.factor`` exceeds the level's live set (the CSR arrays, the
    load, the mesh and dof-map tables) by at most 1 MiB.  Measured: 0.26
    MiB at 6,145 dofs up to 0.57 MiB at 49,153, mostly the previous
    level's solution and marked elements.  A kept (nt, 6) local-load
    table would add 1.1 MiB at the last level and the (nt, 21) local
    matrices 3.9 MiB.
    """
    config = AdaptiveConfig(
        domain="l_shape",
        problem=ProblemSpec(kind="general", f=1.0,
                            a=[[1.05, 0.02], [0.02, 0.97]], b=[0.03, -0.07]),
        marking=MarkingSpec("uniform"), solver=SolverSpec(kind="exact"),
        stop=StopSpec(max_levels=12))
    level, entries = {}, []
    real_assemble, real_factor = lsfem.driver.assemble_system, SparseSpd.factor

    def tracking_assemble(mesh, dofmap, *args):
        system, rhs = real_assemble(mesh, dofmap, *args)
        level.update(mesh=weakref.ref(mesh), dofmap=weakref.ref(dofmap),
                     rhs=weakref.ref(rhs))
        return system, rhs

    def measured_factor(self):
        current = tracemalloc.get_traced_memory()[0]
        m, seen = self.matrix, set()
        live = sum(_array_bytes(obj, seen) for obj in (
            m.data, m.indices, m.indptr, level["rhs"](), level["mesh"](),
            level["dofmap"]()))
        entries.append((m.shape[0], current, live))
        return real_factor(self)

    monkeypatch.setattr(lsfem.driver, "assemble_system", tracking_assemble)
    monkeypatch.setattr(SparseSpd, "factor", measured_factor)
    tracemalloc.start()
    try:
        history = run_adaptive(config)
    finally:
        tracemalloc.stop()
    assert history.n_levels == 13 and entries[-1][0] == 49_153
    for n, current, live in entries:
        assert current - live <= 2 ** 20, (n, current, live)


def _holds_factor(system):
    return any(isinstance(value, SuperLU) for value in vars(system).values())


def test_no_factor_survives_the_solve():
    history, records = _run_keeping_records(SMOOTH)
    assert history.n_levels >= 4
    assert not any(_holds_factor(rec.system) for rec in records)
    final = history.final
    exact_solve(final.system, final.rhs)
    assert not _holds_factor(final.system)


@pytest.mark.parametrize("config", [SMOOTH, LAMBDA_PCG],
                         ids=["exact", "lambda_pcg"])
def test_final_record_matches_kept_records(config):
    kept, records = _run_keeping_records(config)
    lean = run_adaptive(config)
    assert kept.final is records[-1]
    final, last = lean.final, records[-1]
    assert final.row.level == last.row.level == lean.n_levels - 1
    np.testing.assert_array_equal(final.mesh.vertices, last.mesh.vertices)
    np.testing.assert_array_equal(final.mesh.elements, last.mesh.elements)
    np.testing.assert_array_equal(final.coef, last.coef)
    np.testing.assert_array_equal(final.report.per_element,
                                  last.report.per_element)
    assert final.marked is None


def _sink(keep_all):
    """A level sink that keeps every record, or one that keeps none."""
    kept = []
    return kept.append if keep_all else (lambda record: None)


@pytest.mark.parametrize("config", [SMOOTH, LAMBDA_PCG],
                         ids=["exact", "lambda_pcg"])
@pytest.mark.parametrize("keep_all", [False, True])
def test_old_systems_released_before_next_assembly(config, keep_all,
                                                   monkeypatch):
    """Unless the sink keeps records, no earlier level's system is alive
    while the next level is assembled."""
    systems, alive = [], []
    real_assemble = lsfem.driver.assemble_system

    def tracking_assemble(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in systems))
        system, rhs = real_assemble(*args, **kwargs)
        systems.append(weakref.ref(system))
        return system, rhs

    monkeypatch.setattr(lsfem.driver, "assemble_system", tracking_assemble)
    history = run_adaptive(config, level_sink=_sink(keep_all))
    assert history.n_levels >= 4
    assert alive == (list(range(history.n_levels)) if keep_all
                     else [0] * history.n_levels)
    assert history.final.system is systems[-1]()


@pytest.mark.parametrize("config", [SMOOTH, LAMBDA_PCG],
                         ids=["exact", "lambda_pcg"])
@pytest.mark.parametrize("keep_all", [False, True])
def test_old_meshes_released_before_next_assembly(config, keep_all,
                                                  monkeypatch):
    """Unless the sink keeps records, an exact run keeps only the current
    mesh alive while it assembles, and nested PCG also the previous one; no
    mesh keeps its parent alive."""
    meshes, alive = [], []
    real_build_dofmap = lsfem.driver.build_dofmap
    real_assemble = lsfem.driver.assemble_system

    def tracking_build_dofmap(mesh):
        meshes.append(weakref.ref(mesh))
        return real_build_dofmap(mesh)

    def tracking_assemble(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in meshes))
        return real_assemble(*args, **kwargs)

    monkeypatch.setattr(lsfem.driver, "build_dofmap", tracking_build_dofmap)
    monkeypatch.setattr(lsfem.driver, "assemble_system", tracking_assemble)
    history = run_adaptive(config, level_sink=_sink(keep_all))
    levels = range(history.n_levels)
    assert history.n_levels >= 4
    if keep_all:
        assert alive == [level + 1 for level in levels]
    elif config.solver.kind == "exact":
        assert alive == [1] * history.n_levels
    else:
        assert alive == [min(level + 1, 2) for level in levels]
    assert history.final.mesh is meshes[-1]()


@pytest.mark.parametrize("config", [SMOOTH, LAMBDA_PCG],
                         ids=["exact", "lambda_pcg"])
@pytest.mark.parametrize("keep_all", [False, True])
def test_old_estimators_released_before_next_assembly(config, keep_all,
                                                      monkeypatch):
    """No earlier level's estimator tables are alive while the next level
    is assembled, even when the sink keeps every record, and on the exact
    path none is alive during a factorization."""
    estimators, at_assembly, at_factor = [], [], []
    real_assemble = lsfem.driver.assemble_system
    real_factor = SparseSpd.factor

    def alive():
        return sum(ref() is not None for ref in estimators)

    class TrackedEstimator(LevelEstimator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            estimators.append(weakref.ref(self))

    def tracking_assemble(*args, **kwargs):
        at_assembly.append(alive())
        return real_assemble(*args, **kwargs)

    def tracking_factor(self):
        at_factor.append(alive())
        return real_factor(self)

    monkeypatch.setattr(lsfem.driver, "LevelEstimator", TrackedEstimator)
    monkeypatch.setattr(lsfem.driver, "assemble_system", tracking_assemble)
    monkeypatch.setattr(SparseSpd, "factor", tracking_factor)
    history = run_adaptive(config, level_sink=_sink(keep_all))
    assert history.n_levels >= 4
    assert len(estimators) == history.n_levels
    assert at_assembly == [0] * history.n_levels
    assert alive() == 0
    if config.solver.kind == "exact":
        assert at_factor == [0] * history.n_levels
    else:
        assert at_factor == []


@pytest.mark.parametrize("config", [SMOOTH, LAMBDA_PCG],
                         ids=["exact", "lambda_pcg"])
def test_one_estimator_build_serves_the_level(config, monkeypatch):
    """One ``QuadFields`` build per level serves the lambda rule, the
    report and the error norms, with the bits of fresh calls; where the
    lambda rule stopped PCG, its last evaluation is the report."""
    built, report_calls = [], []
    real_compute_indicators = lsfem.driver.compute_indicators

    class CountedFields(QuadFields):
        def __init__(self, dofmap, rule):
            built.append(dofmap)
            super().__init__(dofmap, rule)

    def counting_compute_indicators(*args, **kwargs):
        report_calls.append(kwargs.get("estimator"))
        return real_compute_indicators(*args, **kwargs)

    monkeypatch.setattr(lsfem.estimator, "QuadFields", CountedFields)
    monkeypatch.setattr(lsfem.driver, "compute_indicators",
                        counting_compute_indicators)
    history, records = _run_keeping_records(config)
    monkeypatch.undo()
    assert history.n_levels >= 4
    assert len(built) == history.n_levels
    assert all(dm is rec.dofmap for dm, rec in zip(built, records))
    assert None not in report_calls
    if config.solver.kind == "exact":
        assert len(report_calls) == history.n_levels
    else:
        assert report_calls == []

    problem = make_problem(config.problem)
    order = config.quadrature.resolved_estimator_order()
    for rec in records:
        fresh = compute_indicators(rec.mesh, rec.dofmap, problem, rec.coef,
                                   order)
        assert np.array_equal(rec.report.per_element, fresh.per_element)
        assert rec.report.total == fresh.total
        errors = compute_error_norms(rec.dofmap, rec.coef, problem.exact,
                                     order)
        assert np.array_equal(rec.error_report.per_element,
                              errors.per_element)
        assert rec.error_report.total == errors.total


def test_lambda_rule_evaluates_data_once_per_level(monkeypatch):
    """The load is sampled a fixed number of times per level, not per step.

    Per level: assembly and the level's estimator each evaluate f once; the
    lambda rule, the level report and the error norms share the estimator.
    """
    calls = []
    real_make_problem = lsfem.driver.make_problem

    def counting_make_problem(spec):
        problem = real_make_problem(spec)

        def f_fn(points):
            calls.append(len(points))
            return problem.f_fn(points)
        return replace(problem, f_fn=f_fn)

    monkeypatch.setattr(lsfem.driver, "make_problem", counting_make_problem)
    history = run_adaptive(LAMBDA_PCG)
    iterations = int(history.column("solver_iterations").sum())
    assert iterations > 3 * history.n_levels     # several steps per level
    assert len(calls) == 2 * history.n_levels


def test_lambda_rule_evaluates_eta_near_its_stop_only(monkeypatch):
    """Each level's PCG run evaluates eta at least once, at its first step
    and at its stop, but at most at half the steps over the run."""
    per_level = []          # LevelEstimator calls inside each pcg_run
    real_call = LevelEstimator.__call__
    real_pcg_run = lsfem.driver.pcg_run
    inside = []

    def counting_call(self, coef):
        if inside:
            per_level[-1] += 1
        return real_call(self, coef)

    def tracking_pcg_run(*args, **kwargs):
        per_level.append(0)
        inside.append(True)
        try:
            return real_pcg_run(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(LevelEstimator, "__call__", counting_call)
    monkeypatch.setattr(lsfem.driver, "pcg_run", tracking_pcg_run)
    history = run_adaptive(LAMBDA_PCG)
    steps = int(history.column("solver_iterations").sum())
    assert len(per_level) == history.n_levels >= 4
    assert min(per_level) >= 1
    assert sum(per_level) <= steps / 2


LSHAPE_GENERAL = AdaptiveConfig(
    domain="l_shape",
    problem=ProblemSpec(kind="general", f=1.0, a=((2.0, 0.5), (0.5, 1.0)),
                        b=(1.0, -0.5), c=0.5),
    marking=MarkingSpec("doerfler", 0.5),
    solver=SolverSpec(kind="pcg", lam=0.05, eta_ref="current", nested=True),
    stop=StopSpec(max_ndof=1500))


@pytest.mark.parametrize("name, config", [("lambda_pcg", LAMBDA_PCG),
                                          ("lshape_general", LSHAPE_GENERAL)])
def test_lambda_rule_levels_match_reference(name, config):
    """Per-level rows of two lambda-rule runs, bit for bit, against
    ``tests/data/lambda_rule_history.json``, written by a build that
    evaluated eta after every PCG step."""
    with open(os.path.join(DATA, "lambda_rule_history.json")) as fh:
        reference = json.load(fh)[name]
    rows = run_adaptive(config).rows
    assert [{key: getattr(row, key) for key in reference[0]}
            for row in rows] == reference


def test_uniform_refinement_halves_error_every_two_rounds():
    """First-order rate: two all-marked rounds halve the mesh size."""
    config = replace(SMOOTH, marking=MarkingSpec("uniform", 0.5),
                     stop=StopSpec(max_levels=6, max_ndof=10 ** 6))
    history = run_adaptive(config)
    err = history.column("error_v")
    factor = err[-3] / err[-1]
    assert 1.7 <= factor <= 2.3


def test_eta_ref_initial_rejected():
    """The lambda rule evaluates eta at the current iterate only: a fixed eta
    of the start iterate is no longer a config."""
    with pytest.raises(ConfigurationError,
                       match="eta_ref must be 'current', got 'initial'"):
        SolverSpec(kind="pcg", lam=0.5, eta_ref="initial")


NAN = float("nan")


# (spec class, constructor kwargs); an AdaptiveConfig case replaces fields
# of SMOOTH
@pytest.mark.parametrize("mutate", [
    (AdaptiveConfig, dict(domain="disk")),
    (SolverSpec, dict(kind="cg")),
    (SolverSpec, dict(kind="pcg")),                         # neither
    (SolverSpec, dict(kind="pcg", n_steps=1, lam=0.1)),     # both
    (SolverSpec, dict(kind="pcg", n_steps=0)),
    (SolverSpec, dict(kind="pcg", lam=-0.1)),
    (SolverSpec, dict(kind="pcg", n_steps=1, precond="ilu")),
    (SolverSpec, dict(kind="pcg", n_steps=1, eta_ref="final")),
    (QuadSpec, dict(assembly_order=11)),
    (QuadSpec, dict(assembly_order=9)),         # estimator rule 11
    (StopSpec, dict(max_ndof=0)),
    (StopSpec, dict(max_levels=-1)),
    (StopSpec, dict(eta_tol=-1.0)),
    (MarkingSpec, dict(theta=0.0)),
    (AdaptiveConfig, dict(domain="l_shape")),   # manufactured: unit square
    (QuadSpec, dict(assembly_order=10)),
    # the ranges and names hold for every kind, not only for pcg
    (SolverSpec, dict(kind="exact", lam=-3)),
    (SolverSpec, dict(kind="exact", n_steps=0)),
    (SolverSpec, dict(kind="exact", precond="ilu")),
    (SolverSpec, dict(kind="exact", eta_ref="final")),
    # NaN fails every range check
    (SolverSpec, dict(kind="pcg", lam=NAN)),
    (StopSpec, dict(eta_tol=NAN)),
    (MarkingSpec, dict(theta=NAN)),
    # specs built in Python are type-checked like YAML input
    (ProblemSpec, dict(kind="general", f=1.0, a=[[1, 0], [0, True]])),
    (ProblemSpec, dict(kind="poisson", f="1")),
    (ProblemSpec, dict(kind="poisson", f=True)),
    (SolverSpec, dict(kind="pcg", n_steps=True)),
    (StopSpec, dict(max_ndof=1.5)),
    (QuadSpec, dict(assembly_order=4.0)),
    (SolverSpec, dict(kind="pcg", lam="0.1")),
    (MarkingSpec, dict(theta="0.5")),
    (AdaptiveConfig, dict(domain=["l_shape"])),
    (AdaptiveConfig, dict(problem={"kind": "poisson", "f": 1.0})),
    # an exact solve takes no PCG-only key
    (SolverSpec, dict(kind="exact", n_steps=3)),
    (SolverSpec, dict(kind="exact", lam=0.02)),
    # the lambda rule needs ||L v|| = ||v||_A and eta at the current iterate
    (QuadSpec, dict(assembly_order=1)),
    (SolverSpec, dict(kind="pcg", lam=0.1, eta_ref="initial")),
])
def test_invalid_configs_rejected(mutate):
    spec, kwargs = mutate
    with pytest.raises(ConfigurationError):
        if spec is AdaptiveConfig:
            replace(SMOOTH, **kwargs)
        else:
            spec(**kwargs)
