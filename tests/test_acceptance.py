"""End-to-end acceptance runs.

Each test judges one shipping criterion with the ``lsfem.verify`` checks
that ``lsfem verify`` also runs, here on full adaptive computations, and
registers a verdict line rendered from them that is echoed after the pytest
summary.  The reference runs are shared module-scoped fixtures; large solved
systems are dropped eagerly so the five histories fit in memory.
"""

import os
import time

import pytest

from lsfem import builtin_domain, make_problem, refine_uniform
from lsfem.cli import main as cli_main
from lsfem.driver import run_adaptive
from lsfem.formats import read_history
from lsfem.verify import (BUDGETS, CheckResult, check_angle_lock,
                          check_corner_rates, check_discrete_reliability,
                          check_doerfler_bulk, check_indefinite_run,
                          check_interpolation, check_marking_axiom,
                          check_pcg_contraction, check_refinement_pairs,
                          check_residual_split, check_smooth_run,
                          helmholtz_config, identity_fixtures,
                          interpolation_rate_check, lshape_config,
                          smooth_poisson_config)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KEEP_SYSTEMS_BELOW = 5000


def _verdict(record_verdict, num, ok, detail):
    record_verdict(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")


def _judge(record_verdict, num, checks):
    """Record the verdict rendered from ``checks`` and assert each one."""
    _verdict(record_verdict, num, all(check.passed for check in checks),
             "; ".join(check.render() for check in checks))
    for check in checks:
        assert check.passed, check.render()


def _wall_clock(elapsed, limit):
    return CheckResult("wall clock", elapsed <= limit, {"elapsed_s": elapsed},
                       f"<= {limit:g} s")


def _timed_run(config, keep_systems=False):
    t0 = time.perf_counter()
    history = run_adaptive(config, keep_records=True)
    elapsed = time.perf_counter() - t0
    for rec in history.records:
        if not keep_systems or rec.dofmap.n_total > KEEP_SYSTEMS_BELOW:
            rec.system = None
            rec.rhs = None
    return history, elapsed


@pytest.fixture(scope="module")
def smooth_exact():
    return _timed_run(smooth_poisson_config(), keep_systems=True)


@pytest.fixture(scope="module")
def smooth_single_step():
    config = smooth_poisson_config(solver_kind="pcg", n_steps=1,
                                   nested=True, precond="jacobi")
    return _timed_run(config, keep_systems=True)


@pytest.fixture(scope="module")
def lshape_uniform():
    return _timed_run(lshape_config(strategy="uniform", max_ndof=50_000))


@pytest.fixture(scope="module")
def lshape_adaptive():
    return _timed_run(lshape_config())


@pytest.fixture(scope="module")
def indefinite_reaction():
    return _timed_run(helmholtz_config())


def _decay(history, quantity):
    values = history.column(quantity)
    return float(values[-1] / values[0])


def test_criterion_01_smooth_exact_decay(smooth_exact, record_verdict):
    history, elapsed = smooth_exact
    _judge(record_verdict, 1,
           check_smooth_run(history)[:1] + [_wall_clock(elapsed, 60.0)])


def test_criterion_02_single_step_decay(smooth_single_step, record_verdict):
    history, elapsed = smooth_single_step
    eta_ratio = _decay(history, "eta_total")
    err_ratio = _decay(history, "error_v")
    ok = (eta_ratio <= BUDGETS["eta_decay_factor"]
          and err_ratio <= BUDGETS["error_decay_factor"]
          and elapsed <= 120.0)
    _verdict(record_verdict, 2, ok,
             f"one jacobi step per level: eta falls to {eta_ratio:.4f} of "
             f"the start in {elapsed:.1f} s (need <= 0.05 within 120 s); "
             f"the diagonal preconditioner loses contraction as the mesh "
             f"grows, so the algebraic error plateaus - see the decisions "
             f"ledger in the repository notes")
    assert elapsed <= 120.0
    assert eta_ratio <= BUDGETS["eta_decay_factor"], (
        "a single diagonally preconditioned step per level stalls: the "
        "per-level contraction factor behaves like 1 - O(1/n_dofs), so the "
        "accumulated algebraic error stops decaying once the mesh is fine "
        f"(measured final/initial eta ratio {eta_ratio:.4f})")
    assert err_ratio <= BUDGETS["error_decay_factor"]


def test_criterion_03_sandwich_constants(smooth_exact, record_verdict):
    _judge(record_verdict, 3, check_smooth_run(smooth_exact[0])[2:])


def test_criterion_04_smooth_rate(smooth_exact, record_verdict):
    _judge(record_verdict, 4, check_smooth_run(smooth_exact[0])[1:2])


def test_criterion_05_corner_rates(lshape_uniform, lshape_adaptive,
                                   record_verdict):
    _judge(record_verdict, 5,
           check_corner_rates(lshape_uniform[0], lshape_adaptive[0]))


def test_criterion_06_per_step_contraction(smooth_exact, smooth_single_step,
                                           record_verdict):
    runs = [(rec.system, rec.rhs, "jacobi", 50)
            for history, _ in (smooth_exact, smooth_single_step)
            for rec in history.records if rec.system is not None]
    checks = check_pcg_contraction(runs)
    _judge(record_verdict, 6, checks)
    assert checks[0].measured["systems"] >= 10


def test_criterion_07_marking_axiom(smooth_exact, smooth_single_step,
                                    lshape_uniform, lshape_adaptive,
                                    record_verdict):
    levels = [(rec.report.per_element, rec.marked)
              for history, _ in (smooth_exact, smooth_single_step,
                                 lshape_uniform, lshape_adaptive)
              for rec in history.records if rec.marked is not None]
    checks = check_marking_axiom(levels)
    _judge(record_verdict, 7, checks)
    assert checks[0].measured["levels"] > 40


def test_criterion_08_bulk_minimal_cardinality(record_verdict):
    _judge(record_verdict, 8, check_doerfler_bulk())


def test_criterion_09_mesh_invariants(smooth_exact, smooth_single_step,
                                      lshape_uniform, lshape_adaptive,
                                      indefinite_reaction, record_verdict):
    pairs = [(prev.mesh, prev.marked, nxt.mesh)
             for history, _ in (smooth_exact, smooth_single_step,
                                lshape_uniform, lshape_adaptive,
                                indefinite_reaction)
             for prev, nxt in zip(history.records, history.records[1:])]
    uniform = [refine_uniform(builtin_domain("unit_square"))]
    for _ in range(9):
        uniform.append(refine_uniform(uniform[-1]))
    _judge(record_verdict, 9,
           check_refinement_pairs(pairs) + check_angle_lock(uniform))


def test_criterion_10_orthogonal_error_split(record_verdict):
    _judge(record_verdict, 10, check_residual_split(identity_fixtures()))


def test_criterion_11_discrete_reliability(smooth_exact, record_verdict):
    problem = make_problem(smooth_poisson_config().problem)
    _judge(record_verdict, 11,
           check_discrete_reliability(smooth_exact[0], problem))


def test_criterion_12_interpolation_rates(record_verdict):
    _judge(record_verdict, 12, check_interpolation(interpolation_rate_check()))


def test_criterion_13_indefinite_reaction(indefinite_reaction,
                                          record_verdict):
    history, elapsed = indefinite_reaction
    _judge(record_verdict, 13,
           check_indefinite_run(history) + [_wall_clock(elapsed, 60.0)])


def test_criterion_14_reproducible_output(tmp_path, record_verdict):
    config = os.path.join(REPO, "configs", "smooth_poisson.yaml")
    payloads = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli_main(["run", "--config", config, "--out", str(out),
                         "--strip-timing"])
        assert code == 0
        payloads.append(((out / "history.csv").read_bytes(),
                         (out / "final_mesh.txt").read_bytes()))
    ok = payloads[0] == payloads[1]
    rows = read_history(tmp_path / "first" / "history.csv")
    _verdict(record_verdict, 14, ok,
             f"two identical command-line runs produce byte-identical "
             f"history and mesh files ({len(rows)} levels)")
    assert ok
