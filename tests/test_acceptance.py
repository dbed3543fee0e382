"""End-to-end acceptance runs.

Each test judges one shipping criterion with the ``lsfem.verify`` checks
that ``lsfem verify`` also runs, here on full adaptive computations, and
registers a verdict line rendered from them that is echoed after the pytest
summary.  The reference runs are shared module-scoped fixtures that keep
every level's record; large solved systems are dropped as each level
arrives, so the five runs fit in memory.
"""

import os
import time

import pytest

from lsfem import builtin_domain, make_problem, refine_uniform
from lsfem.cli import main as cli_main
from lsfem.driver import run_adaptive
from lsfem.formats import read_history
from lsfem.verify import (CheckResult, check_angle_lock,
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


def _judge(record_verdict, num, checks, note=None):
    """Record the verdict rendered from ``checks``, and ``note`` if given,
    and assert each check."""
    suffix = "" if note is None else f"; {note}"
    _verdict(record_verdict, num, all(check.passed for check in checks),
             "; ".join(check.render() for check in checks) + suffix)
    for check in checks:
        assert check.passed, check.render() + suffix


def _wall_clock(elapsed, limit):
    return CheckResult("wall clock", elapsed <= limit, {"elapsed_s": elapsed},
                       f"<= {limit:g} s")


def _timed_run(config, keep_systems=False):
    """(history, elapsed seconds, every level's record) of one run."""
    records = []

    def keep(rec):
        if not keep_systems or rec.dofmap.n_total > KEEP_SYSTEMS_BELOW:
            rec.system = None
            rec.rhs = None
        records.append(rec)

    t0 = time.perf_counter()
    history = run_adaptive(config, level_sink=keep)
    elapsed = time.perf_counter() - t0
    return history, elapsed, records


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


def test_criterion_01_smooth_exact_decay(smooth_exact, record_verdict):
    history, elapsed, _ = smooth_exact
    _judge(record_verdict, 1,
           check_smooth_run(history)[:1] + [_wall_clock(elapsed, 60.0)])


def test_criterion_02_single_step_decay(smooth_single_step, record_verdict):
    history, elapsed, _ = smooth_single_step
    _judge(record_verdict, 2,
           check_smooth_run(history)[:1] + [_wall_clock(elapsed, 120.0)],
           note="one jacobi step per level: the diagonal preconditioner "
                "loses contraction as the mesh grows (the per-level "
                "contraction factor behaves like 1 - O(1/n_dofs)), so the "
                "algebraic error plateaus - see the decisions ledger in the "
                "repository notes")


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
            for _, _, records in (smooth_exact, smooth_single_step)
            for rec in records if rec.system is not None]
    checks = check_pcg_contraction(runs)
    _judge(record_verdict, 6, checks)
    assert checks[0].measured["systems"] >= 10


def test_criterion_07_marking_axiom(smooth_exact, smooth_single_step,
                                    lshape_uniform, lshape_adaptive,
                                    record_verdict):
    levels = [(rec.report.per_element, rec.marked)
              for _, _, records in (smooth_exact, smooth_single_step,
                                    lshape_uniform, lshape_adaptive)
              for rec in records if rec.marked is not None]
    checks = check_marking_axiom(levels)
    _judge(record_verdict, 7, checks)
    assert checks[0].measured["levels"] > 40


def test_criterion_08_bulk_minimal_cardinality(record_verdict):
    _judge(record_verdict, 8, check_doerfler_bulk())


def test_criterion_09_mesh_invariants(smooth_exact, smooth_single_step,
                                      lshape_uniform, lshape_adaptive,
                                      indefinite_reaction, record_verdict):
    pairs = [(prev.mesh, prev.marked, nxt.mesh)
             for _, _, records in (smooth_exact, smooth_single_step,
                                   lshape_uniform, lshape_adaptive,
                                   indefinite_reaction)
             for prev, nxt in zip(records, records[1:])]
    uniform = [refine_uniform(builtin_domain("unit_square"))]
    for _ in range(9):
        uniform.append(refine_uniform(uniform[-1]))
    _judge(record_verdict, 9,
           check_refinement_pairs(pairs) + check_angle_lock(uniform))


def test_criterion_10_orthogonal_error_split(record_verdict):
    _judge(record_verdict, 10, check_residual_split(identity_fixtures()))


def test_criterion_11_discrete_reliability(smooth_exact, record_verdict):
    problem = make_problem(smooth_poisson_config().problem)
    # level 4, the level the reliability suite of `lsfem verify` refines
    _judge(record_verdict, 11,
           check_discrete_reliability(smooth_exact[2][4], problem))


def test_criterion_12_interpolation_rates(record_verdict):
    _judge(record_verdict, 12, check_interpolation(interpolation_rate_check()))


def test_criterion_13_indefinite_reaction(indefinite_reaction,
                                          record_verdict):
    history, elapsed, _ = indefinite_reaction
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
