"""Output checks on one run's files, made outside the timed region.

Each check returns a list of problems; an empty list means the output
passed.  Any problem makes the run count in ``failed_runs``.
"""

from __future__ import annotations

import json
from pathlib import Path

from lsfem import (ConfigurationError, MeshValidityError, assemble_system,
                   build_dofmap, compute_indicators, exact_solve, make_problem,
                   parse_config, read_history, read_mesh_text, validate)

# Bound on eta_final / eta_exact (and its inverse) for nested_pcg, where
# eta_exact is the estimator of the exact solve on the same final mesh.
# Jacobi-PCG contracts ever more slowly as h shrinks, so an increment of
# lam * eta = 0.02 eta still leaves an algebraic error that raised eta by up
# to 14% over 18 generated configs; 1.25 admits that and catches a solver
# that stops much earlier.
PCG_ETA_FACTOR = 1.25

# The renumbering contract: per-level eta_total agrees to this relative size.
ETA_RTOL = 1e-12

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def check_history(path, max_ndof):
    """Parse ``history.csv``; levels 0..n-1, rising dofs, stop at the cap."""
    try:
        rows = read_history(path)
    except (OSError, ConfigurationError) as exc:
        return [], [f"history.csv unreadable: {exc}"]
    if not rows:
        return rows, ["history.csv has no levels"]
    problems = []
    levels = [row.level for row in rows]
    if levels != list(range(len(rows))):
        problems.append(f"levels are not consecutive from 0: {levels}")
    dofs = [row.n_dofs for row in rows]
    if any(b <= a for a, b in zip(dofs, dofs[1:])):
        problems.append(f"n_dofs is not strictly increasing: {dofs}")
    if dofs[-1] < max_ndof or any(d >= max_ndof for d in dofs[:-1]):
        problems.append(f"run did not stop at the dof cap {max_ndof}: {dofs}")
    if rows[-1].marked_count != 0:
        problems.append("the final level marked elements")
    return rows, problems


def check_mesh(path, last_row, full):
    """Read ``final_mesh.txt`` back; with ``full`` also run ``validate``."""
    try:
        mesh = read_mesh_text(path)
    except (OSError, ConfigurationError, MeshValidityError) as exc:
        return None, [f"final_mesh.txt unreadable: {exc}"]
    problems = []
    if last_row is not None and mesh.n_elements != last_row.n_elements:
        problems.append(f"final mesh has {mesh.n_elements} elements, the last "
                        f"history row {last_row.n_elements}")
    if full:
        diag = validate(mesh)
        if not diag.ok:
            found = (diag.conformity_violations + diag.inverted_elements
                     + diag.orphan_vertices + diag.duplicate_elements)
            problems.append(f"final mesh fails validate: {found[:3]}")
    return mesh, problems


def load_reference(workload):
    """Stored per-level histories of the default seed, or None."""
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def reference_rows(rows):
    """The compared columns: n_elements, n_dofs, marked_count, eta_total."""
    return [[row.n_elements, row.n_dofs, row.marked_count, row.eta_total]
            for row in rows]


def check_reference(rows, expected):
    """Per-level equality with a stored run, eta_total to ``ETA_RTOL``."""
    got = reference_rows(rows)
    if len(got) != len(expected):
        return [f"{len(got)} levels, reference has {len(expected)}"]
    for level, (g, e) in enumerate(zip(got, expected)):
        if g[:3] != e[:3]:
            return [f"level {level}: (n_elements, n_dofs, marked_count) "
                    f"{tuple(g[:3])} != reference {tuple(e[:3])}"]
        if abs(g[3] - e[3]) > ETA_RTOL * abs(e[3]):
            return [f"level {level}: eta_total {g[3]!r} != reference {e[3]!r}"]
    return []


def exact_eta(mesh, config_path):
    """Estimator of the exact discrete solution on ``mesh``."""
    config = parse_config(config_path)
    problem = make_problem(config.problem)
    dofmap = build_dofmap(mesh)
    system, rhs = assemble_system(mesh, dofmap, problem,
                                  config.quadrature.assembly_order)
    coef = exact_solve(system, rhs)
    return compute_indicators(mesh, dofmap, problem, coef,
                              config.quadrature.resolved_estimator_order()).total


def check_pcg_accuracy(eta_final, eta_exact):
    ratio = eta_final / eta_exact
    if not 1.0 / PCG_ETA_FACTOR <= ratio <= PCG_ETA_FACTOR:
        return [f"eta_final / eta_exact = {ratio:.4f} is outside "
                f"[1/{PCG_ETA_FACTOR}, {PCG_ETA_FACTOR}]"]
    return []
