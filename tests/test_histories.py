"""Per-level histories of the shipped configs against committed references.

``tests/data/<config>_history.json`` holds the rows of a reference run.
The adaptive configs are sensitive to last-bit changes of the indicators:
Doerfler marking on symmetric meshes meets ties, and a flipped tie changes
every later mesh.  A change that renumbers mesh entities must keep every
history.  Integers must match exactly, the estimator and the error to
1e-12 relative.
"""

import json
import os

import pytest

from lsfem import parse_config, run_adaptive

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXACT = ("level", "n_elements", "n_dofs", "marked_count", "solver_iterations")


def _close(got, want):
    if want is None:
        return got is None
    return abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("name", ["smooth_poisson_pcg", "lshape_adaptive",
                                  "helmholtz", "lshape_uniform",
                                  "smooth_poisson"])
def test_history_matches_reference(name):
    with open(os.path.join(REPO, "tests", "data", f"{name}_history.json")) as fh:
        reference = json.load(fh)["rows"]
    rows = run_adaptive(parse_config(
        os.path.join(REPO, "configs", f"{name}.yaml"))).rows
    assert len(rows) == len(reference)
    for row, want in zip(rows, reference):
        assert {key: getattr(row, key) for key in EXACT} == {
            key: want[key] for key in EXACT}, f"level {want['level']}"
        for key in ("eta_total", "error_v"):
            assert _close(getattr(row, key), want[key]), (
                f"level {want['level']} {key}: {getattr(row, key)!r} "
                f"vs {want[key]!r}")
