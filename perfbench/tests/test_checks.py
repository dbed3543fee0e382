import json
import math
import time

import yaml

import lsfem.cli
import lsfem.driver
from lsfem import HistoryRow, read_history, write_history

import checks
import child
import workloads
from run import SRC, tail_percentile


def row(level, n_elements, n_dofs, marked=1):
    return HistoryRow(level=level, n_elements=n_elements, n_dofs=n_dofs,
                      eta_total=1.0 / (level + 1), error_v=None,
                      marked_count=marked, solver_iterations=0,
                      wall_time_s=0.1)


def test_history_with_a_missing_level_fails(tmp_path):
    path = tmp_path / "history.csv"
    write_history(path, [row(0, 8, 10), row(1, 16, 30), row(3, 40, 90, 0)])
    _, problems = checks.check_history(path, max_ndof=50)
    assert any("consecutive" in p for p in problems)


def test_history_that_stops_before_the_cap_fails(tmp_path):
    path = tmp_path / "history.csv"
    write_history(path, [row(0, 8, 10), row(1, 16, 30, 0)])
    _, problems = checks.check_history(path, max_ndof=50)
    assert any("dof cap" in p for p in problems)


def test_mesh_with_a_hanging_node_fails(tmp_path):
    # vertex 4 bisects the diagonal (0, 2), but element (0, 2, 3) keeps it
    path = tmp_path / "final_mesh.txt"
    path.write_text("5 3\n0 0\n1 0\n1 1\n0 1\n0.5 0.5\n"
                    "0 1 4\n1 2 4\n0 2 3\n")
    _, problems = checks.check_mesh(path, row(0, 3, 1, 0), full=True)
    assert any("hangs" in p for p in problems)
    _, problems = checks.check_mesh(path, row(0, 3, 1, 0), full=False)
    assert problems == []


def test_mesh_that_disagrees_with_the_history_fails(tmp_path):
    path = tmp_path / "final_mesh.txt"
    path.write_text("4 2\n0 0\n1 0\n1 1\n0 1\n0 1 2\n0 2 3\n")
    _, problems = checks.check_mesh(path, row(0, 4, 1, 0), full=True)
    assert any("elements" in p for p in problems)


def test_a_real_run_passes_and_a_perturbed_reference_does_not(tmp_path):
    config = workloads.config("adaptive_exact", 1, 0)
    config["stop"]["max_ndof"] = 400
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump(config))
    out = tmp_path / "out"
    assert lsfem.cli.main(["run", "--config", str(config_path),
                           "--out", str(out)]) == 0
    rows, problems = checks.check_history(out / "history.csv", 400)
    assert problems == []
    mesh, problems = checks.check_mesh(out / "final_mesh.txt", rows[-1],
                                       full=True)
    assert problems == []
    expected = checks.reference_rows(rows)
    assert checks.check_reference(rows, expected) == []
    expected[2][3] *= 1 + 1e-10
    assert checks.check_reference(rows, expected)
    assert checks.check_reference(rows, expected[:-1])
    eta_exact = checks.exact_eta(mesh, config_path)
    assert math.isclose(eta_exact, rows[-1].eta_total, rel_tol=1e-9)
    assert checks.check_pcg_accuracy(rows[-1].eta_total, eta_exact) == []
    assert checks.check_pcg_accuracy(1.3 * eta_exact, eta_exact)


def test_configs_are_a_function_of_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.config(name, 5, 3) == workloads.config(name, 5, 3)
        assert workloads.config(name, 5, 3) != workloads.config(name, 6, 3)
    for seed in range(20):
        thetas = [workloads.config("adaptive_exact", seed, j)["marking"]["theta"]
                  for j in range(10)]
        assert all(0.4 <= t <= 0.6 for t in thetas)
        # ten runs spread evenly: no tenth of [0.4, 0.6] gets more than two
        tenths = [int((t - 0.4) / 0.02) for t in thetas]
        assert max(tenths.count(k) for k in set(tenths)) <= 2


def test_setup_probe_stops_at_the_first_call_into_the_loop(tmp_path):
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump(workloads.config("uniform_large", 1, 0)))
    result_path = tmp_path / "result.json"
    code = child.main([str(SRC), str(config_path), str(tmp_path / "out"),
                       str(result_path), "setup", repr(time.monotonic())])
    assert code == 0
    assert json.loads(result_path.read_text())["setup_s"] > 0
    assert len(read_history(tmp_path / "out" / "history.csv")) == 0
    assert lsfem.cli.run_adaptive is lsfem.driver.run_adaptive


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile(list(range(20))) is None
    percentile, value = tail_percentile(list(range(1, 31)))
    assert value == 20
    assert math.isclose(percentile, 200 / 3)
