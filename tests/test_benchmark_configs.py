"""Every config the benchmark writes must parse.

The benchmark's generator, ``perfbench/workloads.py``, is loaded by path,
so a key or value retired from the config schema fails here rather than in
every benchmark run.  Only ``nested_pcg`` writes the PCG keys, and no other
test parses one of its configs, so one of them also runs end to end.
"""

import importlib.util
import os
import sys

import pytest

from lsfem.driver import run_adaptive
from lsfem.formats import config_from_dict

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_workloads():
    path = os.path.join(REPO, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("index", range(12))
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_benchmark_config_parses(workload, index):
    data = workloads.config(workload, workloads.DEFAULT_SEED, index)
    config = config_from_dict(data)
    assert config.stop.max_ndof == workloads.WORKLOADS[workload].max_ndof


def test_nested_pcg_config_runs():
    data = workloads.config("nested_pcg", workloads.DEFAULT_SEED, 0)
    data["stop"] = {**data["stop"], "max_ndof": 300}
    history = run_adaptive(config_from_dict(data))
    rows = history.rows
    assert rows[-1].n_dofs >= 300
    assert all(row.solver_iterations >= 1 for row in rows)
    assert history.final.increment_final is not None
