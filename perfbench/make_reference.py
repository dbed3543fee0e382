"""Write the stored per-level references of the exact workloads.

    python3 perfbench/make_reference.py

Runs the first configs of the default seed of each exact workload through
the same YAML parsing as ``lsfem run`` and stores, per run and level,
n_elements, n_dofs, marked_count and eta_total in
``perfbench/reference/<workload>.json``.  ``run.py`` compares every run of
the default seed that has a stored reference.  Regenerate only for a change
that is meant to alter these numbers; a change that merely renumbers mesh
entities must reproduce them.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

import workloads
from run import BLAS_VARS, BLAS_THREADS, SRC, write_config

RUNS = {"adaptive_exact": 40, "uniform_large": 4}


def main():
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    from lsfem import parse_config, run_adaptive

    from checks import REFERENCE_DIR, reference_rows

    REFERENCE_DIR.mkdir(exist_ok=True)
    seed = workloads.DEFAULT_SEED
    for name, count in RUNS.items():
        runs = []
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.yaml"
            for index in range(count):
                write_config(path, workloads.config(name, seed, index))
                history = run_adaptive(parse_config(path))
                runs.append(reference_rows(history.rows))
                print(f"{name} {index}: {history.n_levels} levels, "
                      f"{history.rows[-1].n_dofs} dofs", flush=True)
        with open(REFERENCE_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "seed": seed, "runs": runs}, fh)
            fh.write("\n")


if __name__ == "__main__":
    main()
