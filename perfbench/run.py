"""Benchmark of the lsfem adaptive loop; README.md in this directory has
the metrics, the workloads and the model.

    python3 perfbench/run.py --workload adaptive_exact --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --results perfbench/results/BENCH_e2e.json

One client in a closed loop: each run is a fresh child process doing
``lsfem run`` on a generated config, and the next starts only after the
previous has ended and its outputs were checked.  Runs continue until the
next would overrun ``--seconds``.  With ``--trace 0`` the runs are untraced
and give the end-to-end metrics; when they are fewer than
``MIN_SETUP_SAMPLES``, probes that stop at the first call into the loop add
``setup_s`` samples.  With ``--trace 1`` each config runs twice, untraced
and then traced, and the traced runs give the per-layer metrics.
The last line of stdout is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 100
MIN_SETUP_SAMPLES = 5

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "dofs_per_s": "dofs/s",
    "eta_final": "norm",
}
# Printed and recorded, but not in BENCHMARK.json: only nested_pcg has it.
EXTRA = {"error_final": "norm"}

PER_LAYER = {
    "mesh.refine_s": "s",
    "mesh.refine_calls": "count",
    "mesh.bisections": "count",
    "spaces.dofmap_s": "s",
    "spaces.prolongate_s": "s",
    "spaces.prolongated_dofs": "count",
    "assembly.assemble_self_s": "s",
    "assembly.factor_s": "s",
    "assembly.factors_built": "count",
    "assembly.factor_use_ratio": "ratio",
    "assembly.matrix_nnz": "count",
    "solver.exact_s": "s",
    "solver.pcg_self_s": "s",
    "solver.pcg_iterations": "count",
    "solver.pcg_max_iter_stops": "count",
    "estimator.indicators_s": "s",
    "estimator.indicators_calls": "count",
    "estimator.indicators_in_pcg_s": "s",
    "estimator.error_norms_s": "s",
    "marking.mark_s": "s",
    "marking.marked_share": "ratio",
    "driver.self_s": "s",
    "formats.write_s": "s",
    "formats.bytes_written": "bytes",
    "trace.overhead_s": "s",
}


def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it, above the median.

    Returns (percentile, value) or None when there are too few samples.
    """
    ordered = sorted(values)
    k = len(ordered) - 10          # the k-th smallest has ten samples above it
    if k <= len(ordered) / 2:
        return None
    return 100.0 * k / len(ordered), ordered[k - 1]


def summarize(values, unit):
    tail = tail_percentile(values)
    return {"median": statistics.median(values), "unit": unit,
            "n": len(values),
            "tail": None if tail is None else
            {"percentile": tail[0], "value": tail[1]},
            "samples": values}


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "blas_env": {var: os.environ.get(var) for var in BLAS_VARS},
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def write_config(path, data):
    import yaml

    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh, sort_keys=False)


def run_child(run_dir, config_path, mode):
    """Start one child, wait for it; returns its result dict or a problem."""
    out = run_dir / "out"
    result_path = run_dir / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(config_path),
           str(out), str(result_path), mode]
    with open(run_dir / "log.txt", "w", encoding="utf-8") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd + [repr(t_spawn)], stdout=log,
                                stderr=subprocess.STDOUT, cwd=ROOT)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return None, f"timed out after {CHILD_TIMEOUT_S} s"
    if code != 0 or not result_path.is_file():
        tail = (run_dir / "log.txt").read_text(encoding="utf-8")[-2000:]
        return None, f"exit code {code}: {tail}"
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh), None


class WorkloadRun:
    """Closed-loop runs of one workload under one seed."""

    def __init__(self, name, seed, seconds, trace, workdir):
        self.name = name
        self.spec = workloads.WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.reference = (checks.load_reference(name)
                          if self.spec.exact and seed == workloads.DEFAULT_SEED
                          else None)
        self.attempted = 0
        self.failures = []
        self.validated = False
        self.configs = []
        self.untraced = {}          # config index -> end-to-end sample
        self.traced = {}            # config index -> (run_s, layer metrics, table)
        self.setup_probes = []      # setup_s of probes that stop at the loop

    def one(self, index, config_path, mode):
        """One run plus its output checks; returns the sample or None."""
        self.attempted += 1
        run_dir = self.workdir / f"{self.name}-{index}-{mode}"
        run_dir.mkdir()
        result, problem = run_child(run_dir, config_path, mode)
        if problem:
            problems = [problem]
        elif mode == "setup":
            problems = []
        else:
            try:
                problems = self.check(run_dir, index, config_path, result)
            except Exception:       # a check that raises fails the run
                problems = [traceback.format_exc()]
        shutil.rmtree(run_dir)
        if problems:
            self.failures.append({"index": index, "mode": mode,
                                  "problems": problems})
            print(f"FAILED {self.name} run {index}: {problems}", file=sys.stderr)
            return None
        return result

    def check(self, run_dir, index, config_path, result):
        out = run_dir / "out"
        rows, problems = checks.check_history(out / "history.csv",
                                              self.spec.max_ndof)
        last = rows[-1] if rows else None
        mesh, more = checks.check_mesh(out / "final_mesh.txt", last,
                                       full=not self.validated)
        problems += more
        if mesh is None or more:
            return problems
        self.validated = True
        vtk = out / "final.vtk"
        if not vtk.is_file() or vtk.stat().st_size == 0:
            problems.append("final.vtk missing or empty")
        if self.reference is not None and index < len(self.reference["runs"]):
            problems += checks.check_reference(rows,
                                               self.reference["runs"][index])
        if not self.spec.exact and not problems:
            problems += checks.check_pcg_accuracy(
                last.eta_total, checks.exact_eta(mesh, config_path))
        if problems:
            return problems
        result["history_dofs"] = sum(row.n_dofs for row in rows)
        result["eta_final"] = last.eta_total
        result["error_final"] = last.error_v
        return []

    def loop(self):
        start = time.monotonic()
        costs = []
        index = 0
        while True:
            t_config = time.monotonic()
            config = workloads.config(self.name, self.seed, index)
            self.configs.append(config)
            config_path = self.workdir / f"{self.name}-{index}.yaml"
            write_config(config_path, config)
            plain = self.one(index, config_path, "run")
            if plain is not None:
                self.untraced[index] = {
                    "run_s": plain["run_s"],
                    "setup_s": plain["setup_s"],
                    "peak_rss_mb": plain["peak_rss_mb"],
                    "dofs_per_s": plain["history_dofs"] / plain["run_s"],
                    "eta_final": plain["eta_final"],
                    "error_final": plain["error_final"],
                }
            if self.trace:
                traced = self.one(index, config_path, "trace")
                if traced is not None:
                    spans = tracing.spans_from_json(traced["spans"])
                    self.traced[index] = (traced["run_s"],
                                          tracing.layer_metrics(spans),
                                          tracing.level_table(spans))
            costs.append(time.monotonic() - t_config)
            index += 1
            elapsed = time.monotonic() - start
            if elapsed + statistics.median(costs) > self.seconds:
                break
        # long runs are few: probe set-up on their configs, in turn
        while (not self.trace and len(self.untraced) + len(self.setup_probes)
               < MIN_SETUP_SAMPLES):
            index = len(self.setup_probes) % len(self.configs)
            probe = self.one(index, self.workdir / f"{self.name}-{index}.yaml",
                             "setup")
            if probe is None:
                break
            self.setup_probes.append(probe["setup_s"])

    def end_to_end(self):
        samples = list(self.untraced.values())
        units = dict(END_TO_END, **EXTRA)
        summary = {}
        for metric, unit in units.items():
            values = [s[metric] for s in samples if s[metric] is not None]
            if metric == "setup_s":
                values += self.setup_probes
            if values:
                summary[metric] = summarize(values, unit)
        return summary

    def per_layer(self):
        if not self.traced:
            return {}
        summary = {}
        for metric, unit in PER_LAYER.items():
            if metric == "trace.overhead_s":
                values = [run_s - self.untraced[i]["run_s"]
                          for i, (run_s, _, _) in self.traced.items()
                          if i in self.untraced]
            else:
                values = [layers[metric]
                          for _, layers, _ in self.traced.values()]
            if values:
                summary[metric] = summarize(values, unit)
        return summary

    def report(self):
        first_traced = min(self.traced) if self.traced else None
        return {
            "why": self.spec.why,
            "seed": self.seed,
            "runs": self.attempted,
            "failed_runs": len(self.failures),
            "failures": self.failures,
            "configs": self.configs,
            "end_to_end": self.end_to_end(),
            "per_layer": self.per_layer(),
            "levels": (None if first_traced is None
                       else self.traced[first_traced][2]),
        }


def print_block(name, report, trace):
    print(f"workload {name}  seed {report['seed']}  runs {report['runs']}  "
          f"failed_runs {report['failed_runs']}")
    sections = [report["end_to_end"]] + ([report["per_layer"]] if trace else [])
    for section in sections:
        for metric, s in section.items():
            tail = ("no percentile has ten samples beyond it"
                    if s["tail"] is None else
                    f"p{s['tail']['percentile']:.0f} {s['tail']['value']:.6g}")
            print(f"  {metric:30s} {s['median']:14.6g} {s['unit']:7s} "
                  f"median of n={s['n']}; {tail}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["all"] + list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", help="also write a results JSON here")
    args = parser.parse_args(argv)
    if not (SRC / "lsfem" / "__init__.py").is_file():
        print(f"no lsfem source at {SRC}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:          # before numpy loads, here and in children
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    global checks
    import checks

    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        reports = {}
        for name in names:
            run = WorkloadRun(name, args.seed, args.seconds, args.trace,
                              workdir)
            run.loop()
            reports[name] = run.report()
            print_block(name, reports[name], args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.results:
        Path(args.results).parent.mkdir(parents=True, exist_ok=True)
        with open(args.results, "w", encoding="utf-8") as fh:
            json.dump({"environment": environment(), "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "workloads": reports}, fh, indent=1)
            fh.write("\n")

    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, report in reports.items():
        section = report["per_layer"] if args.trace else report["end_to_end"]
        for metric, unit in wanted.items():
            if metric in section:
                key = metric if len(reports) == 1 else f"{name}.{metric}"
                metrics[key] = {"value": section[metric]["median"], "unit": unit}
    attempted = sum(r["runs"] for r in reports.values())
    failed = sum(r["failed_runs"] for r in reports.values())
    complete = len(metrics) == len(wanted) * len(reports)
    print(json.dumps({"correct": failed == 0 and complete,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
