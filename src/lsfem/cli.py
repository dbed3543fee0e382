"""Command line front end.

Exit codes: 0 on success, 1 when a run or verification check fails,
2 for configuration errors (bad file, unknown key, invalid arguments).
"""

from __future__ import annotations

import argparse
import os
import sys

from .driver import run_adaptive
from .errors import (ConfigurationError, IdentityViolationError,
                     MeshValidityError, NumericalEstimateError, SolverError)
from .formats import (HistoryWriter, ensure_dir, parse_config,
                      serialize_config, write_mesh_text, write_vtk)
from .verify import SUITE_NAMES, fit_rate, run_all

_RUN_FAILURES = (SolverError, MeshValidityError, IdentityViolationError,
                 NumericalEstimateError)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="lsfem",
        description="adaptive least-squares solver for first-order "
                    "reformulations of second-order elliptic problems")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one adaptive computation")
    p_run.add_argument("--config", required=True, help="YAML run configuration")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--strip-timing", action="store_true",
                       help="blank the wall_time_s column for reproducible output")

    p_verify = sub.add_parser("verify", help="run numerical verification suites")
    p_verify.add_argument("--suite", default="all", choices=SUITE_NAMES)
    p_verify.add_argument("--out", required=True, help="output directory")

    p_rates = sub.add_parser("rates", help="run a config and fit convergence rates")
    p_rates.add_argument("--config", required=True, help="YAML run configuration")
    p_rates.add_argument("--tail", type=int, default=5,
                         help="number of trailing levels used for the fit")
    return parser


def _cmd_run(args):
    config = parse_config(args.config)
    out = ensure_dir(args.out)
    with HistoryWriter(os.path.join(out, "history.csv"),
                       strip_timing=args.strip_timing) as writer:
        def sink(row):
            writer.append(row)
            err = "" if row.error_v is None else f"  error={row.error_v:.6e}"
            print(f"level {row.level:3d}  elements {row.n_elements:7d}  "
                  f"dofs {row.n_dofs:7d}  eta {row.eta_total:.6e}{err}  "
                  f"marked {row.marked_count}")

        history = run_adaptive(config, level_sink=sink)

    final = history.final
    write_mesh_text(os.path.join(out, "final_mesh.txt"), final.mesh)
    write_vtk(os.path.join(out, "final.vtk"), final.mesh,
              final.report.per_element)
    with open(os.path.join(out, "config.yaml"), "w", encoding="utf-8") as fh:
        fh.write(serialize_config(config))
    last = history.rows[-1]
    print(f"finished after {history.n_levels} levels: "
          f"{last.n_dofs} dofs, eta {last.eta_total:.6e}")
    return 0


def _cmd_verify(args):
    report = run_all(args.suite)
    text = report.render()
    print(text)
    out = ensure_dir(args.out)
    with open(os.path.join(out, "verification.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(text + "\n")
    return 0 if report.ok else 1


def _cmd_rates(args):
    config = parse_config(args.config)
    if args.tail < 3:
        raise ConfigurationError("--tail must be at least 3")
    history = run_adaptive(config)
    fit = fit_rate(history, "eta_total", args.tail)
    print(f"eta_total rate: {fit.slope:+.4f} "
          f"(r^2 {fit.r_squared:.4f}, {fit.levels_used} levels)")
    if any(row.error_v is not None for row in history.rows):
        fit_err = fit_rate(history, "error_v", args.tail)
        print(f"error_V rate: {fit_err.slope:+.4f} "
              f"(r^2 {fit_err.r_squared:.4f}, {fit_err.levels_used} levels)")
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_rates(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except _RUN_FAILURES as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
