"""On-disk formats: YAML run configs, history CSV, mesh text files, VTK.

All float output uses ``%.17g`` so that written values round-trip exactly
through text.
"""

from __future__ import annotations

import csv
import os
from dataclasses import fields, is_dataclass

import numpy as np
import yaml

from .driver import AdaptiveConfig, HistoryRow
from .errors import ConfigurationError
from .mesh import Mesh
from .typecheck import spec_from_dict

HISTORY_HEADER = ("level,n_elements,n_dofs,eta_total,error_V,marked_count,"
                  "solver_iterations,wall_time_s")

_HISTORY_FIELDS = HISTORY_HEADER.split(",")


def _fmt(x):
    return "%.17g" % float(x)


def _format_rows(fmt, rows):
    """``fmt`` applied to each row of ``rows`` (each value of a 1-d array),
    in one ``%`` over plain Python numbers."""
    return (fmt * len(rows)) % tuple(np.ravel(rows).tolist())


def config_from_dict(data):
    """Build a typed run configuration from plain nested dicts.

    Keys, types, required keys and defaults come from the spec dataclasses'
    fields; the values (names, ranges, combinations) each spec checks itself
    when it is built.
    """
    return spec_from_dict(AdaptiveConfig, data, "")


def parse_config(path):
    """Read a YAML run configuration from disk."""
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    with fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigurationError(f"malformed YAML in {path}: {exc}") from exc
    if data is None:
        raise ConfigurationError(f"empty config file: {path}")
    return config_from_dict(data)


def config_to_dict(config):
    """Inverse of ``config_from_dict`` (round-trips through YAML): fields in
    declaration order, ``None`` fields left out, tuples written as lists."""
    if is_dataclass(config):
        return {f.name: config_to_dict(getattr(config, f.name))
                for f in fields(config) if getattr(config, f.name) is not None}
    if isinstance(config, (list, tuple)):
        return [config_to_dict(v) for v in config]
    return config


def serialize_config(config):
    return yaml.safe_dump(config_to_dict(config), sort_keys=False)


# -- history CSV ---------------------------------------------------------------

def _row_to_strings(row, strip_timing=False):
    error = "" if row.error_v is None else _fmt(row.error_v)
    if strip_timing or row.wall_time_s is None:
        wall = ""
    else:
        wall = _fmt(row.wall_time_s)
    return [str(row.level), str(row.n_elements), str(row.n_dofs),
            _fmt(row.eta_total), error, str(row.marked_count),
            str(row.solver_iterations), wall]


class HistoryWriter:
    """Streaming CSV writer that emits one line per adaptive level."""

    def __init__(self, path, strip_timing=False):
        self.path = path
        self.strip_timing = strip_timing
        self._fh = open(path, "w", encoding="utf-8", newline="")
        self._fh.write(HISTORY_HEADER + "\n")
        self._fh.flush()

    def append(self, row):
        self._fh.write(",".join(_row_to_strings(row, self.strip_timing)) + "\n")
        self._fh.flush()

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def write_history(path, rows, strip_timing=False):
    """Write a complete run history; accepts rows or a history object."""
    rows = getattr(rows, "rows", rows)
    with HistoryWriter(path, strip_timing=strip_timing) as writer:
        for row in rows:
            writer.append(row)


def read_history(path):
    """Parse a history CSV back into rows (blank fields become None)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigurationError(f"empty history file: {path}")
        if header != _HISTORY_FIELDS:
            raise ConfigurationError(
                f"unexpected history header in {path}: {','.join(header)}")
        rows = []
        for record in reader:
            if not record:
                continue
            if len(record) != len(_HISTORY_FIELDS):
                raise ConfigurationError(
                    f"bad history record in {path}: {record}")
            try:
                rows.append(HistoryRow(
                    level=int(record[0]),
                    n_elements=int(record[1]),
                    n_dofs=int(record[2]),
                    eta_total=float(record[3]),
                    error_v=None if record[4] == "" else float(record[4]),
                    marked_count=int(record[5]),
                    solver_iterations=int(record[6]),
                    wall_time_s=None if record[7] == "" else float(record[7]),
                ))
            except ValueError as exc:
                raise ConfigurationError(
                    f"bad history record in {path}: {record} ({exc})") from exc
    return rows


# -- mesh text format ------------------------------------------------------------

def write_mesh_text(path, mesh):
    """Vertex/element listing; the stored vertex order fixes refinement edges."""
    text = (f"{mesh.n_vertices} {mesh.n_elements}\n"
            + _format_rows("%.17g %.17g\n", mesh.vertices)
            + _format_rows("%d %d %d\n", mesh.elements))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_mesh_text(path):
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ConfigurationError(f"truncated mesh file: {path}")
    try:
        nv, nt = int(tokens[0]), int(tokens[1])
        expected = 2 + 2 * nv + 3 * nt
        if len(tokens) != expected:
            raise ValueError(f"expected {expected} tokens, found {len(tokens)}")
        coords = np.array(tokens[2:2 + 2 * nv], dtype=float).reshape(nv, 2)
        elems = np.array(tokens[2 + 2 * nv:], dtype=int).reshape(nt, 3)
    except ValueError as exc:
        raise ConfigurationError(f"malformed mesh file {path}: {exc}") from exc
    return Mesh(coords, elems)


# -- VTK export --------------------------------------------------------------------

def write_vtk(path, mesh, eta=None, title="adaptive solve"):
    """Legacy ASCII VTK unstructured grid with per-element indicators."""
    nt = mesh.n_elements
    parts = [f"# vtk DataFile Version 3.0\n{title}\nASCII\n"
             f"DATASET UNSTRUCTURED_GRID\nPOINTS {mesh.n_vertices} double\n",
             _format_rows("%.17g %.17g 0\n", mesh.vertices),
             f"CELLS {nt} {4 * nt}\n",
             _format_rows("3 %d %d %d\n", mesh.elements),
             f"CELL_TYPES {nt}\n", "5\n" * nt]
    if eta is not None:
        eta = np.asarray(eta, dtype=float)
        if eta.shape != (nt,):
            raise ValueError("eta must hold one value per element")
        parts += [f"CELL_DATA {nt}\nSCALARS eta double 1\nLOOKUP_TABLE default\n",
                  _format_rows("%.17g\n", eta)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(parts))


def ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path
