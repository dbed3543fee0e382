import glob
import io
import itertools
import os
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
import yaml

from lsfem import (ConfigurationError, Mesh, MeshValidityError,
                   builtin_domain, refine_nvb, refine_uniform)
from lsfem.cli import main
from lsfem.driver import HistoryRow, run_adaptive
from lsfem.formats import (HISTORY_HEADER, HistoryWriter, config_from_dict,
                           config_to_dict, parse_config, read_history,
                           read_mesh_text, serialize_config, write_history,
                           write_mesh_text, write_vtk)
from lsfem.verify import helmholtz_config, lshape_config, smooth_poisson_config

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = sorted(glob.glob(os.path.join(REPO, "configs", "*.yaml")))

MINIMAL = {"domain": "unit_square",
           "problem": {"kind": "poisson", "f": 1.0}}


def _rows():
    return [
        HistoryRow(level=0, n_elements=2, n_dofs=5, eta_total=0.987654321,
                   error_v=None, marked_count=1, solver_iterations=0,
                   wall_time_s=0.25),
        HistoryRow(level=1, n_elements=4, n_dofs=9,
                   eta_total=1.0 / 3.0, error_v=np.pi * 1e-3,
                   marked_count=0, solver_iterations=7,
                   wall_time_s=0.125),
    ]


def test_shipped_configs_parse_and_roundtrip(tmp_path):
    assert len(CONFIGS) >= 4
    for path in CONFIGS:
        config = parse_config(path)
        again = config_from_dict(config_to_dict(config))
        assert again == config
        # serialized text parses back to the same configuration
        out = tmp_path / os.path.basename(path)
        out.write_text(serialize_config(config), encoding="utf-8")
        assert parse_config(out) == config


# the preset of ``lsfem.verify`` that each shipped config stands for
PRESETS = {
    "smooth_poisson": smooth_poisson_config(),
    "smooth_poisson_pcg": smooth_poisson_config(solver_kind="pcg", n_steps=1),
    "lshape_adaptive": lshape_config(),
    "lshape_uniform": lshape_config(strategy="uniform"),
    "helmholtz": helmholtz_config(),
}


def test_shipped_configs_match_the_verify_presets():
    """The golden histories run the YAML files and the acceptance criteria
    run the presets, so the two must not drift apart."""
    names = {os.path.splitext(os.path.basename(p))[0]: p for p in CONFIGS}
    assert sorted(names) == sorted(PRESETS)
    for name, path in names.items():
        assert parse_config(path) == PRESETS[name], name


def test_minimal_config_defaults():
    config = config_from_dict(MINIMAL)
    nulls = {name: None for name in ("marking", "solver", "quadrature", "stop")}
    assert config_from_dict({**MINIMAL, **nulls}) == config
    assert config.marking.strategy == "doerfler"
    assert config.marking.theta == 0.5
    assert config.solver.kind == "exact"
    assert config.quadrature.assembly_order == 4
    assert config.quadrature.resolved_estimator_order() == 6
    assert config.stop.max_ndof == 50_000


@pytest.mark.parametrize("bad", [
    {"mesh": "unit_square", **MINIMAL},
    {"domain": "unit_square"},
    {"problem": {"kind": "poisson", "f": 1.0}},
    {**MINIMAL, "problem": {"kind": "poisson", "f": 1.0, "load": 2}},
    {**MINIMAL, "marking": {"strategy": "doerfler", "frac": 0.5}},
    {**MINIMAL, "solver": {"kind": "exact", "tol": 1e-6}},
    {**MINIMAL, "quadrature": {"order": 4}},
    {**MINIMAL, "stop": {"ndof": 100}},
    {**MINIMAL, "theta_schedule": []},
    {**MINIMAL, "theta_schedule": 0.5},
    {**MINIMAL, "problem": {"kind": "poisson", "f": True}},
    {**MINIMAL, "problem": {"kind": 7, "f": 1.0}},
    {**MINIMAL, "marking": {"theta": "half"}},
    {**MINIMAL, "solver": {"kind": "pcg", "n_steps": 1.5}},
    {**MINIMAL, "solver": "exact"},
    {**MINIMAL, "stop": {"max_ndof": 99.5}},
    "unit_square",
    {**MINIMAL, "problem": {"kind": "general", "f": 1.0,
                            "a": [["x", 0], [0, 1]]}},
    {**MINIMAL, "problem": {"kind": "general", "f": 1.0,
                            "a": [[1, 0], [0, True]]}},
    {**MINIMAL, "problem": {"kind": "general", "f": 1.0, "b": [0.1, None]}},
    {**MINIMAL, "problem": {"kind": "general", "f": 1.0,
                            "a": [[1, 0], [0, 1], [1, 1]]}},
])
def test_bad_config_dicts_rejected(bad):
    with pytest.raises(ConfigurationError):
        config_from_dict(bad)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("override", [
    {"stop": {"eta_tol": NAN}},
    {"stop": {"eta_tol": INF}},
    {"stop": {"eta_tol": 10 ** 400}},
    {"problem": {"kind": "poisson", "f": INF}},
    {"problem": {"kind": "general", "f": 1.0, "c": NAN}},
    {"problem": {"kind": "general", "f": 1.0, "c": -INF}},
    {"solver": {"kind": "pcg", "lam": NAN}},
    {"marking": {"theta": NAN}},
    {"problem": {"kind": "general", "f": 1.0, "a": [[1, 0], [0, INF]]}},
    {"problem": {"kind": "general", "f": 1.0, "b": [NAN, 0]}},
])
def test_non_finite_numbers_rejected(override):
    with pytest.raises(ConfigurationError, match="must be finite"):
        config_from_dict({**MINIMAL, **override})


# keys of earlier versions: a per-level theta list, c given as -omega^2, an
# estimator rule apart from assembly_order + 2 and a step cap of the
# increment rule
REMOVED_KEYS = [{**MINIMAL, "theta_schedule": [0.3, 0.6]},
                {**MINIMAL, "problem": {"kind": "general", "manufactured": "sine",
                                        "omega": 3.0}},
                {**MINIMAL, "quadrature": {"assembly_order": 4,
                                           "estimator_order": 6}},
                {**MINIMAL, "solver": {"kind": "pcg", "lam": 0.1,
                                       "max_steps": 500}}]


@pytest.mark.parametrize("data", REMOVED_KEYS,
                         ids=["theta_schedule", "problem.omega",
                              "quadrature.estimator_order", "solver.max_steps"])
def test_removed_keys_are_unknown(tmp_path, capsys, data):
    with pytest.raises(ConfigurationError, match="unknown key"):
        config_from_dict(data)
    path = tmp_path / "old.yaml"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert "unknown key" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("domain: unit_square\nproblem: {kind: poisson, f: 1.0}\n"
     "stop: {max_ndof: 100}\nstop: {max_ndof: 200}\n",
     "duplicate key 'stop' in config"),
    ("domain: unit_square\nproblem:\n  kind: poisson\n  f: 1.0\n  f: 2.0\n",
     "duplicate key 'f' in problem")], ids=["top_level", "nested"])
def test_duplicate_keys_rejected(tmp_path, capsys, text, message):
    """A repeated key is an error, not a silent choice of its last value."""
    path = tmp_path / "dup.yaml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigurationError, match=message):
        parse_config(path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# two valid configs that between them set every field of every spec off its
# default, keys in declaration order; two are needed because each spec
# checks its values when it is built, and the pairs f/manufactured and
# n_steps/lam exclude each other.  solver.eta_ref accepts its default only,
# so it is set to that value and exempt from the off-default check
ONE_VALUED = {"solver.eta_ref"}
FULL = [
    {
        "domain": "unit_square",
        "problem": {"kind": "general", "manufactured": "sine",
                    "a": [[2.0, 0.5], [0.5, 1.0]], "b": [0.25, -0.5],
                    "c": -9.0},
        "marking": {"strategy": "maximum", "theta": 0.7},
        "solver": {"kind": "pcg", "precond": "none", "eta_ref": "current",
                   "nested": False, "lam": 0.1},
        "quadrature": {"assembly_order": 3},
        "stop": {"max_ndof": 1234, "max_levels": 7, "eta_tol": 0.001},
    },
    {
        "domain": "l_shape",
        "problem": {"kind": "general", "f": 2.5,
                    "a": [[1.5, -0.25], [-0.25, 1.0]], "b": [-0.1, 0.2],
                    "c": 1.5},
        "marking": {"strategy": "equilibration", "theta": 0.4},
        "solver": {"kind": "pcg", "precond": "none", "eta_ref": "current",
                   "nested": False, "n_steps": 3},
        "quadrature": {"assembly_order": 2},
        "stop": {"max_ndof": 4321, "max_levels": 9, "eta_tol": 0.25},
    },
]


def _leaves(spec, where=""):
    """(``section.key``, default, value) of every leaf field of a config."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        if is_dataclass(value):
            yield from _leaves(value, f"{where}{f.name}.")
        else:
            yield where + f.name, f.default, value


def test_fully_populated_config_roundtrips(tmp_path):
    configs = [config_from_dict(data) for data in FULL]
    at_default = [{key for key, default, value in _leaves(config)
                   if value == default} for config in configs]
    assert set.intersection(*at_default) == ONE_VALUED
    for i, (data, config) in enumerate(zip(FULL, configs)):
        text = serialize_config(config)
        assert text == yaml.safe_dump(data, sort_keys=False)
        path = tmp_path / f"full{i}.yaml"
        path.write_text(text, encoding="utf-8")
        assert parse_config(path) == config


def test_readme_config_table_lists_every_key():
    """The README's config table names every key of every spec once, so a
    key added or retired cannot leave the table stale."""
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = lines.index("| section | key | default |") + 2
    listed, prefix = [], None
    for line in itertools.takewhile(lambda line: line.startswith("|"),
                                    lines[start:]):
        section, key = (cell.strip() for cell in line.split("|")[1:3])
        if section == "top level":
            prefix = ""
        elif section:
            prefix = section.split("`")[1] + "."
        listed.append(prefix + key.strip("`"))
    keys = [key for key, _, _ in _leaves(config_from_dict(MINIMAL))]
    assert sorted(listed) == sorted(keys)


def test_history_roundtrip(tmp_path):
    path = tmp_path / "history.csv"
    rows = _rows()
    write_history(path, rows)
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == HISTORY_HEADER
    back = read_history(path)
    assert len(back) == 2
    for orig, rt in zip(rows, back):
        assert rt.level == orig.level
        assert rt.n_dofs == orig.n_dofs
        assert rt.eta_total == orig.eta_total        # %.17g is lossless
        assert rt.error_v == orig.error_v
        assert rt.wall_time_s == orig.wall_time_s


def test_history_strip_timing(tmp_path):
    path = tmp_path / "history.csv"
    write_history(path, _rows(), strip_timing=True)
    assert path.read_text(encoding="utf-8").splitlines()[1].endswith(",")
    back = read_history(path)
    assert all(row.wall_time_s is None for row in back)
    assert back[0].eta_total == _rows()[0].eta_total


def test_streaming_writer_matches_batch(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    rows = _rows()
    with HistoryWriter(a) as writer:
        for row in rows:
            writer.append(row)
    write_history(b, rows)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("content", [
    "",
    "level,n_dofs\n0,5\n",
    HISTORY_HEADER + "\n0,2,5,0.5,,1,0\n",            # short record
    HISTORY_HEADER + "\n0,2,5,abc,,1,0,0.1\n",        # bad float
    HISTORY_HEADER.replace("eta_total", "eta") + "\n",
])
def test_bad_history_files_rejected(tmp_path, content):
    path = tmp_path / "history.csv"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ConfigurationError):
        read_history(path)


def test_mesh_text_roundtrip(tmp_path):
    mesh = refine_nvb(builtin_domain("l_shape"), [0, 3])
    path = tmp_path / "mesh.txt"
    write_mesh_text(path, mesh)
    back = read_mesh_text(path)
    np.testing.assert_array_equal(back.vertices, mesh.vertices)
    np.testing.assert_array_equal(back.elements, mesh.elements)
    # writing the reread mesh reproduces the bytes
    again = tmp_path / "again.txt"
    write_mesh_text(again, back)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("content", [
    "", "2\n", "1 1\n0 0\n0 0 0\n",
    "4 1\n0 0\n1 0\n1 1\n0 1\n0 1 2 3\n",
    "3 1\n0 0\n1 0\n0 1\n0 2 1\n",                    # clockwise element
    "3 1\n0 0\n1 0\nnan 1\n0 1 2\n",                  # non-finite vertex
    "3 1\n0 0\n1 0\n0 inf\n0 1 2\n",
])
def test_bad_mesh_files_rejected(tmp_path, content):
    path = tmp_path / "mesh.txt"
    path.write_text(content, encoding="utf-8")
    with pytest.raises((ConfigurationError, MeshValidityError)):
        read_mesh_text(path)


def test_vtk_structure(tmp_path):
    mesh = builtin_domain("unit_square")
    path = tmp_path / "mesh.vtk"
    write_vtk(path, mesh, eta=np.array([0.5, 0.25]))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert f"POINTS {mesh.n_vertices} double" in lines
    assert f"CELLS {mesh.n_elements} {4 * mesh.n_elements}" in lines
    assert "CELL_TYPES 2" in lines
    assert "SCALARS eta double 1" in lines
    assert "LOOKUP_TABLE default" in lines
    idx = lines.index("CELL_TYPES 2")
    assert lines[idx + 1] == "5" and lines[idx + 2] == "5"
    with pytest.raises(ValueError):
        write_vtk(tmp_path / "bad.vtk", mesh, eta=np.ones(3))
    # indicators are optional
    write_vtk(tmp_path / "plain.vtk", mesh)
    assert "SCALARS" not in (tmp_path / "plain.vtk").read_text("utf-8")


def _fmt_reference(x):
    return "%.17g" % float(x)


def _write_mesh_text_reference(path, mesh):
    """The per-value mesh writer that ``write_mesh_text`` replaced."""
    buf = io.StringIO()
    buf.write(f"{mesh.n_vertices} {mesh.n_elements}\n")
    for x, y in mesh.vertices:
        buf.write(f"{_fmt_reference(x)} {_fmt_reference(y)}\n")
    for tri in mesh.elements:
        buf.write(f"{tri[0]} {tri[1]} {tri[2]}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())


def _write_vtk_reference(path, mesh, eta=None, title="adaptive solve"):
    """The per-value VTK writer that ``write_vtk`` replaced."""
    lines = ["# vtk DataFile Version 3.0", title, "ASCII",
             "DATASET UNSTRUCTURED_GRID",
             f"POINTS {mesh.n_vertices} double"]
    for x, y in mesh.vertices:
        lines.append(f"{_fmt_reference(x)} {_fmt_reference(y)} 0")
    nt = mesh.n_elements
    lines.append(f"CELLS {nt} {4 * nt}")
    for tri in mesh.elements:
        lines.append(f"3 {tri[0]} {tri[1]} {tri[2]}")
    lines.append(f"CELL_TYPES {nt}")
    lines.extend(["5"] * nt)
    if eta is not None:
        lines.append(f"CELL_DATA {nt}")
        lines.append("SCALARS eta double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(_fmt_reference(v) for v in np.asarray(eta, dtype=float))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# values whose %.17g text is easy to get wrong: a negative zero, the
# smallest subnormal, a tiny normal, a non-terminating fraction and an
# integer above 2**53
_AWKWARD = [-0.0, 5e-324, 1e-300, 1 / 3, 2.0 ** 53 + 2]


def _awkward_mesh():
    return Mesh(np.array([[-0.0, 1 / 3], [2.0 ** 53 + 2, 1e-300],
                          [5e-324, 2.0 ** 53 + 2]]), np.array([[0, 1, 2]]))


def test_writers_match_per_value_reference(tmp_path):
    graded = refine_nvb(refine_uniform(builtin_domain("l_shape"), rounds=3),
                        [0, 5, 17])
    eta = np.random.default_rng(3).random(graded.n_elements)
    eta[:len(_AWKWARD)] = _AWKWARD
    new, ref = tmp_path / "new", tmp_path / "ref"
    for mesh, values in ((_awkward_mesh(), np.array([-0.0])), (graded, eta)):
        write_mesh_text(new, mesh)
        _write_mesh_text_reference(ref, mesh)
        assert new.read_bytes() == ref.read_bytes()
        for cell_data in (values, None):
            write_vtk(new, mesh, eta=cell_data)
            _write_vtk_reference(ref, mesh, eta=cell_data)
            assert new.read_bytes() == ref.read_bytes()


def test_mesh_text_of_awkward_values(tmp_path):
    path = tmp_path / "awkward.txt"
    write_mesh_text(path, _awkward_mesh())
    assert path.read_text(encoding="utf-8") == (
        "3 1\n-0 0.33333333333333331\n9007199254740994 1e-300\n"
        "4.9406564584124654e-324 9007199254740994\n0 1 2\n")


def _write_tiny_config(path, **overrides):
    data = {"domain": "unit_square",
            "problem": {"kind": "poisson", "manufactured": "poly_bubble"},
            "marking": {"strategy": "doerfler", "theta": 0.5},
            "stop": {"max_ndof": 120}}
    data.update(overrides)
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh)
    return path


def test_cli_run_produces_outputs(tmp_path, capsys):
    config = _write_tiny_config(tmp_path / "run.yaml")
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    for name in ("history.csv", "final_mesh.txt", "final.vtk", "config.yaml"):
        assert (out / name).exists()
    rows = read_history(out / "history.csv")
    assert rows[-1].n_dofs >= 120
    mesh = read_mesh_text(out / "final_mesh.txt")
    assert mesh.n_elements == rows[-1].n_elements
    assert parse_config(out / "config.yaml").stop.max_ndof == 120
    stdout = capsys.readouterr().out
    assert "finished after" in stdout
    assert f"level {len(rows) - 1:3d}" in stdout


def test_cli_run_deterministic_with_strip_timing(tmp_path):
    config = _write_tiny_config(tmp_path / "run.yaml")
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert main(["run", "--config", str(config), "--out", str(out),
                     "--strip-timing"]) == 0
        outs.append((out / "history.csv").read_bytes())
    assert outs[0] == outs[1]


def test_cli_final_files_match_kept_last_record(tmp_path):
    config = _write_tiny_config(tmp_path / "run.yaml", domain="l_shape",
                                problem={"kind": "poisson", "f": 1.0},
                                stop={"max_ndof": 600})
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out),
                 "--strip-timing"]) == 0
    records = []
    run_adaptive(parse_config(config), level_sink=records.append)
    last = records[-1]
    write_mesh_text(tmp_path / "mesh.txt", last.mesh)
    write_vtk(tmp_path / "final.vtk", last.mesh, last.report.per_element)
    assert ((out / "final_mesh.txt").read_bytes()
            == (tmp_path / "mesh.txt").read_bytes())
    assert ((out / "final.vtk").read_bytes()
            == (tmp_path / "final.vtk").read_bytes())


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    assert main(["run", "--config", str(tmp_path / "missing.yaml"),
                 "--out", str(tmp_path / "o")]) == 2
    bad = tmp_path / "bad.yaml"
    bad.write_text("domain: [unclosed", encoding="utf-8")
    assert main(["run", "--config", str(bad),
                 "--out", str(tmp_path / "o")]) == 2
    unknown = _write_tiny_config(tmp_path / "unknown.yaml",
                                 solver={"kind": "multigrid"})
    assert main(["run", "--config", str(unknown),
                 "--out", str(tmp_path / "o")]) == 2
    text_entry = _write_tiny_config(
        tmp_path / "text_entry.yaml",
        problem={"kind": "general", "f": 1.0, "a": [["x", 0], [0, 1]]})
    assert main(["run", "--config", str(text_entry),
                 "--out", str(tmp_path / "o")]) == 2
    nan_tol = _write_tiny_config(tmp_path / "nan_tol.yaml",
                                 stop={"max_ndof": 120,
                                       "eta_tol": NAN})
    assert ".nan" in nan_tol.read_text(encoding="utf-8")
    assert main(["run", "--config", str(nan_tol),
                 "--out", str(tmp_path / "o")]) == 2
    # a value error is found while the config is read, before --out exists
    for name, override in [
            ("no_steps", {"solver": {"kind": "pcg", "n_steps": 0}}),
            # the estimator rule, two orders up, would not exist
            ("order_9", {"quadrature": {"assembly_order": 9}}),
            ("exact_lam", {"solver": {"kind": "exact", "lam": -3}}),
            # PCG-only keys with an exact solve
            ("exact_steps", {"solver": {"kind": "exact", "n_steps": 3}}),
            ("exact_lam_rule", {"solver": {"kind": "exact", "lam": 0.02}}),
            ("disk", {"domain": "disk"}),
            # the lambda rule's forms that no longer exist
            ("order_1", {"quadrature": {"assembly_order": 1}}),
            ("eta_ref_initial", {"solver": {"kind": "pcg", "lam": 0.1,
                                            "eta_ref": "initial"}})]:
        config = _write_tiny_config(tmp_path / f"{name}.yaml", **override)
        out = tmp_path / f"{name}_out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        assert not out.exists()
    # an output directory that cannot be made: a file is in its place or
    # on its path, or the file system refuses it
    tiny = _write_tiny_config(tmp_path / "tiny.yaml")
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    for out in (taken, taken / "sub"):
        assert main(["run", "--config", str(tiny), "--out", str(out)]) == 2
        assert main(["verify", "--suite", "marking", "--out", str(out)]) == 2

    def refuse(path, exist_ok=False):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(os, "makedirs", refuse)
    assert main(["run", "--config", str(tiny),
                 "--out", str(tmp_path / "refused")]) == 2
    assert "configuration error: cannot create output directory" in (
        capsys.readouterr().err)


def test_cli_rates(tmp_path, capsys):
    config = _write_tiny_config(tmp_path / "run.yaml")
    assert main(["rates", "--config", str(config)]) == 0
    stdout = capsys.readouterr().out
    assert "eta_total rate:" in stdout
    assert "error_V rate:" in stdout
    assert main(["rates", "--config", str(config), "--tail", "2"]) == 2
    short = _write_tiny_config(tmp_path / "short.yaml",
                               stop={"max_levels": 1})
    assert main(["rates", "--config", str(short)]) == 1
    capsys.readouterr()


def test_cli_verify_suite(tmp_path, capsys):
    out = tmp_path / "verify"
    assert main(["verify", "--suite", "marking", "--out", str(out)]) == 0
    text = (out / "verification.txt").read_text(encoding="utf-8")
    assert "[PASS]" in text
    assert "[FAIL]" not in text
    capsys.readouterr()
