import ast
import pathlib
import types

import numpy as np
import pytest

import lsfem


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(lsfem.__all__)) == len(lsfem.__all__)
    for name in lsfem.__all__:
        assert hasattr(lsfem, name), name
        assert not isinstance(getattr(lsfem, name), types.ModuleType), name


def _unused_imports(source):
    """Names bound by import statements that the module never mentions."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a dotted use such as ``scipy.sparse`` starts with a Name too
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    package = pathlib.Path(lsfem.__file__).parent
    # __init__ imports names only to re-export them
    modules = sorted(p for p in package.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: _unused_imports(p.read_text(encoding="utf-8"))
              for p in modules}
    assert {name: found for name, found in unused.items() if found} == {}


def _private_definitions(tree):
    """Module-level private functions, classes and constants: name -> line."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        found.update((name, node.lineno) for name in names
                     if name.startswith("_") and not name.endswith("__"))
    return found


def _references(tree):
    """Names a module reads, looks up as attributes or imports."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_no_unreferenced_private_helpers():
    """Every private module-level name is used somewhere in the package, so
    a removal leaves no stale helper behind."""
    package = pathlib.Path(lsfem.__file__).parent
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(package.glob("*.py"))}
    used = set().union(*(_references(tree) for tree in trees.values()))
    stale = sorted(f"{module}: {name} (line {line})"
                   for module, tree in trees.items()
                   for name, line in _private_definitions(tree).items()
                   if name not in used)
    assert stale == []


def test_no_factor_reads_l_or_u():
    """No module reads ``.L`` or ``.U`` of a SuperLU factor: either read
    converts both factors to CSC and caches the copies on the factor."""
    package = pathlib.Path(lsfem.__file__).parent
    found = sorted(f"{path.name}: .{node.attr} (line {node.lineno})"
                   for path in sorted(package.glob("*.py"))
                   for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                   if isinstance(node, ast.Attribute) and node.attr in ("L", "U"))
    assert found == []


def _calls_with_scope(tree):
    """Every call in a module with the dotted name of the class and function
    scopes around it (empty at module level)."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                yield from visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                yield child, ".".join(scope)
            yield from visit(child, scope)
    return visit(tree, ())


def test_one_factorization_site():
    """``SparseSpd.factor`` is the only caller of ``splu`` in the package,
    and it passes ``panel_size`` and ``relax`` as integer literals from 1
    to 20.  SuperLU sizes its panel statistics from its compiled defaults
    (panel 20, relax 10): one probe with ``panel_size=40`` and the default
    relaxation at 49,153 dofs ended in a glibc heap-corruption abort at
    exit."""
    package = pathlib.Path(lsfem.__file__).parent
    sites, literals = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for call, scope in _calls_with_scope(tree):
            if "splu" in (getattr(call.func, "id", None),
                          getattr(call.func, "attr", None)):
                sites.append((path.name, scope or "<module>"))
                keywords = {kw.arg: kw.value for kw in call.keywords}
                literals.append({name: getattr(keywords.get(name), "value", None)
                                 for name in ("panel_size", "relax")})
    assert sites == [("solver.py", "SparseSpd.factor")]
    for call_literals in literals:
        for name, value in call_literals.items():
            assert type(value) is int and 1 <= value <= 20, (name, value)


def test_assembly_holds_no_linear_algebra():
    """``assembly.py`` builds the system and leaves solving it to
    ``solver.py``: it imports neither ``ctypes`` nor anything from
    ``scipy.sparse.linalg``."""
    path = pathlib.Path(lsfem.__file__).parent / "assembly.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
            if node.module == "scipy.sparse":
                modules += [f"scipy.sparse.{a.name}" for a in node.names]
        else:
            continue
        found += [(m, node.lineno) for m in modules
                  if m.split(".")[0] == "ctypes"
                  or m.startswith("scipy.sparse.linalg")]
    assert found == []


def test_assembly_only_assembles():
    """Evaluating discrete fields at quadrature points is the estimator's
    job: ``assembly.py`` defines no class and imports nothing from
    ``spaces`` or ``estimator``, and ``QuadFields`` is defined in
    ``estimator.py`` alone."""
    package = pathlib.Path(lsfem.__file__).parent
    found, homes = [], []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and node.name == "QuadFields":
                homes.append(path.name)
            if path.name != "assembly.py":
                continue
            if isinstance(node, ast.ClassDef):
                found.append(f"class {node.name} (line {node.lineno})")
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
                if {"spaces", "estimator"} & {n.split(".")[-1] for n in names}:
                    found.append(f"import (line {node.lineno})")
            elif isinstance(node, ast.Import):
                if any(a.name.split(".")[-1] in ("spaces", "estimator")
                       for a in node.names):
                    found.append(f"import (line {node.lineno})")
    assert found == []
    assert homes == ["estimator.py"]


# the two functions that still take a level's mesh beside its dof map, for
# positional callers outside the package; both check that they match
_MESH_AND_DOFMAP = {"assemble_system", "compute_indicators"}


def _is_mesh(name):
    return name == "mesh" or name.endswith("_mesh")


def _is_dofmap(name):
    return name in ("dofmap", "dm") or name.endswith(("_dm", "_dofmap"))


def test_a_dof_map_carries_its_mesh():
    """No function takes a mesh and a dof map as separate arguments: a dof
    map holds its mesh as ``dofmap.mesh``, and a second mesh argument could
    only agree with it or be wrong."""
    package = pathlib.Path(lsfem.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            args = node.args
            names = [a.arg for a in args.posonlyargs + args.args
                     + args.kwonlyargs]
            if any(map(_is_mesh, names)) and any(map(_is_dofmap, names)):
                found.add(getattr(node, "name", "<lambda>"))
    assert found == _MESH_AND_DOFMAP


def test_a_mesh_of_another_dof_map_is_rejected():
    """The unit square scaled by 2 beside the dof map of the unscaled one:
    with f = 1 the indicators of the zero vector returned eta = 2.0 instead
    of 1.0, and the matrix was off by up to 0.5, without a message."""
    mesh = lsfem.refine_uniform(lsfem.builtin_domain("unit_square"), rounds=2)
    dofmap = lsfem.build_dofmap(mesh)
    scaled = lsfem.Mesh(2 * mesh.vertices, mesh.elements)
    problem = lsfem.make_problem(lsfem.ProblemSpec(kind="poisson", f=1.0))
    coef = np.zeros(dofmap.n_total)
    with pytest.raises(ValueError, match="the dof map belongs to another mesh"):
        lsfem.assemble_system(scaled, dofmap, problem)
    with pytest.raises(ValueError, match="the dof map belongs to another mesh"):
        lsfem.compute_indicators(scaled, dofmap, problem, coef)
