import ast
import pathlib
import types

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
    and no call passes ``panel_size``: one probe with ``panel_size=40`` and
    SuperLU's default relaxation at 49,153 dofs ended in a glibc
    heap-corruption abort at exit."""
    package = pathlib.Path(lsfem.__file__).parent
    sites, panel = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for call, scope in _calls_with_scope(tree):
            where = (path.name, scope or "<module>")
            if "splu" in (getattr(call.func, "id", None),
                          getattr(call.func, "attr", None)):
                sites.append(where)
            if any(kw.arg == "panel_size" for kw in call.keywords):
                panel.append((*where, call.lineno))
    assert sites == [("solver.py", "SparseSpd.factor")]
    assert panel == []


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
