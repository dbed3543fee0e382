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
