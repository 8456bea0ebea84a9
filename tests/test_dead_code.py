"""Dead-code guard over the library source, read with ``ast``.

Three rules: every name a library module imports is used in that module,
every private module-level function is used by the library outside its
own body, and every parameter of a module-level function is read in its
body.  ``__init__.py`` only re-exports, so its imports are its
point; an import line marked ``# noqa: F401`` is kept on purpose (the
benchmark's tracer reads ``asdim.scale_multiplicity``).
"""

import ast
from pathlib import Path

import fuzzycoarse

SOURCES = sorted(Path(fuzzycoarse.__file__).parent.glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _used_names(node):
    """Every name read or written in a node as a bare name or an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_import_is_used():
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        lines = path.read_text().splitlines()
        tree = _parse(path)
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names if isinstance(node, (ast.Import, ast.ImportFrom)) else ():
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}:{alias.lineno}: {name}")
    assert unused == []


def test_every_private_function_is_used_by_the_library():
    trees = {path.name: _parse(path) for path in SOURCES}
    users = {}  # name -> the top-level statements of the library that use it
    for tree in trees.values():
        for node in tree.body:
            for name in _used_names(node):
                users.setdefault(name, []).append(node)
    unused = [f"{name}: {fn.name}" for name, tree in trees.items() for fn in tree.body
              if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")
              and all(node is fn for node in users.get(fn.name, ()))]
    assert unused == []


def test_every_parameter_of_a_module_level_function_is_read():
    unread = []
    for path in SOURCES:
        for fn in _parse(path).body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            a = fn.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                      if p is not None]
            read = {n.id for n in ast.walk(fn)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.name}:{fn.lineno}: {fn.name}({p})" for p in params
                       if p not in read]
    assert unread == []
