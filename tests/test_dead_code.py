"""Dead-code guard over the library source, read with ``ast``.

Four rules: every name a library module imports is used in that module,
every private module-level function is used by the library outside its
own body, every parameter of a module-level function is read in its
body, and every name ``__init__.py`` re-exports is used by the library,
the CLI or a demo, so no public name is called only by tests.
``__init__.py`` only re-exports, so its imports are its point.

One boundary rule rides along: ``coarse`` and ``asdim`` reach M only
through the space's tests, never through its kind or integer pair.

Two rules guard against an input with a second source or no reader:
every option of a CLI subcommand is read by its command, and no function
of ``covers`` or ``asdim`` takes a window beside a cover, which holds one.
"""

import ast
import inspect
import textwrap
from pathlib import Path

import fuzzycoarse
from fuzzycoarse import cli

SOURCES = sorted(Path(fuzzycoarse.__file__).parent.glob("*.py"))
DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


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
        tree = _parse(path)
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names if isinstance(node, (ast.Import, ast.ImportFrom)) else ():
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{alias.lineno}: {name}")
    assert unused == []


def _library_users(trees):
    """name -> the top-level statements of the library that read it."""
    users = {}
    for tree in trees:
        for node in tree.body:
            for name in _read_names(node):
                users.setdefault(name, []).append(node)
    return users


def _read_names(node):
    """Every name read in a node as a bare name or an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, ast.Attribute)
            or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def test_every_private_function_is_used_by_the_library():
    trees = {path.name: _parse(path) for path in SOURCES}
    users = _library_users(trees.values())
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


def test_every_re_export_is_used_by_the_library_or_a_demo():
    """A name is used when a top-level statement of a library module other
    than ``__init__.py`` and other than the name's own definition uses
    it, or when a demo does; the CLI is a library module."""
    init = _parse(Path(fuzzycoarse.__file__))
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    users = _library_users(_parse(path) for path in SOURCES if path.name != "__init__.py")
    in_demos = set().union(*(_read_names(_parse(path)) for path in DEMOS))
    unused = {name for name in exported - in_demos
              if all(getattr(node, "name", None) == name for node in users.get(name, ()))}
    assert unused == set()


def test_coarse_and_asdim_read_neither_the_kind_nor_the_pair_of_a_space():
    """Every threshold test of ``coarse`` and ``asdim`` comes from
    ``FuzzyMetricSpace._threshold``, the one place outside the matrix
    scanners and the extremal helpers that decides strict or closed."""
    reads = [f"{path.name}:{n.lineno}: {name}" for path in SOURCES
             if path.name in ("coarse.py", "asdim.py") for n in ast.walk(_parse(path))
             if isinstance(n, (ast.Name, ast.Attribute))
             for name in [n.id if isinstance(n, ast.Name) else n.attr]
             if name in ("_pair", "_kind")]
    assert reads == []


# options read outside the command: ``--out`` by ``_render``, ``--config`` by ``_merged``
SHARED_OPTIONS = {"help", "out", "config"}


def test_every_cli_option_is_read_by_its_command():
    """Each option of a subcommand is read as ``args.<dest>`` in the body of
    its ``cmd_*`` function, so argparse refuses a flag the command would
    ignore."""
    subcommands = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    unread = []
    for name, parser in subcommands.items():
        fn = parser.get_default("fn")
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        read = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                and isinstance(n.value, ast.Name) and n.value.id == "args"}
        unread += [f"{name} --{a.dest}" for a in parser._actions
                   if a.dest not in SHARED_OPTIONS | read]
    assert unread == []


def test_no_stage_takes_a_window_beside_a_cover():
    """A ``Cover`` holds its window, so a function of ``covers`` or
    ``asdim`` that takes a cover reads the window from it."""
    both = []
    for path in SOURCES:
        if path.name not in ("covers.py", "asdim.py"):
            continue
        for fn in _parse(path).body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            args = [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs]
            covers = [a.arg for a in args if isinstance(a.annotation, ast.Name)
                      and a.annotation.id == "Cover"]
            if covers and "window" in {a.arg for a in args}:
                both.append(f"{path.name}:{fn.lineno}: {fn.name}({', '.join(covers)}, window)")
    assert both == []
