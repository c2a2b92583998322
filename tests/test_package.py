"""Package surface: every name a module exports in ``__all__`` resolves,
every name the package exports has a use, and the README's library
example runs."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import gammalab

ROOT = pathlib.Path(__file__).resolve().parents[1]

MODULES = ["gammalab"] + [f"gammalab.{m.name}"
                          for m in pkgutil.iter_modules(gammalab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [e for e in exported if not hasattr(module, e)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= namespace.keys()


def _readme_example():
    # the code block under "## Library" in README.md
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _reads(node, defs=frozenset()):
    """(name, names of the enclosing definitions) for every name, attribute
    or import read under node, except in ``__all__``."""
    if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "__all__" for t in node.targets):
        return
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        defs = defs | {node.name}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id, defs
    elif isinstance(node, ast.Attribute):
        yield node.attr, defs
    elif isinstance(node, ast.alias):
        yield node.name, defs
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, defs)


def test_every_exported_name_has_a_use():
    # a name in gammalab.__all__ is read somewhere in src/ outside its own
    # definition, the export lists (__all__ and the package's imports) and
    # the definitions of other unused names, or the README example imports
    # it; a name only the tests call belongs in the tests
    reads = []
    for path in sorted((ROOT / "src" / "gammalab").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not (path.name == "__init__.py" and isinstance(node, ast.ImportFrom)):
                reads += _reads(node)
    example = {a.name for node in ast.walk(ast.parse(_readme_example()))
               if isinstance(node, ast.ImportFrom) for a in node.names}
    unused = set()
    while True:
        used = {name for name, defs in reads if not defs & (unused | {name})}
        grown = set(gammalab.__all__) - used - example
        if grown == unused:
            break
        unused = grown
    assert sorted(unused) == []


def test_readme_library_example_runs(capsys):
    # the library example, run as written
    exec(compile(_readme_example(), str(ROOT / "README.md"), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0.577215664901532860606512090082402431042159335939")
