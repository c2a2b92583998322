"""Package surface: every name a module exports in ``__all__`` resolves,
and the README's library example runs."""

import importlib
import pathlib
import pkgutil

import pytest

import gammalab

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


def test_readme_library_example_runs(capsys):
    # the code block under "## Library" in README.md, run as written
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(readme), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0.577215664901532860606512090082402431042159335939")
