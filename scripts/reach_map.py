#!/usr/bin/env python3
"""List the src lines that no command of the workbench reaches, each with
the tier-1 tests that reach it.

Usage: python scripts/reach_map.py

One process imports `gammalab` from the src/ beside this directory and runs
every command of scripts/reproduce_all.py and of scripts/compare_outputs.py
under a line tracer (sys.settrace), at `--jobs 1` wherever the command
takes it, because forked children are not traced.  A module's executable
lines are those of its compiled code objects (co_lines).  A second
interpreter then runs the tier-1 tests under the same tracer, and records
which tests reach the lines the commands left.  Each such line prints as
`file:line function`, its source, and the number of tests that reach it
with the first three of them.  The wall time of each run closes the map.
"""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import threading
import time
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class LineTracer:
    """Records each (file, line) of src that runs, while entered."""

    def __init__(self):
        self.prefix = str(SRC / "gammalab") + os.sep
        self.hits = set()

    def _call(self, frame, event, arg):
        return self._line if frame.f_code.co_filename.startswith(self.prefix) else None

    def _line(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    def __enter__(self):
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)
        threading.settrace(None)


def _executable(path: pathlib.Path) -> dict:
    """line -> qualified name of the innermost code object that runs it."""
    lines = {}
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update((line, code.co_qualname) for _, _, line in code.co_lines()
                     if line)  # None, or 0 for a module's first instruction
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def _commands(out: pathlib.Path):
    """(argv, expected exit code) of every command of both scripts."""
    import compare_outputs
    import reproduce_all
    from gammalab import cli

    listed = [(name, args, 0) for name, args in reproduce_all.STEPS.items()]
    listed += [(name, args, compare_outputs.EXITS.get(name, 0))
               for name, args in compare_outputs.COMMANDS.items()]
    for name, args, code in listed:
        if hasattr(cli.build_parser().parse_args(args + ["--out", "x"]), "jobs"):
            args = args + ["--jobs", "1"]  # the last --jobs wins
        yield args + ["--out", str(out / name)], code


def _run_commands() -> set:
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory() as tmp, LineTracer() as tracer:
        from gammalab import cli

        for argv, want in _commands(pathlib.Path(tmp)):
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            print(f"$ gammalab {' '.join(argv[:-2])}: exit {code}"
                  f"{'' if code == want else f' (expected {want})'}, "
                  f"{time.perf_counter() - t0:.2f} s")
    return tracer.hits


def record_test_hits(want_path: str, out_path: str) -> None:
    """Run the tier-1 tests under a LineTracer, and write the ids of the
    tests that reach each (file, line) of want_path to out_path."""
    import pytest

    with open(want_path, encoding="utf-8") as fh:
        want = {tuple(key) for key in json.load(fh)}
    found = {}

    class PerTest:
        @pytest.hookimpl(hookwrapper=True)
        def pytest_runtest_protocol(self, item, nextitem):
            tracer.hits = set()
            yield
            for key in tracer.hits & want:
                found.setdefault("%s:%d" % key, []).append(item.nodeid)

    with LineTracer() as tracer:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")],
                           plugins=[PerTest()])
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"exit": int(code), "found": found}, fh)


def _test_hits(want: list) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        want_path, out_path = os.path.join(tmp, "want.json"), os.path.join(tmp, "hits.json")
        with open(want_path, "w", encoding="utf-8") as fh:
            json.dump(want, fh)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "scripts"), str(SRC)]))
        subprocess.run([sys.executable, "-c", "import reach_map; reach_map.record_test_hits("
                        f"{want_path!r}, {out_path!r})"],
                       cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=False)
        with open(out_path, encoding="utf-8") as fh:
            return json.load(fh)


def main() -> int:
    t0 = time.perf_counter()
    hits = _run_commands()
    t1 = time.perf_counter()
    unreached = []
    for path in sorted((SRC / "gammalab").glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        for line, fn in sorted(_executable(path).items()):
            if (str(path), line) not in hits:
                unreached.append((str(path), line, fn, text[line - 1].strip()))
    tests = _test_hits([[path, line] for path, line, _, _ in unreached])
    t2 = time.perf_counter()
    print(f"\n{len(unreached)} src lines no command reaches "
          f"(the tier-1 run exited {tests['exit']}):")
    for path, line, fn, source in unreached:
        ids = tests["found"].get(f"{path}:{line}", [])
        named = ", ".join(ids[:3]) + (", ..." if len(ids) > 3 else "")
        print(f"{os.path.relpath(path, ROOT)}:{line} {fn}  {source}\n"
              f"    {len(ids)} tests{': ' + named if ids else ''}")
    print(f"\nwall time: commands {t1 - t0:.1f} s, tests {t2 - t1:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
