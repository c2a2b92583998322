#!/usr/bin/env python3
"""Run the commands whose data files must stay byte-identical against two
source trees, and compare their files byte for byte.

Usage: python scripts/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold the `gammalab` package, such
as the `src/` of two checkouts.  Each command runs once per tree, in a
fresh interpreter with that directory first on PYTHONPATH: every data file
of scripts/reproduce_all.py, then the commands below.  Manifests hold
timings, so they are not compared.  Prints `same` or `DIFF` per data file
and exits 1 on any DIFF, 2 if a command exits other than it should (0, or
the code in EXITS).
"""

import filecmp
import os
import pathlib
import subprocess
import sys
import tempfile

REPRODUCE = pathlib.Path(__file__).with_name("reproduce_all.py")

# data file -> the command that writes it; rows past 2^3500 (900..905),
# long mantissas (3000), both ends of the series budget (an eps of 1e+78
# or 1e+400 lies far above the Euler-Maclaurin correction, whose enclosure
# it cannot size), flagged precision_exhausted rows (max-bits 256), a pool
# run
COMMANDS = {
    "table_398_401.csv": ["table", "--n", "398..401", "--jobs", "2"],
    "table_900_905.csv": ["table", "--n", "900..905", "--jobs", "2"],
    "table_3000.csv": ["table", "--n", "3000..3000", "--jobs", "2"],
    "table_eps_1e-120.csv": ["table", "--n", "1..60", "--tail-eps", "1e-120"],
    "table_eps_1e+78.csv": ["table", "--n", "1..40", "--tail-eps", "1e+78"],
    "table_eps_1e+400.csv": ["table", "--n", "1..30", "--tail-eps", "1e+400"],
    "table_max_bits_256.csv": ["table", "--n", "1..40", "--max-bits", "256"],
    "criterion_1_460.csv": ["criterion", "--n", "1..460", "--jobs", "2"],
    "criterion_3000.csv": ["criterion", "--n", "3000..3000"],
    "gamma_5000.txt": ["gamma", "--digits", "5000"],
    "verify_60.json": ["verify", "--n-max", "60"],
}
# a table with flagged rows exits 2 once it has written them
EXITS = {"table_max_bits_256.csv": 2}


def _run(cmd, src: pathlib.Path, code: int = 0) -> None:
    path = [str(src.resolve())] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL)
    if done.returncode != code:
        print(f"{src}: {' '.join(cmd[1:])} exited {done.returncode}", file=sys.stderr)
        sys.exit(2)


def _outputs(src: pathlib.Path, out: pathlib.Path) -> None:
    _run([sys.executable, str(REPRODUCE), str(out)], src)
    for name, args in COMMANDS.items():
        _run([sys.executable, "-m", "gammalab.cli", *args, "--out", str(out / name)], src,
             EXITS.get(name, 0))


def main() -> int:
    if len(sys.argv) != 3:
        print("usage: compare_outputs.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    old_src, new_src = map(pathlib.Path, sys.argv[1:])
    with tempfile.TemporaryDirectory() as tmp:
        old, new = pathlib.Path(tmp, "old"), pathlib.Path(tmp, "new")
        _outputs(old_src, old)
        _outputs(new_src, new)
        names = sorted({p.name for d in (old, new) for p in d.iterdir()
                        if not p.name.endswith(".manifest.json")})
        diffs = 0
        for name in names:
            same = (old / name).exists() and (new / name).exists() and filecmp.cmp(
                old / name, new / name, shallow=False)
            diffs += not same
            print(f"{'same' if same else 'DIFF'} {name}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
