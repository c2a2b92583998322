#!/usr/bin/env python3
"""Run the full workbench into ./out: identity suites, the per-n table,
the irrationality-criterion probe, and every asymptotic-law report.

Usage: python scripts/reproduce_all.py [outdir]
"""

import pathlib
import sys

from gammalab import cli


# data file -> the command that writes it
STEPS = {
    "verify.json": ["verify", "--n-max", "200"],
    "table.csv": ["table", "--n", "1..20", "--format", "csv"],
    "table.json": ["table", "--n", "1..20", "--format", "json"],
    "criterion.csv": ["criterion", "--n", "1..60", "--format", "csv"],
    "asym.json": ["asym", "--format", "json"],
    "gamma.txt": ["gamma", "--digits", "60"],
}


def main() -> int:
    out = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "out")
    out.mkdir(parents=True, exist_ok=True)

    for name, args in STEPS.items():
        step = args + ["--out", str(out / name)]
        print(f"$ gammalab {' '.join(step)}")
        code = cli.main(step)
        if code != 0:
            print(f"step failed with exit code {code}", file=sys.stderr)
            return code
    print(f"all outputs written under {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
