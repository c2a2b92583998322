#!/usr/bin/env python3
"""Run the full workbench into ./out: identity suites, the per-n table,
the irrationality-criterion probe, and every asymptotic-law report.

Usage: python scripts/reproduce_all.py [outdir]
"""

import pathlib
import sys

from gammalab import cli


def main() -> int:
    out = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "out")
    out.mkdir(parents=True, exist_ok=True)

    steps = [
        ["verify", "--n-max", "200", "--out", str(out / "verify.json")],
        ["table", "--n", "1..20", "--format", "csv",
         "--out", str(out / "table.csv")],
        ["table", "--n", "1..20", "--format", "json",
         "--out", str(out / "table.json")],
        ["criterion", "--n", "1..60", "--format", "csv",
         "--out", str(out / "criterion.csv")],
        ["asym", "--format", "json", "--out", str(out / "asym.json")],
        ["gamma", "--digits", "60", "--out", str(out / "gamma.txt")],
    ]
    for step in steps:
        print(f"$ gammalab {' '.join(step)}")
        code = cli.main(step)
        if code != 0:
            print(f"step failed with exit code {code}", file=sys.stderr)
            return code
    print(f"all outputs written under {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
