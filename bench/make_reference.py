"""Record the reference rows that oracle.py compares against.

    python3 bench/make_reference.py

Run from the root of a gammalab checkout at the commit whose outputs are
taken as correct.  For each `table` and `criterion` workload it computes
every n that any seed can ask for and writes bench/reference.json.
"""

from __future__ import annotations

import csv
import json
import os
import sys
import tempfile

import oracle
import run


def n_band(name):
    """Smallest and largest n over every seed of a workload."""
    ends = [run.WORKLOADS[name](pick)[1]
            for pick in (lambda low, high: low, lambda low, high: high)]
    return min(lo for lo, _ in ends), max(hi for _, hi in ends)


def main() -> int:
    reference = {cmd: {} for cmd in oracle.INTERVALS}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for name in sorted(run.WORKLOADS):
            command = run.WORKLOADS[name](lambda low, high: 0)[0]
            if command not in reference:
                continue
            out = os.path.join(tmp, f"{name}.csv")
            argv = ["-c", run.ENTRY] + run.cli_argv(command, n_band(name),
                                                    os.cpu_count() or 1, out)
            result = run.run_child(argv, tmp, name, timeout=600)
            if result["status"] != 0:
                sys.stderr.write(f"error: {name} exited with {result['status']}\n")
                return 1
            with open(out, newline="", encoding="utf-8") as fh:
                for row in csv.DictReader(fh):
                    if row["status"] != "ok" or any(
                            row[f] != "true" for f in oracle.FLAGS[command]):
                        sys.stderr.write(f"error: {name} row n={row['n']} "
                                         "is not a certified ok row\n")
                        return 1
                    reference[command][row["n"]] = oracle.reference_row(command, row)
    with open(oracle.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
