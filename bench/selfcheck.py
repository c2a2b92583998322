"""Check the benchmark itself: metric lists and the output oracle.

    python3 bench/selfcheck.py

Run from the root of a gammalab checkout.  It confirms that BENCHMARK.json
names exactly the metrics run.py reports, then runs small `table`,
`criterion` and `gamma` commands and confirms that the oracle accepts
their rows as printed and flags each deliberately corrupted copy.  Exits
non-zero if any expectation fails.
"""

from __future__ import annotations

import copy
import csv
import json
import os
import sys
import tempfile

import oracle
import run


def _bump_digit(value: str, position: int) -> str:
    """Change the digit `position` places after the first one."""
    digits = [i for i, c in enumerate(value) if c.isdigit()]
    i = digits[position]
    return value[:i] + str((int(value[i]) + 1) % 10) + value[i + 1:]


def _cli_rows(tmp, command, lo, hi):
    out = os.path.join(tmp, f"{command}.csv")
    result = run.run_child(["-c", run.ENTRY]
                           + run.cli_argv(command, (lo, hi), 1, out), tmp, command)
    if result["status"] != 0:
        raise SystemExit(f"error: {command} exited with {result['status']}")
    with open(out, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_metric_lists(failures):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != run.LAYER_METRICS:
        failures.append("per_layer in BENCHMARK.json differs from run.LAYER_METRICS")
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != run.END_TO_END_METRICS:
        failures.append("end_to_end in BENCHMARK.json differs from run.END_TO_END_METRICS")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run.WORKLOADS):
        failures.append("workloads in BENCHMARK.json differ from run.WORKLOADS")


def main() -> int:
    failures = []
    check_metric_lists(failures)
    reference = oracle.load_reference()

    def expect(label, command, rows, ns, want_failed, want_problem):
        failed, problems = oracle.check_rows(command, rows, ns, reference)
        ok = failed == want_failed and bool(problems) == want_problem
        print(f"{'ok  ' if ok else 'FAIL'} {label}: failed={failed} problems={problems}")
        if not ok:
            failures.append(label)

    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        table = _cli_rows(tmp, "table", 1, 3)
        crit = _cli_rows(tmp, "criterion", 1, 30)
        gamma = run.run_child(["-c", run.ENTRY, "gamma", "--digits", "60"],
                              tmp, "gamma")["stdout"]
    ns_t, ns_c = range(1, 4), range(1, 31)

    expect("table as printed", "table", table, ns_t, 0, False)
    expect("criterion as printed", "criterion", crit, ns_c, 0, False)

    rows = copy.deepcopy(table)
    rows[1]["i_agree"] = "false"
    expect("table with i_agree flipped", "table", rows, ns_t, 1, True)
    rows = copy.deepcopy(table)
    rows[2]["I_series"] = _bump_digit(rows[2]["I_series"], 12)
    expect("table with a wrong I_series digit", "table", rows, ns_t, 1, True)
    rows = copy.deepcopy(table)
    rows[0]["a_exact"] = "1/2"
    expect("table with a wrong A_n", "table", rows, ns_t, 1, True)
    expect("table with a missing row", "table", table[:2], ns_t, 1, True)

    rows = copy.deepcopy(crit)
    rows[20]["log_s_floor"] = str(int(rows[20]["log_s_floor"]) + 1)
    expect("criterion with a wrong log_s_floor", "criterion", rows, ns_c, 1, True)
    rows = copy.deepcopy(crit)
    rows[7]["frac_log_s"] = _bump_digit(rows[7]["frac_log_s"], 30)
    expect("criterion with a wrong frac_log_s digit", "criterion", rows, ns_c, 1, True)

    # the same through run.Checker, as a CLI run's exit status decides it
    def expect_run(label, status, rows, want_failed, want_problem):
        checker = run.Checker("table", (1, 3))
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            out = os.path.join(tmp, "table.csv")
            if rows is not None:
                with open(out, "w", newline="", encoding="utf-8") as fh:
                    w = csv.DictWriter(fh, fieldnames=list(rows[0]))
                    w.writeheader()
                    w.writerows(rows)
            checker.check({"status": status, "stdout": ""}, out)
        ok = (checker.failed == want_failed and checker.attempted == 3
              and bool(checker.problems) == want_problem)
        print(f"{'ok  ' if ok else 'FAIL'} {label}: failed={checker.failed} "
              f"problems={checker.problems}")
        if not ok:
            failures.append(label)

    exhausted = copy.deepcopy(table)
    exhausted[0] = dict.fromkeys(exhausted[0], "")
    exhausted[0].update(n="1", status="precision_exhausted")
    expect_run("run exiting 0", 0, table, 0, False)
    expect_run("run exiting 2 with a precision_exhausted row",
               run.EXIT_PRECISION, exhausted, 1, False)
    rows = copy.deepcopy(exhausted)
    rows[1]["i_agree"] = "false"
    expect_run("run exiting 2 with an exhausted row and a wrong row",
               run.EXIT_PRECISION, rows, 2, True)
    expect_run("run exiting 2 with every row ok", run.EXIT_PRECISION, table, 3, False)
    expect_run("run exiting 2 without output", run.EXIT_PRECISION, None, 3, False)
    expect_run("run exiting 1", 1, table, 3, False)
    expect_run("run timed out", "timeout", None, 3, False)

    expected = oracle.gamma_digits(60)
    for label, text, want in (("gamma as printed", gamma, 0),
                              ("gamma with a wrong digit", _bump_digit(gamma, 45), 1),
                              ("gamma cut short", gamma.strip()[:-1], 1)):
        failed, problems = oracle.check_gamma(text, expected)
        ok = failed == want
        print(f"{'ok  ' if ok else 'FAIL'} {label}: failed={failed} problems={problems}")
        if not ok:
            failures.append(label)

    for f in failures:
        sys.stderr.write(f"selfcheck failed: {f}\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
