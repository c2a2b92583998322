"""Output oracle for the benchmark.

`table` and `criterion` rows are compared with intervals recorded at a
reference commit (`reference.json`, written by `make_reference.py`).
Values are compared by interval overlap, not by bytes, because later
changes may legitimately tighten or loosen the `*_err` fields.  The CLI
prints a value to 40 significant digits and its error to 4, so each side
of the comparison is widened by one unit in the 40th digit and by 0.1%
of the printed error before the overlap test.

`gamma` digits are compared with mpmath's own Euler constant (computed
by a different algorithm than gammalab's) at 30 extra digits, truncated.
"""

from __future__ import annotations

import json
import os
from decimal import Decimal
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

# fields compared by interval overlap (each has a sibling "<name>_err")
INTERVALS = {
    "table": ("L_logfact", "L_product", "log_s", "I_closed", "I_series",
              "frac_log_s", "q", "q_dist_zero", "q_dist_threshold"),
    "criterion": ("log_s", "frac_log_s", "q", "dist_zero", "dist_threshold"),
}
# fields that are exact quantities and must match byte for byte
EXACT = {
    "table": ("a_exact", "d2n", "log_s_floor"),
    "criterion": ("log_s_floor",),
}
# boolean verdicts the program computes itself; each must be "true"
FLAGS = {
    "table": ("l_agree", "i_agree", "i_positive"),
    "criterion": (),
}

_VALUE_DIGITS = 40
_ERR_SLACK = Fraction(1001, 1000)


def load_reference(path: str = REFERENCE_PATH) -> Dict[str, Dict[int, Dict]]:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    return {cmd: {int(n): row for n, row in raw[cmd].items()}
            for cmd in INTERVALS}


def reference_row(command: str, row: Dict[str, str]) -> Dict:
    """The part of a CLI row that the oracle keeps as reference."""
    out = {f: [row[f], row[f + "_err"]] for f in INTERVALS[command]}
    out.update({f: row[f] for f in EXACT[command]})
    return out


def _radius(value: str, err: str) -> Tuple[Fraction, Fraction]:
    v = Decimal(value)
    r = Fraction(Decimal(err)) * _ERR_SLACK
    if v != 0:
        r += Fraction(Decimal(1).scaleb(v.adjusted() - _VALUE_DIGITS + 1))
    return Fraction(v), r


def overlaps(a: Sequence[str], b: Sequence[str]) -> bool:
    """True iff the printed intervals a = (value, err) and b overlap."""
    va, ra = _radius(*a)
    vb, rb = _radius(*b)
    return abs(va - vb) <= ra + rb


def check_rows(command: str, rows: List[Dict[str, str]], ns: Sequence[int],
               reference: Dict[str, Dict[int, Dict]]) -> Tuple[int, List[str]]:
    """Check one run's rows.

    Returns (failed, problems).  `failed` counts rows that are missing,
    flagged `precision_exhausted` or wrong.  `problems` lists the wrong
    ones only: a row the program honestly marks as failed is a failure
    but not an incorrect output.
    """
    ref = reference[command]
    by_n: Dict[int, Dict[str, str]] = {}
    problems: List[str] = []
    for row in rows:
        try:
            n = int(row["n"])
        except (KeyError, ValueError):
            problems.append(f"{command}: row without a valid n")
            continue
        if n in by_n or n not in ns:
            problems.append(f"{command}: unexpected row n={n}")
        by_n[n] = row
    failed = 0
    for n in ns:
        row = by_n.get(n)
        if row is None:
            failed += 1
            problems.append(f"{command}: row n={n} missing")
            continue
        try:
            if row["status"] != "ok":
                failed += 1
                continue
            bad = [f for f in FLAGS[command] if row[f] != "true"]
            bad += [f for f in EXACT[command] if row[f] != ref[n][f]]
            bad += [f for f in INTERVALS[command]
                    if not overlaps((row[f], row[f + "_err"]), ref[n][f])]
        except (KeyError, ArithmeticError) as e:
            bad = [f"unreadable field {e}"]
        if bad:
            failed += 1
            problems.append(f"{command}: row n={n} wrong in {', '.join(bad)}")
    return failed, problems


def gamma_digits(digits: int) -> str:
    """Euler's constant truncated to `digits` decimals, from mpmath."""
    from mpmath import mp, mpf

    with mp.workdps(digits + 30):
        scaled = mp.floor(mp.euler * mpf(10) ** digits)
    return "0." + str(int(scaled)).rjust(digits, "0")


def check_gamma(text: str, expected: str) -> Tuple[int, List[str]]:
    got = text.strip()
    if got == expected:
        return 0, []
    agree = next((i for i, (x, y) in enumerate(zip(got, expected)) if x != y),
                 min(len(got), len(expected)))
    return 1, [f"gamma: first {agree} of {len(expected)} characters match"]
