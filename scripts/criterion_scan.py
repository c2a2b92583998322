#!/usr/bin/env python3
"""Empirical look at the Sondow criterion quantity
Q_n = (16^n n / d_2n) {log S_n}.

If lim Q_n != pi/(6 ln 2), Euler's constant is irrational.  This scan
prints certified Q_n over a range together with the distances to the two
candidate limits (0 and pi/(6 ln 2)).  It reports; it proves nothing --
{x} is wildly sensitive to its argument, and Q_n swings over many orders
of magnitude on any desk-scale range.

Usage: python scripts/criterion_scan.py [n_max] [frac_bits]
"""

import sys

from gammalab import PrecisionPolicy, criterion_point, sondow_threshold


def main() -> int:
    n_max = int(sys.argv[1]) if len(sys.argv) > 1 else 40
    frac_bits = int(sys.argv[2]) if len(sys.argv) > 2 else 96
    policy = PrecisionPolicy(frac_bits=frac_bits)
    thr = sondow_threshold(160)
    print(f"# pi/(6 ln 2) = {thr.decimal(20)}")
    print(f"{'n':>4} {'bits':>6} {'{log S_n}':>22} {'Q_n':>28} "
          f"{'|Q_n - thr|':>28}")
    for n in range(1, n_max + 1):
        cp = criterion_point(n, policy)
        print(f"{n:>4} {cp.precision_bits:>6} {cp.frac.decimal(16):>22} "
              f"{cp.q.decimal(16):>28} {cp.dist_threshold.decimal(16):>28}")
    print("# report-only: no limit is asserted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
