"""Exact-identity verification suites (zero tolerance, zero rounding).

Each suite walks an identity family up to a bound and records the first
failure as ``(identity, n)``.  All checks dispatch through the module
namespace (``exact.fn(...)``) so a test harness can inject faults by
monkeypatching.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from . import exact, sequences

__all__ = ["SuiteResult", "run_exact_suite", "random_rational_points"]


@dataclass
class SuiteResult:
    name: str
    checked: int = 0
    failure: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.failure is None


def random_rational_points(n: int, count: int, seed: int) -> List[Fraction]:
    """Deterministic non-pole rational sample points for the decomposition.

    Poles sit at 0, -1, ..., -n; integers in that window are rejected.
    """
    rng = random.Random(f"{seed}:{n}")
    pts: List[Fraction] = []
    while len(pts) < count:
        num = rng.randint(-4 * n - 8, 4 * n + 8)
        den = rng.randint(1, 12)
        x = Fraction(num, den)
        if x.denominator == 1 and -n <= x.numerator <= 0:
            continue
        if x in pts:
            continue
        pts.append(x)
    return pts


def _suite_central_binomial(n_max: int) -> SuiteResult:
    r = SuiteResult("central_binomial_sum")
    for n in range(1, n_max + 1):
        lhs = sum(exact.binomial(n, j) ** 2 for j in range(n + 1))
        if lhs != exact.binomial(2 * n, n):
            r.failure = f"sum C(n,j)^2 != C(2n,n) at n={n}"
            return r
        r.checked += 1
    return r


def _suite_zero_sums(n_max: int) -> SuiteResult:
    r = SuiteResult("tail_log_zero_sums")
    for n in range(1, n_max + 1):
        if exact.tail_log_coefficient(n) != 0:
            r.failure = f"centered zero-sum nonzero at n={n}"
            return r
        if exact.tail_log_coefficient_reduced(n) != 0:
            r.failure = f"reduced zero-sum nonzero at n={n}"
            return r
        r.checked += 1
    return r


def _suite_integrality(n_max: int) -> SuiteResult:
    r = SuiteResult("integrality_d2n_A")
    for n in range(1, n_max + 1):
        try:
            exact.integrality_witness(n)
        except exact.IdentityViolation as e:
            r.failure = str(e)
            return r
        r.checked += 1
    return r


def _suite_stirling(m_max: int) -> SuiteResult:
    r = SuiteResult("stirling_low_order")
    for m in range(0, m_max + 1):
        res = exact.stirling_low_order_residuals(m)
        if res != (0, 0, 0):
            r.failure = f"low-order Stirling residuals {res} at m={m}"
            return r
        row = exact.stirling1_row(m)
        if sum(row) != exact.factorial(m):
            r.failure = f"Stirling row sum != m! at m={m}"
            return r
        if m >= 1 and (row[0] != 0 or row[m] != 1):
            r.failure = f"Stirling row endpoints wrong at m={m}"
            return r
        r.checked += 1
    return r


def _suite_pf_structure(n_max: int) -> SuiteResult:
    r = SuiteResult("partial_fraction_structure")
    for n in range(0, n_max + 1):
        c = exact.partial_fraction_coeffs(n)
        for k in range(n + 1):
            if c.a[n - k] != -c.a[k] or c.b[n - k] != c.b[k] or c.b[k] <= 0:
                r.failure = f"coefficient symmetry broken at n={n}, k={k}"
                return r
        if sum(c.a, Fraction(0)) != 0:
            r.failure = f"residues do not sum to zero at n={n}"
            return r
        r.checked += 1
    return r


def _suite_pf_sampled(n_max: int, seed: int) -> SuiteResult:
    r = SuiteResult("partial_fraction_sampled")
    for n in range(1, n_max + 1):
        for x in random_rational_points(n, 5, seed):
            if exact.partial_fraction_residual(n, x) != 0:
                r.failure = f"decomposition residual nonzero at n={n}, x={x}"
                return r
        r.checked += 1
    return r


def _suite_scaled_coherence(n_max: int) -> SuiteResult:
    r = SuiteResult("scaled_coefficient_coherence")
    for n in range(0, n_max + 1):
        c = exact.partial_fraction_coeffs(n)
        f2 = exact.factorial(n) ** 2
        if [f2 * ak for ak in c.a] != exact.scaled_residue_weights(n):
            r.failure = f"scaled residues incoherent at n={n}"
            return r
        if [f2 * bk for bk in c.b] != exact.scaled_square_weights(n):
            r.failure = f"scaled square weights incoherent at n={n}"
            return r
        r.checked += 1
    return r


def _suite_L_prime_vectors(n_max: int) -> SuiteResult:
    r = SuiteResult("L_prime_vector_identity")
    for n in range(1, n_max + 1):
        try:
            sequences.check_L_identity(n)
        except exact.IdentityViolation as e:
            r.failure = str(e)
            return r
        r.checked += 1
    return r


def run_exact_suite(n_max: int, seed: int = 0) -> List[SuiteResult]:
    """Run every exact suite up to n_max (structure suites are capped at
    their acceptance bounds since their cost grows quadratically)."""
    if n_max < 1:
        raise ValueError("n_max >= 1 required")
    return [
        _suite_central_binomial(n_max),
        _suite_zero_sums(n_max),
        _suite_integrality(n_max),
        _suite_stirling(n_max),
        _suite_pf_structure(min(n_max, 60)),
        _suite_pf_sampled(min(n_max, 50), seed),
        _suite_scaled_coherence(min(n_max, 40)),
        _suite_L_prime_vectors(n_max),
    ]
