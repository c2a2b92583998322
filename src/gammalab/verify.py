"""Exact-identity verification suites (zero tolerance, zero rounding).

Each suite walks an identity family up to a bound and records the first
failure as ``(identity, n)``; an ``IdentityViolation`` raised by a check
is that suite's failure, so the other suites still run.  All checks
dispatch through the module namespace (``exact.fn(...)``) so a test
harness can inject faults by monkeypatching.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Iterable, List, NamedTuple, Optional

from . import exact, sequences

__all__ = ["SuiteResult", "run_exact_suite", "random_rational_points"]


class SuiteResult(NamedTuple):
    name: str
    checked: int
    failure: Optional[str]

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


def _suite(name: str, ns: Iterable[int],
           check: Callable[[int], Optional[str]]) -> SuiteResult:
    """Run check(n) over ns up to the first failure message it returns or
    the first IdentityViolation it raises."""
    checked, failure = 0, None
    for n in ns:
        try:
            failure = check(n)
        except exact.IdentityViolation as e:
            failure = str(e)
        if failure is not None:
            break
        checked += 1
    return SuiteResult(name, checked, failure)


def _central_binomial(n: int) -> Optional[str]:
    if sum(exact.binomial(n, j) ** 2 for j in range(n + 1)) != exact.binomial(2 * n, n):
        return f"sum C(n,j)^2 != C(2n,n) at n={n}"
    return None


def _zero_sums(n: int) -> Optional[str]:
    if exact.tail_log_coefficient(n) != 0:
        return f"centered zero-sum nonzero at n={n}"
    if exact.tail_log_coefficient_reduced(n) != 0:
        return f"reduced zero-sum nonzero at n={n}"
    return None


def _integrality(n: int) -> None:
    exact.integrality_witness(n)


def _stirling(m: int) -> Optional[str]:
    res = exact.stirling_low_order_residuals(m)
    if res != (0, 0, 0):
        return f"low-order Stirling residuals {res} at m={m}"
    row = exact.stirling1_row(m)
    if sum(row) != exact.factorial(m):
        return f"Stirling row sum != m! at m={m}"
    if m >= 1 and (row[0] != 0 or row[m] != 1):
        return f"Stirling row endpoints wrong at m={m}"
    return None


def _pf_structure(n: int) -> Optional[str]:
    c = exact.partial_fraction_coeffs(n)
    for k in range(n + 1):
        if c.a[n - k] != -c.a[k] or c.b[n - k] != c.b[k] or c.b[k] <= 0:
            return f"coefficient symmetry broken at n={n}, k={k}"
    return None


def _pf_sampled(n: int, seed: int) -> Optional[str]:
    for x in random_rational_points(n, 5, seed):
        if exact.partial_fraction_residual(n, x) != 0:
            return f"decomposition residual nonzero at n={n}, x={x}"
    return None


def _scaled_coherence(n: int) -> Optional[str]:
    c = exact.partial_fraction_coeffs(n)
    f2 = exact.factorial(n) ** 2
    d, nums = exact.residue_numerators(n)
    if [f2 * d * ak for ak in c.a] != nums:
        return f"scaled residues incoherent at n={n}"
    if [f2 * bk for bk in c.b] != exact.scaled_square_weights(n):
        return f"scaled square weights incoherent at n={n}"
    return None


def _L_prime_vectors(n: int) -> None:
    sequences.check_L_identity(n)


def run_exact_suite(n_max: int, seed: int = 0) -> List[SuiteResult]:
    """Run every exact suite up to n_max (structure suites are capped at
    their acceptance bounds since their cost grows quadratically)."""
    if n_max < 1:
        raise ValueError("n_max >= 1 required")
    ns = range(1, n_max + 1)
    return [
        _suite("central_binomial_sum", ns, _central_binomial),
        _suite("tail_log_zero_sums", ns, _zero_sums),
        _suite("integrality_d2n_A", ns, _integrality),
        _suite("stirling_low_order", range(0, n_max + 1), _stirling),
        _suite("partial_fraction_structure", range(0, min(n_max, 60) + 1),
               _pf_structure),
        _suite("partial_fraction_sampled", range(1, min(n_max, 50) + 1),
               lambda n: _pf_sampled(n, seed)),
        _suite("scaled_coefficient_coherence", range(0, min(n_max, 40) + 1),
               _scaled_coherence),
        _suite("L_prime_vector_identity", ns, _L_prime_vectors),
    ]
