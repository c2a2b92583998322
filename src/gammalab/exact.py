"""Exact big-integer / big-rational layer.

Everything in this module is computed with zero rounding error: harmonic
numbers, binomials, LCMs, Bernoulli numbers, unsigned Stirling numbers of
the first kind, the partial-fraction decomposition of 1/(x(x+1)...(x+n))^2,
and the combinatorial zero-sum identities behind the Sondow decomposition
I_n = C(2n,n)*gamma + L_n - A_n.  All functions are pure; the memo tables
are append-only and idempotent, so concurrent use is safe.

The per-n rationals are all sums c_j H_m with m <= M, so each is an exact
integer over d_M = lcm(1..M).  :func:`scaled_harmonics` gives d_M H_j for
j <= M in one integer pass; :func:`residue_numerators` and :func:`A_exact`
sum over that one denominator and reduce at most once (Haible &
Papanikolaou 1998).  :func:`harmonic` keeps the independent Fraction table
that :func:`integrality_witness` and the identity suites check against.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

Nat = int
Rat = Fraction
StirlingRow = List[int]  # row m: unsigned first-kind numbers [m,0], ..., [m,m]

__all__ = [
    "IdentityViolation",
    "factorial",
    "binomial",
    "binomial_row",
    "harmonic",
    "scaled_harmonics",
    "lcm_upto",
    "bernoulli",
    "stirling1_row",
    "stirling_low_order_residuals",
    "PartialFractionCoeffs",
    "partial_fraction_coeffs",
    "partial_fraction_residual",
    "residue_numerators",
    "scaled_residue_weights",
    "scaled_square_weights",
    "tail_log_coefficient",
    "tail_log_coefficient_reduced",
    "A_exact",
    "integrality_witness",
]


class IdentityViolation(Exception):
    """An identity that must hold exactly came out nonzero (upstream bug)."""


def factorial(n: int) -> int:
    """n! for n >= 0."""
    if n < 0:
        raise ValueError("factorial of negative integer")
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    """C(n, k), exact; k > n is a domain error rather than 0."""
    if k < 0 or n < 0:
        raise ValueError("binomial needs n, k >= 0")
    if k > n:
        raise ValueError(f"binomial domain error: k={k} > n={n}")
    return math.comb(n, k)


def binomial_row(n: int) -> List[int]:
    """[C(n,0), ..., C(n,n)] by the exact recurrence C(n,k+1) = C(n,k)(n-k)/(k+1)."""
    if n < 0:
        raise ValueError("binomial_row needs n >= 0")
    row = [1] * (n + 1)
    for k in range(n // 2):
        row[k + 1] = row[n - k - 1] = row[k] * (n - k) // (k + 1)
    return row


# Memoised incrementally up to this index; larger arguments fall back to a
# divide-and-conquer sum so one-off huge inputs don't bloat the table.
_HARMONIC_MEMO_LIMIT = 4096
_harmonic_cache: List[Fraction] = [Fraction(0)]
_harmonic_lock = threading.Lock()


def _recip_sum(a: int, b: int) -> Fraction:
    # sum of 1/k for a <= k <= b, by halving (keeps intermediate gcd's cheap)
    if b - a < 8:
        return sum((Fraction(1, k) for k in range(a, b + 1)), Fraction(0))
    mid = (a + b) // 2
    return _recip_sum(a, mid) + _recip_sum(mid + 1, b)


def harmonic(n: int) -> Fraction:
    """H_n = 1 + 1/2 + ... + 1/n as an exact rational; H_0 = 0."""
    if n < 0:
        raise ValueError("harmonic of negative index")
    if n <= _HARMONIC_MEMO_LIMIT:
        if n >= len(_harmonic_cache):
            with _harmonic_lock:
                while len(_harmonic_cache) <= n:
                    k = len(_harmonic_cache)
                    _harmonic_cache.append(_harmonic_cache[k - 1] + Fraction(1, k))
        return _harmonic_cache[n]
    return harmonic(_HARMONIC_MEMO_LIMIT) + _recip_sum(_HARMONIC_MEMO_LIMIT + 1, n)


_lcm_cache: List[int] = [1]  # _lcm_cache[i] == lcm(1..i+1)
_lcm_lock = threading.Lock()


def lcm_upto(n: int) -> int:
    """d_n = lcm(1, 2, ..., n) for n >= 1."""
    if n < 1:
        raise ValueError("lcm_upto needs n >= 1")
    if n > len(_lcm_cache):
        with _lcm_lock:
            while len(_lcm_cache) < n:
                k = len(_lcm_cache) + 1
                _lcm_cache.append(math.lcm(_lcm_cache[-1], k))
    return _lcm_cache[n - 1]


def scaled_harmonics(m: int) -> Tuple[int, List[int]]:
    """(d_m, [d_m H_0, ..., d_m H_m]), exact integers in one O(m) pass.

    d_m = lcm(1..m) (d_0 = 1); every j <= m divides it, so
    d_m H_j = d_m H_{j-1} + d_m / j is an integer.
    """
    if m < 0:
        raise ValueError("scaled_harmonics needs m >= 0")
    d = lcm_upto(m) if m else 1
    h = [0] * (m + 1)
    for j in range(1, m + 1):
        h[j] = h[j - 1] + d // j
    return d, h


_bern_even: List[Fraction] = [Fraction(1)]  # B_0, B_2, B_4, ...
_bern_lock = threading.Lock()


def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m (convention B_1 = -1/2; odd m > 1 gives 0).

    Even indices come from the binomial convolution recurrence
    sum_{r=0..m} C(m+1, r) B_r = 0, walking even indices only.
    """
    if m < 0:
        raise ValueError("bernoulli of negative index")
    if m == 1:
        return Fraction(-1, 2)
    if m % 2 == 1:
        return Fraction(0)
    k = m // 2
    if k >= len(_bern_even):
        with _bern_lock:
            while len(_bern_even) <= k:
                j = len(_bern_even)
                n2 = 2 * j
                s = sum(
                    Fraction(math.comb(n2 + 1, 2 * i)) * _bern_even[i]
                    for i in range(j)
                )
                s += Fraction(n2 + 1) * Fraction(-1, 2)  # the lone odd term, B_1
                _bern_even.append(-s / (n2 + 1))
    return _bern_even[k]


_stirling_rows: List[StirlingRow] = [[1]]
_stirling_lock = threading.Lock()


def stirling1_row(m: int) -> StirlingRow:
    """Row m of unsigned Stirling numbers of the first kind.

    Entry k is the coefficient of x^k in the rising factorial
    x(x+1)...(x+m-1); recurrence [m+1, k] = m*[m, k] + [m, k-1].
    """
    if m < 0:
        raise ValueError("stirling1_row of negative index")
    if m >= len(_stirling_rows):
        with _stirling_lock:
            while len(_stirling_rows) <= m:
                prev = _stirling_rows[-1]
                mm = len(_stirling_rows) - 1
                row = [0] * (mm + 2)
                for k in range(mm + 2):
                    acc = mm * prev[k] if k <= mm else 0
                    if k >= 1:
                        acc += prev[k - 1]
                    row[k] = acc
                _stirling_rows.append(row)
    return list(_stirling_rows[m])


def stirling_low_order_residuals(m: int) -> Tuple[Fraction, Fraction, Fraction]:
    """Residuals of [m+1,0] = 0, [m+1,1] = m!, [m+1,2] = m!*H_m.

    All three are zero for every m >= 0; anything else means the row
    generator or the harmonic table is broken.
    """
    row = stirling1_row(m + 1)
    f = factorial(m)
    r0 = Fraction(row[0])
    r1 = Fraction(row[1] - f)
    second = row[2] if m + 1 >= 2 else 0
    r2 = Fraction(second) - f * harmonic(m)
    return (r0, r1, r2)


@dataclass(frozen=True)
class PartialFractionCoeffs:
    """Coefficients of 1/(x(x+1)...(x+n))^2 = sum a_k/(x+k) + b_k/(x+k)^2.

    a_k = 2(H_k - H_{n-k}) / (k!(n-k)!)^2  (simple-pole residues),
    b_k = 1 / (k!(n-k)!)^2                 (double-pole coefficients).
    """

    n: int
    a: Tuple[Fraction, ...]
    b: Tuple[Fraction, ...]

    def __post_init__(self):
        if sum(self.a, Fraction(0)) != 0:
            raise IdentityViolation(f"residues do not sum to zero at n={self.n}")


def partial_fraction_coeffs(n: int) -> PartialFractionCoeffs:
    if n < 0:
        raise ValueError("partial_fraction_coeffs needs n >= 0")
    b = []
    a = []
    for k in range(n + 1):
        bk = Fraction(1, (factorial(k) * factorial(n - k)) ** 2)
        b.append(bk)
        a.append(2 * (harmonic(k) - harmonic(n - k)) * bk)
    return PartialFractionCoeffs(n=n, a=tuple(a), b=tuple(b))


def residue_numerators(n: int) -> Tuple[int, List[int]]:
    """(d_n, [d_n * 2 C(n,k)^2 (H_k - H_{n-k}) for k = 0..n]), all integers.

    These are the scaled simple-pole residues (n!)^2 a_k over the one
    denominator d_n: the weights multiplying log((n+j)!) in the explicit
    formula for L_n, and the log coefficients in the term-by-term series
    for I_n.  Swapping k and n-k negates the weight, so only k <= n/2 is
    computed.
    """
    if n < 0:
        raise ValueError("residue_numerators needs n >= 0")
    d, h = scaled_harmonics(n)
    row = binomial_row(n)
    half = [2 * row[k] ** 2 * (h[k] - h[n - k]) for k in range(n // 2 + 1)]
    return d, half + [-w for w in reversed(half[:(n + 1) // 2])]


def scaled_residue_weights(n: int) -> List[Fraction]:
    """(n!)^2 * a_k = 2 C(n,k)^2 (H_k - H_{n-k}), as Fractions.

    A view of :func:`residue_numerators`.
    """
    d, nums = residue_numerators(n)
    return [Fraction(a, d) for a in nums]


def scaled_square_weights(n: int) -> List[int]:
    """(n!)^2 * b_k = C(n,k)^2."""
    return [c * c for c in binomial_row(n)]


def partial_fraction_residual(n: int, x: Fraction) -> Fraction:
    """LHS minus RHS of the decomposition at the point x; must be 0.

    x may not hit a pole (0, -1, ..., -n).
    """
    x = Fraction(x)
    if x.denominator == 1 and -n <= x.numerator <= 0:
        raise ValueError(f"x={x} is a pole of the decomposition")
    prod = Fraction(1)
    for k in range(n + 1):
        prod *= x + k
    lhs = 1 / (prod * prod)
    coeffs = partial_fraction_coeffs(n)
    rhs = Fraction(0)
    for k in range(n + 1):
        t = x + k
        rhs += coeffs.a[k] / t + coeffs.b[k] / (t * t)
    return lhs - rhs


def tail_log_coefficient(n: int) -> Fraction:
    """sum_j C(n,j)^2 ((H_{n-j} - H_j)(2j - n) + 1); zero for all n >= 1.

    This is the coefficient of log r in the large-r expansion of the
    series tail probe (see sequences.tail_probe); its vanishing is what
    makes the closed form of I_n valid.
    """
    s = Fraction(0)
    for j in range(n + 1):
        c2 = binomial(n, j) ** 2
        s += c2 * ((harmonic(n - j) - harmonic(j)) * (2 * j - n) + 1)
    return s


def tail_log_coefficient_reduced(n: int) -> Fraction:
    """Symmetry-reduced variant: sum_j C(n,j)^2 (2j(H_{n-j} - H_j) + 1).

    Zero for all n >= 1 (n = 0 gives 1; the identity starts at n = 1).
    """
    s = Fraction(0)
    for j in range(n + 1):
        c2 = binomial(n, j) ** 2
        s += c2 * (2 * j * (harmonic(n - j) - harmonic(j)) + 1)
    return s


def A_exact(n: int) -> Fraction:
    """A_n = sum_j C(n,j)^2 H_{n+j}, the rational part of the decomposition.

    Summed as integers over d_{2n} and reduced once.
    """
    if n < 0:
        raise ValueError("A_exact needs n >= 0")
    d, h = scaled_harmonics(2 * n)
    return Fraction(sum(c * c * h[n + j] for j, c in enumerate(binomial_row(n))), d)


def integrality_witness(n: int) -> int:
    """d_{2n} * A_n, which is always an exact integer; raises if not.

    The sum is taken from the Fraction harmonic table, independently of
    :func:`A_exact` (which is an integer over d_{2n} by construction), and
    must also equal d_{2n} * A_exact(n).
    """
    if n < 1:
        raise ValueError("integrality_witness needs n >= 1")
    d = lcm_upto(2 * n)
    v = d * sum((binomial(n, j) ** 2 * harmonic(n + j) for j in range(n + 1)),
                Fraction(0))
    if v.denominator != 1:
        raise IdentityViolation(f"d_{{2n}} * A_n not an integer at n={n}: {v}")
    if v != d * A_exact(n):
        raise IdentityViolation(f"A_exact disagrees with the harmonic sum at n={n}")
    return v.numerator
