"""Independent slow-but-exact oracles used only by the tests.

Everything here is computed in pure Fraction arithmetic with explicit
truncation bounds, so these values owe nothing to the mpmath backend the
package uses: ln via argument reduction plus the atanh series, pi via the
Machin formula with alternating-series remainders.  The Euler-Maclaurin
kernel sums, the residue weights and A_n are the per-term Fraction
formulas over the harmonic table, one term (and one order) at a time.
"""

from __future__ import annotations

import math
from fractions import Fraction

from gammalab import exact


def atanh_oracle(t: Fraction, bits: int) -> Fraction:
    """atanh(t) for |t| <= 1/2 with error below 2^-bits."""
    t = Fraction(t)
    assert abs(t) <= Fraction(1, 2)
    t2 = t * t
    term = t
    total = Fraction(0)
    j = 0
    # remainder after term j is <= |t|^(2j+3) / ((2j+3)(1 - t^2))
    bound_scale = 1 / (1 - t2)
    while True:
        total += term / (2 * j + 1)
        term *= t2
        j += 1
        rem = abs(term) / (2 * j + 1) * bound_scale
        if rem < Fraction(1, 2 ** (bits + 1)):
            return total


def ln2_oracle(bits: int) -> Fraction:
    return 2 * atanh_oracle(Fraction(1, 3), bits + 2)


def ln_oracle(y: Fraction, bits: int) -> Fraction:
    """ln y for rational y > 0 with error below 2^-bits."""
    y = Fraction(y)
    assert y > 0
    e = 0
    while y >= 2:
        y /= 2
        e += 1
    while y < 1:
        y *= 2
        e -= 1
    # y in [1, 2): ln y = 2 atanh((y-1)/(y+1)), argument in [0, 1/3)
    t = (y - 1) / (y + 1)
    out = 2 * atanh_oracle(t, bits + 2)
    if e:
        out += e * ln2_oracle(bits + abs(e).bit_length() + 2)
    return out


def atan_oracle(x: Fraction, bits: int) -> Fraction:
    """atan(x) for |x| < 1 via the alternating Maclaurin series."""
    x = Fraction(x)
    assert abs(x) < 1
    x2 = x * x
    term = x
    total = Fraction(0)
    j = 0
    while True:
        contrib = term / (2 * j + 1)
        total += contrib if j % 2 == 0 else -contrib
        term *= x2
        j += 1
        if abs(term) / (2 * j + 1) < Fraction(1, 2 ** (bits + 1)):
            return total


def pi_oracle(bits: int) -> Fraction:
    """Machin: pi = 16 atan(1/5) - 4 atan(1/239)."""
    return 16 * atan_oracle(Fraction(1, 5), bits + 5) - 4 * atan_oracle(
        Fraction(1, 239), bits + 5)


def close_to(value: Fraction, target: Fraction, bits: int) -> bool:
    return abs(Fraction(value) - Fraction(target)) <= Fraction(1, 2 ** bits)


def g_derivative(m: int, a: int, asw, cs) -> Fraction:
    """m-th derivative at integer a of g(x) = sum_k As_k/(x+k) + Cs_k/(x+k)^2."""
    s = Fraction(0)
    for k in range(len(cs)):
        base = a + k
        pw = base ** (m + 1)
        s += asw[k] / pw + Fraction((m + 1) * cs[k], pw * base)
    return math.factorial(m) * (-s if m % 2 else s)


def em_remainder(a: int, K: int, asw, cs) -> Fraction:
    """|B_{2K+2}| / (2K+2)! |g^(2K)(a)|."""
    b = abs(exact.bernoulli(2 * K + 2))
    return b / math.factorial(2 * K + 2) * abs(g_derivative(2 * K, a, asw, cs))


def em_corr(a: int, K: int, asw, cs) -> Fraction:
    """sum_{j=1..K} B_2j / (2j)! g^(2j-2)(a), one order at a time."""
    return sum((exact.bernoulli(2 * j) / math.factorial(2 * j)
                * g_derivative(2 * j - 2, a, asw, cs)
                for j in range(1, K + 1)), Fraction(0))


def residue_weights(n: int):
    """[2 C(n,k)^2 (H_k - H_{n-k}) for k = 0..n], term by term."""
    return [2 * math.comb(n, k) ** 2 * (exact.harmonic(k) - exact.harmonic(n - k))
            for k in range(n + 1)]


def A_sum(n: int) -> Fraction:
    """A_n = sum_j C(n,j)^2 H_{n+j}, a running Fraction sum."""
    return sum((math.comb(n, j) ** 2 * exact.harmonic(n + j) for j in range(n + 1)),
               Fraction(0))
