"""Independent slow-but-exact oracles used only by the tests.

Everything here is computed in pure Fraction arithmetic with explicit
truncation bounds, so these values owe nothing to the package's own
arithmetic or to mpmath: ln via argument reduction plus the atanh series,
pi via the Machin formula with alternating-series remainders, and Euler's
constant by Euler-Maclaurin over the exact H_N (the cross-check of the
package's Brent-McMillan split, with which it shares no log code).  The
Euler-Maclaurin kernel sums, the residue weights and A_n are the per-term
Fraction formulas over the harmonic table, one term (and one order) at a
time.
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


def em_gamma(p: int) -> tuple:
    """(g, e) with |gamma - g| <= e < 2^-(p+7), by Euler-Maclaurin:

        gamma = H_N - ln N - 1/(2N) + sum_{k=1..K} B_2k / (2k N^2k) + R,
        |R| <= |B_{2K+2}| / ((2K+2) N^(2K+2)), the first omitted term.

    H_N and the Bernoulli numbers are exact, and N = 2^m, so ln N = m ln 2
    from ln2_oracle.  (m, K) is the cheapest pair, by N + 48 K, whose
    remainder Stirling's formula puts below 2^-(p+8) (2 bits of slack cover
    the zeta factor of |B_{2K+2}|); e is the exact remainder plus the error
    of m ln 2.
    """
    target = p + 8

    def params(K):
        log2_b = (1 + math.lgamma(2 * K + 3) / math.log(2)
                  - (2 * K + 2) * math.log2(2 * math.pi) + 2)
        m = max(3, -(-(target + max(int(log2_b) + 1, 0)) // (2 * K + 2)))
        return (1 << m) + 48 * K, m, K

    _, m, K = min(params(K) for K in range(6, 201, 2))
    N = 1 << m
    g = exact.harmonic(N) - Fraction(1, 2 * N)
    for k in range(1, K + 1):
        g += exact.bernoulli(2 * k) / (2 * k * N ** (2 * k))
    ln2_bits = target + m.bit_length()
    g -= m * ln2_oracle(ln2_bits)
    rem = abs(exact.bernoulli(2 * K + 2)) / ((2 * K + 2) * N ** (2 * K + 2))
    return g, rem + Fraction(m, 2 ** ln2_bits)


def bm_cutoff_scan(n: int, w: int) -> int:
    """Brent-McMillan's cutoff K for n at w bits by a linear scan: the least
    K from 3n whose tail bound, estimated as 2 bitlen(K+1) t_{K+1} / t_n
    with log2 t_k from lgamma, is below 2^-(w+8)."""
    ln_n = math.log(n)

    def log2_t(k: int) -> float:
        return 2 * (k * ln_n - math.lgamma(k + 1)) / math.log(2)

    K = 3 * n
    while (log2_t(K + 1) - log2_t(n) + math.log2(2 * (K + 1).bit_length())
           > -(w + 8)):
        K += 1
    return K


def bm_sums(n: int, K: int) -> tuple:
    """(V_K, S_K, t_K, H_K) of Brent-McMillan's sums, exactly, term by term:
    t_k = (n^k / k!)^2, V_K = sum_{k=0..K} t_k, S_K = sum_{k=1..K} t_k H_k."""
    t, h = Fraction(1), Fraction(0)
    V, S = Fraction(1), Fraction(0)
    for k in range(1, K + 1):
        t = t * n * n / (k * k)
        h += Fraction(1, k)
        V += t
        S += t * h
    return V, S, t, h


def leading_digits(q: Fraction, dps: int) -> tuple:
    """(k, num, den) for q != 0: 10^k <= |q| < 10^(k+1), and num / den is
    |q| 10^(dps-1-k), which lies in [10^(dps-1), 10^dps)."""
    q = Fraction(q)
    num, den = abs(q.numerator), q.denominator

    def scaled(e):  # (num 10^e, den) as integers
        return (num * 10 ** e, den) if e >= 0 else (num, den * 10 ** -e)

    k = (num.bit_length() - den.bit_length()) * 1233 >> 12  # 1233/4096 ~ log10 2
    while True:
        n, d = scaled(-k)
        if n < d:
            k -= 1
        elif n >= 10 * d:
            k += 1
        else:
            return (k,) + scaled(dps - 1 - k)


def decimal_half_up(q: Fraction, dps: int) -> str:
    """q rounded half up to dps significant digits, in mpmath's layout:
    fixed point when the leading digit's exponent k has
    min(-(dps // 3), -5) < k < dps, else d.ddd with e+k or e-k, trailing
    zeros stripped.  Works on the exact numerator and denominator; only the
    dps digits go through str(), so no int-to-str limit applies."""
    q = Fraction(q)
    if q == 0:
        return "0.0"
    k, n, d = leading_digits(q, dps)
    m = (2 * n + d) // (2 * d)  # floor(n / d + 1/2)
    if m == 10 ** dps:
        m, k = m // 10, k + 1
    digits = str(m)
    if min(-(dps // 3), -5) < k < dps:
        if k < 0:
            text = "0." + "0" * (-k - 1) + digits.rstrip("0")
        else:
            text = digits[:k + 1] + "." + (digits[k + 1:].rstrip("0") or "0")
    else:
        text = f"{digits[0]}.{digits[1:].rstrip('0') or '0'}e{k:+d}"
    return ("-" if q < 0 else "") + text


def agreeing_bits(x: Fraction, y: Fraction, cap: int) -> int:
    """-log2 |x - y| to within one bit, or cap when x == y."""
    d = abs(Fraction(x) - Fraction(y))
    if d == 0:
        return cap
    return d.denominator.bit_length() - d.numerator.bit_length()


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


def factor_oracle(k: int) -> dict:
    """{q: v_q(k)} for an integer k >= 1, by trial division by every d."""
    out = {}
    d = 2
    while d * d <= k:
        while k % d == 0:
            out[d] = out.get(d, 0) + 1
            k //= d
        d += 1
    if k > 1:
        out[k] = out.get(k, 0) + 1
    return out


def range_log_vector(den: int, lo: int, weights) -> tuple:
    """(den, {q: c_q}) with sum_i weights[i] ln(lo + i) = sum_q c_q ln q,
    one factorisation per integer; zero entries left out."""
    acc = {}
    for x, a in enumerate(weights, lo):
        for q, e in factor_oracle(x).items():
            acc[q] = acc.get(q, 0) + a * e
    return den, {q: c for q, c in acc.items() if c}


def term_by_term_prime_logs(q_max: int, p: int) -> dict:
    """{q: (x_q, e_q)} with |2^p ln q - x_q| <= e_q for every prime q <= q_max.

    The prime-log table's earlier algorithm, kept as an oracle for its
    floors: ln 2 = 2 atanh(1/3) and ln q = ln(q-1) + 2 atanh(1/(2q-1)),
    each atanh summed term by term with floor divisions at p + g bits.
    Each of the J floors loses less than 1 and the omitted tail is below 1,
    so the sum is within J + 1 of 2^(p+g) atanh(1/m); shifting twice it
    down by g bits adds less than one ulp.
    """
    def two_atanh_recip(m):
        g = p.bit_length() + 2
        m2 = m * m
        term = (1 << (p + g)) // m
        s = j = 0
        while term:
            s += term // (2 * j + 1)
            term //= m2
            j += 1
        return (2 * s) >> g, 1 + (-(-(2 * j + 2) >> g))

    logs = {}
    for q in range(2, q_max + 1):
        if factor_oracle(q) != {q: 1}:
            continue
        x, e = two_atanh_recip(2 * q - 1)
        for r, k in factor_oracle(q - 1).items():
            x += k * logs[r][0]
            e += k * logs[r][1]
        logs[q] = (x, e)
    return logs


def factorial_log_vector(den: int, lo: int, weights) -> tuple:
    """(den, {q: c_q}) with sum_i weights[i] ln((lo + i)!) = sum_q c_q ln q,
    from the factorisation of every factor of every (lo + i)!."""
    acc, fact = {}, {}
    for m in range(1, lo + len(weights)):
        for q, e in factor_oracle(m).items():
            fact[q] = fact.get(q, 0) + e
        if m >= lo:
            for q, e in fact.items():
                acc[q] = acc.get(q, 0) + weights[m - lo] * e
    return den, {q: c for q, c in acc.items() if c}
