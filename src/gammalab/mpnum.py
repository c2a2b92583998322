"""Arbitrary-precision values carrying certified absolute error bounds.

Values are raw mpmath floats (``(sign, mantissa, exponent, bitcount)``
tuples) manipulated through ``mpmath.libmp`` at an explicit precision that
is always passed as an argument -- there is no global precision state.
Every operation propagates an absolute error bound alongside the value;
bound arithmetic is done at coarse precision with *upward* rounding, so
for each :class:`Bounded` the true real number lies in
``[value - err, value + err]``.

Logarithms of integers (``ln_int``, ``log_factorial``, ``ln2_const`` and
every log inside the per-n quantities) have proven bounds: each is an
exact vector over the primes dotted with a fixed-point table of ``ln q``
built from ``ln q = ln(q-1) + 2 atanh(1/(2q-1))`` with an explicit
truncation bound per entry (:class:`PrimeLogTable`).  Only ``pi`` and
``b_ln``/``b_sqrt`` of non-integer arguments remain trusted: they are
evaluated with 10 guard bits and claimed accurate to
``2^(1-p) * max(1, |result|)``; the backend is accurate to a couple of
ulp, so the claim has orders of magnitude of slack.  Independent series
oracles in the test suite check this on samples.
"""

from __future__ import annotations

import math
import threading
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from mpmath import mp
from mpmath.libmp import (
    fone,
    fzero,
    from_int,
    from_man_exp,
    from_rational,
    mpf_abs,
    mpf_add,
    mpf_cmp,
    mpf_div,
    mpf_log,
    mpf_mul,
    mpf_neg,
    mpf_pi,
    mpf_pos,
    mpf_shift,
    mpf_sqrt,
    mpf_sub,
    round_down,
    to_str,
)

from . import exact

__all__ = [
    "Bounded",
    "PrecisionPolicy",
    "PrecisionInsufficient",
    "PrecisionExhausted",
    "b_add",
    "b_sub",
    "b_neg",
    "b_abs",
    "b_mul",
    "b_mul_int",
    "b_scale",
    "b_div",
    "b_ln",
    "b_sqrt",
    "b_sum",
    "ln_int",
    "ln2_const",
    "pi_const",
    "euler_gamma",
    "euler_gamma_pair",
    "log_factorial",
    "digamma_int",
    "frac_part_certified",
    "agrees",
    "raw_to_fraction",
]

# precision for bound arithmetic; bounds are always rounded upward
_EPREC = 48


class PrecisionInsufficient(Exception):
    """The requested certification cannot be made at the current precision.

    ``extra_bits`` estimates how many additional bits would be needed
    (None when no finite amount can help, e.g. an exactly-integer value
    with a nonzero bound).
    """

    def __init__(self, message: str, extra_bits: Optional[int] = None):
        super().__init__(message)
        self.extra_bits = extra_bits


class PrecisionExhausted(Exception):
    """Auto-escalation hit the policy's precision ceiling."""


def _is_special(x) -> bool:
    return x[1] == 0 and x != fzero


def _up_add(a, b):
    return mpf_add(a, b, _EPREC, "u")


def _up_mul(a, b):
    return mpf_mul(a, b, _EPREC, "u")


def _up_div(a, b):
    return mpf_div(a, b, _EPREC, "u")


def _down_sub(a, b):
    return mpf_sub(a, b, _EPREC, "d")


def _rnd_bound(val, p: int):
    # round-to-nearest at p bits errs by at most 2^-p * |result|
    return mpf_shift(mpf_abs(val), -p)


def _fn_err(val, p: int):
    # claimed bound for transcendental primitives: 2^(1-p) * max(1, |val|)
    a = mpf_abs(val)
    if mpf_cmp(a, fone) < 0:
        a = fone
    return mpf_shift(a, 1 - p)


def raw_to_fraction(x) -> Fraction:
    """Exact rational value of a raw mpf (they are all dyadic)."""
    if _is_special(x):
        raise ValueError("non-finite value cannot be converted exactly")
    sign, man, exp, _ = x
    n = int(man)
    if sign:
        n = -n
    if exp >= 0:
        return Fraction(n << exp)
    return Fraction(n, 1 << -exp)


def _fraction_to_raw_up(q: Fraction):
    # upper bound on a nonnegative rational, for bound bookkeeping
    if q < 0:
        raise ValueError("bounds must be nonnegative")
    return from_rational(q.numerator, q.denominator, _EPREC, "u")


@dataclass(frozen=True)
class Bounded:
    """An arbitrary-precision value with a certified absolute error bound."""

    val: tuple
    err: tuple

    @classmethod
    def exact_int(cls, n: int) -> "Bounded":
        return cls(from_int(n), fzero)

    @classmethod
    def from_fraction(cls, q: Fraction, p: int) -> "Bounded":
        q = Fraction(q)
        v = from_rational(q.numerator, q.denominator, p, "n")
        if raw_to_fraction(v) == q:
            return cls(v, fzero)
        return cls(v, _rnd_bound(v, p))

    @property
    def mpf(self):
        return mp.make_mpf(self.val)

    @property
    def err_mpf(self):
        return mp.make_mpf(self.err)

    def __float__(self) -> float:
        return float(self.mpf)

    def __repr__(self) -> str:
        return f"Bounded({to_str(self.val, 20)} ± {to_str(self.err, 3)})"

    def decimal(self, dps: int) -> str:
        try:
            return to_str(self.val, dps)
        except ValueError:
            # past 2^3500 mpmath scales by a power of ten taken from the
            # mantissa exponent, so a long mantissa leaves an integer part
            # that str() refuses (over 4300 digits); a short one does not
            return to_str(mpf_pos(self.val, 4 * dps + 64, round_down), dps)

    def err_decimal(self, dps: int = 3) -> str:
        return to_str(self.err, dps)

    def value_fraction(self) -> Fraction:
        return raw_to_fraction(self.val)

    def err_fraction(self) -> Fraction:
        return raw_to_fraction(self.err)

    def contains(self, q: Fraction) -> bool:
        """True iff the exact rational q lies inside [val - err, val + err]."""
        return abs(self.value_fraction() - Fraction(q)) <= self.err_fraction()

    def is_exact(self) -> bool:
        return self.err == fzero

    def magnitude_log2(self) -> Optional[int]:
        """floor-ish log2 |val|, or None for zero."""
        if self.val == fzero:
            return None
        return self.val[2] + self.val[3] - 1


def agrees(x: Bounded, y: Bounded) -> bool:
    """Certified-overlap check: |x - y| <= err_x + err_y, exactly."""
    diff = abs(x.value_fraction() - y.value_fraction())
    return diff <= x.err_fraction() + y.err_fraction()


def b_add(x: Bounded, y: Bounded, p: int) -> Bounded:
    v = mpf_add(x.val, y.val, p, "n")
    e = _up_add(_up_add(x.err, y.err), _rnd_bound(v, p))
    return Bounded(v, e)


def b_neg(x: Bounded) -> Bounded:
    return Bounded(mpf_neg(x.val), x.err)


def b_abs(x: Bounded) -> Bounded:
    return Bounded(mpf_abs(x.val), x.err)


def b_sub(x: Bounded, y: Bounded, p: int) -> Bounded:
    v = mpf_sub(x.val, y.val, p, "n")
    e = _up_add(_up_add(x.err, y.err), _rnd_bound(v, p))
    return Bounded(v, e)


def b_mul(x: Bounded, y: Bounded, p: int) -> Bounded:
    v = mpf_mul(x.val, y.val, p, "n")
    e = _up_add(_up_mul(mpf_abs(x.val), y.err), _up_mul(mpf_abs(y.val), x.err))
    e = _up_add(e, _up_mul(x.err, y.err))
    e = _up_add(e, _rnd_bound(v, p))
    return Bounded(v, e)


def b_mul_int(x: Bounded, c: int, p: int) -> Bounded:
    v = mpf_mul(x.val, from_int(c), p, "n")
    e = _up_add(_up_mul(from_int(abs(c)), x.err), _rnd_bound(v, p))
    return Bounded(v, e)


def b_scale(x: Bounded, q: Fraction, p: int) -> Bounded:
    """Multiply by an exact rational."""
    q = Fraction(q)
    if q.denominator == 1:
        return b_mul_int(x, q.numerator, p)
    return b_mul(x, Bounded.from_fraction(q, p + 8), p)


def b_div(x: Bounded, y: Bounded, p: int) -> Bounded:
    y_lo = _down_sub(mpf_abs(y.val), y.err)
    if mpf_cmp(y_lo, fzero) <= 0:
        raise PrecisionInsufficient("divisor is not certified away from zero")
    v = mpf_div(x.val, y.val, p, "n")
    num = _up_add(x.err, _up_mul(_up_add(mpf_abs(v), _rnd_bound(v, p)), y.err))
    e = _up_add(_up_div(num, y_lo), _rnd_bound(v, p))
    return Bounded(v, e)


def b_ln(x: Bounded, p: int) -> Bounded:
    """Natural log of a value certified positive."""
    x_lo = _down_sub(x.val, x.err)
    if mpf_cmp(x_lo, fzero) <= 0:
        if mpf_cmp(x.val, fzero) <= 0:
            raise ValueError("log of a non-positive value")
        raise PrecisionInsufficient("log argument not certified positive")
    if x.err == fzero and x.val == fone:
        return Bounded(fzero, fzero)
    v = mpf_log(x.val, p + 10, "n")
    e = _fn_err(v, p)
    if x.err != fzero:
        e = _up_add(e, _up_div(x.err, x_lo))
    return Bounded(v, e)


def b_sqrt(x: Bounded, p: int) -> Bounded:
    x_lo = _down_sub(x.val, x.err)
    if mpf_cmp(x_lo, fzero) < 0:
        raise PrecisionInsufficient("sqrt argument not certified nonnegative")
    v = mpf_sqrt(x.val, p + 10, "n")
    e = mpf_shift(mpf_abs(v), 1 - p)
    if x.err != fzero:
        if mpf_cmp(x_lo, fzero) == 0:
            raise PrecisionInsufficient("sqrt argument not certified positive")
        root_lo = mpf_sqrt(x_lo, _EPREC, "d")
        e = _up_add(e, _up_div(x.err, mpf_shift(root_lo, 1)))
    return Bounded(v, e)


def b_sum(items, p: int) -> Bounded:
    acc = Bounded(fzero, fzero)
    for it in items:
        acc = b_add(acc, it, p)
    return acc


# --- prime-log table -----------------------------------------------------
#
# Every logarithm gammalab takes is the log of an integer, so it is an
# exact vector {q: c_q} over the primes, and its value is sum_q c_q ln q.
# One table per process holds x_q ~ 2^P ln q as fixed-point integers with
# a proven error e_q in ulps, |2^P ln q - x_q| <= e_q, built from
#
#     ln q = ln(q-1) + 2 atanh(1/(2q-1))      (q = 2 gives 2 atanh(1/3)),
#
# where ln(q-1) is the exact dot product of the factorisation of q-1 with
# smaller entries, so e_q = sum_r v_r(q-1) e_r + (atanh error).  A dot
# product at working precision w reads each entry as floor(2^w ln q),
# certified from x_q +- e_q (Johansson's multi-prime reduction with a
# certified table, arXiv:2207.02501).  Its result therefore depends on w
# alone, never on how far the table has grown, which keeps data files
# byte-identical however the work is split across processes.

_DOT_GUARD = 16     # working bits of a dot product beyond those asked for
_FLOOR_MARGIN = 32  # table bits beyond a dot's working bits
_SIEVE_CAP = 1 << 20  # larger integers are factored by trial division


def _two_atanh_recip(m: int, p: int) -> Tuple[int, int]:
    """(t, e) with |2^p * 2 atanh(1/m) - t| <= e, for an integer m >= 3.

    With W = p + g and T_j = 2^W / m^(2j+1), the loop adds
    floor(T_j / (2j+1)) for j < J, where J is the first index with
    floor(T_J) = 0 (nested floor divisions are exact: floor(floor(x)/k) =
    floor(x/k)).  Each of the J floors loses less than 1, and the omitted
    tail is at most T_J / (2J+1) * m^2/(m^2-1), which is below 1 (T_J < 1,
    and T_0 <= 1 - 1/m when J = 0), so the sum s satisfies
    0 <= 2^W atanh(1/m) - s < J + 1.  Shifting 2s down by g bits adds less
    than one more ulp: the error of t is below 1 + (2J+2) / 2^g.
    """
    g = p.bit_length() + 2
    m2 = m * m
    term = (1 << (p + g)) // m
    s = 0
    j = 0
    while term:
        s += term // (2 * j + 1)
        term //= m2
        j += 1
    return (2 * s) >> g, 1 + (-(-(2 * j + 2) >> g))


def _spf_sieve(limit: int) -> Tuple[array, List[int]]:
    """Smallest prime factor of each of 0..limit, and the primes <= limit."""
    spf = array("l", range(limit + 1))
    # Descending i: the last write to spf[j] comes from the smallest i >= 2
    # with i | j and i^2 <= j, which is the smallest prime factor of j.
    for i in range(math.isqrt(limit), 1, -1):
        spf[i * i::i] = array("l", [i]) * len(range(i * i, limit + 1, i))
    return spf, [q for q in range(2, limit + 1) if spf[q] == q]


class PrimeLogTable:
    """Certified fixed-point logs of the primes seen so far, and a sieve.

    Both grow geometrically: the table precision doubles (or jumps to
    what a dot product needs) only when a dot asks for more bits than it
    holds, and the sieve doubles only when a larger integer must be
    factored (integers from ``_SIEVE_CAP`` on need it only up to their
    square root).  A process therefore rebuilds each O(log) times however
    many logs it takes; ``builds`` and ``sieves`` count the rebuilds.
    Entries are added one prime at a time, each from entries already
    present.  A rebuild drops every entry, so it costs only the primes
    (and their q-1 chains) asked for after it.
    """

    def __init__(self) -> None:
        self.prec = 0
        self.builds = 0
        self.sieves = 0
        self._logs: Dict[int, Tuple[int, int]] = {}  # q -> (x_q, e_q)
        self._sieve: Tuple[array, List[int]] = (array("l", [0, 1]), [])
        self._lock = threading.RLock()

    def _sieve_upto(self, k: int) -> Tuple[array, List[int]]:
        sieve = self._sieve
        if k >= len(sieve[0]):
            with self._lock:
                sieve = self._sieve
                if k >= len(sieve[0]):
                    grown = min(2 * (len(sieve[0]) - 1), _SIEVE_CAP)
                    sieve = _spf_sieve(max(k, grown, 64))
                    self._sieve = sieve
                    self.sieves += 1
        return sieve

    def factor(self, k: int) -> List[Tuple[int, int]]:
        """Prime factorisation [(q, v_q(k)), ...] of an integer k >= 1."""
        out = []
        if k >= _SIEVE_CAP:
            # trial division; a cofactor with no prime factor up to its
            # square root is 1 or a prime
            for q in self._sieve_upto(min(math.isqrt(k), _SIEVE_CAP))[1]:
                if q * q > k:
                    break
                e = 0
                while k % q == 0:
                    k //= q
                    e += 1
                if e:
                    out.append((q, e))
            if q * q <= k:
                raise ValueError(f"{k} has no prime factor up to {q}; "
                                 "it is too large to factor by trial division")
            return out + [(k, 1)] if k > 1 else out
        spf = self._sieve_upto(k)[0]
        while k > 1:
            q = spf[k]
            e = 0
            while k % q == 0:
                k //= q
                e += 1
            out.append((q, e))
        return out

    def primes_upto(self, m: int) -> List[int]:
        primes = self._sieve_upto(m)[1]
        return primes[:bisect_right(primes, m)]

    def _add(self, q: int) -> None:
        x, e = _two_atanh_recip(2 * q - 1, self.prec)
        for r, k in self.factor(q - 1):
            if r not in self._logs:
                self._add(r)
            xr, er = self._logs[r]
            x += k * xr
            e += k * er
        self._logs[q] = (x, e)

    def _rebuild(self, prec: int) -> None:
        # entries come back on demand, from the primes asked for next
        self.prec = prec
        self.builds += 1
        self._logs = {}

    def floor_logs(self, primes: Iterable[int], w: int) -> Dict[int, int]:
        """{q: floor(2^w ln q)} for primes q, exactly."""
        with self._lock:
            if self.prec < w + _FLOOR_MARGIN:
                self._rebuild(max(w + _FLOOR_MARGIN, 2 * self.prec))
            while True:
                shift = self.prec - w
                out = {}
                for q in primes:
                    if q not in self._logs:
                        self._add(q)
                    x, e = self._logs[q]
                    lo = (x - e) >> shift
                    if lo != (x + e) >> shift:
                        break  # x_q +- e_q straddles a multiple of 2^shift
                    out[q] = lo
                else:
                    return out
                self._rebuild(2 * self.prec)


_TABLE = PrimeLogTable()

Coeff = Union[int, Fraction]
# (D, {key: a}): the rational vector {key: a / D} as integers over one
# denominator D, not necessarily the least; zero entries are left out
IntVec = Tuple[int, Dict[int, int]]


def _integer_weights(weights: Mapping[int, Coeff]) -> IntVec:
    # (D, {x: D * w_x}) with D the least common denominator
    den = 1
    for w in weights.values():
        den = math.lcm(den, w.denominator)
    return den, {x: w.numerator * (den // w.denominator)
                 for x, w in weights.items() if w}


def _scaled_vec(den: int, acc: Dict[int, int]) -> Dict[int, Coeff]:
    # the mapping view of a pair
    if den == 1:
        return acc
    return {q: Fraction(c, den) for q, c in acc.items()}


def _legendre(m: int, q: int) -> int:
    """v_q(m!) = sum_i floor(m / q^i)."""
    v = 0
    while m:
        m //= q
        v += m
    return v


def _int_log_pair(den: int, ints: Mapping[int, int]) -> IntVec:
    """Prime vector of sum_x (a_x / den) ln x over integers x >= 1."""
    acc: Dict[int, int] = {}
    for x, a in ints.items():
        if a:
            for q, e in _TABLE.factor(x):
                acc[q] = acc.get(q, 0) + a * e
    return den, {q: c for q, c in acc.items() if c}


def _int_log_vec(weights: Mapping[int, Coeff]) -> Dict[int, Coeff]:
    """Prime vector of sum_x w_x ln x over integers x >= 1."""
    return _scaled_vec(*_int_log_pair(*_integer_weights(weights)))


def _factorial_log_pair(den: int, ints: Mapping[int, int]) -> IntVec:
    """Prime vector of sum_m (a_m / den) ln(m!) over integers m >= 0.

    With m0 the smallest m, ln(m!) = ln(m0!) + sum_{m0 < x <= m} ln x, so
    the total weight goes to Legendre's vector of m0! and each x in
    (m0, max m] carries the weight of every m >= x.
    """
    ints = {m: a for m, a in ints.items() if a}
    ms = sorted(ints)
    acc: Dict[int, int] = {}
    if not ms:
        return den, acc
    suffix = sum(ints.values())
    if suffix:
        for q in _TABLE.primes_upto(ms[0]):
            acc[q] = suffix * _legendre(ms[0], q)
    i = 0
    for x in range(ms[0] + 1, ms[-1] + 1):
        while ms[i] < x:
            suffix -= ints[ms[i]]
            i += 1
        if suffix:
            for q, e in _TABLE.factor(x):
                acc[q] = acc.get(q, 0) + suffix * e
    return den, {q: c for q, c in acc.items() if c}


def _factorial_log_vec(weights: Mapping[int, Coeff]) -> Dict[int, Coeff]:
    """Prime vector of sum_m w_m ln(m!) over integers m >= 0."""
    return _scaled_vec(*_factorial_log_pair(*_integer_weights(weights)))


def _prime_dot(vec: Union[Mapping[int, Coeff], IntVec], p: int) -> Bounded:
    """sum_q c_q ln q for an exact vector {q: c_q}, rounded to p bits.

    ``vec`` is a mapping {q: c_q} or a pair (D, {q: a_q}) with c_q = a_q / D.
    With a_q = D c_q and f_q = floor(2^w ln q), each 2^w ln q - f_q lies in
    [0, 1), so s = sum_q a_q f_q is within sum_q |a_q| of D 2^w sum_q c_q ln q.
    The bound is that, over D 2^w, plus the rounding of s / (D 2^w) to p
    bits.  Scaling D and every a_q by one integer leaves both rationals, and
    so the result, unchanged.
    """
    den, ints = vec if isinstance(vec, tuple) else _integer_weights(vec)
    w = p + _DOT_GUARD
    logs = _TABLE.floor_logs(ints, w) if ints else {}
    s = sum(a * logs[q] for q, a in ints.items())
    e = sum(abs(a) for a in ints.values())
    v = from_rational(s, den << w, p, "n")
    err = _up_add(from_rational(e, den << w, _EPREC, "u"), _rnd_bound(v, p))
    return Bounded(v, err)


def ln_int(k: int, p: int) -> Bounded:
    """ln k for an exact integer k >= 1.

    k must factor by trial division up to 2^20: at most one prime factor
    of k may exceed 2^20, and it must be below 2^40.
    """
    if k < 1:
        raise ValueError("ln_int needs k >= 1")
    return _prime_dot(_int_log_vec({k: 1}), p)


def log_factorial(m: int, p: int) -> Bounded:
    """ln(m!) from Legendre's vector, rounded to p + 8 bits.

    The bound stays below the documented m * 2^(2-p) envelope: rounding
    costs ln(m!) 2^-(p+8) <= m ln m 2^-(p+8), and the dot runs at p + 24
    bits, costing sum_q v_q(m!) 2^-(p+24) <= m log2 m 2^-(p+24).
    """
    if m < 0:
        raise ValueError("log_factorial needs m >= 0")
    return _prime_dot(_factorial_log_vec({m: 1}), p + 8)


def ln2_const(p: int) -> Bounded:
    """ln 2, the table's first entry."""
    return _prime_dot({2: 1}, p)


def pi_const(p: int) -> Bounded:
    v = mpf_pi(p + 10)
    return Bounded(v, _fn_err(v, p))


# --- Euler's constant by Brent-McMillan ----------------------------------
#
# Algorithm B1 of Brent & McMillan (Math. Comp. 34, 1980): with
# t_k = (n^k / k!)^2, V = sum_{k>=0} t_k = I_0(2n) and
# S = sum_{k>=1} t_k H_k,
#
#     gamma = S/V - ln n - K_0(2n)/I_0(2n),
#     0 < K_0(2n)/I_0(2n) < pi e^{-4n}       (Brent & Johansson,
#                                              Math. Comp. 84, 2015).
#
# Binary splitting.  With t_k = t_{k-1} n^2 / k^2, a node for k in [a, b)
# carries exact integers with
#
#     P = n^(2(b-a)),  Q = prod k^2,  D = prod k,  C/D = sum 1/k,
#     T/Q = sum_k t_k / t_{a-1},  W/(QD) = sum_k (t_k / t_{a-1}) (H_k - H_{a-1}).
#
# For k in the right half [m, b) of a split, t_k / t_{a-1} =
# (P1/Q1) (t_k / t_{m-1}) and H_k - H_{a-1} = C1/D1 + (H_k - H_{m-1}), so
#
#     C = C1 D2 + C2 D1,  T = T1 Q2 + P1 T2,
#     W = W1 Q2 D2 + P1 (C1 T2 D2 + W2 D1),
#
# and a leaf k is (n^2, k^2, k, 1, n^2, n^2).  Over [1, K+1), V_K = 1 + T/Q
# and S_K = W/(QD), so S_K/V_K = W / (D (Q + T)): one floor division at w
# bits, which loses less than 2^-w.  Nothing else is rounded.
#
# Tails.  For k >= K+1, with K >= 3n, t_{k+1}/t_k = n^2/(k+1)^2 <= 1/4 and
# H_{k+1}/H_k <= 1 + 1/(k+1) <= 4/3, so the omitted parts are
# eps_V <= (4/3) t_{K+1} and eps_S <= (3/2) t_{K+1} H_{K+1}.  Then
# S/V - S_K/V_K = (eps_S - (S_K/V_K) eps_V) / V is a difference of two
# nonnegative terms, and S_K/V_K <= H_K (a weighted mean of H_0..H_K), so
# its size is at most (3/2) H_{K+1} t_{K+1} / V_K.  With
# H_m <= 1 + ln m <= (4/3) bitlen(m) for m >= 2, Q = (K!)^2 and
# P = n^(2K), that is at most
#
#     2 bitlen(K+1) n^2 P / ((K+1)^2 (Q + T)),
#
# bounded from the bit lengths of the factors (bitlen(xy) <= bitlen(x) +
# bitlen(y) <= bitlen(xy) + 1).
#
# Bessel term.  pi e^{-4n} < 4 * 2^-(4n log2 e) <= 2^(2 - floor(5.7704 n)),
# as 5.7704 < 4 log2 e = 5.77078...

_BM_GUARD = 32  # working bits beyond those asked for


def _bm_split(n2: int, a: int, b: int) -> Tuple[int, int, int, int, int, int]:
    """(P, Q, D, C, T, W) of the terms k in [a, b), for n2 = n^2."""
    if b - a == 1:
        return n2, a * a, a, 1, n2, n2
    m = (a + b) // 2
    P1, Q1, D1, C1, T1, W1 = _bm_split(n2, a, m)
    P2, Q2, D2, C2, T2, W2 = _bm_split(n2, m, b)
    return (P1 * P2, Q1 * Q2, D1 * D2, C1 * D2 + C2 * D1, T1 * Q2 + P1 * T2,
            W1 * Q2 * D2 + P1 * (C1 * T2 * D2 + W2 * D1))


def _bm_params(w: int) -> Tuple[int, int]:
    """(n, K) with the Bessel term below 2^-w and the tails near 2^-(w+8).

    n is the least with floor(5.7704 n) >= w + 2.  K is the least from 3n
    whose tail bound is estimated below 2^-(w+8), with V_K >= t_n and
    log2 t_k from lgamma; the tail bound actually used is recomputed
    exactly from the sums.  K comes out near 3.59 n, the root of
    a (ln a - 1) = 1 that balances the tails against e^{-4n}.
    """
    n = -(-(w + 2) * 10000 // 57704)
    ln_n = math.log(n)

    def log2_t(k: int) -> float:
        return 2 * (k * ln_n - math.lgamma(k + 1)) / math.log(2)

    floor_v = log2_t(n)
    K = 3 * n
    while (log2_t(K + 1) - floor_v + math.log2(2 * (K + 1).bit_length())
           > -(w + 8)):
        K += 1
    return n, K


def euler_gamma(p: int) -> Bounded:
    """Euler's constant by Brent-McMillan, with a certified bound below
    2^-(p+4) (see the derivation above)."""
    w = p + _BM_GUARD
    n, K = _bm_params(w)
    P, Q, D, _, T, W = _bm_split(n * n, 1, K + 1)
    s_over_v = Bounded(from_man_exp((W << w) // (D * (Q + T)), -w),
                       from_man_exp(1, -w))
    g = b_sub(s_over_v, ln_int(n, w), w)
    tail = ((2 * (K + 1).bit_length() * n * n).bit_length() + P.bit_length()
            - ((K + 1) ** 2).bit_length() - (Q + T).bit_length() + 2)
    bessel = 2 - 57704 * n // 10000
    err = _up_add(g.err, _up_add(from_man_exp(1, tail), from_man_exp(1, bessel)))
    return Bounded(g.val, err)


# --- Euler-Maclaurin, the independent cross-check ------------------------
#
#   gamma = H_N - ln N - 1/(2N) + sum_{k=1..K} B_{2k} / (2k N^{2k}) + R,
#   |R| <= first omitted term.
#
# H_N and the correction sum are exact rationals; with N a power of two,
# ln N = m * ln 2.  The error bound is the remainder plus conversion and
# rounding dust.  The exact H_N costs more than O(N), so N is capped at
# 2^18, which reaches p = 5,384 bits (N = 2^18 takes about 5 s and 2^20
# about 40 s with CPython 3.11 on a 2-vCPU x86 guest).

_EM_MAX_LOG2_N = 18


def _em_gamma_params(p: int) -> Tuple[int, int]:
    """Pick (m, K) with N = 2^m so the remainder is below 2^-(p+8).

    The scan sizes |B_{2K+2}| from Stirling's formula (2 bits of slack
    covers the zeta factor); only the chosen K ever computes an exact
    Bernoulli number.  Raises :class:`PrecisionExhausted` when the
    cheapest choice needs N > 2^18.
    """
    target = p + 8
    best = None
    log2_2pi = math.log2(2 * math.pi)
    for K in range(6, 201, 2):
        log2_b = 1 + math.lgamma(2 * K + 3) / math.log(2) \
            - (2 * K + 2) * log2_2pi + 2
        need = target + max(int(log2_b) + 1, 0)
        m = max(3, -(-need // (2 * K + 2)))
        cost = (1 << m) + 48 * K
        if best is None or cost < best[0]:
            best = (cost, m, K)
    if best[1] > _EM_MAX_LOG2_N:
        raise PrecisionExhausted(
            f"Euler-Maclaurin gamma at {p} bits needs N = 2^{best[1]}, "
            f"above the budget 2^{_EM_MAX_LOG2_N}")
    return best[1], best[2]


def _euler_gamma_at(p: int, m: int, K: int) -> Bounded:
    wp = p + 24
    N = 1 << m
    R = exact.harmonic(N) - Fraction(1, 2 * N)
    npow = 1
    n2 = N * N
    for k in range(1, K + 1):
        npow *= n2
        R += exact.bernoulli(2 * k) / (2 * k * npow)
    remainder = abs(exact.bernoulli(2 * K + 2)) / ((2 * K + 2) * (npow * n2))
    ln_n = b_mul_int(ln2_const(wp), m, wp)
    g = b_sub(Bounded.from_fraction(R, wp), ln_n, wp)
    return Bounded(g.val, _up_add(g.err, _fraction_to_raw_up(remainder)))


def euler_gamma_pair(p: int) -> Tuple[Bounded, Bounded, int]:
    """gamma by Brent-McMillan and by Euler-Maclaurin, and their agreement.

    Returns both values and the number of agreeing bits of the difference
    (absolute: agreement to ``b`` bits means |g1 - g2| <= 2^-b).  Raises
    :class:`PrecisionExhausted`, before any summing, when p is beyond the
    Euler-Maclaurin budget.
    """
    m, K = _em_gamma_params(p)
    g1 = euler_gamma(p)
    g2 = _euler_gamma_at(p, m, K)
    diff = abs(g1.value_fraction() - g2.value_fraction())
    if diff == 0:
        bits = p + 64
    else:
        bits = -(diff.numerator.bit_length() - diff.denominator.bit_length())
    return g1, g2, bits


def digamma_int(k: int, p: int) -> Bounded:
    """psi(k+1) = H_k - gamma, from the exact harmonic number."""
    if k < 0:
        raise ValueError("digamma_int needs k >= 0")
    wp = p + 8
    return b_sub(Bounded.from_fraction(exact.harmonic(k), wp), euler_gamma(wp), p)


def frac_part_certified(x: Bounded) -> Tuple[int, Bounded]:
    """Split x into (floor(x), {x}) with the bound proven not to straddle.

    The fractional part uses the floor convention, so {x} is in [0, 1)
    also for negative x.  Raises :class:`PrecisionInsufficient` (with an
    estimate of the missing bits) when [x-err, x+err] contains an integer
    boundary.
    """
    q = raw_to_fraction(x.val)
    e = raw_to_fraction(x.err)
    fl = math.floor(q)
    if e > 0 and (math.floor(q - e) != fl or math.floor(q + e) != fl):
        frac = q - fl
        dist = min(frac, 1 - frac)
        if dist == 0:
            extra = None
        else:
            ratio = e / dist
            extra = max(1, (ratio.numerator.bit_length()
                            - ratio.denominator.bit_length()) + 1) + 8
        raise PrecisionInsufficient(
            f"certified interval straddles an integer near {fl}", extra)
    frac = q - fl
    if frac == 0:
        v = fzero
    else:
        shift = frac.denominator.bit_length() - 1  # exact power of two
        v = from_man_exp(frac.numerator, -shift)
    return fl, Bounded(v, x.err)


@dataclass(frozen=True)
class PrecisionPolicy:
    """Working-precision knobs shared by the per-n computations.

    ``base_bits`` is the floor for every derived working precision;
    ``frac_bits`` is the certified resolution of fractional parts;
    escalation doubles the working precision until the target bound is
    met or ``max_bits`` is hit.
    """

    base_bits: int = 192
    frac_bits: int = 64
    max_bits: int = 1 << 16
    tail_eps: Optional[Fraction] = None  # override for the series cutoff

    def __post_init__(self):
        if self.base_bits < 64:
            raise ValueError("base_bits must be at least 64")
