"""Arbitrary-precision values carrying certified absolute error bounds.

Values are raw dyadic floats in mpmath's format, ``(sign, mantissa,
exponent, bitcount)`` tuples, which this module computes itself: add,
subtract, multiply, divide and square root round the exact result
correctly at a precision passed as an argument (there is no global
precision state), and a port of mpmath's decimal printer, :func:`to_str`,
prints them with mpmath's bytes; mpmath itself is never imported.  Every
operation propagates an absolute error bound alongside the value; bound
arithmetic is done at coarse precision with *upward* rounding, so for each
:class:`Bounded` the true real number lies in ``[value - err, value + err]``.

No transcendental is taken on trust.  Every logarithm is the log of a
rational: an exact vector over the primes dotted with a fixed-point table
of ``ln q`` with an explicit bound per entry (:class:`PrimeLogTable`).
``pi`` comes from Machin's formula with its alternating-series bound
(:func:`pi_const`), and Euler's constant from Brent-McMillan binary
splitting with a proven bound on its tails (:func:`euler_gamma`), which
the test suite checks against an independent Euler-Maclaurin oracle.
"""

from __future__ import annotations

import math
import os
import threading
from array import array
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, compress
from operator import mul
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

__all__ = [
    "Bounded",
    "PrecisionPolicy",
    "PrecisionInsufficient",
    "PrecisionExhausted",
    "b_add",
    "b_sub",
    "b_abs",
    "b_mul",
    "b_mul_int",
    "b_div",
    "b_ln",
    "b_sqrt",
    "ln_int",
    "ln2_const",
    "pi_const",
    "euler_gamma",
    "frac_part_certified",
    "agrees",
    "raw_to_fraction",
]

# --- dyadic arithmetic ---------------------------------------------------
#
# A raw value (sign, man, exp, bc) stands for (-1)^sign man 2^exp.  It is
# normalized as mpmath normalizes it: man is odd, bc is its bit length, and
# zero is (0, 0, 0, 0), so equal values are equal tuples.  Each operation
# computes its result exactly, or exactly enough to decide the rounding, and
# rounds it to prec bits in one of three modes: "n" to nearest with ties to
# even, "u" away from zero, "d" toward zero.  prec 0 keeps the result exact.
# Correct rounding depends on the value alone, so these are the tuples that
# mpmath's correctly rounded operations give.  (mpmath's mpf_add is not
# correctly rounded in one case: for speed it replaces an operand lying far
# below the other by a perturbation, which misrounds when that operand still
# overlaps the other's mantissa; tests/test_dyadic.py shows one.)

fzero = (0, 0, 0, 0)
fone = (0, 1, 0, 1)
round_down = "d"


def _normalize(sign: int, man: int, exp: int, prec: int, rnd: str):
    """(-1)^sign man 2^exp for an integer man >= 0, rounded to prec bits."""
    if not man:
        return fzero
    n = man.bit_length() - prec
    if prec and n > 0:
        if rnd == "n":
            half = man >> (n - 1)  # the kept bits and the first dropped one
            up = half & 1 and (half & 2 or man & ((1 << (n - 1)) - 1))
            man = (half >> 1) + (1 if up else 0)
        elif rnd == "u":
            man = -(-man >> n)
        elif rnd == "d":
            man >>= n
        else:
            raise ValueError(f"unknown rounding mode {rnd!r}")
        exp += n
    tz = (man & -man).bit_length() - 1
    man >>= tz
    return sign, man, exp + tz, man.bit_length()


def from_man_exp(man: int, exp: int, prec: int = 0, rnd: str = "d"):
    """man 2^exp for any integer man."""
    return _normalize(1 if man < 0 else 0, abs(man), exp, prec, rnd)


def from_int(n: int, prec: int = 0, rnd: str = "d"):
    return from_man_exp(n, 0, prec, rnd)


def mpf_pos(s, prec: int = 0, rnd: str = "d"):
    """s rounded to prec bits."""
    return _normalize(s[0], s[1], s[2], prec, rnd) if prec else s


def mpf_abs(s):
    return (0,) + s[1:] if s[0] else s


def mpf_shift(s, n: int):
    """s 2^n, exactly."""
    sign, man, exp, bc = s
    return (sign, man, exp + n, bc) if man else s


def mpf_add(s, t, prec: int = 0, rnd: str = "d"):
    """s + t rounded to prec bits."""
    if not t[1]:
        return mpf_pos(s, prec, rnd)
    if not s[1]:
        return mpf_pos(t, prec, rnd)
    ssign, sman, sexp, _ = s
    tsign, tman, texp, _ = t
    e = min(sexp, texp)
    a = sman << (sexp - e)
    b = tman << (texp - e)
    v = (-a if ssign else a) + (-b if tsign else b)
    return _normalize(1 if v < 0 else 0, abs(v), e, prec, rnd)


def mpf_sub(s, t, prec: int = 0, rnd: str = "d"):
    """s - t rounded to prec bits."""
    return mpf_add(s, (t[0] ^ 1,) + t[1:] if t[1] else t, prec, rnd)


def mpf_mul(s, t, prec: int = 0, rnd: str = "d"):
    """s t rounded to prec bits."""
    return _normalize(s[0] ^ t[0], s[1] * t[1], s[2] + t[2], prec, rnd)


def mpf_div(s, t, prec: int, rnd: str = "d"):
    """s / t rounded to prec >= 1 bits.

    The quotient q of man_s 2^extra by man_t has at least prec + 3 bits, so
    rounding drops at least three of them.  A nonzero remainder puts the
    exact quotient strictly between q and q + 1; appending a sticky bit 1,
    2q + 1 lies strictly between the same neighbours, where no point at
    which the rounding changes can fall, so both round alike.
    """
    ssign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    if not tman:
        raise ZeroDivisionError("division by a zero raw value")
    if not sman:
        return fzero
    extra = max(0, prec - sbc + tbc + 3)
    quot, rem = divmod(sman << extra, tman)
    if rem:
        quot, extra = (quot << 1) | 1, extra + 1
    return _normalize(ssign ^ tsign, quot, sexp - texp - extra, prec, rnd)


def mpf_sqrt(s, prec: int, rnd: str = "d"):
    """sqrt(s) rounded to prec >= 1 bits, for s >= 0.

    m = man 2^shift, with exp - shift even, has at least 2 prec + 6 bits, so
    r = isqrt(m) has at least prec + 3; when r^2 < m, the sticky bit 2r + 1
    rounds like the exact root, by the argument of mpf_div.
    """
    sign, man, exp, bc = s
    if sign:
        raise ValueError("square root of a negative raw value")
    shift = max(0, 2 * prec + 6 - bc)
    shift += (exp - shift) & 1
    m = man << shift
    r = math.isqrt(m)
    if r * r != m:
        r, shift = (r << 1) | 1, shift + 2
    return _normalize(0, r, (exp - shift) >> 1, prec, rnd)


def mpf_cmp(s, t) -> int:
    """The sign of s - t: -1, 0 or 1."""
    d = mpf_sub(s, t, 1)  # rounding toward zero keeps the sign
    return (-1 if d[0] else 1) if d[1] else 0


def mpf_pow_int(s, n: int, prec: int, rnd: str = "d"):
    """s^n for an integer n, as mpmath's mpf_pow_int computes it.

    Small powers are exact, then rounded to prec bits.  Larger ones square
    and multiply at workprec = prec + 4 bitlen(n) + 4 bits, cutting each
    product to workprec bits away from zero for "u" and toward it
    otherwise, and round the last product to prec bits; so the result is a
    directed approximation, not a correctly rounded one.  A power n < -1 is
    1 over s^-n, taken at prec + 5 bits in the opposite direction.
    """
    if n == -1:
        return mpf_div(fone, s, prec, rnd)
    if n < 0:
        inverse = mpf_pow_int(s, -n, prec + 5, {"u": "d", "d": "u"}.get(rnd, rnd))
        return mpf_div(fone, inverse, prec, rnd)
    sign, man, exp, bc = s
    sign &= n
    if n <= 2 or man == 1 or bc * n < 1000:
        return _normalize(sign, man ** n, exp * n, prec, rnd)
    workprec = prec + 4 * n.bit_length() + 4
    pm, pe = 1, 0
    while True:
        if n & 1:
            pm, pe = pm * man, pe + exp
            cut = pm.bit_length() - workprec
            if cut > 0:
                pm = -(-pm >> cut) if rnd == "u" else pm >> cut
                pe += cut
            n -= 1
            if not n:
                return _normalize(sign, pm, pe, prec, rnd)
        man, exp = man * man, exp + exp
        cut = man.bit_length() - workprec
        if cut > 0:
            man = -(-man >> cut) if rnd == "u" else man >> cut
            exp += cut
        n //= 2


# precision for bound arithmetic; bounds are always rounded upward
_EPREC = 48


class PrecisionInsufficient(Exception):
    """The requested certification cannot be made at the current precision."""


class PrecisionExhausted(Exception):
    """A precision escalation passed its ceiling (:func:`escalation`)."""


def escalation(what: str, bits: int, ceiling: int):
    """Precisions bits, 2 bits, 4 bits, ... for a loop that leaves once an
    attempt decides; a step past ``ceiling`` raises PrecisionExhausted."""
    while bits <= ceiling:
        yield bits
        bits *= 2
    raise PrecisionExhausted(f"{what} needs {bits} bits, ceiling is {ceiling}")


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
    # published error of pi_const and b_ln, each checked to cover its enclosure
    a = mpf_abs(val)
    if mpf_cmp(a, fone) < 0:
        a = fone
    return mpf_shift(a, 1 - p)


def raw_to_fraction(x) -> Fraction:
    """Exact rational value of a raw mpf (they are all dyadic)."""
    sign, man, exp, _ = x
    n = -man if sign else man
    return Fraction(n << exp) if exp >= 0 else Fraction(n, 1 << -exp)


def _raw_ratio(num: int, den: int, p: int, rnd: str):
    # from_rational for any integers with den > 0, reduced or not: the
    # division rounds the exact quotient, so only the value matters
    return mpf_div(from_int(num), from_int(den), p, rnd)


def _cmp_ratio(v, num: int, den: int) -> int:
    # sign of v - num/den, exactly, for a finite raw mpf v and den > 0
    sign, man, exp, _ = v
    man = -man if sign else man
    if exp >= 0:
        x, y = (man << exp) * den, num
    else:
        x, y = man * den, num << -exp
    return (x > y) - (x < y)


def _ratio_to_raw_up(num: int, den: int):
    # upper bound on a nonnegative num/den (den > 0), for bound bookkeeping
    if num < 0:
        raise ValueError("bounds must be nonnegative")
    return _raw_ratio(num, den, _EPREC, "u")


def _fraction_to_raw_up(q: Fraction):
    return _ratio_to_raw_up(q.numerator, q.denominator)


class Bounded(NamedTuple):
    """An arbitrary-precision value with a certified absolute error bound."""

    val: tuple
    err: tuple

    @classmethod
    def exact_int(cls, n: int) -> "Bounded":
        return cls(from_int(n), fzero)

    @classmethod
    def from_fraction(cls, q: Fraction, p: int) -> "Bounded":
        return cls.from_ratio(*Fraction(q).as_integer_ratio(), p)

    @classmethod
    def from_ratio(cls, num: int, den: int, p: int) -> "Bounded":
        """num/den rounded to nearest at p bits, for integers with den > 0.

        The pair need not be reduced: the rounding depends only on the
        value, and exactness is tested by cross-multiplying, so no gcd is
        taken.
        """
        v = _raw_ratio(num, den, p, "n")
        return cls(v, fzero if _cmp_ratio(v, num, den) == 0 else _rnd_bound(v, p))

    @classmethod
    def from_enclosure(cls, lo: int, hi: int, den: int,
                       p: int) -> Optional["Bounded"]:
        """``from_ratio(num, den, p)`` for every integer num in [lo, hi], if
        the two ends decide it, else None.

        Rounding to nearest is monotone, so when lo/den and hi/den both
        round to v, every value between them does.  When v lies outside the
        closed interval, none of them equals v, so the error is
        ``_rnd_bound(v, p)`` for all of them.
        """
        v = _raw_ratio(lo, den, p, "n")
        if (v != _raw_ratio(hi, den, p, "n")
                or _cmp_ratio(v, lo, den) >= 0 >= _cmp_ratio(v, hi, den)):
            return None
        return cls(v, _rnd_bound(v, p))

    def __float__(self) -> float:
        return float(self.value_fraction())

    def __repr__(self) -> str:
        return f"Bounded({to_str(self.val, 20)} ± {to_str(self.err, 3)})"

    def decimal(self, dps: int) -> str:
        try:
            return to_str(self.val, dps)
        except ValueError:
            # past 2^3500 to_str divides by a power of ten taken from the
            # mantissa exponent alone, so a long mantissa leaves an integer
            # part that to_str refuses (over 4300 digits); a short one does not
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


def agrees(x: Bounded, y: Bounded) -> bool:
    """Certified-overlap check: |x - y| <= err_x + err_y, exactly."""
    diff = abs(x.value_fraction() - y.value_fraction())
    return diff <= x.err_fraction() + y.err_fraction()


def b_add(x: Bounded, y: Bounded, p: int) -> Bounded:
    v = mpf_add(x.val, y.val, p, "n")
    e = _up_add(_up_add(x.err, y.err), _rnd_bound(v, p))
    return Bounded(v, e)


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


def b_div(x: Bounded, y: Bounded, p: int) -> Bounded:
    y_lo = _down_sub(mpf_abs(y.val), y.err)
    if mpf_cmp(y_lo, fzero) <= 0:
        raise PrecisionInsufficient("divisor is not certified away from zero")
    v = mpf_div(x.val, y.val, p, "n")
    num = _up_add(x.err, _up_mul(_up_add(mpf_abs(v), _rnd_bound(v, p)), y.err))
    e = _up_add(_up_div(num, y_lo), _rnd_bound(v, p))
    return Bounded(v, e)


def b_sqrt(x: Bounded, p: int) -> Bounded:
    """sqrt(x) rounded to nearest at p + 10 bits, published within 2^(1-p) |v|
    plus x's error over 2 sqrt(x - err)."""
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


# --- fork pool -----------------------------------------------------------

# Processes that PrimeLogTable.floor_logs may use for a large table's atanh
# leaves.  The CLI sets it from --jobs.  It reads 1 inside a fork_map, in
# this process and in every child, so a pool never starts a pool of its own.
WORKERS = 1


def _fork_child(fn, items: Sequence, groups, r: int, out: int, inherited: List[int]):
    """A child of fork_map: run groups from the queue, send the (index,
    result) pairs, or the exception, through `out`, and exit."""
    code = 1
    try:
        import pickle

        for fd in inherited:
            os.close(fd)
        done = []
        try:
            while rec := os.read(r, 4):
                done += [(i, fn(items[i])) for i in groups(rec)]
            msg = (True, done)
        except Exception as e:
            while os.read(r, 4096):  # empty the queue: the others stop
                pass
            msg = (False, e)
        try:
            data = pickle.dumps(msg, pickle.HIGHEST_PROTOCOL)
        except Exception as e:  # a result or an exception that does not pickle
            data = pickle.dumps((False, ChildProcessError(
                f"worker process {os.getpid()} cannot send {repr(msg[1])[:200]}: {e}")))
        with os.fdopen(out, "wb") as fh:
            fh.write(data)
        code = 0
    finally:
        os._exit(code)


def fork_map(fn, items: Sequence, k: int) -> List:
    """[fn(x) for x in items], computed by this process and k - 1 forked
    children, which inherit fn and items.

    Items are handed out in order, to whichever process is free, in at most
    PIPE_BUF / 4 groups of consecutive items: one item a group while there
    are no more items than that.  Before forking, this process writes the
    groups' 4-byte indices to a pipe in one write, which is atomic, and
    closes the pipe's write end.  Every process reads one record at a time,
    which is atomic too, until the pipe is empty.  Each child sends its
    results back through a pipe of its own once the queue is empty.  A
    child whose fn raises empties the queue, so every other process stops
    after its current item, and its exception is raised here.  A child that
    ends without sending its results raises ChildProcessError.  On every
    exit every child still running is killed and reaped.  Where os.fork
    does not exist, k is 1.
    """
    global WORKERS
    k = min(k, len(items)) if hasattr(os, "fork") else 1
    if k <= 1:
        return [fn(x) for x in items]
    import pickle
    import select
    import signal

    n = len(items)
    size = -(-n // (getattr(select, "PIPE_BUF", 512) // 4))  # items a group

    def groups(rec: bytes) -> range:
        i = array("I", rec)[0]
        return range(i, min(i + size, n))

    r, w = os.pipe()
    fds = {r, w}
    children: Dict[int, int] = {}  # pid -> read end of its result pipe
    saved, WORKERS = WORKERS, 1
    try:
        os.write(w, array("I", range(0, n, size)).tobytes())
        os.close(w)  # the readers see EOF once the queue is empty
        fds.discard(w)
        for _ in range(k - 1):
            res_r, res_w = os.pipe()
            fds.update((res_r, res_w))
            pid = os.fork()
            if pid == 0:
                _fork_child(fn, items, groups, r, res_w, [*children.values(), res_r])
            children[pid] = res_r
            os.close(res_w)
            fds.discard(res_w)
        results = [None] * n
        while rec := os.read(r, 4):
            for i in groups(rec):
                results[i] = fn(items[i])
        for pid in list(children):
            with os.fdopen(children[pid], "rb") as fh:
                fds.discard(fh.fileno())
                data = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if code:
                how = f"status {code}" if code > 0 else f"signal {-code}"
                raise ChildProcessError(f"worker process {pid} ended with {how} "
                                        "before sending its results")
            ok, done = pickle.loads(data)
            if not ok:
                raise done
            for i, value in done:
                results[i] = value
        return results
    finally:
        WORKERS = saved
        for pid in children:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)


# --- prime-log table -----------------------------------------------------
#
# Every logarithm gammalab takes is the log of a rational, so it is an
# exact vector (D, {q: a_q}) over the primes (``IntVec`` below), and its
# value is sum_q (a_q / D) ln q.
# One table per process holds each 2^P ln q as a fixed-point enclosure of
# integers, lo_q <= 2^P ln q <= lo_q + width_q, built from
#
#     2 ln q = ln(q-1) + ln(q+1) + 2 atanh(1/(2q^2-1))   (q >= 3),
#       ln 2 = 2 atanh(1/3),
#
# where ln(q-1) + ln(q+1) is the exact dot product of the factorisations of
# q-1 and q+1 with smaller entries (q+1 is even, so its prime factors are
# at most (q+1)/2 < q).  A dot product at working precision w reads each
# entry as floor(2^w ln q), certified from the enclosure (Johansson's
# multi-prime reduction with a certified table, arXiv:2207.02501).  Its
# result therefore depends on w alone, never on how far the table has
# grown, which keeps data files byte-identical however the work is split
# across processes.
#
# The atanh sum.  For m >= 3 and M = m^2,
#
#     atanh(1/m) = sum_{j>=0} 1 / ((2j+1) m^(2j+1))
#                = m sum_{j>=0} 1 / ((2j+1) M^(j+1)).
#
# Over terms j in [a, b) a node carries exact integers Q = M^(b-a),
# B = prod (2j+1) and T with T/(BQ) = sum_j 1 / ((2j+1) M^(j-a+1)); halves
# merge as Q = Q1 Q2, B = B1 B2, T = T1 B2 Q2 + B1 T2, and a leaf j is
# (M, 2j+1, 1) (Haible & Papanikolaou 1998); nodes of up to 8 terms merge
# their leaves one at a time.  Over [0, J) one floor
# division gives t = floor(2^(p+1) m T / (BQ)), so t <= 2^p 2 atanh_J(1/m)
# < t + 1.  The omitted terms are at most M/(M-1) (2J+1)^-1 m^-(2J+1)
# <= (3/8) m^-(2J+1) for J >= 1, so 2^(p+1) times them is below 1 once
# m^(2J+1) >= 2^p.  J is sized from bit lengths: with l = bitlen(m^32) - 1,
# m^32 >= 2^l, and l (2J+1) >= 32 p suffices.  Hence
#
#     t <= 2^p 2 atanh(1/m) <= t + 2.
#
# The entry.  With t from the split at p = P and the enclosures of the
# neighbours' factors r^k, X = t + sum_r k lo_r and
# H = t + 2 + sum_r k (lo_r + width_r) enclose 2^P 2 ln q.  Halving,
# lo_q = floor(X/2) and lo_q + width_q = ceil(H/2) = floor((H+1)/2): the
# width is the carried widths halved, plus one unit for the division and
# the tail (halved from 2), plus at most one for the halving.

_DOT_GUARD = 16     # working bits of a dot product beyond those asked for
_FLOOR_MARGIN = 32  # table bits beyond a dot's working bits
_GAMMA_MARGIN = 32  # bits of the gamma enclosure beyond a floor's
# floor_logs, floor_gamma, b_ln and pi_const stop at _CEILING_FACTOR times
# their first attempt, which spares 16 bits or more below the floor or
# rounding it decides.  A doubling at least doubles that, P - w to 2P - w (a
# floor's shift w + 32 becomes w + 64), so a third attempt fails only on a run
# of 64 or more equal bits of ln q, gamma, pi or ln x, or an x so near 1 that
# ln x cancels as many.  The ceiling changes no value; it makes a hang raise.
_CEILING_FACTOR = 4
_SIEVE_CAP = 1 << 20  # the largest trial divisor of PrimeLogTable.factor
_SLICE_SPAN = 8  # _range_log_pair factors ranges whose end passes this many lengths
# floor_logs forks the leaves of m missing primes at P bits once m P reaches
# _FORK_LEAF_BITS.  Measured on a 2-CPU x86 guest, Python 3.11: a fork_map
# with one child costs about 3 ms (fork, pipes, reaping), and the leaves
# cost 35-45 ns per bit-prime at P >= 2,400 bits, more as P grows (157
# primes at 2,420 bits: 16 ms).  At 10^6 bit-primes they take 35 ms or more,
# so a second process saves 15 ms or more, five times the fork's cost; well
# below it the saving is of the order of the fork and of the spread between
# the guest's CPUs.  The benchmark's tables stay under it: `criterion --n
# 1..460` enters 157 primes at 2,420 bits (0.38 M), `table --n 400..401` 145
# at 2,641 (0.38 M), `table --n 1..120` 58 at 953 (0.06 M), and `gamma
# --digits 1500`'s split 6 at 5,232 (0.03 M).
_FORK_LEAF_BITS = 1_000_000


def _atanh_split(M: int, a: int, b: int) -> Tuple[int, int, int]:
    """(Q, B, T) of the atanh terms j in [a, b), for M = m^2 (see above)."""
    if b - a <= 8:
        # merge the leaves (M, 2j+1, 1) into the node from the right
        Q, B, T = M, 2 * b - 1, 1
        for j in range(b - 2, a - 1, -1):
            Q, B, T = Q * M, B * (2 * j + 1), B * Q + (2 * j + 1) * T
        return Q, B, T
    mid = (a + b) // 2
    Q1, B1, T1 = _atanh_split(M, a, mid)
    Q2, B2, T2 = _atanh_split(M, mid, b)
    return Q1 * Q2, B1 * B2, T1 * B2 * Q2 + B1 * T2


def _two_atanh_split(m: int, p: int) -> Tuple[int, int]:
    """(t, 2) with t <= 2^p * 2 atanh(1/m) <= t + 2, for an integer m >= 3,
    from one binary split and one floor division (see above)."""
    l32 = (m ** 32).bit_length() - 1
    J = max(1, -(-(32 * p - l32) // (2 * l32)))
    Q, B, T = _atanh_split(m * m, 0, J)
    return (m * T << (p + 1)) // (B * Q), 2


def _prime_leaf(q: int, p: int) -> Tuple[int, int]:
    """The atanh leaf of prime q's entry at p bits: 2 atanh(1/3) = ln 2 for
    q = 2, else 2 atanh(1/(2q^2-1)), by _two_atanh_split."""
    return _two_atanh_split(3 if q == 2 else 2 * q * q - 1, p)


class PrimeLogTable:
    """Certified fixed-point logs of the primes seen so far, and the primes.

    The first dot product sizes the table; after that its precision
    doubles only when a dot asks for more or when an entry straddles a
    multiple of the floor it must certify, twice per read at most.  A run
    that asks for its widest dot first, as the row subcommands do by
    computing their largest n first, builds the table once.  The sieve keeps
    only primes, and doubles when it must reach further: to m for
    :meth:`primes_upto`, to min(sqrt k, ``_SIEVE_CAP``) to factor k.
    ``builds`` and ``sieves`` count the rebuilds.  Entries are added one
    prime at a time, each from entries already present; when enough are
    missing, their atanh leaves are computed first, on ``WORKERS``
    processes.  A rebuild drops every entry, so it costs only the primes
    (and their q-1 and q+1 chains) asked for after it.

    The table also keeps Euler's constant as an enclosure of 2^W gamma
    (:meth:`floor_gamma`), so a fresh table computes gamma afresh.
    """

    def __init__(self) -> None:
        self.prec = 0
        self.builds = 0
        self.sieves = 0
        self._logs: Dict[int, Tuple[int, int]] = {}  # q -> (lo_q, width_q)
        self._gamma = (0, 0, 1)  # (W, lo, hi) with lo <= 2^W gamma <= hi
        self._sieve: Tuple[int, List[int]] = (1, [])  # (limit, the primes <= limit)
        self._lock = threading.RLock()

    def _sieve_upto(self, k: int) -> List[int]:
        limit, primes = self._sieve
        if k > limit:
            with self._lock:
                limit, primes = self._sieve
                if k > limit:
                    limit = max(k, min(2 * limit, _SIEVE_CAP), 64)
                    sieve = bytearray([1]) * (limit + 1)  # Eratosthenes
                    for i in range(2, math.isqrt(limit) + 1):
                        if sieve[i]:
                            sieve[i * i::i] = bytes(len(range(i * i, limit + 1, i)))
                    primes = list(compress(range(2, limit + 1), sieve[2:]))
                    self._sieve = (limit, primes)
                    self.sieves += 1
        return primes

    def factor(self, k: int) -> List[Tuple[int, int]]:
        """Prime factorisation [(q, v_q(k)), ...] of an integer k >= 1."""
        # trial division by the primes up to L; a cofactor with no prime
        # factor up to L is 1 or a prime when it is below (L+1)^2
        out = []
        L = min(math.isqrt(k), _SIEVE_CAP)
        for q in self._sieve_upto(L):
            if q * q > k:
                break
            e = 0
            while k % q == 0:
                k //= q
                e += 1
            if e:
                out.append((q, e))
        if (L + 1) ** 2 <= k:
            raise ValueError(f"{k} has no prime factor up to {L}; "
                             "it is too large to factor by trial division")
        return out + [(k, 1)] if k > 1 else out

    def primes_upto(self, m: int) -> List[int]:
        primes = self._sieve_upto(m)
        return primes[:bisect_right(primes, m)]

    def _fork_leaves(self, primes: Iterable[int]) -> Dict[int, Tuple[int, int]]:
        """{q: atanh leaf} for the primes of `primes` that the table lacks and
        the primes their q-1 and q+1 chain through, computed on WORKERS
        processes, once they are enough to pay for it (``_FORK_LEAF_BITS``);
        else {}, and :meth:`_add` computes each leaf itself."""
        if WORKERS < 2:
            return {}
        logs = self._logs
        stack = [q for q in primes if q not in logs]
        if len(stack) * self.prec < _FORK_LEAF_BITS:
            return {}
        need = set()
        while stack:
            q = stack.pop()
            if q not in need and q not in logs:
                need.add(q)
                if q > 2:
                    stack.extend(r for r, _ in self.factor(q - 1) + self.factor(q + 1))
        P = self.prec
        need = sorted(need)
        return dict(zip(need, fork_map(lambda q: _prime_leaf(q, P), need, WORKERS)))

    def _add(self, q: int, leaves: Dict[int, Tuple[int, int]]) -> None:
        lo, width = leaves.get(q) or _prime_leaf(q, self.prec)
        if q == 2:
            self._logs[2] = (lo, width)
            return
        for r, k in self.factor(q - 1) + self.factor(q + 1):
            if r not in self._logs:
                self._add(r, leaves)
            lo_r, width_r = self._logs[r]
            lo += k * lo_r
            width += k * width_r
        # [lo, lo + width] encloses 2^P 2 ln q; halve it, rounding outward
        half = lo >> 1
        self._logs[q] = (half, ((lo + width + 1) >> 1) - half)

    def _rebuild(self, prec: int) -> None:
        # entries come back on demand, from the primes asked for next
        self.prec = prec
        self.builds += 1
        self._logs = {}

    def floor_logs(self, primes: Iterable[int], w: int) -> Dict[int, int]:
        """{q: floor(2^w ln q)} for primes q, exactly, in the order of primes.

        With s = P - w, floor(2^w ln q) is lo_q >> s unless the enclosure
        crosses a multiple of 2^s, that is unless
        ((lo_q mod 2^s) + width_q) >> s is nonzero.
        """
        with self._lock:
            P = self.prec
            P = P if P >= w + _FLOOR_MARGIN else max(w + _FLOOR_MARGIN, 2 * P)
            for P in escalation(f"floor(2^{w} ln q)", P, _CEILING_FACTOR * P):
                if P != self.prec:
                    self._rebuild(P)
                shift = P - w
                mask = (1 << shift) - 1
                leaves = self._fork_leaves(primes)
                logs = self._logs
                out = {}
                for q in primes:
                    if q not in logs:
                        self._add(q, leaves)
                    lo, width = logs[q]
                    if ((lo & mask) + width) >> shift:
                        break  # the enclosure straddles a multiple of 2^shift
                    out[q] = lo >> shift
                else:
                    return out

    def floor_gamma(self, w: int) -> int:
        """floor(2^w gamma), exactly.

        Read from the kept enclosure lo <= 2^W gamma <= hi: for W >= w,
        floor(2^w gamma) = floor(2^W gamma) >> (W - w), and lo <= floor(2^W
        gamma) <= hi, so it is lo >> (W - w) when that equals hi >> (W - w).
        Otherwise one Brent-McMillan split makes a new enclosure at
        max(w + _GAMMA_MARGIN, 2W), which is 2W once W >= w, the way
        floor_logs doubles.  A run that asks first at its largest w makes one
        split.
        """
        with self._lock:
            W = self._gamma[0]
            W = W if W > w else max(w + _GAMMA_MARGIN, 2 * W)
            for W in escalation(f"floor(2^{w} gamma)", W, _CEILING_FACTOR * W):
                if W != self._gamma[0]:
                    self._gamma = (W,) + _bm_enclosure(W)
                _, lo, hi = self._gamma
                if lo >> (W - w) == hi >> (W - w):
                    return lo >> (W - w)


_TABLE = PrimeLogTable()
# The logs that must not size _TABLE, the rows' table: ln2_const, the
# printer's ln 2 and ln 10 and Brent-McMillan's ln n.  A floor depends on
# its width alone, so which table serves it moves no value.
_SIDE_LOGS = PrimeLogTable()

# (D, {key: a}): the rational vector {key: a / D} as integers over one
# denominator D, not necessarily the least; zero entries are left out.
# Every prime vector takes this form, from factorisation to dot product.
IntVec = Tuple[int, Dict[int, int]]


def _range_log_pair(den: int, lo: int, weights: Sequence[int]) -> IntVec:
    """Prime vector of sum_i (weights[i] / den) ln(lo + i), for lo >= 1.

    v_q(x) counts the powers q^e that divide x, so over the range up to
    hi = lo + len(weights) - 1 the weight of q is
    sum_e sum(weights[-lo % q^e :: q^e]) for q^e <= hi: one slice sum in C
    per prime power, and no integer is factored.  That visits every prime
    up to hi, so a single integer, a range whose hi is more than
    ``_SLICE_SPAN`` times its length (more primes than integers), or one
    reaching ``_SIEVE_CAP`` is factored one integer at a time instead.
    """
    hi = lo + len(weights) - 1
    acc: Dict[int, int] = {}
    if len(weights) <= 1 or hi >= _SIEVE_CAP or hi > _SLICE_SPAN * len(weights):
        for x, a in enumerate(weights, lo):
            if a:
                for q, e in _TABLE.factor(x):
                    acc[q] = acc.get(q, 0) + a * e
    else:
        for q in _TABLE.primes_upto(hi):
            c, qe = 0, q
            while qe <= hi:
                c += sum(weights[-lo % qe::qe])
                qe *= q
            acc[q] = c
    return den, {q: c for q, c in acc.items() if c}


def _factorial_log_pair(den: int, lo: int, weights: Sequence[int]) -> IntVec:
    """Prime vector of sum_i (weights[i] / den) ln((lo + i)!), for lo >= 0
    and weights that sum to zero (``ValueError`` otherwise).

    With m0 the first m of nonzero weight, ln(m!) = ln(m0!) +
    sum_{m0 < x <= m} ln x; the weights cancel on ln(m0!), and each x past
    m0 carries the weight of every m >= x, a suffix sum; those x form one
    range for :func:`_range_log_pair`.
    """
    if sum(weights):
        raise ValueError("log-factorial weights must sum to zero")
    used = [i for i, a in enumerate(weights) if a]
    if not used:
        return den, {}
    first, last = used[0], used[-1]
    suffix = list(accumulate(reversed(weights[first + 1:last + 1])))[::-1]
    return _range_log_pair(den, lo + first + 1, suffix)


def _prime_dot(vec: IntVec, p: int, g: int = 1,
               table: Optional[PrimeLogTable] = None) -> Bounded:
    """sum_q (g a_q / D) ln q for a prime vector (D, {q: a_q}) times a
    common integer factor g >= 1, rounded to p bits, with the floors read
    from ``table`` (the shared one by default).

    With f_q = floor(2^w ln q), each 2^w ln q - f_q lies in [0, 1), so
    s = g sum_q a_q f_q is within e = g sum_q |a_q| of
    D 2^w sum_q (g a_q / D) ln q.  The bound is e over D 2^w, plus the
    rounding of s / (D 2^w) to p bits.  These are the integers the
    multiplied-out vector (D, {q: g a_q}) gives, so the result is the same;
    scaling D and every a_q by one integer leaves both rationals, and so the
    result, unchanged.
    """
    den, ints = vec
    w = p + _DOT_GUARD
    logs = (table or _TABLE).floor_logs(ints, w) if ints else {}
    s = g * sum(map(mul, ints.values(), logs.values()))
    e = g * sum(map(abs, ints.values()))
    v = _raw_ratio(s, den << w, p, "n")
    err = _up_add(_ratio_to_raw_up(e, den << w), _rnd_bound(v, p))
    return Bounded(v, err)


def ln_int(k: int, p: int) -> Bounded:
    """ln k for an exact integer k >= 1.

    k must factor by trial division up to 2^20: at most one prime factor
    of k may exceed 2^20, and it must be below 2^40.
    """
    if k < 1:
        raise ValueError("ln_int needs k >= 1")
    return _prime_dot(_range_log_pair(1, k, [1]), p)


def ln2_const(p: int) -> Bounded:
    """ln 2, read from the side table, so that it never sizes the rows'."""
    return _prime_dot((1, {2: 1}), p, table=_SIDE_LOGS)


def b_ln(x, p: int) -> Bounded:
    """ln x for a prime vector x = (D, {q: a_q}) or a pair x = (num, den) of
    positive integers that ``factor`` accepts, rounded to nearest at p + 10
    bits and published within 2^(1-p) max(1, |v|).

    As in _prime_dot, s - e <= D 2^w ln x <= s + e; w doubles until both
    ends round to the same v, at most twice (``_CEILING_FACTOR``).  ln 1 is
    returned exact, and the log of any other rational is irrational.
    """
    if not isinstance(x[1], dict):
        if min(x) < 1:
            raise ValueError("log of a non-positive value")
        ints = dict(_TABLE.factor(x[0]))
        for q, e in _TABLE.factor(x[1]):
            ints[q] = ints.get(q, 0) - e
        x = (1, ints)
    den, ints = x[0], {q: a for q, a in x[1].items() if a}
    if not ints:
        return Bounded(fzero, fzero)
    e, w = sum(map(abs, ints.values())), p + 10 + _DOT_GUARD
    for w in escalation(f"ln at {p} bits", w, _CEILING_FACTOR * w):
        s = sum(map(mul, ints.values(), _TABLE.floor_logs(ints, w).values()))
        b = Bounded.from_enclosure(s - e, s + e, den << w, p + 10)
        if b is not None:
            break
    # both ends round to v, so they lie within 2^-(p+10) |v| of it
    err = _fn_err(b.val, p)
    if (_cmp_ratio(mpf_sub(b.val, err), s - e, den << w) > 0
            or _cmp_ratio(mpf_add(b.val, err), s + e, den << w) < 0):
        raise ArithmeticError(f"ln's enclosure at {w} bits exceeds its "
                              "published bound")
    return Bounded(b.val, err)


# --- decimal printing ----------------------------------------------------
#
# to_str is mpmath's to_str (mpmath.libmp.libmpf, 1.3) on Python ints, so
# every decimal prints with mpmath's bytes.  |x| is read to n = dps + 3
# digits, truncated: with bitprec = int(n log2 10) + 10 and
# fixprec = max(bitprec - bitlen(x), 0), they are the digits of
# floor(floor(|x| 2^fixprec) 10^fixdps / 2^fixprec), fixdps being fixprec
# in decimal digits rounded to nearest.  Past 2^3500 (|exp + bc| > 3500) |x|
# is first divided by 10^b, b = exp ln 2 / ln 10 truncated at
# bitlen(|exp|) + 5 bits from ln 2 and ln 10 truncated to as many bits
# (read from _SIDE_LOGS, so what is printed never sizes the rows' table);
# 10^b (mpf_pow_int) and the quotient are truncated at bitprec bits.  b
# comes from exp alone, not from bitlen(x), so a long mantissa keeps a
# long integer part.  The digits round half up at digit dps, carrying
# through nines, and print in fixed point when the leading digit's
# exponent lies strictly between min(-(dps // 3), -5) and dps, else with
# an exponent, trailing zeros stripped.

_LOG2_10 = math.log(10, 2)
_STR_LIMIT = 10 ** 4300  # str() refuses these at CPython's default limit
_STR_PIECE = 10 ** 600  # and every limit allows these (the least is 640)


def _log_floor(vec: Dict[int, int], w: int) -> int:
    """floor(2^w sum_q a_q ln q) for a_q >= 1.  The floors f_q at W = w + g
    bits put 2^W times the sum in [s, s + e) with s = sum_q a_q f_q and
    e = sum_q a_q, so its floor is s >> g once that equals (s + e - 1) >> g."""
    e = sum(vec.values())
    for g in escalation(f"floor(2^{w} ln)", 32, _CEILING_FACTOR * 32):
        logs = _SIDE_LOGS.floor_logs(vec, w + g)
        s = sum(a * logs[q] for q, a in vec.items())
        if s >> g == (s + e - 1) >> g:
            return s >> g


def _ln2_ln10(prec: int):
    """ln 2 and ln 10 truncated to prec >= 3 bits, as mpmath's mpf_ln2(prec)
    and mpf_ln10(prec) give them."""
    return (from_man_exp(_log_floor({2: 1}, prec), -prec),
            from_man_exp(_log_floor({2: 1, 5: 1}, prec - 2), 2 - prec))


def _digit_string(n: int, size: int) -> str:
    """str(n) for n >= 0, split as mpmath's numeral splits it for a size of
    250 digits and more.  A piece of over 4300 digits raises ValueError, as
    str() does at CPython's default limit, whatever this interpreter's limit
    is; a shorter one converts 600 digits at a time."""
    if size < 250 or not n:
        if n >= _STR_LIMIT:
            raise ValueError("integer string conversion past 4300 digits")
        hi, lo = divmod(n, _STR_PIECE)
        return _digit_string(hi, 0) + str(lo).rjust(600, "0") if hi else str(lo)
    half = (size + 1) // 2
    hi, lo = divmod(n, 10 ** half)
    return _digit_string(hi, half) + _digit_string(lo, half).rjust(half, "0")


def to_str(x, dps: int) -> str:
    """The decimal string of a raw value to dps >= 1 significant digits, as
    mpmath's to_str prints it (see above).  Raises ValueError where mpmath's
    does at CPython's default limit, on an integer part past 4300 digits."""
    sign, man, exp, bc = x
    if not man:
        return "0.0"
    n = dps + 3
    bitprec = int(n * _LOG2_10) + 10
    b = 0
    if abs(exp + bc) > 3500:
        eprec = abs(exp).bit_length() + 5
        ln2, ln10 = _ln2_ln10(eprec)
        b = int(raw_to_fraction(mpf_div(mpf_mul(from_int(exp), ln2), ln10, eprec)))
        ten_b = mpf_pow_int(from_int(10), b, bitprec)
        _, man, exp, bc = mpf_div((0, man, exp, bc), ten_b, bitprec)
    fixprec = max(bitprec - exp - bc, 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    shift = exp + fixprec
    fixed = man << shift if shift >= 0 else man >> -shift
    digits = _digit_string(fixed * 10 ** fixdps >> fixprec, n)
    exponent = b + len(digits) - fixdps - 1
    if len(digits) > dps and digits[dps] in "56789":
        head = digits[:dps].rstrip("9")
        if head:
            digits = head[:-1] + str(int(head[-1]) + 1) + "0" * (dps - len(head))
        else:
            digits, exponent = "1" + "0" * (dps - 1), exponent + 1
    else:
        digits = digits[:dps]
    split = 1
    if min(-(dps // 3), -5) < exponent < dps:
        if exponent < 0:
            digits = "0" * -exponent + digits
        else:
            split = exponent + 1
        exponent = 0
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    if digits[-1] == ".":
        digits += "0"
    return ("-" if sign else "") + digits + (f"e{exponent:+d}" if exponent else "")


# --- pi by Machin's formula ----------------------------------------------
#
#     pi = 16 atan(1/5) - 4 atan(1/239).
#
# For m >= 2, atan(1/m) = sum_{j>=0} (-1)^j / ((2j+1) m^(2j+1)) is an
# alternating series of decreasing terms, so its partial sum over j < J is
# within the first omitted term, 1 / ((2J+1) m^(2J+1)).  With M = -m^2 the
# atanh split above sums sum_{j<J} 1 / ((2j+1) M^(j+1)) = -atan_J(1/m) / m,
# so t = floor(-2^P m T / (B Q)) has t <= 2^P atan_J(1/m) < t + 1.  J is the
# least with (2J+1) m^(2J+1) >= 2^P, so the omitted terms are at most 2^-P
# and
#
#     t - 1 <= 2^P atan(1/m) <= t + 2.
#
# Hence, with s = 16 t_5 - 4 t_239,
#
#     s - 24 <= 2^P pi <= s + 36.


def _atan_floor(m: int, P: int) -> int:
    """t with t - 1 <= 2^P atan(1/m) <= t + 2, for an integer m >= 2."""
    # start at or above the least J, then step down to it
    J = max(1, math.ceil((P / math.log2(m) - 1) / 2))
    while J > 1 and (2 * J - 1) * m ** (2 * J - 1) >= 1 << P:
        J -= 1
    while (2 * J + 1) * m ** (2 * J + 1) < 1 << P:
        J += 1
    Q, B, T = _atanh_split(-m * m, 0, J)
    return (-m * T << P) // (B * Q)


def _pi_enclosure(P: int) -> Tuple[int, int]:
    """(lo, hi) with lo <= 2^P pi <= hi (see above)."""
    s = 16 * _atan_floor(5, P) - 4 * _atan_floor(239, P)
    return s - 24, s + 36


def pi_const(p: int) -> Bounded:
    """pi truncated to p + 10 bits, with a published error of 2^(1-p) v.

    pi lies in [2, 4), so the value is floor(2^F pi) 2^-F with F = p + 8,
    read from an enclosure at F + guard bits whose two ends agree on it;
    the guard doubles from 32, to at most 128, until they do.  That is mpmath's
    ``mpf_pi(p + 10)``, which rounds its constants toward zero.  The
    published error is the one a trusted primitive would claim, 2^(1-p)
    max(1, |v|), so printed bounds keep their width; it is checked to cover
    the enclosure, which is within 2^-F once its ends agree.
    """
    F = p + 8
    for guard in escalation(f"pi at {p} bits", 32, _CEILING_FACTOR * 32):
        lo, hi = _pi_enclosure(F + guard)
        if lo >> guard == hi >> guard:
            break
    v = from_man_exp(lo >> guard, -F)
    err = _fn_err(v, p)
    # 0 <= pi - v <= hi 2^-(F+guard) - v, which is below 2^-F
    if mpf_cmp(mpf_sub(from_man_exp(hi, -(F + guard)), v), err) > 0:
        raise ArithmeticError(f"pi's enclosure at {F + guard} bits exceeds "
                              "its published bound")
    return Bounded(v, err)


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
# and S_K = W/(QD), so S_K/V_K = W / (D (Q + T)), read by one floor
# division (see Enclosure below).  Nothing else is rounded.
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
#
# Enclosure.  At B bits, x = floor(2^B W / (D (Q + T))) has
# x <= 2^B S_K/V_K < x + 1, and l = floor(2^B ln n) (_log_floor) has
# l <= 2^B ln n < l + 1.  Scaled by 2^B, the tails are at most
# t = 2^max(0, B + tail) and the Bessel term lies in (0, c] with
# c = 2^max(0, B + bessel), where tail and bessel are the exponents above.
# So
#
#     x - t - l - 1 - c  <=  2^B gamma  <=  x + 1 + t - l,
#
# 2t + c + 2 units wide.  _bm_params(B) makes t and c 1, so the width is 5,
# and a floor _GAMMA_MARGIN bits coarser straddles it with odds near 2^-28.

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


def _bm_enclosure(bits: int) -> Tuple[int, int]:
    """(lo, hi) with lo <= 2^bits gamma <= hi, from one split (see above).

    ln n is read from _SIDE_LOGS: bits is _BM_GUARD + _GAMMA_MARGIN above
    the precision asked of gamma, so on the rows' table ln n would be the
    widest request of a row that asks for gamma, and would size that table
    for it.  n is about bits / 5.77, with a few small primes.
    """
    n, K = _bm_params(bits)
    P, Q, D, _, T, W = _bm_split(n * n, 1, K + 1)
    x = (W << bits) // (D * (Q + T))
    l = _log_floor(dict(_SIDE_LOGS.factor(n)), bits)
    tail = ((2 * (K + 1).bit_length() * n * n).bit_length() + P.bit_length()
            - ((K + 1) ** 2).bit_length() - (Q + T).bit_length() + 2)
    bessel = 2 - 57704 * n // 10000
    t = 1 << max(0, bits + tail)
    c = 1 << max(0, bits + bessel)
    return x - t - l - 1 - c, x + 1 + t - l


def euler_gamma(p: int) -> Bounded:
    """Euler's constant by Brent-McMillan: floor(2^w gamma) 2^-w at
    w = p + _BM_GUARD, within 2^-w, from the table's enclosure."""
    w = p + _BM_GUARD
    return Bounded(from_man_exp(_TABLE.floor_gamma(w), -w), from_man_exp(1, -w))


def frac_part_certified(x: Bounded) -> Tuple[int, Bounded]:
    """Split x into (floor(x), {x}) with the bound proven not to straddle.

    The fractional part uses the floor convention, so {x} is in [0, 1)
    also for negative x.  Raises :class:`PrecisionInsufficient` when
    [x-err, x+err] contains an integer boundary.

    Value and error are read as integers v and e over 2^k, so floor(x) is
    v >> k and {x} is f = v - (floor(x) << k) over 2^k; the interval stays
    within [floor(x), floor(x) + 1) unless e > f or f + e >= 2^k.
    """
    sign, man, exp, _ = x.val
    _, eman, eexp, _ = x.err
    k = max(0, -exp, -eexp)
    v = (-man if sign else man) << (exp + k)
    e = eman << (eexp + k)
    fl = v >> k
    f = v - (fl << k)
    if e > f or (f + e) >> k:
        raise PrecisionInsufficient(
            f"certified interval straddles an integer near {fl}")
    return fl, Bounded(from_man_exp(f, -k), x.err)


class _PolicyFields(NamedTuple):
    base_bits: int = 192
    frac_bits: int = 64
    max_bits: int = 1 << 16
    tail_eps: Optional[Fraction] = None  # override for the series cutoff


class PrecisionPolicy(_PolicyFields):
    """Working-precision knobs shared by the per-n computations.

    ``base_bits`` is the floor for every derived working precision;
    ``frac_bits`` is the certified resolution of fractional parts;
    ``max_bits`` is the ceiling of the series' and the criterion's
    :func:`escalation`.  ``PrecisionPolicy()`` holds the defaults.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.base_bits < 64:
            raise ValueError("base_bits must be at least 64")
        if self.max_bits < self.base_bits:
            raise ValueError("max_bits must be at least base_bits")
        if self.frac_bits < 0:
            raise ValueError("frac_bits must be nonnegative")
        if self.tail_eps is not None and self.tail_eps <= 0:
            raise ValueError("tail_eps must be positive")
        return self
