"""Arbitrary-precision values carrying certified absolute error bounds.

Values are raw dyadic floats in mpmath's format, ``(sign, mantissa,
exponent, bitcount)`` tuples, which this module computes itself: add,
subtract, multiply, divide and square root round the exact result
correctly at a precision passed as an argument (there is no global
precision state), and :func:`to_str` prints the exact value rounded half
up, in mpmath's layout; mpmath itself is never imported.  Every
operation propagates an absolute error bound alongside the value; bound
arithmetic is done at coarse precision with *upward* rounding, so for each
:class:`Bounded` the true real number lies in ``[value - err, value + err]``.

No transcendental is taken on trust.  Every logarithm is the log of a
rational: an exact vector over the primes dotted with certified floors of
``2^w ln q`` (:class:`PrimeLogTable`, and for the constants
:func:`_small_log_floors`).  ``pi`` comes from Machin's formula with its
alternating-series bound (:func:`pi_const`), and Euler's constant from
Brent-McMillan binary splitting with a proven bound on its tails
(:func:`euler_gamma`), which the test suite checks against an independent
Euler-Maclaurin oracle.  The split runs in blocks of terms, each split
exactly and rounded to fixed point both ways, on several processes once
it is wide; the blocks are folded once from the floors and once from the
ceilings, and since every step is monotone the two folds enclose the sums.
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
        return to_str(self.val, dps)

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
# leaves, and _bm_enclosure for a wide enclosure's blocks.  The CLI sets it
# from --jobs.  It reads 1 inside a fork_map, in this process and in every
# child, so a pool never starts a pool of its own.
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
_FLOOR_MARGIN = 32  # bits of an enclosure beyond the floors read from it
# Every floor read, b_ln and pi_const stop at _CEILING_FACTOR times their
# first attempt, which spares 16 bits or more below the floor or rounding
# it decides.  A doubling at least doubles that, P - w to 2P - w (a
# floor's shift w + 32 becomes w + 64), so a third attempt fails only on a run
# of 64 or more equal bits of ln q, gamma, pi or ln x, or an x so near 1 that
# ln x cancels as many.  The ceiling changes no value; it makes a hang raise.
_CEILING_FACTOR = 4
_SIEVE_CAP = 1 << 20  # the largest trial divisor of PrimeLogTable.factor
# _enter forks the leaves of m missing primes at P bits once m P reaches
# _FORK_LEAF_BITS.  Measured on a 2-CPU x86 guest, Python 3.11: a fork_map
# with one child costs about 3 ms (fork, pipes, reaping), and the leaves
# cost 35-45 ns per bit-prime at P >= 2,400 bits, more as P grows (157
# primes at 2,420 bits: 16 ms).  At 10^6 bit-primes they take 35 ms or more,
# so a second process saves 15 ms or more, five times the fork's cost; well
# below it the saving is of the order of the fork and of the spread between
# the guest's CPUs.  The benchmark's tables stay under it: `criterion --n
# 1..460` enters 157 primes at 2,420 bits (0.38 M), `table --n 400..401` 145
# at 2,641 (0.38 M) and `table --n 1..120` 58 at 953 (0.06 M).
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


def _series_terms(m: int, p: int) -> int:
    """The least J >= 1 with l (2J+1) >= 32 p, l = bitlen(m^32) - 1, so
    that m^(2J+1) >= 2^p (see above)."""
    l32 = (m ** 32).bit_length() - 1
    return max(1, -(-(32 * p - l32) // (2 * l32)))


def _two_atanh_split(m: int, p: int) -> Tuple[int, int]:
    """(t, 2) with t <= 2^p * 2 atanh(1/m) <= t + 2, for an integer m >= 3,
    from one binary split and one floor division (see above)."""
    Q, B, T = _atanh_split(m * m, 0, _series_terms(m, p))
    return (m * T << (p + 1)) // (B * Q), 2


# ln 2, 3, 5 and 7 from four atanh values (Johansson, arXiv:2207.02501).
# L_x = 2 atanh(1/x) = ln((x+1)/(x-1)) at x = 251, 449, 4801 and 8749 is the
# log of 126/125 = 2 3^2 7 / 5^3, 225/224 = 3^2 5^2 / (2^5 7),
# 2401/2400 = 7^4 / (2^5 3 5^2) and 4375/4374 = 5^4 7 / (2 3^7).  This
# exponent matrix has determinant -1, so ln q = sum_x c_qx L_x with integer
# c_qx, the rows of its inverse (_SMALL_LOGS).  From t_x <= 2^P L_x <=
# t_x + e_x, lo = sum_x (c_qx t_x + min(0, c_qx e_x)) <= 2^P ln q <= hi, the
# same sum with max, so floor(2^w ln q) is lo >> (P - w) when hi's agrees.

_SMALL_LOGS = {2: (72, 27, -19, 31), 3: (114, 43, -30, 49),
               5: (167, 63, -44, 72), 7: (202, 76, -53, 87)}


def _small_log_floors(w: int) -> Dict[int, int]:
    """{q: floor(2^w ln q)} for q = 2, 3, 5 and 7, exactly (see above)."""
    P = w + _FLOOR_MARGIN
    for P in escalation(f"floor(2^{w} ln q) for q <= 7", P, _CEILING_FACTOR * P):
        leaves = [_two_atanh_split(x, P) for x in (251, 449, 4801, 8749)]
        ends = {q: [sum(c * t + f(0, c * e) for c, (t, e) in zip(cs, leaves)) >> (P - w)
                    for f in (min, max)] for q, cs in _SMALL_LOGS.items()}
        if all(lo == hi for lo, hi in ends.values()):
            return {q: lo for q, (lo, _) in ends.items()}


class PrimeLogTable:
    """Certified fixed-point logs of the primes seen so far, and the primes.

    The first dot product sizes the table; after that its precision
    doubles only when a dot asks for more or when an entry straddles a
    multiple of the floor it must certify, twice per read at most.  A run
    that asks for its widest dot first, as the row subcommands do by
    computing their largest n first, builds the table once.  A read enters
    the primes it lacks, with their chains (:meth:`_enter`), so a rebuild,
    which drops every entry, costs only the primes asked for after it.  The
    sieve keeps only primes, and doubles when it must reach further: to m
    for :meth:`primes_upto`, to min(sqrt k, ``_SIEVE_CAP``) to factor k.
    ``builds`` and ``sieves`` count the rebuilds.

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

    def _enter(self, primes: Iterable[int]) -> None:
        """Enter the primes of `primes` that the table lacks, and the primes
        their q-1 and q+1 chain through.  One walk records each missing
        prime's chain; the atanh leaves are computed on WORKERS processes
        once they are enough to pay for it (``_FORK_LEAF_BITS``); then the
        entries are formed in increasing q, as every prime of a chain is
        smaller than q (see above)."""
        logs = self._logs
        chains: Dict[int, List[Tuple[int, int]]] = {}
        stack = [q for q in primes if q not in logs]
        while stack:
            q = stack.pop()
            if q not in chains and q not in logs:
                chains[q] = self.factor(q - 1) + self.factor(q + 1) if q > 2 else []
                stack.extend(r for r, _ in chains[q])
        need = sorted(chains)
        ms = [3 if q == 2 else 2 * q * q - 1 for q in need]  # 2 atanh(1/3) = ln 2
        leaves = (fork_map(lambda m: _two_atanh_split(m, self.prec), ms, WORKERS)
                  if WORKERS > 1 and len(ms) * self.prec >= _FORK_LEAF_BITS
                  else (_two_atanh_split(m, self.prec) for m in ms))
        for q, (lo, width) in zip(need, leaves):
            if q > 2:
                for r, k in chains[q]:
                    lo_r, width_r = logs[r]
                    lo += k * lo_r
                    width += k * width_r
                # [lo, lo + width] encloses 2^P 2 ln q; halve it, rounding outward
                half = lo >> 1
                lo, width = half, ((lo + width + 1) >> 1) - half
            logs[q] = (lo, width)

    def _rebuild(self, prec: int) -> None:
        # entries come back on demand, from the primes asked for next
        self.prec = prec
        self.builds += 1
        self._logs = {}

    def floor_logs(self, primes: Iterable[int], w: int) -> Dict[int, int]:
        """{q: floor(2^w ln q)} for primes q, exactly, in the order of primes.

        With s = P - w, floor(2^w ln q) is lo_q >> s unless the enclosure
        crosses a multiple of 2^s, that is unless (lo_q + width_q) >> s
        differs.  A read of primes all present enters none.
        """
        with self._lock:
            P = self.prec
            P = P if P >= w + _FLOOR_MARGIN else max(w + _FLOOR_MARGIN, 2 * P)
            for P in escalation(f"floor(2^{w} ln q)", P, _CEILING_FACTOR * P):
                if P != self.prec:
                    self._rebuild(P)
                shift = P - w
                logs = self._logs
                if not all(q in logs for q in primes):
                    self._enter(primes)
                out = {}
                for q in primes:
                    lo, width = logs[q]
                    out[q] = lo >> shift
                    if (lo + width) >> shift != out[q]:
                        break  # the enclosure straddles a multiple of 2^shift
                else:
                    return out

    def floor_gamma(self, w: int) -> int:
        """floor(2^w gamma), exactly.

        Read from the kept enclosure lo <= 2^W gamma <= hi: for W >= w,
        floor(2^w gamma) = floor(2^W gamma) >> (W - w), and lo <= floor(2^W
        gamma) <= hi, so it is lo >> (W - w) when that equals hi >> (W - w).
        Otherwise one Brent-McMillan split makes a new enclosure at
        max(w + _FLOOR_MARGIN, 2W), which is 2W once W >= w, the way
        floor_logs doubles.  A run that asks first at its largest w makes one
        split.
        """
        with self._lock:
            W = self._gamma[0]
            W = W if W > w else max(w + _FLOOR_MARGIN, 2 * W)
            for W in escalation(f"floor(2^{w} gamma)", W, _CEILING_FACTOR * W):
                if W != self._gamma[0]:
                    self._gamma = (W,) + _bm_enclosure(W)
                _, lo, hi = self._gamma
                if lo >> (W - w) == hi >> (W - w):
                    return lo >> (W - w)


_TABLE = PrimeLogTable()

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
    up to hi, so a single integer, or a range reaching ``_SIEVE_CAP``, is
    factored one integer at a time instead.
    """
    hi = lo + len(weights) - 1
    acc: Dict[int, int] = {}
    if len(weights) <= 1 or hi >= _SIEVE_CAP:
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


def _prime_dot(vec: IntVec, p: int, g: int = 1) -> Bounded:
    """sum_q (g a_q / D) ln q for a prime vector (D, {q: a_q}) times a
    common integer factor g >= 1, rounded to p bits.

    With f_q = floor(2^w ln q), each 2^w ln q - f_q lies in [0, 1), so
    s = g sum_q a_q f_q is within e = g sum_q |a_q| of
    D 2^w sum_q (g a_q / D) ln q.  The bound is e over D 2^w, plus the
    rounding of s / (D 2^w) to p bits.  These are the integers the
    multiplied-out vector (D, {q: g a_q}) gives, so the result is the same;
    scaling D and every a_q by one integer leaves both rationals, and so the
    result, unchanged.  g and D are first divided by their gcd, which
    leaves g / D, and so the result, unchanged: the rows' log S_n, a vector
    over d_n times g = d_2n, then sums over D = 1 with g = d_2n / d_n.
    """
    den, ints = vec
    c = math.gcd(g, den)
    g, den = g // c, den // c
    w = p + _DOT_GUARD
    logs = _TABLE.floor_logs(ints, w) if ints else {}
    s = g * sum(map(mul, ints.values(), logs.values()))
    e = g * sum(map(abs, ints.values()))
    v = _raw_ratio(s, den << w, p, "n")
    return Bounded(v, _up_add(_ratio_to_raw_up(e, den << w), _rnd_bound(v, p)))


def ln_int(k: int, p: int) -> Bounded:
    """ln k for an exact integer k >= 1.

    k must factor by trial division up to 2^20: at most one prime factor
    of k may exceed 2^20, and it must be below 2^40.
    """
    if k < 1:
        raise ValueError("ln_int needs k >= 1")
    return _prime_dot(_range_log_pair(1, k, [1]), p)


def ln2_const(p: int) -> Bounded:
    """ln 2 as _prime_dot reads it, from _small_log_floors, not the table."""
    w = p + _DOT_GUARD
    v = _raw_ratio(_small_log_floors(w)[2], 1 << w, p, "n")
    return Bounded(v, _up_add(_ratio_to_raw_up(1, 1 << w), _rnd_bound(v, p)))


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
# to_str prints |x| rounded half up to dps significant digits, from the
# exact man 2^exp, in mpmath's layout: fixed point when the leading digit's
# exponent k lies strictly between min(-(dps // 3), -5) and dps, else with
# an exponent, trailing zeros stripped.  With s = dps - 1 - k, the digits
# are q = floor(|x| 10^s) and lie in [10^(dps-1), 10^dps) exactly when k is
# right; k comes from the bit length and is corrected by one step at a
# time until they do.

_LOG10_2 = math.log10(2)


def to_str(x, dps: int) -> str:
    """The decimal string of a raw value rounded half up to dps >= 1
    significant digits (see above).  Only the dps digits pass through
    str(), so no int-to-str limit refuses any value."""
    sign, man, exp, bc = x
    if not man:
        return "0.0"
    k = math.floor((exp + bc - 1) * _LOG10_2)  # 2^(exp+bc-1) <= |x|
    while True:
        s = dps - 1 - k
        if s < 0:
            num, den = man << max(exp, 0), 10 ** -s << max(-exp, 0)
            q, r = divmod(num, den)
            up = 2 * r >= den
        elif exp < 0:
            q = man * 10 ** s >> (-exp - 1)  # one bit below the last digit
            q, up = q >> 1, q & 1
        else:
            q, up = man * 10 ** s << exp, 0
        if q >= 10 ** dps:
            k += 1
        elif q < 10 ** (dps - 1):
            k -= 1
        else:
            break
    q += up
    if q == 10 ** dps:
        q, k = q // 10, k + 1
    digits, exponent, split = str(q), k, 1
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
# so t = floor(-2^P m T / (B Q)) has t <= 2^P atan_J(1/m) < t + 1.  J is
# sized as for atanh (_series_terms), so m^(2J+1) >= 2^P and the omitted
# terms are at most 2^-P, and
#
#     t - 1 <= 2^P atan(1/m) <= t + 2.
#
# Hence, with s = 16 t_5 - 4 t_239,
#
#     s - 24 <= 2^P pi <= s + 36.


def _atan_floor(m: int, P: int) -> int:
    """t with t - 1 <= 2^P atan(1/m) <= t + 2, for an integer m >= 2."""
    Q, B, T = _atanh_split(-m * m, 0, _series_terms(m, P))
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
# and a leaf k is (n^2, k^2, k, 1, n^2, n^2).
#
# Blocks (truncated binary splitting, Haible & Papanikolaou 1998).  Over
# [1, K+1) the top integers of one split are many times wider than the
# bits asked for, so [1, K+1) is cut into blocks (_bm_blocks) whose
# integers stay near G = B + _BM_FOLD_GUARD bits.  Each block is split
# exactly, and its four ratios T/Q, P/Q, W/(QD) and C/D are floored and
# ceiled to G-bit fixed point where it was split (_bm_ratios).  With V_j
# and S_j the sums up to k = j, the state before block [a, b) is
# (V_{a-1}, S_{a-1}, rho = t_{a-1}, H_{a-1}), from (1, 0, 1, 0) at a = 1,
# and the block moves it to
#
#     V_{b-1} = V + rho T/Q,          S_{b-1} = S + rho (W/(QD) + H T/Q),
#     t_{b-1} = rho P/Q,              H_{b-1} = H + C/D.
#
# The blocks are folded left to right twice in G-bit fixed point
# (_bm_fold): once from the floors, flooring every product, and once from
# the ceilings, ceiling every product.  Every quantity is positive and
# every step is a sum or a product of positives, so each step is
# nondecreasing in each argument, and by induction over the blocks the
# lower state is at most 2^G times the true state, component by component,
# and the upper state at least that.  Hence, after the last block,
#
#     S_lo / V_hi  <=  S_K / V_K  <=  S_hi / V_lo,   rho_hi >= 2^G t_K,
#
# with no rounding error to propagate: the floors and ceilings carry it.
#
# Tails.  For k >= K+1, with K >= 3n, t_{k+1}/t_k = n^2/(k+1)^2 <= 1/4 and
# H_{k+1}/H_k <= 1 + 1/(k+1) <= 4/3, so the omitted parts are
# eps_V <= (4/3) t_{K+1} and eps_S <= (3/2) t_{K+1} H_{K+1}.  Then
# S/V - S_K/V_K = (eps_S - (S_K/V_K) eps_V) / V is a difference of two
# nonnegative terms, and S_K/V_K <= H_K (a weighted mean of H_0..H_K), so
# its size is at most (3/2) H_{K+1} t_{K+1} / V_K.  With
# H_m <= 1 + ln m <= (4/3) bitlen(m) for m >= 2 and
# t_{K+1} = t_K n^2 / (K+1)^2, that is at most
#
#     2 bitlen(K+1) n^2 t_K / ((K+1)^2 V_K)
#         <=  2 bitlen(K+1) n^2 rho_hi / ((K+1)^2 V_lo),
#
# read from the fold's upper rho and lower V.
#
# Bessel term.  pi e^{-4n} < 4 * 2^-(4n log2 e) <= 2^(2 - floor(5.7704 n)),
# as 5.7704 < 4 log2 e = 5.77078...
#
# Enclosure.  At G bits, x_lo = floor(2^G S_lo / V_hi) and
# x_hi = ceil(2^G S_hi / V_lo) enclose 2^G S_K/V_K.  With n = prod q^a_q,
# l = sum_q a_q floor(2^G ln q) (_small_log_floors) has
# l <= 2^G ln n < l + e, e = sum_q a_q, as each floor loses less than 1.
# The tails are at most the ceiling t of 2^G times their bound, and the
# Bessel term lies in (0, c] with c = 2^max(0, G + bessel).  So
#
#     x_lo - t - l - e - c  <=  2^G gamma  <=  x_hi + t - l,
#
# and shifting the ends outward by _BM_FOLD_GUARD bits gives lo and hi at B
# bits.  _bm_params(B) makes 2^G times the tail bound near 2^(g-8) and c at
# most 2^g, g = _BM_FOLD_GUARD, and x_hi - x_lo is a few units (at most 5
# over 99 widths from 64 to 12,000 bits), so the fine ends lie less than
# 2^(g+1) apart and hi - lo is at most 3 (1 or 2 over those widths); a
# floor _FLOOR_MARGIN bits coarser straddles it with odds near 2^-30.

_BM_GUARD = 32  # working bits beyond those asked for
_BM_FOLD_GUARD = 40  # fixed-point bits of the fold beyond the enclosure's
# _bm_enclosure splits its blocks on WORKERS processes from _FORK_BM_BITS
# bits on.  Measured on a 2-CPU x86 guest, Python 3.11, medians of 15
# alternating calls, one process against two: 9.3 against 8.7 ms at 5,111
# bits (the split of `gamma --digits 1500`), 20.0/16.2 ms at 8,000,
# 30.9/22.3 ms at 10,000 and 40.4/29.7 ms at 12,000; 0.96/0.61 s at 66,600
# (3 calls).  From 10,000 bits on a second process saves 8 ms or more,
# about three times a fork_map's cost (see _FORK_LEAF_BITS); below it the
# saving is of the order of that cost and of the spread between the CPUs.
_FORK_BM_BITS = 10_000


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

    n is the least 7-smooth integer with floor(5.7704 n) >= w + 2, so ln n
    needs ln 2, 3, 5 and 7 alone (_small_log_floors).  K is the least from 3n
    whose tail bound is estimated below 2^-(w+8), with V_K >= t_n and
    log2 t_k from lgamma; the tail bound actually used is recomputed from
    the fold.  From 3n on the estimate falls by more than 3 bits a step
    (t_{k+1}/t_k <= 1/9) and its bitlen factor grows by at most 1 bit, so
    it is monotone and K is found by bisection.  K comes out near 3.59 n,
    the root of a (ln a - 1) = 1 that balances the tails against e^{-4n}.
    """
    n = -(-(w + 2) * 10000 // 57704)
    while any(q > 7 for q, _ in _TABLE.factor(n)):
        n += 1
    ln_n = math.log(n)

    def log2_t(k: int) -> float:
        return 2 * (k * ln_n - math.lgamma(k + 1)) / math.log(2)

    floor_v = log2_t(n)

    def above(K: int) -> bool:
        return (log2_t(K + 1) - floor_v + math.log2(2 * (K + 1).bit_length())
                > -(w + 8))

    # K <= 4n: there the estimate is at least 15.6 bits below -(w+8) for
    # each 7-smooth n from 12 to 2*10^6 at its widest w, floor(5.7704 n) - 2
    # (least at n = 12, w = 67), and by Stirling it is about -7.3n bits
    # against a target near -5.77n, so the margin grows with n.
    lo, hi = 3 * n, 4 * n
    while lo < hi:
        mid = (lo + hi) // 2
        if above(mid):
            lo = mid + 1
        else:
            hi = mid
    return n, lo


def _bm_blocks(K: int, G: int) -> List[Tuple[int, int]]:
    """[1, K+1) cut into blocks of max(64, G // 20) terms, whose integers
    stay near G bits."""
    size = max(64, G // 20)
    return [(a, min(a + size, K + 1)) for a in range(1, K + 1, size)]


def _bm_ratios(n2: int, G: int, block: Tuple[int, int]) -> List[Tuple[int, int]]:
    """[(floor, ceil)] of 2^G T/Q, 2^G P/Q, 2^G W/(QD) and 2^G C/D of one
    block, split exactly."""
    P, Q, D, C, T, W = _bm_split(n2, *block)
    out = []
    for x, y in ((T, Q), (P, Q), (W, Q * D), (C, D)):
        f, r = divmod(x << G, y)
        out.append((f, f + (r > 0)))
    return out


def _bm_fold(ratios: Sequence[List[Tuple[int, int]]], G: int, up: int):
    """The state (V, S, rho, H) at G-bit fixed point after the blocks'
    ratios, folded left to right from the floors (up = 0), flooring every
    product, or from the ceilings (up = 1), ceiling every product."""
    def mul(x: int, y: int) -> int:
        return -(-(x * y) >> G) if up else x * y >> G

    V = rho = 1 << G
    S = H = 0
    for block in ratios:
        tq, pq, wq, cd = (r[up] for r in block)
        V, S, rho, H = (V + mul(rho, tq), S + mul(rho, wq + mul(H, tq)),
                        mul(rho, pq), H + cd)
    return V, S, rho, H


def _bm_enclosure(bits: int) -> Tuple[int, int]:
    """(lo, hi) with lo <= 2^bits gamma <= hi, from the blocks' fold (see
    above).  The blocks are split on WORKERS processes from
    ``_FORK_BM_BITS`` on, else in this process.
    """
    n, K = _bm_params(bits)
    G = bits + _BM_FOLD_GUARD
    ratios = fork_map(lambda block: _bm_ratios(n * n, G, block), _bm_blocks(K, G),
                      WORKERS if bits >= _FORK_BM_BITS else 1)
    V_lo, S_lo, _, _ = _bm_fold(ratios, G, 0)
    V_hi, S_hi, rho_hi, _ = _bm_fold(ratios, G, 1)
    x_lo = (S_lo << G) // V_hi
    x_hi = -(-(S_hi << G) // V_lo)
    t = -(-(2 * (K + 1).bit_length() * n * n * rho_hi << G) // ((K + 1) ** 2 * V_lo))
    vec, floors = _TABLE.factor(n), _small_log_floors(G)
    l = sum(a * floors[q] for q, a in vec)
    e = sum(a for _, a in vec)
    c = 1 << max(0, G + 2 - 57704 * n // 10000)
    return (x_lo - t - l - e - c) >> _BM_FOLD_GUARD, -(-(x_hi + t - l) >> _BM_FOLD_GUARD)


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
