"""Per-n quantities of the Sondow decomposition, with certified bounds.

For each n the decomposition I_n = C(2n,n)*gamma + L_n - A_n is evaluated
along two independent routes wherever one exists:

* L_n from the explicit log-factorial sum vs. log(S_n)/d_{2n} from the
  integer-exponent power product;
* I_n from the closed form vs. the integral series
  I_n = sum_{v>n} integral_v^infty (n!/(x(x+1)...(x+n)))^2 dx.

The series route is the ground truth: each summand has the exact closed
form f(v) = sum_k Cs_k/(v+k) - sum_k As_k ln(v+k) (partial fractions,
with Cs_k = C(n,k)^2 and As_k = 2 C(n,k)^2 (H_k - H_{n-k})), and the tail
past a small cutoff is summed by Euler-Maclaurin.  Because f is completely
monotone on (0, inf) (an integral of a product of completely monotone
factors), the Euler-Maclaurin remainder is bounded by the first omitted
term.  The cutoff search refuses most candidates by an exact lower bound
of that term, and decides the rest, and the kept term's 48-bit upward
rounding, from certified fixed-point enclosures, falling back to the exact
rational value only when an enclosure cannot decide.  That certified tail
is what makes a 30+ digit series evaluation feasible at n = 1, where naive
summation to the same accuracy would need ~1e16 terms.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, count
from typing import Dict, List, NamedTuple, Optional, Tuple

from . import exact, mpnum
from .mpnum import (
    Bounded,
    PrecisionExhausted,
    PrecisionInsufficient,
    PrecisionPolicy,
    agrees,
    b_abs,
    b_add,
    b_div,
    b_mul,
    b_mul_int,
    b_sub,
    escalation,
    euler_gamma,
    frac_part_certified,
    pi_const,
    ln2_const,
    IntVec,
    fzero,
    _EPREC,
    _factorial_log_pair,
    _fraction_to_raw_up,
    _prime_dot,
    _range_log_pair,
    _ratio_to_raw_up,
    _up_add,
    raw_to_fraction,
)

__all__ = [
    "TailBound",
    "SeqRecord",
    "CriterionPoint",
    "sondow_threshold",
    "L_from_factorial_logs",
    "L_vector",
    "check_L_identity",
    "I_closed_form",
    "I_series",
    "series_term",
    "gamma_roundtrip",
    "criterion_point",
    "A_approx",
    "build_record",
    "closed_form_floor",
    "default_series_eps",
]


@lru_cache(maxsize=1)
def sondow_threshold(p: int) -> Bounded:
    """pi / (6 ln 2), the reference limit of the irrationality criterion."""
    # every row of a run asks at the same precision, so the last value is
    # kept (Bounded is immutable); ln2_const never sizes the rows' table
    return b_div(pi_const(p), b_mul_int(ln2_const(p), 6, p), p)


def L_vector(n: int) -> IntVec:
    """Exact prime vector of L_n = sum_j 2 C(n,j)^2 (H_j - H_{n-j}) ln((n+j)!).

    The weights are exactly the scaled simple-pole residues of the
    partial-fraction decomposition, as integers over d_n; they cancel, so
    the log-factorials reduce to the logs of n+1 .. 2n.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    d, nums = exact.residue_numerators(n)
    return _factorial_log_pair(d, n, nums)


def L_from_factorial_logs(n: int, p: int) -> Bounded:
    """L_n from the explicit log-factorial sum (see :func:`L_vector`)."""
    return _prime_dot(L_vector(n), p)


def _log_S_scaled(n: int) -> Tuple[int, List[int]]:
    """(d_n, [E'_1, ..., E'_n]) with E_k = (2 d_2n / d_n) E'_k.

    E_k collapses the triple product over (k, i, j) with per-factor
    exponent (2 d_2n / j) C(n,i)^2, so E_k = sum_i C(n,i)^2 2 d_2n
    (H_{n-i} - H_i) over i < min(k, n+1-k).  As 2 d_2n H_j =
    (2 d_2n / d_n) (d_n H_j), the E'_k are the same sums over the scaled
    harmonics d_n H_j, which are integers.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    d, h = exact.scaled_harmonics(n)
    # weight of ln(n+k) for a given i: C(n,i)^2 (d_n H_{n-i} - d_n H_i),
    # zero at i = n/2
    row = exact.binomial_row(n)
    half = list(accumulate(row[i] ** 2 * (h[n - i] - h[i]) for i in range(n // 2 + 1)))
    # E'_k = half[min(k - 1, n - k)]: rising over k <= m, then mirrored
    m = (n + 1) // 2
    return d, half[:m] + half[:n - m][::-1]


def _log_S_vector(n: int) -> IntVec:
    """Prime vector of log S_n / d_2n over d_n, the form of :func:`L_vector`:
    ln(n+k) weighs E_k d_n / d_2n = 2 E'_k.  log S_n itself is its dot
    product with factor d_2n."""
    d, scaled = _log_S_scaled(n)
    return _range_log_pair(d, n + 1, [2 * e for e in scaled])


def check_L_identity(n: int) -> IntVec:
    """Return the prime vector of L_n, checked against log S_n exactly.

    Both routes build their vector over d_n, L_n's from the log-factorial
    sum and log S_n / d_2n's from the power product, so Sondow's identity
    d_2n L_n = log S_n holds iff the two vectors are equal; IdentityViolation
    is raised otherwise.  The numeric ``l_agree`` check remains beside it.
    """
    vec = L_vector(n)
    if vec != _log_S_vector(n):
        raise exact.IdentityViolation(f"d_2n * vec(L_n) != vec(log S_n) at n={n}")
    return vec


def closed_form_floor(n: int) -> int:
    """Minimum working precision for the closed form of I_n.

    The sum cancels from terms of size ~4^n down to I_n ~ 16^-n / n, so
    roughly 6n bits vanish; 64 guard bits on top.
    """
    return 6 * n + 64


def I_closed_form(n: int, p: int, l_n: Optional[Bounded] = None,
                  a_n: Optional[Fraction] = None) -> Bounded:
    """I_n = C(2n,n) gamma + L_n - A_n (closed form; the cross-check route).

    ``l_n`` is L_n at precision p and ``a_n`` is A_n when the caller
    already has them.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    if p < closed_form_floor(n):
        raise PrecisionInsufficient(
            f"closed form at n={n} needs >= {closed_form_floor(n)} bits")
    g = b_mul_int(euler_gamma(p), math.comb(2 * n, n), p)
    if l_n is None:
        l_n = L_from_factorial_logs(n, p)
    if a_n is None:
        a_n = exact.A_exact(n)
    return b_sub(b_add(g, l_n, p), Bounded.from_fraction(a_n, p), p)


# --- series route --------------------------------------------------------


class TailBound(NamedTuple):
    """Certificate for the series tail summed past cutoff v = V.

    ``remainder`` bounds everything not explicitly computed: it is the
    Euler-Maclaurin remainder with ``em_terms`` correction terms, rounded
    up to a 48-bit dyadic, and it is valid because the summand is
    completely monotone.
    """

    cutoff: int
    em_terms: int
    remainder: Fraction


def series_term(n: int, v: int, p: int,
                res: Optional[Tuple[int, List[int]]] = None,
                cs: Optional[List[int]] = None) -> Bounded:
    """f(v) = integral_v^infty (n!/(x...(x+n)))^2 dx, in closed form.

    ``res`` (:func:`exact.residue_numerators`) and ``cs`` are the scaled
    residue and square weights of n when the caller already has them.
    """
    if cs is None:
        cs = exact.scaled_square_weights(n)
    d, nums = res if res is not None else exact.residue_numerators(n)
    rat = _tree_sum([(c, v + k) for k, c in enumerate(cs)])
    logs = _range_log_pair(d, v, nums)
    return b_sub(Bounded.from_ratio(*rat, p), _prime_dot(logs, p), p)


def _tree_sum(pairs: List[Tuple[int, int]]) -> Tuple[int, int]:
    """sum of num/den over integer pairs, as one unreduced (num, den).

    Summed in a balanced tree without any gcd, so operands of similar size
    meet at every level; the caller reduces once, if at all.
    """
    while len(pairs) > 1:
        nxt = [(n1 * d2 + n2 * d1, d1 * d2)
               for (n1, d1), (n2, d2) in zip(pairs[::2], pairs[1::2])]
        if len(pairs) % 2:
            nxt.append(pairs[-1])
        pairs = nxt
    return pairs[0]


@lru_cache(maxsize=None)
def _corr_coefficients(K: int) -> Tuple[Tuple[int, ...], Tuple[int, ...], int]:
    """(pc, qc, dq): B_2j / (2j(2j-1)) and B_2j / (2j) for j = 1..K as
    integers over the lcm dq of their denominators.  They depend on K
    alone, so each K of a run is computed once."""
    bern = [exact.bernoulli(2 * j) for j in range(1, K + 1)]
    pc = [b / (2 * j * (2 * j - 1)) for j, b in enumerate(bern, 1)]
    qc = [b / (2 * j) for j, b in enumerate(bern, 1)]
    dq = math.lcm(*(c.denominator for c in pc + qc))
    return (tuple(c.numerator * (dq // c.denominator) for c in pc),
            tuple(c.numerator * (dq // c.denominator) for c in qc), dq)


class _EMKernel:
    """Exact sums over the kernel g(x) = sum_k As_k/(x+k) + Cs_k/(x+k)^2.

    g is the scaled integrand (n!/(x(x+1)...(x+n)))^2.  The residue weights
    As_k arrive over one denominator ``den``, as the integers
    ``num[k] = As_k den`` of :func:`exact.residue_numerators`, so every sum
    over k runs in integers, and its unreduced (num, den) is only ever
    compared or rounded, never reduced (Haible & Papanikolaou 1998).
    """

    def __init__(self, den: int, num: List[int], cs: List[int]):
        self.den = den
        self.num = num
        self.cs = cs

    def _derivative_tops(self, m: int, a: int) -> List[int]:
        # numerators over b^(m+2), b = a + k, of den (-1)^m g^(m)(a) / m!
        d = self.den
        return [A * b + (m + 1) * d * c for b, A, c in zip(count(a), self.num, self.cs)]

    def _corr_tops(self, a: int, K: int) -> Tuple[List[int], int]:
        # numerators over b^(2K), b = a + k, of den dq em_corr(a, K), and dq
        pc, qc, dq = _corr_coefficients(K)
        d = self.den
        tops = []
        for b, A, c in zip(count(a), self.num, self.cs):
            s = b * b
            pn = qn = 0
            for pj, qj in zip(pc, qc):
                pn = pn * s + pj
                qn = qn * s + qj
            tops.append(A * b * pn + d * c * qn)
        return tops, dq

    @staticmethod
    def _exact_sum(tops: List[int], a: int, e: int) -> Tuple[int, int]:
        # sum_k tops[k] / (a+k)^e as an unreduced (num, den)
        return _tree_sum([(t, b ** e) for b, t in zip(count(a), tops)])

    @staticmethod
    def _floor_sum(tops: List[int], a: int, e: int, W: int) -> int:
        """s = sum_k floor(2^W tops[k] / (a+k)^e).

        A floor loses less than 1, so s <= 2^W sum_k tops[k] / (a+k)^e <
        s + len(tops), whatever the cancellation in the sum, and no power
        (a+k)^e is multiplied into a common denominator; W = 0 is allowed.
        """
        return sum((t << W) // b ** e for b, t in zip(count(a), tops))

    def derivative_sum(self, m: int, a: int) -> Tuple[int, int]:
        """(-1)^m g^(m)(a) / m! as an unreduced (num, den).

        With b = a + k it is sum_k (A_k b + (m+1) den Cs_k) / (den b^(m+2)).
        """
        num, den = self._exact_sum(self._derivative_tops(m, a), a, m + 2)
        return num, den * self.den

    def em_remainder(self, a: int, K: int) -> Tuple[int, int]:
        """|B_{2K+2}| / (2K+2)! |g^(2K)(a)| as an unreduced (num, den).

        It bounds what an Euler-Maclaurin sum from a with K correction
        terms leaves out.
        """
        bern = exact.bernoulli(2 * K + 2)
        num, den = self.derivative_sum(2 * K, a)
        return (abs(bern.numerator * num),
                bern.denominator * (2 * K + 2) * (2 * K + 1) * den)

    def em_remainder_enclosure(self, a: int, K: int, W: int) -> Tuple[int, int, int]:
        """(lo, hi, den) with lo/den <= em_remainder(a, K) <= hi/den.

        With e = 2K + 2, the exact remainder is
        |B_e| |S| / (B_e-den e (e-1) den), where S is the sum of
        derivative_sum(e - 2, a) before its factor den.  S > 0, because g
        is completely monotone (as the remainder bound itself assumes), so
        the floored sum s of :meth:`_floor_sum` bounds |S| by
        [max(s, 0), s+n+1].
        """
        e = 2 * K + 2
        s = self._floor_sum(self._derivative_tops(e - 2, a), a, e, W)
        bern = exact.bernoulli(e)
        bn = abs(bern.numerator)
        return (bn * max(s, 0), bn * (s + len(self.cs)),
                (bern.denominator * e * (e - 1) * self.den) << W)

    def em_corr(self, a: int, K: int) -> Tuple[int, int]:
        """sum_{j=1..K} B_2j / (2j)! g^(2j-2)(a) as an unreduced (num, den),
        in one pass over k.

        With x = 1/(a+k) it is sum_k As_k P(x) + Cs_k Q(x), where
        P(x) = sum_j B_2j/(2j(2j-1)) x^(2j-1) and Q(x) = sum_j B_2j/(2j) x^(2j);
        both are evaluated by Horner in b^2 = (a+k)^2 over the lcm dq of
        their coefficients' denominators, so the term of k is
        (A_k b P' + den Cs_k Q') / (den dq b^(2K)) for integer polynomials
        P', Q' in b^2.
        """
        tops, dq = self._corr_tops(a, K)
        num, den = self._exact_sum(tops, a, 2 * K)
        return num, den * self.den * dq

    def em_corr_enclosure(self, a: int, K: int, W: int) -> Tuple[int, int, int]:
        """(s, s + n + 1, den) with s/den <= em_corr(a, K) < (s + n + 1)/den:
        each term of :meth:`em_corr` floored at scale 2^W over the fixed
        denominator den dq (see :meth:`_floor_sum`)."""
        tops, dq = self._corr_tops(a, K)
        s = self._floor_sum(tops, a, 2 * K, W)
        return s, s + len(self.cs), (self.den * dq) << W

    # Lower bound of the remainder.  The kernel is g = exp(phi), with
    # phi(x) = 2 ln n! - 2 sum_k ln(x+k), so each derivative of phi has
    # one sign:
    #
    #     x_j = (-1)^j phi^(j)(x) = 2 (j-1)! sum_k (x+k)^-j > 0   (j >= 1).
    #
    # By Faa di Bruno, g^(m) = g B_m(phi', ..., phi^(m)) for the complete
    # Bell polynomial B_m, whose monomials have nonnegative coefficients and
    # weight m, so (-1)^m g^(m) = g B_m(x_1, ..., x_m).  Keeping only the
    # monomial x_1^m,
    #
    #     (-1)^m g^(m)(a) >= g(a) y^m,   y = x_1(a) = sum_k 2/(a+k).
    #
    # At an integer a, a(a+1)...(a+n) = (n+1)! C(a+n, n+1), so g(a) = Q^-2
    # with Q = (n+1) C(a+n, n+1); and y >= Y 2^-64 with
    # Y = sum_k floor(2^65/(a+k)).  With e = 2K + 2, em_remainder(a, K) =
    # |B_e| / e! |g^(e-2)(a)| is therefore at least the ratio of integers
    #
    #     |B_e| Y^(e-2) / (e! Q^2 2^(64(e-2))).
    #
    # Y and Q depend on a alone.  At V = n + 32 and K = 6..12 the bound is
    # 0.4-1.6 bits below the remainder at n = 120, 0.8-3.1 bits at n = 60
    # and 3.7-13.9 bits at n = 10; dropping the other monomials costs more
    # where y is small.

    def lower_factors(self, a: int) -> Tuple[int, int]:
        """(Y, Q) of the remainder's lower bound at a (see above)."""
        n = len(self.cs) - 1
        return (sum((1 << 65) // b for b in range(a, a + n + 1)),
                (n + 1) * math.comb(a + n, n + 1))

    @staticmethod
    def em_remainder_lower(K: int, factors: Tuple[int, int]) -> Tuple[int, int]:
        """(num, den) with num/den <= em_remainder(a, K), from
        ``lower_factors(a)``."""
        Y, Q = factors
        e = 2 * K + 2
        bern = exact.bernoulli(e)
        return (abs(bern.numerator) * Y ** (e - 2),
                (bern.denominator * math.factorial(e) * Q * Q) << (64 * (e - 2)))


def _log2_fraction(q: Fraction) -> int:
    # upper estimate of log2 of a positive rational (within 1)
    return q.numerator.bit_length() - q.denominator.bit_length() + 1


def _log2_str(q: Fraction) -> str:
    # "2^-2093": a float would print 0.000e+00 below 1e-308
    return f"2^{math.log2(q.numerator) - math.log2(q.denominator):.4g}"


_EM_PADS = (32, 48, 64, 96, 128, 192, 256, 384, 512)
_EM_TERMS = (6, 8, 10, 12, 16, 20, 24, 32)


_ENCLOSE_GUARD = 64  # bits an enclosure resolves beyond what it must decide


def _remainder_within(target: Fraction, kern: _EMKernel, a: int, K: int,
                      factors: Tuple[int, int]):
    """em_remainder(a, K) rounded up to 48 bits if it is at most target,
    else None.

    ``factors`` is ``kern.lower_factors(a)``.  A lower bound above the
    target (:meth:`_EMKernel.em_remainder_lower`) rejects at once, with no
    sum over k.  Otherwise the candidate is decided from one
    :meth:`_EMKernel.em_remainder_enclosure`, at the W that makes its width
    at most 2^-(48 + _ENCLOSE_GUARD) of the lower bound, and so of the
    remainder.  Rejecting needs lo > target.  Accepting needs
    hi <= target, and lo and hi rounding up to the same 48-bit value,
    which by monotonicity is the exact remainder's rounding too.  An
    undecided interval (one that straddles the target or a 48-bit value)
    leaves the candidate to the exact remainder.
    """
    tn, td = target.numerator, target.denominator
    ln, ld = kern.em_remainder_lower(K, factors)
    if ln * td > tn * ld:
        return None
    bern = exact.bernoulli(2 * K + 2)
    bn = abs(bern.numerator)
    c = bern.denominator * (2 * K + 2) * (2 * K + 1) * kern.den
    # width (n+1) bn / (c 2^W) <= (ln/ld) 2^-(_EPREC + guard); as the lower
    # bound is at most the target, this W resolves the target too
    W = max(0, (ld * bn).bit_length() - (ln * c).bit_length() + 1
            + len(kern.cs).bit_length() + _EPREC + _ENCLOSE_GUARD)
    lo, hi, den = kern.em_remainder_enclosure(a, K, W)
    if lo * td > tn * den:
        return None
    if hi * td <= tn * den:
        up = _ratio_to_raw_up(hi, den)
        if _ratio_to_raw_up(lo, den) == up:
            return up
    num, den = kern.em_remainder(a, K)
    if num * td <= tn * den:
        return _ratio_to_raw_up(num, den)
    return None


def _corr_rounded(kern: _EMKernel, a: int, K: int, p: int) -> Bounded:
    """``Bounded.from_ratio(*kern.em_corr(a, K), p)``, decided from one
    :meth:`_EMKernel.em_corr_enclosure`, else from the exact correction.

    The enclosure is (n+1) / (den dq 2^W) wide.  Its W makes that at most
    2^-(p + _ENCLOSE_GUARD) g(a)/12, where g(a)/12 = 1/(12 Q^2), with Q of
    :meth:`_EMKernel.lower_factors`, is the correction's leading term
    B_2/2! g(a): the correction measured at least 0.972 g(a)/12 over
    n <= 400 and every pad and K of the cutoff grid (least at n = 400,
    pad 32, K = 6).  The enclosure is then far narrower than the
    correction's p-bit rounding step, and only a value near a rounding
    boundary falls to the exact sum.  The sizing affects speed only.
    """
    Q = kern.lower_factors(a)[1]
    dq = _corr_coefficients(K)[2]
    W = max(0, p + _ENCLOSE_GUARD + (12 * len(kern.cs)).bit_length()
            + 2 * Q.bit_length() - (kern.den * dq).bit_length() + 1)
    b = Bounded.from_enclosure(*kern.em_corr_enclosure(a, K, W), p)
    return b if b is not None else Bounded.from_ratio(*kern.em_corr(a, K), p)


def _choose_cutoff(n: int, eps: Fraction,
                   kern: _EMKernel) -> Tuple[int, int, Fraction]:
    """The first (V, K) of the _EM_PADS x _EM_TERMS grid, in that order,
    whose remainder is at most eps/4, and that remainder rounded up to a
    48-bit dyadic.

    Each pad forms the factors of the remainder's lower bound once; every
    K whose bound exceeds eps/4 is then refused without a sum over k (see
    :func:`_remainder_within`).  The exact remainder is at least the
    bound, so the choice is the one an exact search makes."""
    target = eps / 4
    for pad in _EM_PADS:
        v_cut = n + pad
        factors = kern.lower_factors(v_cut + 1)
        for K in _EM_TERMS:
            up = _remainder_within(target, kern, v_cut + 1, K, factors)
            if up is not None:
                return v_cut, K, raw_to_fraction(up)
    raise PrecisionExhausted(
        f"no Euler-Maclaurin configuration reaches eps={_log2_str(eps)} at n={n}")


def default_series_eps(n: int, policy: PrecisionPolicy) -> Fraction:
    """Absolute target: ~ (4n + frac_bits + 52) bits below 1/n.

    I_n itself is ~16^-n/n, so this leaves frac_bits + ~52 significant
    bits in the result.
    """
    return Fraction(1, n << (4 * n + policy.frac_bits + 52))


def I_series(
    n: int,
    eps: Optional[Fraction] = None,
    policy: PrecisionPolicy = PrecisionPolicy(),
) -> Tuple[Bounded, TailBound]:
    """Certified series evaluation of I_n with total error below eps.

    Terms v = n+1 .. V are summed in closed form (their rational parts
    folded into a single exact harmonic-number sum over d_{V+n}, the log
    parts into one exact prime vector of log-factorial differences); the
    tail past V is summed by Euler-Maclaurin with rational correction
    terms, rounded from a certified enclosure, and a certified remainder.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    if eps is None:
        eps = policy.tail_eps
    eps = default_series_eps(n, policy) if eps is None else Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")

    res = exact.residue_numerators(n)
    d, nums = res
    cs = exact.scaled_square_weights(n)
    kern = _EMKernel(d, nums, cs)
    if sum(nums) != 0:
        raise exact.IdentityViolation(f"residue weights do not cancel at n={n}")
    # d * (weights of ln(a+k) in integral_a^infty x*g(x) dx); their sum must
    # vanish for the integral to converge (g decays like x^-(2n+2))
    wlog = [d * c - k * A for k, (A, c) in enumerate(zip(nums, cs))]
    if sum(wlog):
        raise exact.IdentityViolation(f"integral log weights do not cancel at n={n}")

    # the first precision is checked against max_bits before the cutoff
    # search, which at a tiny eps is long and would be wasted
    steps = escalation(f"series at n={n}",
                       max(policy.base_bits, 2 * n - _log2_fraction(eps) + 64),
                       policy.max_bits)
    first = next(steps)
    v_cut, em_terms, remainder = _choose_cutoff(n, eps, kern)
    a = v_cut + 1

    # exact pieces, independent of working precision
    hd, h = exact.scaled_harmonics(v_cut + n)
    main_rat = (sum(c * (h[v_cut + k] - h[n + k]) for k, c in enumerate(cs)), hd)
    int_rat = _tree_sum([(-k * c, a + k) for k, c in enumerate(cs)])
    # sum_k As_k (ln((V+k)!) - ln((n+k)!)), the log part of the main sum,
    # as weights of ln(m!) for m = n .. V+n
    fact_w = [-A for A in nums] + [0] * (v_cut - n)
    for k, A in enumerate(nums):
        fact_w[v_cut - n + k] += A
    main_logs = _factorial_log_pair(d, n, fact_w)
    int_logs = _range_log_pair(d, a, wlog)

    for p in chain([first], steps):
        # sum_{v=n+1..V} f(v)
        main = b_sub(Bounded.from_ratio(*main_rat, p), _prime_dot(main_logs, p), p)

        # f(a); reused by the boundary and integral pieces
        f_a = series_term(n, a, p, res, cs)
        # integral_a^infty f = -a f(a) - sum_k wlog_k ln(a+k) + int_rat
        integral = b_add(b_mul_int(f_a, -a, p),
                         Bounded.from_ratio(*int_rat, p), p)
        integral = b_sub(integral, _prime_dot(int_logs, p), p)

        tail = b_add(integral, b_mul(f_a, Bounded.from_ratio(1, 2, p + 8), p), p)
        tail = b_add(tail, _corr_rounded(kern, a, em_terms, p), p)
        total = b_add(main, tail, p)
        total = Bounded(total.val, _up_add(total.err, _fraction_to_raw_up(remainder)))

        if total.err_fraction() <= eps:
            return total, TailBound(cutoff=v_cut, em_terms=em_terms,
                                    remainder=remainder)


def gamma_roundtrip(n: int, p: int,
                    policy: PrecisionPolicy = PrecisionPolicy()) -> Bounded:
    """Recover gamma as (I_n + A_n - L_n) / C(2n,n) from the series route.

    Targets roughly half the working precision, which is far below the
    certified budget of each ingredient.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    c = math.comb(2 * n, n)
    eps = Fraction(c, 1 << (p // 2 + 8))
    i_val, _ = I_series(n, eps, policy)
    a = Bounded.from_fraction(exact.A_exact(n), p)
    l = L_from_factorial_logs(n, p)
    return b_div(b_sub(b_add(i_val, a, p), l, p), Bounded.exact_int(c), p)


# --- irrationality-criterion probe ---------------------------------------


class CriterionPoint(NamedTuple):
    """One row of the criterion table: Q_n = (16^n n / d_{2n}) {log S_n}."""

    n: int
    precision_bits: int
    log_s: Bounded
    log_s_floor: int
    frac: Bounded
    q: Bounded
    dist_zero: Bounded
    dist_threshold: Bounded


def _criterion_precision(n: int, policy: PrecisionPolicy) -> int:
    # integer part of log S_n is ~ bits(d_2n) + 2n wide; fractional parts
    # need working precision beyond that width
    return max(policy.base_bits, exact.lcm_upto(2 * n).bit_length() + 2 * n
               + policy.frac_bits + 64)


def criterion_point(n: int, policy: PrecisionPolicy = PrecisionPolicy(),
                    s_vec: Optional[IntVec] = None) -> CriterionPoint:
    """Certified {log S_n} and Q_n, with distances to 0 and pi/(6 ln 2).

    The probe reports both distances and asserts neither limit; {log S_n}
    is certified to ``policy.frac_bits`` bits.  log S_n is the dot product
    of ``s_vec``, the prime vector of log S_n / d_2n over d_n
    (:func:`_log_S_vector`, built when the caller does not have it), with
    factor d_2n.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    frac_bits = policy.frac_bits
    d2n = exact.lcm_upto(2 * n)
    frac_target = mpnum.from_man_exp(1, -frac_bits)
    if s_vec is None:
        s_vec = _log_S_vector(n)
    p = _criterion_precision(n, policy)
    for p in escalation(f"criterion at n={n}", p, policy.max_bits):
        ls = _prime_dot(s_vec, p, d2n)
        try:
            floor_part, frac = frac_part_certified(ls)
        except PrecisionInsufficient:
            continue
        if mpnum.mpf_cmp(frac.err, frac_target) <= 0:
            break
    # Q_n's factor is rounded from the unreduced pair, with no gcd of
    # ~2,000-bit integers; at n = 1 it is exactly 8
    q = b_mul(frac, Bounded.from_ratio(16 ** n * n, d2n, p + 8), p)
    thr = sondow_threshold(max(frac_bits + 96, 192))
    return CriterionPoint(
        n=n,
        precision_bits=p,
        log_s=ls,
        log_s_floor=floor_part,
        frac=frac,
        q=q,
        dist_zero=b_abs(q),
        dist_threshold=b_abs(b_sub(q, thr, p)),
    )


def A_approx(n: int, p: int) -> Bounded:
    """A_n evaluated in floating arithmetic (cumulative harmonic sums).

    Must agree with the exact rational value wherever both are computed;
    exists so the asymptotic scans can leave the exact range.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    wp = p + 16
    h = Bounded(fzero, fzero)
    hs = [h]
    for k in range(1, 2 * n + 1):
        h = b_add(h, Bounded.from_fraction(Fraction(1, k), wp), wp)
        hs.append(h)
    total = Bounded(fzero, fzero)
    for j in range(n + 1):
        total = b_add(total, b_mul_int(hs[n + j], exact.binomial(n, j) ** 2, wp), p)
    return total


# --- full per-n record ----------------------------------------------------


class SeqRecord(NamedTuple):
    """Everything the workbench knows about one n; ``timings`` holds the
    per-stage seconds of this record's computation."""

    n: int
    a_exact: Fraction
    d2n: int
    precision_bits: int
    L_logfact: Bounded
    L_product: Bounded
    log_s: Bounded
    l_agree: bool
    I_closed: Bounded
    I_series: Bounded
    i_agree: bool
    i_positive: bool
    tail: TailBound
    criterion: CriterionPoint
    timings: Dict[str, float]


def build_record(n: int, policy: PrecisionPolicy = PrecisionPolicy()) -> SeqRecord:
    """Populate every per-n quantity; deterministic for fixed (n, policy)."""
    if n < 1:
        raise ValueError("n >= 1 required")
    timings: Dict[str, float] = {}
    # the working bits of L_n, log S_n and the closed form
    p = max(policy.base_bits, 6 * n + policy.frac_bits + 96)

    t0 = time.perf_counter()
    a_ex = exact.A_exact(n)
    d2n = exact.lcm_upto(2 * n)
    timings["exact"] = time.perf_counter() - t0

    # The series goes first: at the default eps it works at p + 18 +
    # bitlen(n) bits, the widest dot product of the record, so its requests
    # size the prime-log table once.  Run after L_n, it would find the table
    # too narrow and rebuild it at twice the width.
    t0 = time.perf_counter()
    i_ser, tail = I_series(n, policy=policy)
    t_series = time.perf_counter() - t0

    t0 = time.perf_counter()
    vec = check_L_identity(n)
    l_log = _prime_dot(vec, p)
    ls = _prime_dot(vec, p, d2n)
    l_prod = b_div(ls, Bounded.exact_int(d2n), p)
    l_agree = agrees(l_log, l_prod)
    timings["L"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    i_closed = I_closed_form(n, p, l_log, a_ex)
    i_agree = agrees(i_closed, i_ser)
    i_positive = i_ser.value_fraction() - i_ser.err_fraction() > 0
    timings["I"] = t_series + time.perf_counter() - t0

    t0 = time.perf_counter()
    criterion = criterion_point(n, policy, vec)
    timings["criterion"] = time.perf_counter() - t0

    return SeqRecord(
        n=n,
        a_exact=a_ex,
        d2n=d2n,
        precision_bits=p,
        L_logfact=l_log,
        L_product=l_prod,
        log_s=ls,
        l_agree=l_agree,
        I_closed=i_closed,
        I_series=i_ser,
        i_agree=i_agree,
        i_positive=i_positive,
        tail=tail,
        criterion=criterion,
        timings=timings,
    )
