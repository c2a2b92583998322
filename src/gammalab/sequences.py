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
term, which we evaluate exactly in rational arithmetic.  That certified
tail is what makes a 30+ digit series evaluation feasible at n = 1, where
naive summation to the same accuracy would need ~1e16 terms.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from mpmath.libmp import fzero

from . import exact
from .mpnum import (
    Bounded,
    PrecisionExhausted,
    PrecisionInsufficient,
    PrecisionPolicy,
    agrees,
    b_abs,
    b_add,
    b_div,
    b_mul_int,
    b_scale,
    b_sub,
    b_sum,
    euler_gamma,
    frac_part_certified,
    pi_const,
    ln2_const,
    IntVec,
    _factorial_log_pair,
    _fraction_to_raw_up,
    _int_log_pair,
    _prime_dot,
    _scaled_vec,
    _up_add,
)

__all__ = [
    "TailBound",
    "SeqRecord",
    "CriterionPoint",
    "sondow_threshold",
    "L_from_factorial_logs",
    "L_vector",
    "log_S_exponents",
    "log_S_vector",
    "log_S",
    "check_L_identity",
    "L_from_power_product",
    "L_consistency",
    "I_closed_form",
    "I_series",
    "series_term",
    "gamma_roundtrip",
    "criterion_point",
    "tail_probe",
    "A_approx",
    "build_record",
    "closed_form_floor",
    "default_series_eps",
]


def sondow_threshold(p: int) -> Bounded:
    """pi / (6 ln 2), the reference limit of the irrationality criterion."""
    return b_div(pi_const(p), b_mul_int(ln2_const(p), 6, p), p)


def _L_pair(n: int) -> IntVec:
    if n < 1:
        raise ValueError("n >= 1 required")
    d, nums = exact.residue_numerators(n)
    return _factorial_log_pair(d, {n + j: a for j, a in enumerate(nums)})


def L_vector(n: int) -> Dict[int, Fraction]:
    """Exact prime vector of L_n = sum_j 2 C(n,j)^2 (H_j - H_{n-j}) ln((n+j)!).

    The weights are exactly the scaled simple-pole residues of the
    partial-fraction decomposition, as integers over d_n; the factorials
    go through Legendre.
    """
    return _scaled_vec(*_L_pair(n))


def L_from_factorial_logs(n: int, p: int) -> Bounded:
    """L_n from the explicit log-factorial sum (see :func:`L_vector`)."""
    return _prime_dot(_L_pair(n), p)


def log_S_exponents(n: int) -> List[int]:
    """Integer exponents E_k with log S_n = sum_{k=1..n} E_k ln(n+k).

    E_k collapses the triple product over (k, i, j) with per-factor
    exponent (2 d_{2n}/j) C(n,i)^2; each 2 d_{2n}/j is checked to be an
    exact integer (j <= 2n divides d_{2n}, so a failure means a bug).
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    d2 = 2 * exact.lcm_upto(2 * n)
    quot = [0] * (n + 1)
    for j in range(1, n + 1):
        q, r = divmod(d2, j)
        if r:
            raise exact.IdentityViolation(f"2*d_2n not divisible by j={j} at n={n}")
        quot[j] = q
    # prefix[j] = sum_{q<=j} 2*d2n/q ; the quotient depends on j alone, so
    # checking j = 1..n above covers every (k, i, j) triple.
    prefix = [0] * (n + 1)
    for j in range(1, n + 1):
        prefix[j] = prefix[j - 1] + quot[j]
    # weight of ln(n+k) for a given i: sum_{j=i+1..n-i} quot[j]
    half = [0] * (n // 2 + 1)
    acc = 0
    row = exact.binomial_row(n)
    for i in range(n // 2 + 1):
        if i + 1 <= n - i:
            acc += row[i] ** 2 * (prefix[n - i] - prefix[i])
        half[i] = acc
    return [half[min(k - 1, n - k, n // 2)] for k in range(1, n + 1)]


def log_S_vector(n: int) -> Dict[int, int]:
    """Exact prime vector of log S_n: c_q = sum_k E_k v_q(n+k)."""
    expo = log_S_exponents(n)
    return _int_log_pair(1, {n + k: e for k, e in enumerate(expo, 1)})[1]


def log_S(n: int, p: int) -> Bounded:
    """log S_n as a certified float (S_n itself is astronomically large)."""
    return _prime_dot((1, log_S_vector(n)), p)


def check_L_identity(n: int, l_vec: Optional[Dict[int, Fraction]] = None,
                     s_vec: Optional[Dict[int, int]] = None) -> None:
    """Raise IdentityViolation unless d_2n * vec(L_n) == vec(log S_n).

    Both sides are exact prime vectors, so the two L_n routes are compared
    with zero tolerance; the numeric ``l_agree`` check remains beside it.
    ``l_vec`` and ``s_vec`` are the two vectors when the caller has them.
    """
    if l_vec is None:
        l_vec = L_vector(n)
    if s_vec is None:
        s_vec = log_S_vector(n)
    d2n = exact.lcm_upto(2 * n)
    if l_vec.keys() != s_vec.keys() or any(
            d2n * c.numerator != s_vec[q] * c.denominator
            for q, c in l_vec.items()):
        raise exact.IdentityViolation(f"d_2n * vec(L_n) != vec(log S_n) at n={n}")


def L_from_power_product(n: int, p: int) -> Bounded:
    """L_n = log(S_n) / d_{2n}; independent of the log-factorial route."""
    return b_div(log_S(n, p), Bounded.exact_int(exact.lcm_upto(2 * n)), p)


def L_consistency(n: int, p: int) -> Tuple[Bounded, bool]:
    """Relative difference of the two L_n routes and the certified verdict."""
    l1 = L_from_factorial_logs(n, p)
    l2 = L_from_power_product(n, p)
    rel = b_div(b_abs(b_sub(l1, l2, p)), b_abs(l2), p)
    return rel, agrees(l1, l2)


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
            f"closed form at n={n} needs >= {closed_form_floor(n)} bits",
            closed_form_floor(n) - p,
        )
    g = b_mul_int(euler_gamma(p), math.comb(2 * n, n), p)
    if l_n is None:
        l_n = L_from_factorial_logs(n, p)
    if a_n is None:
        a_n = exact.A_exact(n)
    return b_sub(b_add(g, l_n, p), Bounded.from_fraction(a_n, p), p)


# --- series route --------------------------------------------------------


@dataclass(frozen=True)
class TailBound:
    """Certificate for the series tail summed past cutoff v = V.

    ``remainder`` bounds everything not explicitly computed (the
    Euler-Maclaurin remainder with ``em_terms`` correction terms); it is
    valid because the summand is completely monotone.
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
    rat = Fraction(*_tree_sum([(c, v + k) for k, c in enumerate(cs)]))
    logs = _int_log_pair(d, {v + k: a for k, a in enumerate(nums)})
    return b_sub(Bounded.from_fraction(rat, p), _prime_dot(logs, p), p)


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


class _EMKernel:
    """Exact sums over the kernel g(x) = sum_k As_k/(x+k) + Cs_k/(x+k)^2.

    g is the scaled integrand (n!/(x(x+1)...(x+n)))^2.  The residue weights
    As_k arrive over one denominator ``den``, as the integers
    ``num[k] = As_k den`` of :func:`exact.residue_numerators`, so every sum
    over k runs in integers and is reduced once at the end (Haible &
    Papanikolaou 1998).
    """

    def __init__(self, den: int, num: List[int], cs: List[int]):
        self.den = den
        self.num = num
        self.cs = cs

    def derivative_sum(self, m: int, a: int) -> Tuple[int, int]:
        """(-1)^m g^(m)(a) / m! as an unreduced (num, den).

        With b = a + k it is sum_k (A_k b + (m+1) den Cs_k) / (den b^(m+2)).
        """
        d, e = self.den, m + 2
        num, den = _tree_sum([(A * (a + k) + (m + 1) * d * c, (a + k) ** e)
                              for k, (A, c) in enumerate(zip(self.num, self.cs))])
        return num, den * d

    def em_remainder(self, a: int, K: int) -> Tuple[int, int]:
        """|B_{2K+2}| / (2K+2)! |g^(2K)(a)| as an unreduced (num, den).

        It bounds what an Euler-Maclaurin sum from a with K correction
        terms leaves out.
        """
        bern = exact.bernoulli(2 * K + 2)
        num, den = self.derivative_sum(2 * K, a)
        return (abs(bern.numerator * num),
                bern.denominator * (2 * K + 2) * (2 * K + 1) * den)

    def em_corr(self, a: int, K: int) -> Fraction:
        """sum_{j=1..K} B_2j / (2j)! g^(2j-2)(a), in one pass over k.

        With x = 1/(a+k) it is sum_k As_k P(x) + Cs_k Q(x), where
        P(x) = sum_j B_2j/(2j(2j-1)) x^(2j-1) and Q(x) = sum_j B_2j/(2j) x^(2j);
        both are evaluated by Horner in b^2 = (a+k)^2 over the lcm of
        their coefficients' denominators.
        """
        bern = [exact.bernoulli(2 * j) for j in range(1, K + 1)]
        pc = [b / (2 * j * (2 * j - 1)) for j, b in enumerate(bern, 1)]
        qc = [b / (2 * j) for j, b in enumerate(bern, 1)]
        dq = math.lcm(*(c.denominator for c in pc + qc))
        pc = [c.numerator * (dq // c.denominator) for c in pc]
        qc = [c.numerator * (dq // c.denominator) for c in qc]
        d = self.den
        pairs = []
        for k, (A, c) in enumerate(zip(self.num, self.cs)):
            b = a + k
            s = b * b
            pn = qn = 0
            for pj, qj in zip(pc, qc):
                pn = pn * s + pj
                qn = qn * s + qj
            pairs.append((A * b * pn + d * c * qn, s ** K))
        num, den = _tree_sum(pairs)
        return Fraction(num, den * d * dq)


def _log2_fraction(q: Fraction) -> int:
    # upper estimate of log2 of a positive rational (within 1)
    return q.numerator.bit_length() - q.denominator.bit_length() + 1


def _log2_str(q: Fraction) -> str:
    # "2^-2093": a float would print 0.000e+00 below 1e-308
    return f"2^{math.log2(q.numerator) - math.log2(q.denominator):.4g}"


_EM_PADS = (32, 48, 64, 96, 128, 192, 256, 384, 512)
_EM_TERMS = (6, 8, 10, 12, 16, 20, 24, 32)


def _choose_cutoff(n: int, eps: Fraction,
                   kern: _EMKernel) -> Tuple[int, int, Fraction]:
    target = eps / 4
    for pad in _EM_PADS:
        v_cut = n + pad
        for K in _EM_TERMS:
            num, den = kern.em_remainder(v_cut + 1, K)
            if num * target.denominator <= target.numerator * den:
                return v_cut, K, Fraction(num, den)
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
    tail past V is summed by Euler-Maclaurin with exact rational
    correction terms and a certified remainder.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    if eps is None:
        eps = policy.tail_eps or default_series_eps(n, policy)
    eps = Fraction(eps)
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

    v_cut, em_terms, remainder = _choose_cutoff(n, eps, kern)
    a = v_cut + 1

    # exact pieces, independent of working precision
    hd, h = exact.scaled_harmonics(v_cut + n)
    main_rat = Fraction(sum(c * (h[v_cut + k] - h[n + k]) for k, c in enumerate(cs)),
                        hd)
    int_rat = -Fraction(*_tree_sum([(k * c, a + k) for k, c in enumerate(cs)]))
    em_corr = kern.em_corr(a, em_terms)
    # sum_k As_k (ln((V+k)!) - ln((n+k)!)), the log part of the main sum
    fact_w: Dict[int, int] = {}
    for k, A in enumerate(nums):
        fact_w[v_cut + k] = fact_w.get(v_cut + k, 0) + A
        fact_w[n + k] = fact_w.get(n + k, 0) - A
    main_logs = _factorial_log_pair(d, fact_w)
    int_logs = _int_log_pair(d, {a + k: w for k, w in enumerate(wlog)})

    p = max(policy.base_bits, 2 * n - _log2_fraction(eps) + 64)
    if p > policy.max_bits:
        raise PrecisionExhausted(
            f"series at n={n} needs {p} working bits, ceiling is {policy.max_bits}")
    while True:
        # sum_{v=n+1..V} f(v)
        main = b_sub(Bounded.from_fraction(main_rat, p), _prime_dot(main_logs, p), p)

        # f(a); reused by the boundary and integral pieces
        f_a = series_term(n, a, p, res, cs)
        # integral_a^infty f = -a f(a) - sum_k wlog_k ln(a+k) + int_rat
        integral = b_add(b_mul_int(f_a, -a, p),
                         Bounded.from_fraction(int_rat, p), p)
        integral = b_sub(integral, _prime_dot(int_logs, p), p)

        tail = b_add(integral, b_scale(f_a, Fraction(1, 2), p), p)
        tail = b_add(tail, Bounded.from_fraction(em_corr, p), p)
        total = b_add(main, tail, p)
        total = Bounded(total.val, _up_add(total.err, _fraction_to_raw_up(remainder)))

        if total.err_fraction() <= eps:
            return total, TailBound(cutoff=v_cut, em_terms=em_terms,
                                    remainder=remainder)
        if 2 * p > policy.max_bits:
            raise PrecisionExhausted(
                f"series at n={n} cannot reach eps={_log2_str(eps)} "
                f"within {policy.max_bits} bits")
        p *= 2


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


@dataclass(frozen=True)
class CriterionPoint:
    """One row of the criterion table: Q_n = (16^n n / d_{2n}) {log S_n}."""

    n: int
    precision_bits: int
    log_s: Bounded
    log_s_floor: int
    frac: Bounded
    q: Bounded
    dist_zero: Bounded
    dist_threshold: Bounded


def _criterion_precision(n: int, d2n: int, frac_bits: int) -> int:
    # integer part of log S_n is ~ bits(d_2n) + 2n wide; fractional parts
    # need working precision beyond that width
    return d2n.bit_length() + 2 * n + frac_bits + 64


def criterion_point(n: int, frac_bits: Optional[int] = None,
                    policy: PrecisionPolicy = PrecisionPolicy(),
                    s_vec: Optional[Dict[int, int]] = None) -> CriterionPoint:
    """Certified {log S_n} and Q_n, with distances to 0 and pi/(6 ln 2).

    The probe reports both distances and asserts neither limit.
    ``s_vec`` is the prime vector of log S_n when the caller has it.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    if frac_bits is None:
        frac_bits = policy.frac_bits
    d2n = exact.lcm_upto(2 * n)
    p = max(policy.base_bits, _criterion_precision(n, d2n, frac_bits))
    if p > policy.max_bits:
        raise PrecisionExhausted(
            f"criterion at n={n} needs {p} working bits, ceiling is "
            f"{policy.max_bits}")
    frac_target = Fraction(1, 1 << frac_bits)
    if s_vec is None:
        s_vec = log_S_vector(n)
    while True:
        ls = _prime_dot((1, s_vec), p)
        try:
            floor_part, frac = frac_part_certified(ls)
            if frac.err_fraction() <= frac_target:
                break
            needed = frac_bits
        except PrecisionInsufficient as e:
            needed = e.extra_bits or p
        nxt = max(2 * p, p + needed)
        if nxt > policy.max_bits:
            raise PrecisionExhausted(
                f"criterion at n={n} exhausted at {policy.max_bits} bits")
        p = nxt
    q = b_scale(frac, Fraction((16 ** n) * n, d2n), p)
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


def tail_probe(n: int, r: int, p: int) -> Bounded:
    """The vanishing tail sum S_n(r) behind the closed form of I_n.

    S_n(r) = sum_j C(n,j)^2 (2(H_{n-j}-H_j) ln((n+j+r)!) + ln(n+j+r)).
    Evaluated without materialising huge log-factorials: the weights sum
    to zero, so only logs of n+r+1 .. 2n+r enter.  S_n(r) -> 0 as r grows;
    this is the quantity whose log-r coefficient is
    exact.tail_log_coefficient(n).
    """
    if n < 1 or r < 1:
        raise ValueError("n >= 1 and r >= 1 required")
    wp = p + 2 * n + r.bit_length() + 32
    d, nums = exact.residue_numerators(n)
    suffix = [-a for a in nums]  # d * 2C^2(H_{n-j}-H_j)
    for j in range(n - 1, -1, -1):
        suffix[j] += suffix[j + 1]
    if suffix[0] != 0:
        raise exact.IdentityViolation("probe weights do not cancel")
    weights = {n + r + i: suffix[i] for i in range(1, n + 1)}
    for j, c in enumerate(exact.scaled_square_weights(n)):
        weights[n + j + r] = weights.get(n + j + r, 0) + d * c
    return _prime_dot(_int_log_pair(d, weights), wp)


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
    terms = [
        b_mul_int(hs[n + j], exact.binomial(n, j) ** 2, wp)
        for j in range(n + 1)
    ]
    return b_sum(terms, p)


# --- full per-n record ----------------------------------------------------


@dataclass
class SeqRecord:
    """Everything the workbench knows about one n."""

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
    log_s_floor: int
    frac_log_s: Bounded
    q: Bounded
    q_dist_zero: Bounded
    q_dist_threshold: Bounded
    q_precision_bits: int
    timings: Dict[str, float] = field(default_factory=dict)


def build_record(n: int, policy: PrecisionPolicy = PrecisionPolicy()) -> SeqRecord:
    """Populate every per-n quantity; deterministic for fixed (n, policy)."""
    if n < 1:
        raise ValueError("n >= 1 required")
    timings: Dict[str, float] = {}
    p = max(policy.base_bits, 6 * n + policy.frac_bits + 96)

    t0 = time.perf_counter()
    a_ex = exact.A_exact(n)
    d2n = exact.lcm_upto(2 * n)
    timings["exact"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    l_vec = L_vector(n)
    s_vec = log_S_vector(n)
    check_L_identity(n, l_vec, s_vec)
    l_log = _prime_dot(l_vec, p)
    ls = _prime_dot((1, s_vec), p)
    l_prod = b_div(ls, Bounded.exact_int(d2n), p)
    l_agree = agrees(l_log, l_prod)
    timings["L"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    i_closed = I_closed_form(n, p, l_log, a_ex)
    i_ser, tail = I_series(n, policy=policy)
    i_agree = agrees(i_closed, i_ser)
    i_positive = i_ser.value_fraction() - i_ser.err_fraction() > 0
    timings["I"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cp = criterion_point(n, policy.frac_bits, policy, s_vec)
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
        log_s_floor=cp.log_s_floor,
        frac_log_s=cp.frac,
        q=cp.q,
        q_dist_zero=cp.dist_zero,
        q_dist_threshold=cp.dist_threshold,
        q_precision_bits=cp.precision_bits,
        timings=timings,
    )
