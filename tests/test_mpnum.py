"""Certified-arithmetic tests: containment properties, functional
equations, and frozen constants checked against independent series
oracles (see oracles.py) rather than mpmath."""

import math
import os
import pathlib
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, from_rational, fzero

import oracles
from gammalab import exact
from gammalab import mpnum as mn
from gammalab.mpnum import Bounded

# 50 decimals, cross-checked against the Fraction-series oracles below
GAMMA_50 = Fraction(
    "0.57721566490153286060651209008240243104215933593992")
PI_50 = Fraction(
    "3.14159265358979323846264338327950288419716939937511")
LN2_50 = Fraction(
    "0.69314718055994530941723212145817656807550013436026")


def frac(x):
    return x.value_fraction()


positive_rationals = st.fractions(
    min_value=Fraction(1, 10 ** 6), max_value=Fraction(10 ** 6, 1))
rationals = st.fractions(
    min_value=Fraction(-10 ** 6), max_value=Fraction(10 ** 6))


# --- containment of exact results -------------------------------------------

@given(rationals, rationals, st.sampled_from([64, 128, 192]))
@settings(max_examples=60, deadline=None)
def test_add_mul_containment(a, b, p):
    x = Bounded.from_fraction(a, p)
    y = Bounded.from_fraction(b, p)
    assert mn.b_add(x, y, p).contains(a + b)
    assert mn.b_mul(x, y, p).contains(a * b)
    assert mn.b_sub(x, y, p).contains(a - b)


@given(rationals, positive_rationals, st.sampled_from([64, 128]))
@settings(max_examples=40, deadline=None)
def test_div_containment(a, b, p):
    x = Bounded.from_fraction(a, p)
    y = Bounded.from_fraction(b, p)
    assert mn.b_div(x, y, p).contains(a / b)


# b_ln factors its pairs, and PrimeLogTable.factor accepts every integer
# below 2^40
ln_ints = st.one_of(st.integers(1, 10 ** 6), st.integers(1, (1 << 40) - 1))


@given(ln_ints, ln_ints)
@settings(max_examples=30, deadline=None)
@example(3, 2)
@example(1, 1 << 39)
@example((1 << 40) - 87, 1)  # the largest prime below 2^40
def test_ln_containment_via_oracle(num, den):
    p = 128
    got = mn.b_ln((num, den), p)
    ref = oracles.ln_oracle(Fraction(num, den), 160)
    # |got - ln q| <= err  =>  |got - ref| <= err + oracle truncation
    assert abs(frac(got) - ref) <= got.err_fraction() + Fraction(1, 2 ** 160)
    assert got.err == (mn._fn_err(got.val, p) if num != den else mn.fzero)


def test_ln_of_a_prime_vector():
    # (D, {q: a_q}) is sum_q (a_q / D) ln q: here ln(2^5 / 3^3) / 2
    p = 128
    got = mn.b_ln((2, {2: 5, 3: -3}), p)
    ref = oracles.ln_oracle(Fraction(32, 27), 160) / 2
    assert abs(frac(got) - ref) <= got.err_fraction() + Fraction(1, 2 ** 160)
    assert got == mn.b_ln((4, {2: 10, 3: -6}), p)  # the same rational vector


def test_ln_exact_one_and_domain():
    for one in ((1, 1), (7, 7), (1, {}), (3, {2: 0})):
        assert mn.b_ln(one, 128) == Bounded(mn.fzero, mn.fzero)
    # factor(0) is [], so without the check ln 0 would come out as 0
    for bad in ((0, 1), (1, 0), (-3, 2), (3, -2), (-3, -2)):
        with pytest.raises(ValueError):
            mn.b_ln(bad, 128)


def test_ln_functional_equation_seeded():
    rng = random.Random(7)
    p = 128
    for _ in range(100):
        a, b = rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 3)
        c, d = rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 3)
        lxy = mn.b_ln((a * c, b * d), p)
        assert mn.agrees(lxy, mn.b_add(mn.b_ln((a, b), p), mn.b_ln((c, d), p), p))


def test_ln_doubles_w_until_the_enclosure_decides(monkeypatch):
    widths = []
    real = mn.PrimeLogTable.floor_logs

    def recording(self, primes, w):
        widths.append(w)
        return real(self, primes, w)

    first = mn.Bounded.from_enclosure
    calls = []

    def undecided_first(lo, hi, den, p):
        calls.append(p)
        return None if len(calls) == 1 else first(lo, hi, den, p)

    want = mn.b_ln((3, 2), 100)
    monkeypatch.setattr(mn.PrimeLogTable, "floor_logs", recording)
    monkeypatch.setattr(mn.Bounded, "from_enclosure", undecided_first)
    assert mn.b_ln((3, 2), 100) == want
    assert widths == [126, 252] and calls == [110, 110]


def test_ln_of_a_wide_vector_near_one():
    # 2^a / 3^b for the convergent a/b = 187363077/118212940 of log2 3 is
    # within 1e-8 of 1, and e = a + b is about 2^28, so the enclosure at
    # the first w (2^28 / 2^90) cannot decide the rounding of a value near
    # 2^-27 to 74 bits, and w doubles once
    a, b, p = 187363077, 118212940, 64
    got = mn.b_ln((1, {2: a, 3: -b}), p)
    ref = a * oracles.ln2_oracle(240) - b * oracles.ln_oracle(Fraction(3), 240)
    assert abs(ref) < Fraction(1, 10 ** 8)
    assert abs(frac(got) - ref) <= got.err_fraction() + Fraction(1, 2 ** 200)
    assert abs(frac(got) - ref) < abs(ref) / 2 ** 70


def test_ln_raises_if_the_published_error_misses_the_enclosure(monkeypatch):
    monkeypatch.setattr(mn, "_fn_err", lambda val, p: mn.fzero)
    with pytest.raises(ArithmeticError, match="published bound"):
        mn.b_ln((3, 2), 64)


def _sqrt_encloses(got, lo, hi):
    # every sqrt(X), X in [lo, hi], lies in [v - e, v + e]: compare squares
    v, e = frac(got), got.err_fraction()
    return max(v - e, 0) ** 2 <= lo and hi <= (v + e) ** 2


@pytest.mark.parametrize("x, root", [
    (0, 0), (1, 1), (4, 2), (Fraction(9, 4), Fraction(3, 2)),
    (Fraction(1, 1 << 41), None), (2, None), (3, None), (10 ** 40 + 1, None)])
def test_sqrt_of_exact_arguments(x, root):
    p = 128
    x_exact = Bounded.from_fraction(x, 4096)
    assert x_exact.err == mn.fzero
    got = mn.b_sqrt(x_exact, p)
    assert got.err == mn.mpf_shift(mn.mpf_abs(got.val), 1 - p)
    if root is not None:
        assert frac(got) == root  # a perfect square's root is exact
    assert _sqrt_encloses(got, x, x)


@given(positive_rationals, st.sampled_from([64, 128, 192]))
@settings(max_examples=40, deadline=None)
def test_sqrt_containment_of_inexact_arguments(q, p):
    # from_fraction rounds most q, and pi n carries pi's error
    for x in (Bounded.from_fraction(q, p), mn.b_mul_int(mn.pi_const(p), 7, p)):
        got = mn.b_sqrt(x, p)
        lo, hi = frac(x) - x.err_fraction(), frac(x) + x.err_fraction()
        assert _sqrt_encloses(got, lo, hi)


def test_sqrt_precision_insufficient_branches():
    one, two = Bounded.exact_int(1).val, Bounded.exact_int(2).val
    with pytest.raises(mn.PrecisionInsufficient, match="nonnegative"):
        mn.b_sqrt(Bounded(one, two), 128)  # [-1, 3]
    with pytest.raises(mn.PrecisionInsufficient, match="positive"):
        mn.b_sqrt(Bounded(one, one), 128)  # [0, 2]: no bound on the slope at 0


def test_ln_twelve_against_oracle():
    got = mn.ln_int(12, 192)
    ref = oracles.ln_oracle(Fraction(12), 200)
    assert abs(frac(got) - ref) < Fraction(1, 2 ** 180)
    assert got.decimal(16).startswith("2.484906649788")


def test_ln4_equals_2ln2():
    p = 128
    l4 = mn.ln_int(4, p)
    l2x2 = mn.b_mul_int(mn.ln2_const(p), 2, p)
    assert mn.agrees(l4, l2x2)


def test_decimal_of_long_mantissa_past_str_digit_limit():
    # log S_n at n = 2950: over 2^3500, with a 14,580-bit mantissa
    from decimal import Decimal, localcontext
    from mpmath.libmp import from_man_exp

    x = 7 * 10 ** 4400 + 1
    b = Bounded(from_man_exp(x, -132), from_man_exp(1, -132))
    with localcontext() as ctx:
        ctx.prec = 60
        ref = Decimal(x) / Decimal(2 ** 132)
        assert abs(Decimal(b.decimal(40)) - ref) < ref.scaleb(-39)
    assert b.decimal(40).startswith("1.28569694621187696184080558758683121011")


# --- constants ---------------------------------------------------------------

def test_ln2_const():
    b = mn.ln2_const(192)
    assert abs(frac(b) - oracles.ln2_oracle(200)) < Fraction(1, 2 ** 185)
    assert abs(frac(b) - LN2_50) < Fraction(1, 10 ** 49)
    assert b.decimal(16).startswith("0.69314718055994")


def test_pi_const():
    b = mn.pi_const(192)
    assert abs(frac(b) - oracles.pi_oracle(200)) < Fraction(1, 2 ** 185)
    assert abs(frac(b) - PI_50) < Fraction(1, 10 ** 48)


def test_sondow_target_value():
    # pi/(6 ln 2) = 0.7553933569711989... fixes the roles of the two
    # constants (0.755393's occasionally-quoted 7th digit of 5 is a typo)
    from gammalab.sequences import sondow_threshold

    t = sondow_threshold(128)
    ref = oracles.pi_oracle(200) / (6 * oracles.ln2_oracle(200))
    assert abs(frac(t) - ref) < Fraction(1, 2 ** 110)
    assert t.decimal(9).startswith("0.75539335")


@pytest.mark.parametrize("p", [64, 1000])
def test_sondow_threshold_leaves_the_rows_table_untouched(p, monkeypatch):
    # its ln 2 comes from the side table, so it never sizes the rows' one
    from gammalab.sequences import sondow_threshold

    monkeypatch.setattr(mn, "_TABLE", mn.PrimeLogTable())
    sondow_threshold.cache_clear()
    try:
        sondow_threshold(p)
        assert (mn._TABLE.prec, mn._TABLE.builds) == (0, 0)
    finally:
        sondow_threshold.cache_clear()


# --- Euler's constant ----------------------------------------------------------

def test_gamma_digits_and_bound():
    g = mn.euler_gamma(176)
    assert abs(frac(g) - GAMMA_50) < Fraction(1, 10 ** 50)
    assert g.err_fraction() < Fraction(1, 2 ** 170)


def test_gamma_dual_parameter_agreement():
    # Brent-McMillan against the Euler-Maclaurin oracle
    for p in (128, 192):
        g = mn.euler_gamma(p)
        ref, e = oracles.em_gamma(p)
        assert oracles.agreeing_bits(frac(g), ref, p + 64) >= p - 64
        assert abs(frac(g) - ref) <= g.err_fraction() + e


def _assert_gamma_contains_mpmath(p):
    mpmath = pytest.importorskip("mpmath")
    g = mn.euler_gamma(p)
    with mpmath.workprec(p + 64):
        ref = mn.raw_to_fraction(mpmath.mp.euler._mpf_)
    # ref is within 2^-(p+63) of gamma, so the interval must hold that
    # whole neighbourhood of ref
    assert abs(frac(g) - ref) + Fraction(1, 2 ** (p + 63)) <= g.err_fraction()
    assert g.err_fraction() < Fraction(1, 2 ** (p + 4))


@pytest.mark.parametrize("p", [64, 1000, 3400, 5047, 16674])
def test_gamma_contains_mpmath_euler(p, monkeypatch):
    # a fresh table, as in a `gamma` process: the shared one holds every
    # prime earlier tests used, and rebuilding them all at 16.7k bits
    # takes seconds
    monkeypatch.setattr(mn, "_TABLE", mn.PrimeLogTable())
    _assert_gamma_contains_mpmath(p)


@given(st.integers(32, 4000))
@settings(max_examples=30, deadline=None)
def test_gamma_containment_property(p):
    _assert_gamma_contains_mpmath(p)


@given(st.integers(64, 4000))
@settings(max_examples=30, deadline=None)
def test_gamma_floor_equals_mpmath(p):
    # a fresh enclosure and the shared one give floor(2^w gamma), checked
    # wherever mpmath's value at p + 64 bits (within 2^-(p+63)) decides it
    mpmath = pytest.importorskip("mpmath")
    w = p + mn._BM_GUARD
    f = mn.PrimeLogTable().floor_gamma(w)
    assert mn.euler_gamma(p) == Bounded(from_man_exp(f, -w), from_man_exp(1, -w))
    with mpmath.workprec(p + 64):
        ref = mn.raw_to_fraction(mpmath.mp.euler._mpf_) * 2 ** w
    slack = Fraction(1, 2 ** 31)
    if math.floor(ref - slack) == math.floor(ref + slack):
        assert f == math.floor(ref)


@pytest.mark.parametrize("bits", [96, 500, 1500])
def test_bm_enclosure_holds_the_oracle_and_is_five_units_wide(bits):
    # the fold's ends, the tails, the Bessel term and the floors of ln n all
    # lie well within the fold's guard bits, so the shifted ends stay close
    lo, hi = mn._bm_enclosure(bits)
    g, e = oracles.em_gamma(bits)
    assert lo <= (g - e) * 2 ** bits and (g + e) * 2 ** bits <= hi
    assert hi - lo <= 5


@pytest.mark.parametrize("guard", [0, 4, 8])
def test_bm_enclosure_holds_gamma_with_few_fold_guard_bits(guard, monkeypatch):
    # with few guard bits the ends' last units count: ln n's floors lose up
    # to one unit per prime factor of n, and the lower end must take them all
    mpmath = pytest.importorskip("mpmath")
    monkeypatch.setattr(mn, "_BM_FOLD_GUARD", guard)
    with mpmath.workprec(1600):
        ref = mn.raw_to_fraction(mpmath.mp.euler._mpf_)
    slack = Fraction(1, 2 ** 1590)  # beyond ref's distance from gamma
    for bits in range(64, 1501, 53):
        lo, hi = mn._bm_enclosure(bits)
        assert lo <= (ref - slack) * 2 ** bits and (ref + slack) * 2 ** bits <= hi, bits


_BM_CUTS = {
    "one block": lambda K: [(1, K + 1)],
    "two blocks": lambda K: [(1, K // 2), (K // 2, K + 1)],
    "16-term blocks": lambda K: [(a, min(a + 16, K + 1)) for a in range(1, K + 1, 16)],
}


@pytest.mark.parametrize("cut", list(_BM_CUTS))
@pytest.mark.parametrize("bits", [96, 500, 1500])
def test_bm_enclosure_holds_the_oracle_however_the_terms_are_cut(bits, cut,
                                                                 monkeypatch):
    monkeypatch.setattr(mn, "_bm_blocks", lambda K, G: _BM_CUTS[cut](K))
    lo, hi = mn._bm_enclosure(bits)
    g, e = oracles.em_gamma(bits)
    assert lo <= (g - e) * 2 ** bits and (g + e) * 2 ** bits <= hi
    assert hi - lo <= 5


@pytest.mark.parametrize("bits", [96, 500])
def test_bm_folds_enclose_the_exact_sums(bits):
    # the fold from the floors is at most 2^G times each of (V_K, S_K, t_K,
    # H_K), and the fold from the ceilings at least that, however many
    # blocks round on the way
    n, K = mn._bm_params(bits)
    G = bits + mn._BM_FOLD_GUARD
    ratios = [mn._bm_ratios(n * n, G, block) for block in _BM_CUTS["16-term blocks"](K)]
    lo, hi = mn._bm_fold(ratios, G, 0), mn._bm_fold(ratios, G, 1)
    for low, exact_value, high in zip(lo, oracles.bm_sums(n, K), hi):
        assert low <= exact_value * 2 ** G <= high


def test_bm_tail_bound_reads_the_upper_fold(monkeypatch):
    # a sum cut 40 terms short of its cutoff, so the tail bound sets the
    # width: the enclosure still holds the oracle, and it reads t_K from the
    # upper fold alone, so a lower fold that bounds rho by 0 moves nothing
    bits = 500
    n, K = mn._bm_params(bits)
    assert K - 40 >= 3 * n  # where the tail bound is derived
    monkeypatch.setattr(mn, "_bm_params", lambda w: (n, K - 40))
    lo, hi = mn._bm_enclosure(bits)
    g, e = oracles.em_gamma(bits)
    assert lo <= (g - e) * 2 ** bits and (g + e) * 2 ** bits <= hi
    assert hi - lo > 2 ** 100
    fold = mn._bm_fold
    monkeypatch.setattr(mn, "_bm_fold", lambda ratios, G, up: (
        fold(ratios, G, up) if up else fold(ratios, G, up)[:2] + (0, 0)))
    assert mn._bm_enclosure(bits) == (lo, hi)


def test_bm_blocks_on_the_pool_fold_to_the_same_enclosure(monkeypatch):
    here = mn._bm_enclosure(1500)
    forked, fork_map = [], mn.fork_map
    monkeypatch.setattr(mn, "fork_map",
                        lambda fn, items, k: forked.append(k) or fork_map(fn, items, k))
    monkeypatch.setattr(mn, "_FORK_BM_BITS", 1)
    monkeypatch.setattr(mn, "WORKERS", 2)
    assert mn._bm_enclosure(1500) == here
    assert forked == [2]
    _no_child_left()


@given(st.integers(64, 70_000))
@example(64)
@example(5111)  # the split of gamma --digits 1500
@example(70_000)
@settings(max_examples=40, deadline=None)
def test_bm_params_take_a_7_smooth_n_and_the_linear_scans_K(w):
    def smooth(m):
        for q in (2, 3, 5, 7):
            while m % q == 0:
                m //= q
        return m == 1

    n, K = mn._bm_params(w)
    least = -(-(w + 2) * 10000 // 57704)  # floor(5.7704 n) >= w + 2 from here
    assert [m for m in range(least, n + 1) if smooth(m)] == [n]
    assert K == oracles.bm_cutoff_scan(n, w)


def test_gamma_store_splits_once_and_recomputes_on_a_straddle(monkeypatch):
    ws = (1000, 64, 999, 700)
    fresh = [mn.PrimeLogTable().floor_gamma(w) for w in ws]
    fresh_5000 = mn.PrimeLogTable().floor_gamma(5000)
    table = mn.PrimeLogTable()
    splits = []
    enclosure = mn._bm_enclosure
    monkeypatch.setattr(mn, "_bm_enclosure",
                        lambda bits: splits.append(bits) or enclosure(bits))
    first = [table.floor_gamma(w) for w in ws]
    W = 1000 + mn._GAMMA_MARGIN
    assert splits == [W] and table._gamma[0] == W
    assert first == fresh
    # widen the kept enclosure until it straddles at w = 1000: still true,
    # but undecided, so the store recomputes at 2W
    _, lo, hi = table._gamma
    table._gamma = (W, lo - (1 << mn._GAMMA_MARGIN), hi)
    assert table.floor_gamma(1000) == first[0]
    assert splits == [W, 2 * W]
    # asking beyond the enclosure recomputes at w + margin if that is more
    assert table.floor_gamma(5000) == fresh_5000
    assert table._gamma[0] == 5000 + mn._GAMMA_MARGIN


def test_gamma_bessel_term_bound():
    # 0 < K_0(2n)/I_0(2n) < pi e^{-4n}, the bound euler_gamma adds; for
    # these n the ratio is at most 0.996 of the bound, a gap far wider
    # than 53-bit rounding
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(53):
        for n in range(1, 31):
            ratio = mpmath.besselk(0, 2 * n) / mpmath.besseli(0, 2 * n)
            assert 0 < ratio < mpmath.pi * mpmath.exp(-4 * n), n


def test_gamma_reference_is_consistent_with_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.prec = 256
    g = mn.euler_gamma(224)
    assert abs(mpmath.mp.make_mpf(g.val) - mpmath.mp.euler) < mpmath.mpf(2) ** -215


def test_harmonic_minus_log_approaches_gamma():
    # H_N - ln N - gamma ~ 1/(2N): the defining limit, with direction
    p = 128
    n = 10 ** 4
    h = Bounded.from_fraction(exact.harmonic(n), p)
    d = mn.b_sub(mn.b_sub(h, mn.ln_int(n, p), p),
                 mn.euler_gamma(p), p)
    scaled = float(mn.b_mul_int(d, 2 * n, p))
    assert abs(scaled - 1.0) < 1e-3


# --- log-factorial --------------------------------------------------------------

def _ln_factorial(m, p):
    # ln(m!) as the rows read their log-factorials: the range vector of
    # 1 .. m, dotted
    return mn._prime_dot(mn._range_log_pair(1, 1, [1] * m), p)


def test_log_factorial_edges_and_telescoping():
    p = 128
    assert _ln_factorial(0, p).err == mn.fzero
    assert frac(_ln_factorial(0, p)) == 0
    assert mn.agrees(_ln_factorial(2, p), mn.ln2_const(p))
    diff = mn.b_sub(_ln_factorial(24, p), _ln_factorial(23, p), p)
    assert mn.agrees(diff, mn.ln_int(24, p))


@given(st.integers(2, 2000))
@settings(max_examples=25, deadline=None)
def test_log_factorial_stirling_sandwich(m):
    import math

    v = float(_ln_factorial(m, 64))
    assert m * math.log(m) - m <= v <= m * math.log(m)


# --- certified fractional part -----------------------------------------------------

def test_frac_part_examples():
    p = 128
    # 4 ln 2 = 2.772588...
    k, f = mn.frac_part_certified(mn.b_mul_int(mn.ln2_const(p), 4, p))
    assert k == 2
    assert f.decimal(8).startswith("0.7725887")
    # negative value, floor convention
    k, f = mn.frac_part_certified(Bounded.from_fraction(Fraction(-1, 4), p))
    assert k == -1
    assert f.contains(Fraction(3, 4))


def test_frac_part_straddle():
    wide = Bounded(Bounded.exact_int(3).val,
                   Bounded.from_fraction(Fraction(1, 2), 48).val)
    with pytest.raises(mn.PrecisionInsufficient):
        mn.frac_part_certified(wide)
    near = Bounded(Bounded.from_fraction(Fraction(2997, 1000), 96).val,
                   Bounded.from_fraction(Fraction(1, 100), 48).val)
    with pytest.raises(mn.PrecisionInsufficient):
        mn.frac_part_certified(near)


@given(rationals)
@settings(max_examples=50, deadline=None)
def test_frac_part_reconstruction(q):
    import math

    x = Bounded.from_fraction(q, 128)
    try:
        k, f = mn.frac_part_certified(x)
    except mn.PrecisionInsufficient:
        return  # legal outcome near a boundary
    assert k == math.floor(frac(x))
    assert k + frac(f) == frac(x)  # exact reconstruction
    assert 0 <= frac(f) < 1


# --- escalation soundness -------------------------------------------------------

@given(ln_ints, ln_ints, st.sampled_from([64, 128, 256]))
@settings(max_examples=30, deadline=None)
def test_escalation_soundness_ln(num, den, p):
    a = mn.b_ln((num, den), p)
    b = mn.b_ln((num, den), p + 64)
    assert mn.agrees(a, b)


def test_escalation_soundness_gamma_and_lf():
    for p in (96, 160):
        assert mn.agrees(mn.euler_gamma(p), mn.euler_gamma(p + 64))
        assert mn.agrees(_ln_factorial(40, p), _ln_factorial(40, p + 64))


# --- the escalation driver --------------------------------------------------------

def test_escalation_doubles():
    steps = mn.escalation("x", 100, 10 ** 6)
    assert [next(steps) for _ in range(6)] == [100 << i for i in range(6)]


def test_escalation_raises_past_its_ceiling():
    with pytest.raises(mn.PrecisionExhausted,
                       match=r"^x needs 300 bits, ceiling is 299$"):
        next(mn.escalation("x", 300, 299))  # before the first attempt
    tried = []
    with pytest.raises(mn.PrecisionExhausted,
                       match=r"^y needs 256 bits, ceiling is 255$"):
        for bits in mn.escalation("y", 32, 255):
            tried.append(bits)
    assert tried == [32, 64, 128]


# An enclosure that never decides must end each of these loops in
# PrecisionExhausted.  The fakes fail the test on a 9th attempt, so a loop
# with no ceiling fails it rather than doubling until memory runs out.
_NEVER_DECIDING = {
    # an entry 2^P wide straddles every floor
    "floor_logs": (mn, "_two_atanh_split", lambda m, P: (0, 1 << P),
                   lambda: mn.PrimeLogTable().floor_logs([2, 3], 64),
                   "floor(2^64 ln q) needs 768 bits, ceiling is 384"),
    "floor_gamma": (mn, "_bm_enclosure", lambda bits: (0, 1 << bits),
                    lambda: mn.PrimeLogTable().floor_gamma(100),
                    "floor(2^100 gamma) needs 1056 bits, ceiling is 528"),
    "b_ln": (mn.Bounded, "from_enclosure", lambda lo, hi, den, p: None,
             lambda: mn.b_ln((3, 2), 100),
             "ln at 100 bits needs 1008 bits, ceiling is 504"),
    "pi_const": (mn, "_pi_enclosure", lambda P: (0, 1 << P),
                 lambda: mn.pi_const(100),
                 "pi at 100 bits needs 256 bits, ceiling is 128"),
}


@pytest.mark.parametrize("loop", sorted(_NEVER_DECIDING))
def test_undecided_loop_raises_after_two_doublings(loop, monkeypatch):
    owner, name, never, call, message = _NEVER_DECIDING[loop]
    attempts = []

    def fake(*args):
        attempts.append(args)
        assert len(attempts) <= 8, f"{loop} does not stop escalating"
        return never(*args)

    monkeypatch.setattr(mn, "_TABLE", mn.PrimeLogTable())
    monkeypatch.setattr(owner, name, fake)
    t0 = time.perf_counter()
    with pytest.raises(mn.PrecisionExhausted, match=re.escape(message)):
        call()
    assert time.perf_counter() - t0 < 1.0
    # floor_logs enters both primes on each attempt, so count its precisions
    assert len({args[-1] for args in attempts} if loop == "floor_logs" else attempts) == 3


# --- policy ----------------------------------------------------------------------

def test_policy_validation():
    with pytest.raises(ValueError):
        mn.PrecisionPolicy(base_bits=32)
    with pytest.raises(ValueError, match="frac_bits"):
        mn.PrecisionPolicy(frac_bits=-1)
    for eps in (Fraction(0), Fraction(-1, 10 ** 30)):
        with pytest.raises(ValueError, match="tail_eps"):
            mn.PrecisionPolicy(tail_eps=eps)
    for max_bits in (0, -5, 191):
        with pytest.raises(ValueError, match="max_bits must be at least base_bits"):
            mn.PrecisionPolicy(max_bits=max_bits)
    assert mn.PrecisionPolicy(base_bits=64, max_bits=64).max_bits == 64
    assert mn.PrecisionPolicy(frac_bits=0).frac_bits == 0
    assert mn.PrecisionPolicy(tail_eps=Fraction(1, 10 ** 30)).tail_eps \
        == Fraction(1, 10 ** 30)


def test_records_are_immutable_hashable_and_pickle():
    # pool tasks carry the policy, and each record its own timings
    import pickle

    from gammalab import sequences

    pol = mn.PrecisionPolicy(frac_bits=96)
    assert pickle.loads(pickle.dumps(pol)) == pol and hash(pol) == hash(
        mn.PrecisionPolicy(frac_bits=96))
    assert mn.PrecisionPolicy() == mn.PrecisionPolicy(192, 64, 1 << 16, None)
    b = Bounded.from_ratio(1, 3, 64)
    assert pickle.loads(pickle.dumps(b)) == b and hash(b) == hash(Bounded(b.val, b.err))
    cp = sequences.criterion_point(2)
    assert pickle.loads(pickle.dumps(cp)) == cp
    for obj, field in ((pol, "frac_bits"), (b, "val"), (cp, "n")):
        with pytest.raises(AttributeError):
            setattr(obj, field, 0)
    r1, r2 = sequences.build_record(1), sequences.build_record(2)
    assert set(r1.timings) == {"exact", "L", "I", "criterion"}
    assert r1.timings is not r2.timings
    with pytest.raises(exact.IdentityViolation):
        exact.PartialFractionCoeffs(n=1, a=(Fraction(1), Fraction(0)), b=(Fraction(1),) * 2)


_BIG = 1 << 10000


def _odd_part(m):
    return m >> ((m & -m).bit_length() - 1) if m else 0


@given(st.integers(-_BIG, _BIG),
       st.one_of(st.integers(1, _BIG),
                 st.builds(lambda j: 1 << j, st.integers(0, 10000))),
       st.one_of(st.integers(1, 1 << 64), st.integers(1, _BIG)),
       st.integers(2, 4096))
@example(-3, 4, 12, 2)
@example(0, 7, 1 << 5000, 64)
@example(-(1 << 9999) - 1, 1 << 9000, 3 ** 6000, 53)
@example((1 << 9999) + 1, (1 << 9998) * 3, 6 ** 3000, 4096)
@settings(max_examples=60, deadline=None)
def test_from_ratio_equals_from_fraction(a, b, g, p):
    # the pair (g a, g b) is unreduced whatever a/b is; rounding it must not
    # depend on g, and exactness must match the value's own
    q = Fraction(a, b)
    got = Bounded.from_ratio(g * a, g * b, p)
    want = Bounded.from_fraction(q, p)
    assert (got.val, got.err) == (want.val, want.err)
    assert got.val == from_rational(q.numerator, q.denominator, p, "n")
    den = q.denominator
    representable = (den & (den - 1) == 0
                     and _odd_part(abs(q.numerator)).bit_length() <= p)
    assert (got.err == fzero) == representable


@given(st.integers(-_BIG, _BIG), st.integers(0, 1 << 80),
       st.one_of(st.integers(1, 1 << 64), st.builds(lambda j: 1 << j, st.integers(0, 200))),
       st.integers(2, 200))
@example(1023, 2, 8, 8)  # 1023/8 .. 1025/8 holds 128, the rounding of both ends
@example(-1025, 2, 8, 8)
@example(1 << 80, 0, 1 << 72, 53)  # a single representable value
@example((1 << 80) + 1, 0, 1 << 72, 53)
@settings(max_examples=60, deadline=None)
def test_from_enclosure_equals_from_ratio_inside(lo, width, den, p):
    # whenever the ends decide, every numerator between them rounds the
    # same way, with the same error
    hi = lo + width
    got = Bounded.from_enclosure(lo, hi, den, p)
    if got is None:
        return
    for num in {lo, hi, (lo + hi) // 2, min(lo + 1, hi), max(hi - 1, lo)}:
        want = Bounded.from_ratio(num, den, p)
        assert (got.val, got.err) == (want.val, want.err), num


def test_from_enclosure_refuses_an_interval_holding_its_rounding():
    # 1023/8 and 1025/8 both round to 128 at 8 bits, which lies between them
    assert Bounded.from_ratio(1023, 8, 8).val == Bounded.from_ratio(1025, 8, 8).val
    assert Bounded.from_enclosure(1023, 1025, 8, 8) is None
    assert Bounded.from_enclosure(-1025, -1023, 8, 8) is None
    assert Bounded.from_enclosure(1 << 80, 1 << 80, 1 << 72, 53) is None
    assert Bounded.from_enclosure(255, 255, 2, 8) is None  # 127.5 is exact
    # 3/7 and 4/7 round apart at 8 bits; 1000/3 and 1001/3 round to 334
    assert Bounded.from_enclosure(3, 4, 7, 8) is None
    got = Bounded.from_enclosure(1000, 1001, 3, 8)
    assert got == Bounded.from_ratio(1000, 3, 8) and got.err != fzero


def test_log_factorial_concurrent_fill(monkeypatch):
    # threads grow one fresh table concurrently (sieve, primes, precision);
    # a lost update or a torn read would change some value or bound
    import sys
    import threading

    cases = [(100 * (i + 1), 96 + 200 * i) for i in range(8)]
    monkeypatch.setattr(mn, "_TABLE", mn.PrimeLogTable())
    ref = {c: _ln_factorial(*c) for c in cases}
    monkeypatch.setattr(mn, "_TABLE", mn.PrimeLogTable())
    results = {}

    def worker(c):
        results[c] = _ln_factorial(*c)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(c,)) for c in cases]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert all(results[c].val == ref[c].val and results[c].err == ref[c].err
               for c in cases)


# --- prime-log table -------------------------------------------------------------

def _sample_primes(count, limit, seed):
    primes = [q for q in range(2, limit) if all(q % d for d in range(2, int(q ** 0.5) + 1))]
    return sorted({2, 3} | set(random.Random(seed).sample(primes, count)))


def _mpmath_ln(k, bits):
    from mpmath.libmp import from_int, mpf_log

    return mn.raw_to_fraction(mpf_log(from_int(k), bits, "n"))


@pytest.mark.parametrize("p", [192, 2400, 6200])
def test_prime_table_entries_contain_mpmath(p):
    # mpmath switches from Taylor series to AGM at 2,500 bits; test both sides
    table = mn.PrimeLogTable()
    primes = _sample_primes(12, 3000, seed=p)
    floors = table.floor_logs(primes, p)
    big = table.prec
    assert big >= p
    for q in primes:
        ref = _mpmath_ln(q, big + 64)
        slack = Fraction(1, 2 ** (big + 60))  # mpmath's own rounding
        lo, width = table._logs[q]
        assert Fraction(lo, 2 ** big) - slack <= ref <= Fraction(lo + width, 2 ** big) + slack, q
        assert floors[q] <= ref * 2 ** p < floors[q] + 1, q


@pytest.mark.parametrize("big, q_max, count", [(2400, 3000, 24), (18240, 3000, 8),
                                               (39310, 16000, 3)])
def test_prime_table_entries_at_reach_contain_mpmath(big, q_max, count):
    # the table precisions of criterion rows up to n = 460, of
    # build_record(3000) and of criterion_point(8000)
    # the first request sizes the table
    table = mn.PrimeLogTable()
    primes = _sample_primes(count, q_max, seed=big)
    table.floor_logs(primes, big - mn._FLOOR_MARGIN)
    assert table.prec == big and table.builds == 1
    slack = Fraction(1, 2 ** (big + 60))  # mpmath's own rounding
    for q in primes:
        ref = _mpmath_ln(q, big + 64)
        lo, width = table._logs[q]
        assert Fraction(lo, 2 ** big) - slack <= ref <= Fraction(lo + width, 2 ** big) + slack, q


def test_prime_table_floors_equal_term_by_term_oracle():
    # every prime up to 1,000 at the table precision of build_record(3000)
    big = 18240
    want = oracles.term_by_term_prime_logs(1000, big)
    table = mn.PrimeLogTable()
    for w in (big - mn._FLOOR_MARGIN, 2420):  # the first request sizes the table
        got = table.floor_logs(sorted(want), w)
        for q, (x, e) in want.items():
            lo = (x - e) >> (big - w)
            assert lo == (x + e) >> (big - w), q  # the oracle decides too
            assert got[q] == lo, q
    assert table.builds == 1


def test_prime_table_entries_enclose_their_inputs():
    # 2 [lo_q, lo_q + width_q] holds the atanh enclosure plus the
    # neighbours' enclosures: ln(q-1) + ln(q+1) + 2 atanh(1/(2q^2-1))
    for big in (100, 2420):
        table = mn.PrimeLogTable()
        table.floor_logs(_SMALL_PRIMES, big - mn._FLOOR_MARGIN)
        assert table.prec == big
        assert table._logs[2] == mn._two_atanh_split(3, big)
        for q in _SMALL_PRIMES[1:]:
            t, width = mn._two_atanh_split(2 * q * q - 1, big)
            lo, hi = t, t + width
            for k in (q - 1, q + 1):
                for r, e in oracles.factor_oracle(k).items():
                    lo += e * table._logs[r][0]
                    hi += e * sum(table._logs[r])
            lo_q, width_q = table._logs[q]
            assert 2 * lo_q <= lo and hi <= 2 * (lo_q + width_q), q
            assert width_q <= (hi - lo) // 2 + 1, q


def test_two_atanh_recip_against_fraction_oracle():
    for m, p in [(3, 64), (5, 200), (101, 333), (4001, 150)]:
        t, e = mn._two_atanh_split(m, p)
        ref = 2 * oracles.atanh_oracle(Fraction(1, m), p + 40)
        assert abs(Fraction(t, 2 ** p) - ref) <= Fraction(e, 2 ** p) + Fraction(1, 2 ** (p + 38))
        assert Fraction(t, 2 ** p) <= ref + Fraction(1, 2 ** (p + 38))
        assert e <= 2


@given(st.integers(1, 10 ** 5), st.sampled_from([64, 192, 700, 2600]))
@settings(max_examples=40, deadline=None)
def test_ln_int_contains_mpmath(k, p):
    got = mn.ln_int(k, p)
    ref = _mpmath_ln(k, p + 64)
    assert abs(frac(got) - ref) <= got.err_fraction() + Fraction(1, 2 ** (p + 50))


@given(st.integers(0, 3000), st.sampled_from([64, 192, 700, 2600]))
@settings(max_examples=30, deadline=None)
def test_log_factorial_contains_mpmath(m, p):
    import mpmath

    got = _ln_factorial(m, p)
    with mpmath.workprec(p + 64):
        ref = mn.raw_to_fraction(mpmath.loggamma(m + 1)._mpf_)
    assert abs(frac(got) - ref) <= got.err_fraction() + Fraction(m + 1, 2 ** (p + 50))


def test_ln_int_beyond_the_sieve(monkeypatch):
    # trial division stops at min(isqrt(k), _SIEVE_CAP), so the sieve never
    # reaches past the cap
    table = mn.PrimeLogTable()
    monkeypatch.setattr(mn, "_TABLE", table)
    assert table.factor(2 ** 40 * 3 ** 5) == [(2, 40), (3, 5)]
    assert table.factor(1000003 * 1000033) == [(1000003, 1), (1000033, 1)]
    for k in (mn._SIEVE_CAP, 10 ** 12 + 39, 6 * (10 ** 6 + 3) ** 2):
        got = mn.ln_int(k, 200)
        assert abs(frac(got) - _mpmath_ln(k, 264)) <= got.err_fraction() + Fraction(1, 2 ** 250)
    assert table._sieve[0] <= mn._SIEVE_CAP  # the limit the sieve reaches
    for k in (2 ** 61 - 1, 6 * (10 ** 9 + 7) ** 2):
        with pytest.raises(ValueError):
            mn.ln_int(k, 200)


def test_src_builds_only_the_rows_and_the_side_log_tables():
    # every log reads _TABLE, or _SIDE_LOGS when it must not size the rows'
    # table; no code path builds a throwaway table of its own
    import ast

    built = []
    for path in sorted(pathlib.Path(mn.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {id(node.value): [t.id for t in node.targets]
                 for node in tree.body if isinstance(node, ast.Assign)}
        built += [(path.name, names.get(id(node)))
                  for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and "PrimeLogTable" in (getattr(node.func, "id", None),
                                          getattr(node.func, "attr", None))]
    assert sorted(built) == [("mpnum.py", ["_SIDE_LOGS"]), ("mpnum.py", ["_TABLE"])]


def test_ln_int_factors_primes_past_the_sieve_cap(monkeypatch):
    # trial division stops at L = min(isqrt(k), _SIEVE_CAP), so a cofactor
    # below (L+1)^2 is prime, even when the last prime tried is below L;
    # a fresh table's sieve reaches only L
    for k in (1048583, 1099511627689):  # 2^20 + 7, the largest prime below 2^40
        table = mn.PrimeLogTable()
        monkeypatch.setattr(mn, "_TABLE", table)
        assert table.factor(k) == [(k, 1)]
        got = mn.ln_int(k, 64)
        assert abs(frac(got) - _mpmath_ln(k, 128)) <= got.err_fraction() + Fraction(1, 2 ** 114)
    # two prime factors above 2^20: the cofactor may be composite
    monkeypatch.setattr(mn, "_TABLE", mn.PrimeLogTable())
    with pytest.raises(ValueError):
        mn.ln_int(1048583 * 1048589, 64)


def test_prime_table_grows_geometrically(monkeypatch):
    table = mn.PrimeLogTable()
    monkeypatch.setattr(mn, "_TABLE", table)
    calls = 0
    for i in range(1, 121):
        mn.ln_int(7 * i + 3, 64 + 50 * i)
        _ln_factorial(20 * i, 64 + 50 * i)
        calls += 2
    # precision 80 .. 6000 and integers up to 2400: a handful of rebuilds
    assert table.builds <= 8
    assert table.sieves <= 8
    assert calls == 240


def _prime_factors(k):
    return {d for d in range(2, k + 1) if k % d == 0
            and all(d % e for e in range(2, int(d ** 0.5) + 1))}


def test_prime_table_rebuild_is_lazy():
    table = mn.PrimeLogTable()
    table.floor_logs(_sample_primes(40, 2000, seed=1), 100)
    table._rebuild(2 * table.prec)
    assert table._logs == {} and table.builds == 2
    asked = [13, 101, 499, 1999]
    got = table.floor_logs(asked, 200)
    # only the primes asked for since, and the primes of each q-1 and q+1
    # chain (ln 2 has none)
    chain, todo = set(), list(asked)
    while todo:
        q = todo.pop()
        if q not in chain:
            chain.add(q)
            if q > 2:
                todo += _prime_factors(q - 1) | _prime_factors(q + 1)
    assert set(table._logs) == chain
    fresh = mn.PrimeLogTable()
    assert got == fresh.floor_logs(asked, 200)
    assert table.floor_logs(sorted(chain), 150) == fresh.floor_logs(sorted(chain), 150)


_SMALL_PRIMES = [q for q in range(2, 400) if _prime_factors(q) == {q}]


@given(st.dictionaries(st.sampled_from(_SMALL_PRIMES),
                       st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 4)
                       .filter(bool), max_size=12),
       st.integers(1, 10 ** 12), st.sampled_from([64, 192, 700]))
@settings(max_examples=40, deadline=None)
def test_prime_dot_of_scaled_pair_equals_fraction_dict(vec, k, p):
    # the pair over the least common denominator, and a multiple of it
    den = math.lcm(*(c.denominator for c in vec.values()))
    ints = {q: c.numerator * (den // c.denominator) for q, c in vec.items()}
    got = mn._prime_dot((k * den, {q: k * a for q, a in ints.items()}), p)
    want = mn._prime_dot((den, ints), p)
    assert (got.val, got.err) == (want.val, want.err)


def _d(m):
    return math.lcm(*range(1, m + 1))


_GCD_INTS = {2: 12, 3: -7, 5: 10 ** 20 + 1, 397: -3}


@given(st.dictionaries(st.sampled_from(_SMALL_PRIMES),
                       st.integers(-10 ** 30, 10 ** 30).filter(bool), max_size=12),
       st.integers(1, 10 ** 6), st.integers(1, 10 ** 40), st.sampled_from([64, 192, 700]))
# the rows' log S_n: D = d_n divides g = d_2n, and the gcd leaves D = 1
@example(ints=_GCD_INTS, den=_d(1), g=_d(2), p=64)
@example(ints=_GCD_INTS, den=_d(7), g=_d(14), p=192)
@example(ints=_GCD_INTS, den=_d(60), g=_d(120), p=700)
@example(ints=_GCD_INTS, den=_d(60), g=_d(60), p=192)   # D == g
@settings(max_examples=40, deadline=None)
def test_prime_dot_with_factor_equals_multiplied_out_vector(ints, den, g, p):
    got = mn._prime_dot((den, ints), p, g)
    want = mn._prime_dot((den, {q: g * a for q, a in ints.items()}), p)
    assert (got.val, got.err) == (want.val, want.err)


def test_prime_dot_independent_of_table_history(monkeypatch):
    monkeypatch.setattr(mn, "_TABLE", mn.PrimeLogTable())
    a = mn.ln_int(9991, 300)
    b = _ln_factorial(500, 300)
    mn.ln_int(10 ** 4 + 7, 5000)  # grow both precision and prime range
    assert mn._TABLE.prec > 5000
    a2 = mn.ln_int(9991, 300)
    b2 = _ln_factorial(500, 300)
    assert (a.val, a.err) == (a2.val, a2.err)
    assert (b.val, b.err) == (b2.val, b2.err)


_signed_weights = st.lists(st.one_of(st.just(0), st.integers(-10 ** 12, 10 ** 12)),
                           max_size=300)


@given(st.one_of(st.integers(1, 400), st.integers(1, 10 ** 5),
                 st.integers(mn._SIEVE_CAP - 400, mn._SIEVE_CAP + 100)),
       _signed_weights, st.integers(1, 10 ** 6))
@example(lo=2, weights=[7, 0, -3] * 60, den=6)         # prime-power slices
@example(lo=100, weights=[1, -1] * 20, den=1)          # hi = 3.4 lengths: slices
@example(lo=10 ** 4, weights=[5, 0, 0, -2], den=1)     # hi far above length: factored
@example(lo=mn._SIEVE_CAP - 3, weights=[1, 2, 0, 3, -4, 5], den=3)  # across the cap
@settings(max_examples=60, deadline=None)
def test_range_log_pair_equals_factorisation_oracle(lo, weights, den):
    assert mn._range_log_pair(den, lo, weights) == oracles.range_log_vector(
        den, lo, weights)


# the rows' log-factorial weights cancel, so these do too
@given(st.integers(0, 300), _signed_weights.map(lambda w: w[:59] + [-sum(w[:59])]))
@settings(max_examples=30, deadline=None)
def test_factorial_log_pair_equals_factorisation_oracle(lo, weights):
    assert mn._factorial_log_pair(1, lo, weights) == oracles.factorial_log_vector(
        1, lo, weights)


def test_range_log_pair_factors_only_where_the_shape_calls_for_it(monkeypatch):
    table = mn.PrimeLogTable()
    monkeypatch.setattr(mn, "_TABLE", table)
    factored = []
    factor = table.factor
    monkeypatch.setattr(table, "factor", lambda k: factored.append(k) or factor(k))
    mn._range_log_pair(1, 401, list(range(1, 401)))  # the shape of log S_400
    mn._range_log_pair(1, 2, [1] * 7)                # hi = 8 / 7 lengths
    assert factored == []
    mn._range_log_pair(1, 12, [1])                   # one integer, as in ln_int
    mn._range_log_pair(1, 10 ** 4, [1, 0, 2])        # hi far above the length
    assert factored == [12, 10 ** 4, 10 ** 4 + 2]
    factored.clear()
    monkeypatch.setattr(mn, "_SIEVE_CAP", 1000)
    mn._range_log_pair(1, 500, [1] * 501)            # reaches the cap
    assert factored == list(range(500, 1001))


def test_prime_vectors_exact():
    assert mn._range_log_pair(1, 12, [1]) == (1, {2: 2, 3: 1})
    assert mn._range_log_pair(1, 1, [5]) == (1, {})
    # (1/2) ln 6 - ln 2 = (1/2) ln 3 - (1/2) ln 2
    assert mn._range_log_pair(2, 2, [-2, 0, 0, 0, 1]) == (2, {3: 1, 2: -1})
    # 10! = 2^8 3^4 5^2 7, and 10!/7! = 8 * 9 * 10
    assert mn._range_log_pair(1, 1, [1] * 10) == (1, {2: 8, 3: 4, 5: 2, 7: 1})
    assert mn._factorial_log_pair(1, 7, [-1, 0, 0, 1]) == (1, {2: 4, 3: 2, 5: 1})
    assert mn._range_log_pair(1, 1, [1] * 100)[1][5] == 24  # v_5(100!)
    # log-factorial weights must cancel
    for lo, weights in ((10, [1]), (0, [3, 2])):
        with pytest.raises(ValueError):
            mn._factorial_log_pair(1, lo, weights)


# --- fork pool -------------------------------------------------------------------

def _no_child_left():
    # every child forked by the test process has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fork_map_returns_every_item_in_order_past_one_pipe_of_records():
    # 20,000 four-byte indices are more than a 64 KiB pipe holds at once
    items = list(range(20_000))
    assert mn.fork_map(lambda x: x * x, items, 3) == [x * x for x in items]
    _no_child_left()


def test_fork_map_hands_items_out_one_at_a_time(monkeypatch):
    # while one process sleeps on item 0, the others take the rest; fixed
    # stripes would leave half the items to the sleeping one
    monkeypatch.setattr(mn, "WORKERS", 3)

    def work(i):
        if i == 0:
            time.sleep(0.3)
        return os.getpid(), mn.WORKERS

    got = mn.fork_map(work, range(40), 2)
    pids = [pid for pid, _ in got]
    assert len(set(pids)) == 2 and pids.count(pids[0]) <= 3
    assert {workers for _, workers in got} == {1}  # no pool of their own
    assert mn.WORKERS == 3
    _no_child_left()


def _in_child(parent, action):
    """A fork_map function that runs action in the children, and in this
    process sleeps a little per item, so that the children take some."""
    def fn(x):
        if os.getpid() == parent:
            time.sleep(0.02)
            return x
        return action(x)
    return fn


def test_fork_map_raises_a_childs_exception():
    def fail(x):
        raise ValueError(f"planted at {x}")

    with pytest.raises(ValueError, match="planted at"):
        mn.fork_map(_in_child(os.getpid(), fail), range(12), 2)
    _no_child_left()


def test_a_raising_child_stops_the_hand_out():
    # the child raises at its first item and empties the queue, so this
    # process, at 10 ms an item, stops after its current one
    parent, taken = os.getpid(), []

    def fn(x):
        if os.getpid() != parent:
            raise ValueError(f"planted at {x}")
        taken.append(x)
        time.sleep(0.01)
        return x

    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="planted at"):
        mn.fork_map(fn, range(200), 2)
    assert time.perf_counter() - t0 < 1
    assert len(taken) <= 2
    _no_child_left()


def test_fork_map_child_that_ends_without_results_is_an_error():
    with pytest.raises(ChildProcessError, match="ended with status 7 before "
                                                "sending its results"):
        mn.fork_map(_in_child(os.getpid(), lambda x: os._exit(7)), range(12), 3)
    _no_child_left()


def test_fork_map_child_result_that_does_not_pickle_is_an_error():
    with pytest.raises(ChildProcessError, match="cannot send"):
        mn.fork_map(_in_child(os.getpid(), lambda x: lambda: x), range(12), 2)
    _no_child_left()


def test_fork_map_kills_and_reaps_children_when_this_process_fails():
    parent = os.getpid()

    def fn(x):
        if os.getpid() != parent:
            time.sleep(30)
        elif x >= 1:  # this process's first or second item
            raise KeyError(x)
        return x

    t0 = time.perf_counter()
    with pytest.raises(KeyError):
        mn.fork_map(fn, range(8), 3)
    assert time.perf_counter() - t0 < 10
    _no_child_left()


def test_fork_map_without_fork_runs_in_this_process(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert mn.fork_map(lambda x: os.getpid(), range(5), 4) == [os.getpid()] * 5


def test_parallel_leaves_equal_serial_leaves(monkeypatch):
    primes = _sample_primes(60, 3000, seed=7)
    serial = mn.PrimeLogTable()
    want = serial.floor_logs(primes, 900)
    forked, fork_map = [], mn.fork_map

    def counted(fn, items, k):
        forked.append((len(items), k))
        return fork_map(fn, items, k)

    monkeypatch.setattr(mn, "fork_map", counted)
    monkeypatch.setattr(mn, "_FORK_LEAF_BITS", 1)
    monkeypatch.setattr(mn, "WORKERS", 2)
    table = mn.PrimeLogTable()
    assert table.floor_logs(primes, 900) == want
    assert table._logs == serial._logs and table.builds == serial.builds == 1
    # one pool for the missing primes and their chains, none once present
    assert forked == [(len(serial._logs), 2)]
    assert table.floor_logs(primes[:5], 900) == {q: want[q] for q in primes[:5]}
    assert len(forked) == 1
    _no_child_left()
