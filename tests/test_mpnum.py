"""Certified-arithmetic tests: containment properties, functional
equations, and frozen constants checked against independent series
oracles (see oracles.py) rather than the backend."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@given(positive_rationals)
@settings(max_examples=30, deadline=None)
def test_ln_containment_via_oracle(q):
    p = 128
    got = mn.b_ln(Bounded.from_fraction(q, p), p)
    ref = oracles.ln_oracle(q, 160)
    # |got - ln q| <= err  =>  |got - ref| <= err + oracle truncation
    assert abs(frac(got) - ref) <= got.err_fraction() + Fraction(1, 2 ** 160)


def test_ln_exact_one_and_domain():
    assert mn.b_ln(Bounded.exact_int(1), 128).is_exact()
    with pytest.raises(ValueError):
        mn.b_ln(Bounded.exact_int(0), 128)
    with pytest.raises(mn.PrecisionInsufficient):
        # interval [-1, 3] is not certified positive
        mn.b_ln(Bounded(Bounded.exact_int(1).val,
                        Bounded.exact_int(2).val), 128)


def test_ln_functional_equation_seeded():
    rng = random.Random(7)
    p = 128
    for _ in range(100):
        x = Fraction(rng.randint(1, 10 ** 9), rng.randint(1, 10 ** 3))
        y = Fraction(rng.randint(1, 10 ** 9), rng.randint(1, 10 ** 3))
        lx = mn.b_ln(Bounded.from_fraction(x, p), p)
        ly = mn.b_ln(Bounded.from_fraction(y, p), p)
        lxy = mn.b_ln(Bounded.from_fraction(x * y, p), p)
        assert mn.agrees(lxy, mn.b_add(lx, ly, p))


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


# --- Euler's constant ----------------------------------------------------------

def test_gamma_digits_and_bound():
    g = mn.euler_gamma(176)
    assert abs(frac(g) - GAMMA_50) < Fraction(1, 10 ** 50)
    assert g.err_fraction() < Fraction(1, 2 ** 170)


def test_gamma_dual_parameter_agreement():
    for p in (128, 192):
        g1, g2, bits = mn.euler_gamma_pair(p)
        assert bits >= p - 64
        assert mn.agrees(g1, g2)


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


def test_gamma_bessel_term_bound():
    # 0 < K_0(2n)/I_0(2n) < pi e^{-4n}, the bound euler_gamma adds; for
    # these n the ratio is at most 0.996 of the bound, a gap far wider
    # than 53-bit rounding
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(53):
        for n in range(1, 31):
            ratio = mpmath.besselk(0, 2 * n) / mpmath.besseli(0, 2 * n)
            assert 0 < ratio < mpmath.pi * mpmath.exp(-4 * n), n


def test_gamma_pair_beyond_em_budget_raises_promptly():
    import time

    t0 = time.perf_counter()
    with pytest.raises(mn.PrecisionExhausted):
        mn.euler_gamma_pair(20000)
    with pytest.raises(mn.PrecisionExhausted):
        mn.euler_gamma_pair(5400)
    assert time.perf_counter() - t0 < 1.0


def test_gamma_reference_is_consistent_with_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.prec = 256
    g = mn.euler_gamma(224)
    assert abs(mpmath.mpf(g.mpf) - mpmath.mp.euler) < mpmath.mpf(2) ** -215


def test_harmonic_minus_log_approaches_gamma():
    # H_N - ln N - gamma ~ 1/(2N): the defining limit, with direction
    p = 128
    n = 10 ** 4
    h = Bounded.from_fraction(exact.harmonic(n), p)
    d = mn.b_sub(mn.b_sub(h, mn.b_ln(Bounded.exact_int(n), p), p),
                 mn.euler_gamma(p), p)
    scaled = float(mn.b_mul_int(d, 2 * n, p).mpf)
    assert abs(scaled - 1.0) < 1e-3


# --- log-factorial --------------------------------------------------------------

def test_log_factorial_edges_and_telescoping():
    p = 128
    assert mn.log_factorial(0, p).is_exact()
    assert frac(mn.log_factorial(0, p)) == 0
    assert mn.agrees(mn.log_factorial(2, p), mn.ln2_const(p))
    diff = mn.b_sub(mn.log_factorial(24, p), mn.log_factorial(23, p), p)
    assert mn.agrees(diff, mn.ln_int(24, p))


@given(st.integers(2, 2000))
@settings(max_examples=25, deadline=None)
def test_log_factorial_stirling_sandwich(m):
    import math

    v = float(mn.log_factorial(m, 64).mpf)
    assert m * math.log(m) - m <= v <= m * math.log(m)


@given(st.integers(1, 500), st.sampled_from([64, 128]))
@settings(max_examples=25, deadline=None)
def test_log_factorial_error_envelope(m, p):
    assert mn.log_factorial(m, p).err_fraction() <= Fraction(m * 4, 2 ** p)


# --- digamma ---------------------------------------------------------------------

def test_digamma_values():
    p = 128
    d0 = mn.digamma_int(0, p)
    assert mn.agrees(d0, mn.b_neg(mn.euler_gamma(p)))
    d1 = mn.digamma_int(1, p)
    assert d1.decimal(10).startswith("0.42278433")
    # psi(k+1) - ln k -> 0, and fast: compare magnitudes at k = 100, 10^4
    gap2 = mn.b_sub(mn.digamma_int(100, p), mn.ln_int(100, p), p)
    gap4 = mn.b_sub(mn.digamma_int(10 ** 4, p), mn.ln_int(10 ** 4, p), p)
    assert abs(float(gap4.mpf)) < abs(float(gap2.mpf)) < 0.006


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
    with pytest.raises(mn.PrecisionInsufficient) as e:
        mn.frac_part_certified(near)
    assert e.value.extra_bits is not None and e.value.extra_bits >= 1


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

@given(positive_rationals, st.sampled_from([64, 128, 256]))
@settings(max_examples=30, deadline=None)
def test_escalation_soundness_ln(q, p):
    a = mn.b_ln(Bounded.from_fraction(q, p), p)
    b = mn.b_ln(Bounded.from_fraction(q, p + 64), p + 64)
    assert mn.agrees(a, b)


def test_escalation_soundness_gamma_and_lf():
    for p in (96, 160):
        assert mn.agrees(mn.euler_gamma(p), mn.euler_gamma(p + 64))
        assert mn.agrees(mn.log_factorial(40, p), mn.log_factorial(40, p + 64))


# --- policy ----------------------------------------------------------------------

def test_policy_validation():
    with pytest.raises(ValueError):
        mn.PrecisionPolicy(base_bits=32)


def test_log_factorial_concurrent_fill(monkeypatch):
    # threads grow one fresh table concurrently (sieve, primes, precision);
    # a lost update or a torn read would change some value or bound
    import sys
    import threading

    cases = [(100 * (i + 1), 96 + 200 * i) for i in range(8)]
    monkeypatch.setattr(mn, "_TABLE", mn.PrimeLogTable())
    ref = {c: mn.log_factorial(*c) for c in cases}
    monkeypatch.setattr(mn, "_TABLE", mn.PrimeLogTable())
    results = {}

    def worker(c):
        results[c] = mn.log_factorial(*c)

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
        x, e = table._logs[q]
        assert abs(Fraction(x, 2 ** big) - ref) <= Fraction(e, 2 ** big) + slack, q
        assert floors[q] <= ref * 2 ** p < floors[q] + 1, q


def test_two_atanh_recip_against_fraction_oracle():
    for m, p in [(3, 64), (5, 200), (101, 333), (4001, 150)]:
        t, e = mn._two_atanh_recip(m, p)
        ref = 2 * oracles.atanh_oracle(Fraction(1, m), p + 40)
        assert abs(Fraction(t, 2 ** p) - ref) <= Fraction(e, 2 ** p) + Fraction(1, 2 ** (p + 38))
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

    got = mn.log_factorial(m, p)
    with mpmath.workprec(p + 64):
        ref = mn.raw_to_fraction(mpmath.loggamma(m + 1)._mpf_)
    assert abs(frac(got) - ref) <= got.err_fraction() + Fraction(m + 1, 2 ** (p + 50))


def test_ln_int_beyond_the_sieve(monkeypatch):
    # integers from _SIEVE_CAP on are factored by trial division, so the
    # sieve only reaches their square root
    table = mn.PrimeLogTable()
    monkeypatch.setattr(mn, "_TABLE", table)
    assert table.factor(2 ** 40 * 3 ** 5) == [(2, 40), (3, 5)]
    assert table.factor(1000003 * 1000033) == [(1000003, 1), (1000033, 1)]
    for k in (mn._SIEVE_CAP, 10 ** 12 + 39, 6 * (10 ** 6 + 3) ** 2):
        got = mn.ln_int(k, 200)
        assert abs(frac(got) - _mpmath_ln(k, 264)) <= got.err_fraction() + Fraction(1, 2 ** 250)
    assert len(table._sieve[0]) <= mn._SIEVE_CAP + 1
    for k in (2 ** 61 - 1, 6 * (10 ** 9 + 7) ** 2):
        with pytest.raises(ValueError):
            mn.ln_int(k, 200)


def test_prime_table_grows_geometrically(monkeypatch):
    table = mn.PrimeLogTable()
    monkeypatch.setattr(mn, "_TABLE", table)
    calls = 0
    for i in range(1, 121):
        mn.ln_int(7 * i + 3, 64 + 50 * i)
        mn.log_factorial(20 * i, 64 + 50 * i)
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
    # only the primes asked for since, and the primes of each q-1 chain
    chain, todo = set(), list(asked)
    while todo:
        q = todo.pop()
        if q not in chain:
            chain.add(q)
            todo += _prime_factors(q - 1)
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
    den, ints = mn._integer_weights(vec)
    got = mn._prime_dot((k * den, {q: k * a for q, a in ints.items()}), p)
    want = mn._prime_dot(vec, p)
    assert (got.val, got.err) == (want.val, want.err)


def test_prime_dot_independent_of_table_history(monkeypatch):
    monkeypatch.setattr(mn, "_TABLE", mn.PrimeLogTable())
    a = mn.ln_int(9991, 300)
    b = mn.log_factorial(500, 300)
    mn.ln_int(10 ** 4 + 7, 5000)  # grow both precision and prime range
    assert mn._TABLE.prec > 5000
    a2 = mn.ln_int(9991, 300)
    b2 = mn.log_factorial(500, 300)
    assert (a.val, a.err) == (a2.val, a2.err)
    assert (b.val, b.err) == (b2.val, b2.err)


def test_prime_vectors_exact():
    assert mn._int_log_vec({12: 1}) == {2: 2, 3: 1}
    assert mn._int_log_vec({1: 5}) == {}
    assert mn._int_log_vec({6: Fraction(1, 2), 2: -1}) == {3: Fraction(1, 2), 2: Fraction(-1, 2)}
    # 10! = 2^8 3^4 5^2 7, and 10!/7! = 8 * 9 * 10
    assert mn._factorial_log_vec({10: 1}) == {2: 8, 3: 4, 5: 2, 7: 1}
    assert mn._factorial_log_vec({10: 1, 7: -1}) == {2: 4, 3: 2, 5: 1}
    assert mn._factorial_log_vec({0: 3, 1: 2}) == {}
    assert mn._legendre(100, 5) == 24
