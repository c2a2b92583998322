"""Exact-layer tests: frozen oracle values plus identity properties."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gammalab import exact


# --- factorial / binomial -------------------------------------------------

def test_factorial_values():
    assert exact.factorial(0) == 1
    assert exact.factorial(1) == 1
    # iterated-multiplication oracle
    acc = 1
    for k in range(1, 7):
        acc *= k
    assert exact.factorial(6) == acc == 720
    with pytest.raises(ValueError):
        exact.factorial(-1)


def test_binomial_values_and_domain():
    assert exact.binomial(7, 0) == 1
    assert exact.binomial(4, 2) == 6
    with pytest.raises(ValueError):
        exact.binomial(3, 4)
    with pytest.raises(ValueError):
        exact.binomial(-1, 0)


def test_binomial_pascal_recurrence_oracle():
    rows = [[1]]
    for n in range(1, 26):
        prev = rows[-1]
        rows.append([1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1])
    for n in range(26):
        for k in range(n + 1):
            assert exact.binomial(n, k) == rows[n][k]


def test_central_binomial_companion():
    # sum of squared binomials equals the central binomial
    for n in (2, 3, 10):
        assert sum(exact.binomial(n, j) ** 2 for j in range(n + 1)) == \
            exact.binomial(2 * n, n)


@given(st.integers(1, 200))
@settings(max_examples=40, deadline=None)
def test_central_binomial_identity_property(n):
    assert sum(exact.binomial(n, j) ** 2 for j in range(n + 1)) == \
        exact.binomial(2 * n, n)


# --- harmonic -------------------------------------------------------------

def test_harmonic_values():
    assert exact.harmonic(0) == 0
    assert exact.harmonic(2) == Fraction(3, 2)
    assert exact.harmonic(4) == Fraction(25, 12)


@given(st.integers(0, 400))
@settings(max_examples=30, deadline=None)
def test_harmonic_direct_summation_oracle(n):
    assert exact.harmonic(n) == sum(
        (Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


def test_harmonic_large_uses_split_path():
    n = exact._HARMONIC_MEMO_LIMIT + 37
    assert exact.harmonic(n) == exact.harmonic(n - 1) + Fraction(1, n)


# --- lcm ------------------------------------------------------------------

def test_lcm_values():
    assert exact.lcm_upto(1) == 1
    assert exact.lcm_upto(6) == 60
    assert exact.lcm_upto(10) == 2520
    with pytest.raises(ValueError):
        exact.lcm_upto(0)


def test_lcm_prime_power_oracle():
    # d_n = product over primes p <= n of p^floor(log_p n)
    def sieve(n):
        flags = [True] * (n + 1)
        flags[0:2] = [False, False]
        for i in range(2, int(n ** 0.5) + 1):
            if flags[i]:
                for j in range(i * i, n + 1, i):
                    flags[j] = False
        return [i for i, f in enumerate(flags) if f]

    for n in (2, 7, 30, 97):
        out = 1
        for p in sieve(n):
            pk = p
            while pk * p <= n:
                pk *= p
            out *= pk
        assert exact.lcm_upto(n) == out


# --- bernoulli --------------------------------------------------------------

def test_bernoulli_values():
    assert exact.bernoulli(0) == 1
    assert exact.bernoulli(1) == Fraction(-1, 2)
    assert exact.bernoulli(2) == Fraction(1, 6)
    assert exact.bernoulli(4) == Fraction(-1, 30)
    assert exact.bernoulli(3) == 0
    assert exact.bernoulli(7) == 0


@given(st.integers(1, 40))
@settings(max_examples=25, deadline=None)
def test_bernoulli_convolution_identity(m):
    # sum_{r=0..m} C(m+1, r) B_r == 0 for all m >= 1
    s = sum(exact.binomial(m + 1, r) * exact.bernoulli(r) for r in range(m + 1))
    assert s == 0


# --- Stirling numbers -------------------------------------------------------

def test_stirling_rows():
    assert exact.stirling1_row(0) == [1]
    assert exact.stirling1_row(2) == [0, 1, 1]
    assert exact.stirling1_row(3) == [0, 2, 3, 1]
    assert sum(exact.stirling1_row(4)) == exact.factorial(4) == 24


def test_stirling_rising_factorial_oracle():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for m in range(1, 13):
        poly = sympy.Poly(sympy.expand(sympy.rf(x, m)), x)
        coeffs = [int(poly.coeff_monomial(x ** k)) for k in range(m + 1)]
        assert exact.stirling1_row(m) == coeffs


def test_stirling_low_order_residuals():
    assert exact.stirling_low_order_residuals(0) == (0, 0, 0)
    assert exact.stirling_low_order_residuals(2) == (0, 0, 0)
    # [6,2] = 274 = 5! * H_5
    assert exact.stirling1_row(6)[2] == 274
    assert exact.stirling_low_order_residuals(5) == (0, 0, 0)


@given(st.integers(0, 200))
@settings(max_examples=30, deadline=None)
def test_stirling_identities_property(m):
    assert exact.stirling_low_order_residuals(m) == (0, 0, 0)
    row = exact.stirling1_row(m)
    assert sum(row) == exact.factorial(m)
    assert row[m] == 1
    if m >= 1:
        assert row[0] == 0


# --- partial fractions ------------------------------------------------------

def test_partial_fraction_small_cases():
    c1 = exact.partial_fraction_coeffs(1)
    assert list(c1.a) == [-2, 2]
    assert list(c1.b) == [1, 1]
    c2 = exact.partial_fraction_coeffs(2)
    assert list(c2.b) == [Fraction(1, 4), 1, Fraction(1, 4)]


def test_partial_fraction_sympy_apart_oracle():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for n in range(1, 6):
        expr = 1
        for k in range(n + 1):
            expr *= (x + k)
        ap = sympy.apart(1 / expr ** 2, x)
        coeffs = exact.partial_fraction_coeffs(n)
        rebuilt = sum(
            sympy.Rational(coeffs.a[k].numerator, coeffs.a[k].denominator) / (x + k)
            + sympy.Rational(coeffs.b[k].numerator, coeffs.b[k].denominator)
            / (x + k) ** 2
            for k in range(n + 1)
        )
        assert sympy.simplify(ap - rebuilt) == 0


def test_partial_fraction_residual_examples():
    # n=1, x=1: 1/4 = -2 + 2/2 + 1 + 1/4
    assert exact.partial_fraction_residual(1, Fraction(1)) == 0
    assert exact.partial_fraction_residual(3, Fraction(1, 2)) == 0
    with pytest.raises(ValueError):
        exact.partial_fraction_residual(2, Fraction(-1))


@given(st.integers(0, 60))
@settings(max_examples=30, deadline=None)
def test_partial_fraction_symmetry(n):
    c = exact.partial_fraction_coeffs(n)
    assert sum(c.a, Fraction(0)) == 0
    for k in range(n + 1):
        assert c.a[n - k] == -c.a[k]
        assert c.b[n - k] == c.b[k]
        assert c.b[k] > 0


@given(st.integers(1, 40), st.integers(1, 9999), st.integers(1, 12))
@settings(max_examples=25, deadline=None)
def test_partial_fraction_residual_random_points(n, num, den):
    x = Fraction(num, den)  # positive, never a pole
    assert exact.partial_fraction_residual(n, x) == 0


@given(st.integers(0, 40))
@settings(max_examples=20, deadline=None)
def test_scaled_coefficient_coherence(n):
    c = exact.partial_fraction_coeffs(n)
    f2 = exact.factorial(n) ** 2
    d, nums = exact.residue_numerators(n)
    assert [f2 * d * ak for ak in c.a] == nums
    assert [f2 * bk for bk in c.b] == exact.scaled_square_weights(n)


def test_residue_numerators_direct_formula():
    # the mirrored half over d_n equals 2 C(n,k)^2 (H_k - H_{n-k}) at every k
    for n in range(201):
        d, nums = exact.residue_numerators(n)
        assert d == (exact.lcm_upto(n) if n else 1)
        assert [Fraction(a, d) for a in nums] == oracles.residue_weights(n), n


def test_binomial_row_recurrence():
    for n in range(201):
        assert exact.binomial_row(n) == [exact.binomial(n, k) for k in range(n + 1)], n


def test_scaled_harmonics_equal_fraction_table():
    for m in range(601):
        d, h = exact.scaled_harmonics(m)
        assert d == (exact.lcm_upto(m) if m else 1)
        assert h == [d * exact.harmonic(j) for j in range(m + 1)], m


# --- zero-sum identities ----------------------------------------------------

def test_zero_sum_terms_small():
    # centered variant at n=2 has terms (-2, 4, -2)
    n = 2
    terms = [
        exact.binomial(n, j) ** 2
        * ((exact.harmonic(n - j) - exact.harmonic(j)) * (2 * j - n) + 1)
        for j in range(n + 1)
    ]
    assert terms == [-2, 4, -2]
    assert exact.tail_log_coefficient(2) == 0
    # reduced variant at n=1 has terms (1, -1)
    terms1 = [
        exact.binomial(1, j) ** 2
        * (2 * j * (exact.harmonic(1 - j) - exact.harmonic(j)) + 1)
        for j in range(2)
    ]
    assert terms1 == [1, -1]
    assert exact.tail_log_coefficient_reduced(1) == 0
    assert exact.tail_log_coefficient_reduced(3) == 0


def test_zero_sum_edge_n0():
    # the reduced identity starts at n = 1; n = 0 evaluates to 1
    assert exact.tail_log_coefficient_reduced(0) == 1


@given(st.integers(1, 200))
@settings(max_examples=40, deadline=None)
def test_zero_sums_property(n):
    assert exact.tail_log_coefficient(n) == 0
    assert exact.tail_log_coefficient_reduced(n) == 0


# --- A_n and integrality ------------------------------------------------------

def test_A_values():
    assert exact.A_exact(0) == 0
    assert exact.A_exact(1) == Fraction(5, 2)
    assert exact.A_exact(1) == exact.harmonic(1) + exact.harmonic(2)
    assert exact.A_exact(2) == Fraction(131, 12)


def test_A_exact_equals_fraction_sum():
    for n in range(201):
        assert exact.A_exact(n) == oracles.A_sum(n), n


def test_integrality_witness_values():
    assert exact.integrality_witness(1) == 5
    assert exact.integrality_witness(2) == 131
    # direct-sum oracle for n=3
    a3 = (exact.harmonic(3) + 9 * exact.harmonic(4)
          + 9 * exact.harmonic(5) + exact.harmonic(6))
    v = 60 * a3
    assert v.denominator == 1
    assert exact.integrality_witness(3) == v.numerator == 2615


@given(st.integers(1, 200))
@settings(max_examples=40, deadline=None)
def test_integrality_property(n):
    prod = exact.lcm_upto(2 * n) * exact.A_exact(n)
    assert prod.denominator == 1
    assert exact.integrality_witness(n) == prod.numerator


# --- memo tables under concurrency ------------------------------------------

def test_memo_tables_concurrent_fill():
    import threading

    expected = (exact.harmonic(700), exact.stirling1_row(120)[3],
                exact.lcm_upto(400), exact.bernoulli(60))
    results = []

    def worker():
        results.append((exact.harmonic(700), exact.stirling1_row(120)[3],
                        exact.lcm_upto(400), exact.bernoulli(60)))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == expected for r in results)
