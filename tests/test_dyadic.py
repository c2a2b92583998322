"""mpnum's own dyadic arithmetic, certified pi and decimal printer, against
mpmath.libmp and the Fraction oracles.

Every operation rounds its exact result correctly, so it must give the
tuple mpmath's correctly rounded operation gives.  The one place mpmath is
not correctly rounded is its far-apart shortcut in ``mpf_add`` (see
``_mpmath_add_misrounds``); there an exact rational rounding decides.
``to_str`` rounds the exact value half up, so it must equal
``oracles.decimal_half_up`` everywhere, and mpmath's ``to_str`` wherever
mpmath's truncated reads decide the digit (see ``_expected``).
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import libmpf as ml
from mpmath.libmp import mpf_pi

import oracles
from gammalab import mpnum as mn

MODES = ("n", "u", "d")


def _raw(sign, man, exp):
    return ml.from_man_exp(-man if sign else man, exp)


# mantissas of every width up to 5,000 bits; exponents near each other (the
# operands overlap) or anywhere within 10^5
mantissas = st.integers(1, 5000).flatmap(
    lambda b: st.integers(1 << (b - 1), (1 << b) - 1))
exponents = st.one_of(st.integers(-100, 100), st.integers(-10 ** 5, 10 ** 5))
raws = st.builds(_raw, st.integers(0, 1), mantissas, exponents)
raws_or_zero = st.one_of(st.just(ml.fzero), raws)
precs = st.integers(1, 3000)
modes = st.sampled_from(MODES)


def _round_fraction(q: Fraction, prec: int, rnd: str):
    """q rounded to prec bits, from the exact rational (the oracle)."""
    if q == 0:
        return ml.fzero
    a = abs(q)
    e = a.numerator.bit_length() - a.denominator.bit_length() - prec
    while a >= Fraction(1 << prec) * Fraction(2) ** e:
        e += 1
    while a < Fraction(1 << (prec - 1)) * Fraction(2) ** e:
        e -= 1
    m = a / Fraction(2) ** e  # in [2^(prec-1), 2^prec)
    k, r = divmod(m.numerator, m.denominator)
    if r and (rnd == "u" or (rnd == "n" and (2 * r > m.denominator
                                             or (2 * r == m.denominator and k & 1)))):
        k += 1
    return ml.from_man_exp(-k if q < 0 else k, e)


def _mpmath_add_misrounds(s, t, prec):
    # mpmath's mpf_add replaces the smaller operand by a perturbation once
    # the exponents differ by over 100 and the tops by over prec + 4; that
    # is exact only when the smaller one lies wholly below the larger one's
    # last bit
    if not s[1] or not t[1]:
        return False
    if s[2] + s[3] < t[2] + t[3]:
        s, t = t, s
    return (s[2] - t[2] > 100 and (s[2] + s[3]) - (t[2] + t[3]) > prec + 4
            and t[2] + t[3] > s[2])


def test_mpmath_add_shortcut_is_not_correctly_rounded_where_ours_is():
    # 2^5000 + 2^4900 - 1 is just below a midpoint at 100 bits, and t
    # (about 2^3999) carries it past; mpmath's perturbation does not
    s = ml.from_man_exp((1 << 5000) + (1 << 4900) - 1, 0)
    t = ml.from_man_exp((1 << 4100) + 1, -101)
    assert _mpmath_add_misrounds(s, t, 100)
    exact = mn.raw_to_fraction(s) + mn.raw_to_fraction(t)
    assert mn.mpf_add(s, t, 100, "n") == _round_fraction(exact, 100, "n")
    assert mn.raw_to_fraction(mn.mpf_add(s, t, 100, "n")) == (1 << 5000) + (1 << 4901)
    assert mn.raw_to_fraction(ml.mpf_add(s, t, 100, "n")) == 1 << 5000


@given(raws_or_zero, raws_or_zero, precs, modes)
@settings(max_examples=150, deadline=None)
@example(ml.from_int(3), ml.from_int(2), 2, "n")      # 5 -> 4, a tie kept even
@example(ml.from_int(7), ml.from_int(2), 3, "n")      # 9 -> 8
@example(ml.from_int(11), ml.from_int(2), 3, "n")     # 13 -> 12
@example(ml.from_int(13), ml.from_int(2), 3, "n")     # 15 -> 16, a carry
@example(ml.from_int(255), ml.from_man_exp(1, -1), 8, "u")  # 256: a carry into bit 9
@example(ml.from_int(-9), ml.from_int(-2), 2, "d")    # -11 -> -8 toward zero
@example(ml.from_int(-9), ml.from_int(-2), 2, "u")    # -11 -> -12 away from it
@example(ml.from_int(-9), ml.from_int(2), 1, "u")     # -7 -> -8
@example(ml.from_man_exp(3, -7), ml.from_man_exp(-3, -7), 10, "n")  # cancels to 0
@example(ml.from_int(1 << 200), ml.from_man_exp(-1, -300), 50, "d")  # far below
@example(ml.from_int(1 << 200), ml.from_man_exp(-1, -300), 50, "u")
def test_add_sub_equal_mpmath(s, t, prec, rnd):
    for ours, theirs, u in ((mn.mpf_add, ml.mpf_add, t),
                            (mn.mpf_sub, ml.mpf_sub, ml.mpf_neg(t))):
        got = ours(s, t, prec, rnd)
        if _mpmath_add_misrounds(s, u, prec):
            exact = mn.raw_to_fraction(s) + mn.raw_to_fraction(u)
            assert got == _round_fraction(exact, prec, rnd)
        else:
            assert got == theirs(s, t, prec, rnd)


@given(raws_or_zero, raws_or_zero, st.integers(0, 3000), modes)
@settings(max_examples=100, deadline=None)
@example(ml.from_int(3), ml.from_int(3), 3, "n")      # 9 at 3 bits: a tie, to 8
@example(ml.from_int(5), ml.from_int(3), 3, "n")      # 15 -> 16, a carry
@example(ml.from_int(-5), ml.from_int(3), 2, "d")     # -15 -> -12
@example(ml.from_int(-5), ml.from_int(3), 2, "u")     # -15 -> -16
def test_mul_equals_mpmath(s, t, prec, rnd):
    assert mn.mpf_mul(s, t, prec, rnd) == ml.mpf_mul(s, t, prec, rnd)


@given(raws_or_zero, raws, precs, modes)
@settings(max_examples=150, deadline=None)
@example(ml.from_int(3073), ml.from_int(3), 4, "u")   # 1024 + 1/3: only the sticky bit rounds up
@example(ml.from_int(3073), ml.from_int(3), 4, "n")
@example(ml.from_int(-3073), ml.from_int(3), 4, "u")
@example(ml.from_int(-3073), ml.from_int(3), 4, "d")
@example(ml.from_int(1), ml.from_int(3), 1, "n")
@example(ml.from_int(7), ml.from_int(5), 1, "u")
@example(ml.from_int(-1 << 300), ml.from_int(3), 2, "n")  # 1.0101..: just below a tie
def test_div_equals_mpmath(s, t, prec, rnd):
    assert mn.mpf_div(s, t, prec, rnd) == ml.mpf_div(s, t, prec, rnd)


@given(raws_or_zero, precs, modes)
@settings(max_examples=150, deadline=None)
@example(ml.from_int(17), 1, "u")   # isqrt 10000b: only the sticky bit rounds up
@example(ml.from_int(17), 1, "n")
@example(ml.from_int(16), 1, "u")   # 4 exactly
@example(ml.from_int(2), 1, "n")
@example(ml.from_man_exp(1, -1), 53, "d")  # an odd exponent
@example(ml.from_man_exp(9, -3), 3, "u")
@example(ml.from_man_exp((1 << 4000) + 1, -7), 10, "d")  # mantissa past 2 prec + 6
@example(ml.fzero, 5, "n")
def test_sqrt_equals_mpmath(s, prec, rnd):
    s = ml.mpf_abs(s)
    assert mn.mpf_sqrt(s, prec, rnd) == ml.mpf_sqrt(s, prec, rnd)


def test_sqrt_of_a_negative_value_raises():
    with pytest.raises(ValueError):
        mn.mpf_sqrt(ml.from_int(-4), 10, "n")


@given(st.integers(-(1 << 5000), 1 << 5000), st.integers(-10 ** 5, 10 ** 5),
       st.integers(0, 3000), modes)
@settings(max_examples=100, deadline=None)
@example(12, 0, 2, "n")  # 12 = 1100b at 2 bits: exact
@example(10, 0, 2, "n")  # 1010b -> 1000b, a tie to even
@example(14, 0, 2, "n")  # 1110b -> 10000b, a tie to even with a carry
@example(-14, 0, 2, "d")
@example(-14, 0, 2, "u")
def test_from_man_exp_and_pos_equal_mpmath(man, exp, prec, rnd):
    ours = mn.from_man_exp(man, exp, prec, rnd)
    assert ours == ml.from_man_exp(man, exp, prec or None, rnd)
    exact = mn.from_man_exp(man, exp)
    assert mn.mpf_pos(exact, prec, rnd) == ml.mpf_pos(exact, prec, rnd)
    assert mn.from_int(man) == ml.from_int(man)


@given(raws_or_zero, raws_or_zero, st.integers(-10 ** 5, 10 ** 5))
@settings(max_examples=100, deadline=None)
@example(ml.from_int(1 << 200), ml.from_man_exp((1 << 400) + 1, -200), 0)
@example(ml.from_man_exp(-1, -300), ml.fzero, 0)
def test_cmp_abs_shift_equal_mpmath(s, t, n):
    assert mn.mpf_cmp(s, t) == ml.mpf_cmp(s, t)
    assert mn.mpf_cmp(s, s) == 0
    assert mn.mpf_abs(s) == ml.mpf_abs(s)
    assert mn.mpf_shift(s, n) == ml.mpf_shift(s, n)


def test_constants_and_modes():
    assert (mn.fzero, mn.fone) == (ml.fzero, ml.fone)
    with pytest.raises(ValueError):
        mn.from_man_exp(3, 0, 1, "f")
    with pytest.raises(ZeroDivisionError):
        mn.mpf_div(mn.fone, mn.fzero, 53)


def test_pi_const_equals_mpmath_and_its_enclosure_holds_pi():
    # one reference for every p: mpmath's pi at 2,100 + 72 bits, rounded
    # toward zero, so within 2^-2170 of pi
    ref_prec = 2100 + 72
    ref = mn.raw_to_fraction(mpf_pi(ref_prec))
    slack = Fraction(1, 1 << (ref_prec - 2))
    for p in range(64, 2101):
        got = mn.pi_const(p)
        assert got.val == mpf_pi(p + 10), p
        assert got.err == mn._fn_err(got.val, p)
        lo, hi = mn._pi_enclosure(p)
        assert lo <= (ref + slack) * (1 << p) and (ref - slack) * (1 << p) <= hi, p
        assert hi - lo == 60


@pytest.mark.parametrize("m", [5, 239])
def test_atan_floor_against_the_exact_series(m):
    # the first 40 terms at 100 bits leave far less than 2^-100 out
    s = sum(Fraction((-1) ** j, (2 * j + 1) * m ** (2 * j + 1)) for j in range(40))
    for P in (8, 53, 100):
        t = mn._atan_floor(m, P)
        assert t - 1 <= s * (1 << P) <= t + 2


def test_pi_const_widens_when_the_enclosure_straddles(monkeypatch):
    calls = []
    real = mn._pi_enclosure

    def straddling_first(P):
        lo, hi = real(P)
        calls.append(P)
        if len(calls) == 1:
            return lo, hi + (1 << 40)  # wide enough to straddle any floor
        return lo, hi

    monkeypatch.setattr(mn, "_pi_enclosure", straddling_first)
    got = mn.pi_const(100)
    assert got.val == mpf_pi(110) and calls == [108 + 32, 108 + 64]


def test_pi_const_raises_when_its_bound_would_not_cover(monkeypatch):
    # the enclosure is within 2^-(p+8) of the value; a published bound
    # below that must be refused
    monkeypatch.setattr(mn, "_fn_err", lambda v, p: mn.from_man_exp(1, -(p + 40)))
    with pytest.raises(ArithmeticError):
        mn.pi_const(64)


# --- the decimal printer -------------------------------------------------


def _expected(x, dps):
    """mpmath's string where its reads decide the rounding, else the
    oracle's.  mpmath rounds half up from dps + 3 or more digits read
    within about 3 units of the last one (truncated, and past 2^3500 scaled
    by an approximate power of ten), so it agrees with the exact rounding
    unless the dropped part lies within 1/100 of one half.  It also
    refuses an integer part past str()'s digit limit."""
    q = mn.raw_to_fraction(x)
    if q:
        _, n, d = oracles.leading_digits(q, dps)
        if 50 * abs(2 * (n % d) - d) < d:
            return oracles.decimal_half_up(q, dps)
    try:
        return ml.to_str(x, dps)
    except ValueError:
        return oracles.decimal_half_up(q, dps)


def _near(man, top):
    """man 2^e with the top bit at 2^(top - 1), so exp + bc = top."""
    return ml.from_man_exp(man, top - abs(man).bit_length())


# the leading bit anywhere within 2 10^5, or near the 2^3500 switch
tops = st.one_of(st.integers(-4000, 4000), st.integers(-2 * 10 ** 5, 2 * 10 ** 5),
                 st.sampled_from([3500, 3501, -3500, -3501]))
printed = st.builds(lambda sign, man, top: _near(-man if sign else man, top),
                    st.integers(0, 1),
                    st.integers(1, 20000).flatmap(
                        lambda b: st.integers(1 << (b - 1), (1 << b) - 1)),
                    tops)


@given(printed, st.integers(1, 60))
@settings(max_examples=150, deadline=None)
@example(ml.fzero, 5)
@example(_near(3 ** 40, 3500), 40)              # the last top without scaling
@example(_near(3 ** 40, 3501), 40)              # the first with it
@example(_near(-3 ** 40, -3500), 40)
@example(_near(-3 ** 40, -3501), 40)
@example(ml.from_man_exp((1 << 4000) - 1, -1), 40)  # scaled, with b = 0
@example(ml.from_man_exp((1 << 4000) - 1, 4), 40)   # b = 1
# 0.95 + 2^-76.3, which mpmath's 23-bit read prints as 0.9
@example((0, 17944992634904651812045, -74, 74), 1)
def test_to_str_equals_mpmath(x, dps):
    assert mn.to_str(x, dps) == _expected(x, dps)


# an integer part of 4,362 digits, past str()'s default limit
_LONG = ml.from_man_exp(7 * 10 ** 4400 + 1, -132)


@given(printed, st.integers(1, 60))
@settings(max_examples=150, deadline=None)
@example(ml.from_man_exp(5, -2), 2)               # 1.25: a tie rounds up
@example(ml.from_man_exp(1, -3), 2)               # 0.125
@example(ml.from_int(125), 2)                     # 1.25e+2: a tie of the divmod
@example(ml.from_man_exp((10 << 60) - 1, -60), 15)  # 9.99..: a carry to 10.0
@example(_near(3 ** 40, 3500), 40)
@example(_near(3 ** 40, 3501), 40)
@example(_near(-3 ** 40, -3500), 40)
@example(_near(-3 ** 40, -3501), 40)
@example(_LONG, 40)
def test_to_str_equals_the_fraction_oracle(x, dps):
    assert mn.to_str(x, dps) == oracles.decimal_half_up(mn.raw_to_fraction(x), dps)


@pytest.mark.parametrize("x, dps, text", [
    (ml.fzero, 40, "0.0"),
    (ml.from_man_exp((10 << 60) - 1, -60), 15, "10.0"),  # 9.99..: a new digit
    (ml.from_man_exp(-((10 << 60) - 1), -60), 15, "-10.0"),
    (ml.from_man_exp(5, -2), 2, "1.3"),             # 1.25: a tie rounds up
    (ml.from_man_exp(1, -3), 2, "0.13"),            # 0.125
    (ml.from_man_exp(5, -2), 3, "1.25"),
    (ml.from_int(10 ** 40), 40, "1.0e+40"),
    (ml.from_man_exp(1, -20), 4, "9.537e-7"),
])
def test_to_str_literals(x, dps, text):
    assert mn.to_str(x, dps) == ml.to_str(x, dps) == text


@pytest.mark.parametrize("man, exp", [(3 ** 40, -64), (7 * 10 ** 4400 + 1, -132),
                                      (7 * 10 ** 4400 + 1, -15000),
                                      ((1 << 5000) - 1, -13000)],
                         ids=["short", "long", "long-small", "ones-small"])
def test_to_str_splits_long_digit_strings_as_mpmath_does(man, exp):
    # from 250 digits mpmath's numeral converts in halves; to_str hands
    # str() its 300 digits whole, with the same bytes
    x = ml.from_man_exp(man, exp)
    assert mn.to_str(x, 300) == _expected(x, 300)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int-to-str digit limit")
def test_printed_digits_do_not_depend_on_the_str_digit_limit():
    # a cell past 2^3500 whose integer part has 2,512 digits, and one of
    # 4,362 digits: to_str hands str() only the digits it prints
    man = (97574967827503855712856800916350560018475 * 10 ** 2471 >> 5414) - 3
    cell = mn.Bounded(mn.from_man_exp(man, 5414), mn.fzero)
    saved = sys.get_int_max_str_digits()
    try:
        for limit in (640, 4300, 0):
            sys.set_int_max_str_digits(limit)
            assert (cell.decimal(40)
                    == "9.757496782750385571285680091635056001847e+2511"), limit
            assert (mn.to_str(_LONG, 40)
                    == oracles.decimal_half_up(mn.raw_to_fraction(_LONG), 40)
                    == "1.285696946211876961840805587586831210114e+4361"), limit
    finally:
        sys.set_int_max_str_digits(saved)
