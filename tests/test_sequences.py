"""Per-n quantity tests: cross-method agreement, series-vs-quadrature
oracles, criterion probes, and record determinism."""

import math
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from gammalab import exact
from gammalab import mpnum as mn
from gammalab import sequences as sq
from gammalab.mpnum import Bounded, PrecisionPolicy


def frac(x):
    return x.value_fraction()


# --- L_n ---------------------------------------------------------------------

def test_L_closed_forms_small():
    p = 192
    l1 = sq.L_from_factorial_logs(1, p)
    # only the j=1 term survives: L_1 = 2 ln 2
    ref1 = 2 * oracles.ln2_oracle(200)
    assert abs(frac(l1) - ref1) < Fraction(1, 10 ** 40)
    l2 = sq.L_from_factorial_logs(2, p)
    ref2 = 3 * oracles.ln_oracle(Fraction(12), 200)
    assert abs(frac(l2) - ref2) < Fraction(1, 10 ** 40)


def test_L_weight_symmetry_relabelling():
    # j <-> n-j negates each weight; the total is unchanged
    for n in (3, 6, 9):
        _, w = exact.residue_numerators(n)
        assert [-w[n - j] for j in range(n + 1)] == w


def log_S_exponents(n):
    """E_k of log S_n = sum_k E_k ln(n+k): the scaled E'_k times g."""
    g, scaled = sq._log_S_scaled(n)
    return [g * e for e in scaled]


def log_S_vector(n):
    """The prime vector of log S_n: the scaled pair multiplied out by g."""
    g, (den, ints) = sq._log_S_pair(n)
    return den, {q: g * c for q, c in ints.items()}


def log_S(n, p):
    """log S_n as build_record and criterion_point read it."""
    g, vec = sq._log_S_pair(n)
    return mn._prime_dot(vec, p, g)


def L_product(n, p):
    """L_n = log S_n / d_2n, the record's power-product route."""
    return mn.b_div(log_S(n, p), Bounded.exact_int(exact.lcm_upto(2 * n)), p)


def test_log_S_exponents_small():
    assert log_S_exponents(1) == [4]          # S_1 = 2^4
    assert log_S_exponents(2) == [36, 36]     # S_2 = 12^36


def test_log_S_value_small():
    p = 160
    ls1 = log_S(1, p)
    assert abs(frac(ls1) - 4 * oracles.ln2_oracle(200)) < Fraction(1, 2 ** 140)
    ls2 = log_S(2, p)
    assert abs(frac(ls2) - 36 * oracles.ln_oracle(Fraction(12), 220)) \
        < Fraction(1, 2 ** 130)


@given(st.integers(1, 100))
@settings(max_examples=30, deadline=None)
def test_log_S_exponent_integrality(n):
    d2 = 2 * exact.lcm_upto(2 * n)
    for j in range(1, n + 1):
        assert d2 % j == 0
    expo = log_S_exponents(n)
    assert all(isinstance(e, int) and e > 0 for e in expo)


def test_log_S_exponents_past_str_digit_limit():
    # d_10000 has about 4,340 digits, past str()'s default 4,300-digit limit
    n = 5000
    expo = log_S_exponents(n)
    assert len(expo) == n and expo == expo[::-1]
    assert expo[0] == sum(2 * exact.lcm_upto(2 * n) // j for j in range(1, n + 1))


def test_log_S_exponents_equal_min_index_form():
    # E_k = half[min(k - 1, n - k, n // 2)] with half[i] the cumulative
    # weights C(n,t)^2 sum_{j=t+1..n-t} 2 d_2n / j over t <= i
    for n in range(1, 201):
        d2 = 2 * exact.lcm_upto(2 * n)
        row = exact.binomial_row(n)
        half, acc = [], 0
        for i in range(n // 2 + 1):
            acc += row[i] ** 2 * sum(d2 // j for j in range(i + 1, n - i + 1))
            half.append(acc)
        old = [half[min(k - 1, n - k, n // 2)] for k in range(1, n + 1)]
        assert log_S_exponents(n) == old, n


def test_prime_vectors_small():
    # (D, {q: a_q}) over D = d_n for L_n and D = 1 for log S_n
    assert sq.L_vector(1) == (1, {2: 2})              # L_1 = 2 ln 2
    assert sq.L_vector(2) == (2, {2: 12, 3: 6})       # L_2 = 3 ln 12
    assert log_S_vector(1) == (1, {2: 4})          # S_1 = 2^4
    assert log_S_vector(2) == (1, {2: 72, 3: 36})  # S_2 = 12^36


def test_log_S_vector_equals_scaled_pair_multiplied_out():
    # the vector of the multiplied-out exponents E_k against the scaled pair
    for n in range(1, 201):
        g, (den, ints) = sq._log_S_pair(n)
        assert den == 1 and g == 2 * exact.lcm_upto(2 * n) // exact.lcm_upto(n)
        assert (mn._range_log_pair(1, n + 1, log_S_exponents(n))
                == (1, {q: g * c for q, c in ints.items()})), n


def test_L_identity_exact():
    for n in range(1, 41):
        sq.check_L_identity(n)


def test_L_identity_violation_raises(monkeypatch):
    real = sq.L_vector

    def corrupted(n):
        den, vec = real(n)
        vec = dict(vec)
        vec[2] += 1  # adds ln 2 / den
        return den, vec

    monkeypatch.setattr(sq, "L_vector", corrupted)
    with pytest.raises(exact.IdentityViolation):
        sq.check_L_identity(4)
    with pytest.raises(exact.IdentityViolation):
        sq.build_record(4)


@given(st.integers(1, 30))
@settings(max_examples=30, deadline=None)
def test_L_cross_method(n):
    p = 224
    l1 = sq.L_from_factorial_logs(n, p)
    l2 = L_product(n, p)
    assert mn.agrees(l1, l2)
    rel = mn.b_div(mn.b_abs(mn.b_sub(l1, l2, p)), mn.b_abs(l2), p)
    assert float(rel) < 1e-40


# --- I_n ----------------------------------------------------------------------

def test_series_term_quadrature_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.prec = 220
    for n, v in [(1, 2), (1, 9), (2, 3), (4, 6)]:
        term = sq.series_term(n, v, 192)
        quad = mpmath.quad(
            lambda x: (mpmath.factorial(n) / mpmath.rf(x, n + 1)) ** 2,
            [v, mpmath.inf])
        assert abs(mpmath.mp.make_mpf(term.val) - quad) < mpmath.mpf(10) ** -25


def test_series_partial_sum_oracle():
    # folded main sum == direct term-by-term sum (exact bookkeeping)
    n, V, p = 3, 40, 192
    acc = sq.series_term(n, n + 1, p)
    for v in range(n + 2, V + 1):
        acc = mn.b_add(acc, sq.series_term(n, v, p), p)
    cs = exact.scaled_square_weights(n)
    d, nums = exact.residue_numerators(n)
    folded_rat = sum(
        (cs[k] * (exact.harmonic(V + k) - exact.harmonic(n + k))
         for k in range(n + 1)), Fraction(0))
    folded = Bounded.from_fraction(folded_rat, p)
    for k in range(n + 1):
        if nums[k] == 0:
            continue
        # ln((V+k)!/(n+k)!), the logs of n+k+1 .. V+k
        dlf = mn._prime_dot(mn._range_log_pair(1, n + k + 1, [1] * (V - n)), p)
        asw = Bounded.from_fraction(Fraction(nums[k], d), p)
        folded = mn.b_sub(folded, mn.b_mul(asw, dlf, p), p)
    assert mn.agrees(acc, folded)


def test_I_series_against_closed_values():
    g = mn.euler_gamma(256)
    ln2 = mn.ln2_const(256)
    i1, tb = sq.I_series(1)
    ref = mn.b_sub(
        mn.b_add(mn.b_mul_int(g, 2, 256), mn.b_mul_int(ln2, 2, 256), 256),
        Bounded.from_fraction(Fraction(5, 2), 256), 256)
    assert abs(frac(i1) - frac(ref)) < Fraction(1, 10 ** 38)
    assert tb.cutoff >= 2 and tb.remainder >= 0
    assert i1.err_fraction() < Fraction(1, 10 ** 30)


def test_I_cross_method_and_floor():
    for n in (1, 2, 5, 8):
        p = sq.closed_form_floor(n) + 128
        ic = sq.I_closed_form(n, p)
        iser, _ = sq.I_series(n)
        assert mn.agrees(ic, iser), n
    with pytest.raises(mn.PrecisionInsufficient):
        sq.I_closed_form(10, 64)


def test_I_positivity_and_monotonicity():
    vals = []
    for n in range(1, 21):
        iv, _ = sq.I_series(n)
        lo = frac(iv) - iv.err_fraction()
        assert lo > 0, n
        vals.append(frac(iv))
    assert all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))


def test_I_series_tail_stability():
    # tighter eps forces a larger cutoff; values must stay inside bounds
    n = 2
    a, tba = sq.I_series(n, Fraction(1, 10 ** 20))
    b, tbb = sq.I_series(n, Fraction(1, 10 ** 45))
    assert tbb.cutoff >= tba.cutoff
    assert mn.agrees(a, b)
    assert abs(frac(a) - frac(b)) <= Fraction(1, 10 ** 19)


def test_I_series_eps_contract():
    for n, eps in [(1, Fraction(1, 10 ** 15)), (4, Fraction(1, 10 ** 30))]:
        val, _ = sq.I_series(n, eps)
        assert val.err_fraction() <= eps


def test_I_series_accepts_an_eps_far_above_its_value():
    # past about 2^(p + 64) the correction's enclosure scale 2^W would go
    # below 1; it stops at W = 0 and still agrees with a tight evaluation
    eps = Fraction(10 ** 78)
    val, _ = sq.I_series(1, eps)
    assert val.err_fraction() <= eps
    assert mn.agrees(val, sq.I_series(1)[0])


def test_I_series_exhaustion_message_prints_log2_eps():
    # a float would print 0.000e+00 for an eps below 1e-308
    with pytest.raises(mn.PrecisionExhausted, match=r"eps=2\^-4000 at n=1"):
        sq.I_series(1, Fraction(1, 2 ** 4000))


def test_I_series_rejects_bad_eps():
    with pytest.raises(ValueError):
        sq.I_series(1, Fraction(0))
    with pytest.raises(ValueError):
        sq.I_series(0)


# --- Euler-Maclaurin kernel -------------------------------------------------------

def _weights(n):
    return oracles.residue_weights(n), exact.scaled_square_weights(n)


def _kernel(n):
    return sq._EMKernel(*exact.residue_numerators(n), exact.scaled_square_weights(n))


def _kernel_derivative(kern, m, a):
    num, den = kern.derivative_sum(m, a)
    return (-1) ** m * math.factorial(m) * Fraction(num, den)


def test_em_kernel_equals_fraction_oracle():
    for n in range(61):
        asw, cs = _weights(n)
        kern = _kernel(n)
        for a, m in ((n + 1, 0), (n + 33, 1), (n + 49, 12), (n + 97, 40)):
            assert _kernel_derivative(kern, m, a) \
                == oracles.g_derivative(m, a, asw, cs), (n, a, m)
        for a, K in ((n + 33, 0), (n + 33, 6), (n + 65, 16), (n + 513, 24)):
            assert Fraction(*kern.em_corr(a, K)) \
                == oracles.em_corr(a, K, asw, cs), (n, a, K)
            assert Fraction(*kern.em_remainder(a, K)) \
                == oracles.em_remainder(a, K, asw, cs), (n, a, K)


@given(st.integers(0, 80), st.sampled_from(sq._EM_PADS), st.integers(1, 32))
@settings(max_examples=25, deadline=None)
def test_em_kernel_equals_fraction_oracle_property(n, pad, K):
    asw, cs = _weights(n)
    kern = _kernel(n)
    a = n + pad + 1
    assert Fraction(*kern.em_corr(a, K)) == oracles.em_corr(a, K, asw, cs)
    assert Fraction(*kern.em_remainder(a, K)) == oracles.em_remainder(a, K, asw, cs)


@given(st.integers(0, 80), st.sampled_from(sq._EM_PADS), st.sampled_from(sq._EM_TERMS),
       st.integers(0, 400))
@example(0, 32, 6, 0)
@example(80, 32, 32, 0)
@settings(max_examples=25, deadline=None)
def test_em_remainder_enclosure_contains_oracle(n, pad, K, W):
    asw, cs = _weights(n)
    a = n + pad + 1
    lo, hi, den = _kernel(n).em_remainder_enclosure(a, K, W)
    rem = oracles.em_remainder(a, K, asw, cs)
    assert 0 <= Fraction(lo, den) <= rem <= Fraction(hi, den)
    if W == 0 and n == 0:
        # every term floors to 0, so s = 0 and only the upper end says anything
        assert lo == 0 < hi


@given(st.integers(0, 80), st.sampled_from(sq._EM_PADS), st.integers(1, 32),
       st.integers(0, 400))
@example(0, 32, 6, 0)
@example(80, 32, 32, 0)
@settings(max_examples=25, deadline=None)
def test_em_corr_enclosure_contains_oracle(n, pad, K, W):
    asw, cs = _weights(n)
    a = n + pad + 1
    lo, hi, den = _kernel(n).em_corr_enclosure(a, K, W)
    assert hi - lo == n + 1
    assert Fraction(lo, den) <= oracles.em_corr(a, K, asw, cs) < Fraction(hi, den)


def test_corr_rounded_falls_back_to_exact_correction(monkeypatch):
    # an enclosure that decides nothing leaves the correction to the exact
    # sum, which must round the same way
    rounded = {n: sq._corr_rounded(_kernel(n), n + 33, 12, 600, 700) for n in (1, 9, 40)}
    monkeypatch.setattr(sq._EMKernel, "em_corr_enclosure",
                        lambda self, a, K, W: (-(1 << 10000), 1 << 10000, 1))
    for n, got in rounded.items():
        kern = _kernel(n)
        want = Bounded.from_ratio(*kern.em_corr(n + 33, 12), 600)
        assert sq._corr_rounded(kern, n + 33, 12, 600, 700) == got == want, n


def _oracle_cutoff(n, eps):
    asw, cs = _weights(n)
    for pad in sq._EM_PADS:
        for K in sq._EM_TERMS:
            rem = oracles.em_remainder(n + pad + 1, K, asw, cs)
            if rem <= eps / 4:
                return n + pad, K, mn.raw_to_fraction(mn._fraction_to_raw_up(rem))
    return None


def test_choose_cutoff_equals_oracle_search():
    pol = PrecisionPolicy()
    cases = [(n, sq.default_series_eps(n, pol)) for n in range(1, 201)]
    cases += [(n, eps) for n in (1, 2, 9, 30)
              for eps in (Fraction(1, 10 ** 20), Fraction(1, 10 ** 120))]
    for n, eps in cases:
        kern = _kernel(n)
        want = _oracle_cutoff(n, eps)
        if want is None:
            with pytest.raises(mn.PrecisionExhausted):
                sq._choose_cutoff(n, eps, kern)
        else:
            assert sq._choose_cutoff(n, eps, kern) == want, (n, eps)


def test_choose_cutoff_falls_back_to_exact_remainder(monkeypatch):
    # an enclosure that can decide nothing leaves every candidate to the
    # exact remainder, which must make the same choice
    monkeypatch.setattr(sq._EMKernel, "em_remainder_enclosure",
                        lambda self, a, K, W: (0, 1 << 10000, 1))
    pol = PrecisionPolicy()
    for n in (1, 9, 30, 120):
        eps = sq.default_series_eps(n, pol)
        assert sq._choose_cutoff(n, eps, _kernel(n)) == _oracle_cutoff(n, eps), n


def test_choose_cutoff_needs_no_exact_remainder(monkeypatch):
    # the enclosures, retried once, decide every candidate of n = 1..120 at
    # the default policy; an exact search makes 503 tree sums here
    calls = []
    exact_remainder = sq._EMKernel.em_remainder

    def counting(self, a, K):
        calls.append((a, K))
        return exact_remainder(self, a, K)

    monkeypatch.setattr(sq._EMKernel, "em_remainder", counting)
    pol = PrecisionPolicy()
    for n in range(1, 121):
        sq._choose_cutoff(n, sq.default_series_eps(n, pol), _kernel(n))
    assert len(calls) == 0


class _OracleKernel(sq._EMKernel):
    """The kernel's interface, answered by the per-term Fraction formulas."""

    def __init__(self, den, num, cs):
        super().__init__(den, num, cs)
        self.asw = [Fraction(a, den) for a in num]

    def em_remainder(self, a, K):
        rem = oracles.em_remainder(a, K, self.asw, self.cs)
        return rem.numerator, rem.denominator

    def em_corr(self, a, K):
        return oracles.em_corr(a, K, self.asw, self.cs).as_integer_ratio()

    def em_corr_enclosure(self, a, K, W):
        s = math.floor(oracles.em_corr(a, K, self.asw, self.cs) * 2 ** W)
        return s, s + 1, 1 << W


def test_I_series_equals_oracle_kernel(monkeypatch):
    ns = (1, 7, 40, 120)
    got = {n: sq.I_series(n) for n in ns}
    monkeypatch.setattr(sq, "_EMKernel", _OracleKernel)
    for n in ns:
        (val, tb), (oval, otb) = got[n], sq.I_series(n)
        assert (val.val, val.err) == (oval.val, oval.err), n
        assert tb == otb, n


# --- gamma round trip ------------------------------------------------------------

def test_gamma_roundtrip_small():
    g = mn.euler_gamma(256)
    for n, p in [(1, 192), (5, 256)]:
        est = sq.gamma_roundtrip(n, p)
        assert mn.agrees(est, g)
        assert abs(frac(est) - frac(g)) < Fraction(1, 2 ** (p // 2 - 16))


def test_gamma_roundtrip_bound_shrinks_with_precision():
    e1 = sq.gamma_roundtrip(3, 128)
    e2 = sq.gamma_roundtrip(3, 256)
    assert e2.err_fraction() < e1.err_fraction()


def test_gamma_roundtrip_whole_range():
    g = mn.euler_gamma(200)
    for n in range(1, 21):
        assert mn.agrees(sq.gamma_roundtrip(n, 160), g), n


# --- criterion --------------------------------------------------------------------

def test_criterion_first_points():
    cp1 = sq.criterion_point(1)
    assert cp1.log_s_floor == 2
    assert cp1.frac.decimal(8).startswith("0.7725887")
    assert abs(float(cp1.q) - 6.180710) < 1e-5
    cp2 = sq.criterion_point(2)
    assert cp2.frac.decimal(7).startswith("0.456639")
    assert abs(float(cp2.q) - 19.48328) < 1e-4
    # distances are certified and coherent
    assert float(cp2.dist_zero) == pytest.approx(float(cp2.q))
    thr = sq.sondow_threshold(192)
    assert abs(float(cp2.dist_threshold)
               - abs(float(cp2.q) - float(thr))) < 1e-9


@given(st.integers(1, 40))
@settings(max_examples=15, deadline=None)
def test_criterion_reproducible_across_precision(n):
    cp = sq.criterion_point(n)
    pol2 = PrecisionPolicy(base_bits=2 * cp.precision_bits)
    cp2 = sq.criterion_point(n, pol2)
    assert cp2.precision_bits >= 2 * cp.precision_bits
    assert abs(frac(cp.frac) - frac(cp2.frac)) < Fraction(1, 2 ** 56)
    assert cp.log_s_floor == cp2.log_s_floor


def test_criterion_escalation_ceiling():
    pol = PrecisionPolicy(base_bits=64, frac_bits=512, max_bits=128)
    with pytest.raises(mn.PrecisionExhausted):
        sq.criterion_point(12, pol)


def test_capped_escalations_name_their_ceiling(monkeypatch):
    pol = PrecisionPolicy(base_bits=64, frac_bits=512, max_bits=128)
    with pytest.raises(mn.PrecisionExhausted,
                       match=r"^criterion at n=12 needs \d+ bits, ceiling is 128$"):
        sq.criterion_point(12, pol)
    with pytest.raises(mn.PrecisionExhausted,
                       match=r"^series at n=1 needs \d+ bits, ceiling is 128$"):
        sq.I_series(1, policy=PrecisionPolicy(base_bits=64, max_bits=128))
    # past the ceiling after a first attempt that missed
    p = sq._criterion_precision(12, PrecisionPolicy())
    monkeypatch.setattr(sq, "frac_part_certified", _missing_once(None))
    with pytest.raises(mn.PrecisionExhausted,
                       match=rf"^criterion at n=12 needs {2 * p} bits, ceiling is "
                             rf"{2 * p - 1}$"):
        sq.criterion_point(12, PrecisionPolicy(max_bits=2 * p - 1))


def _missing_once(err):
    """frac_part_certified, but the first call is undecided: it straddles
    when err is None, and otherwise its {x} carries the error err."""
    real, calls = sq.frac_part_certified, []

    def missing_once(x):
        calls.append(x)
        if len(calls) > 1:
            return real(x)
        if err is None:
            raise mn.PrecisionInsufficient("straddles")
        floor_part, f = real(x)
        return floor_part, Bounded(f.val, err)
    return missing_once


@pytest.mark.parametrize("err", [None, mn.fone], ids=["straddle", "too-wide"])
def test_criterion_doubles_after_an_undecided_attempt(err, monkeypatch):
    p = sq._criterion_precision(12, PrecisionPolicy())
    want = sq.criterion_point(12)
    assert want.precision_bits == p
    monkeypatch.setattr(sq, "frac_part_certified", _missing_once(err))
    got = sq.criterion_point(12)
    assert got.precision_bits == 2 * p
    assert got.log_s_floor == want.log_s_floor and mn.agrees(got.frac, want.frac)


# --- tail probe --------------------------------------------------------------------

def tail_probe(n, r, p):
    """The vanishing tail sum S_n(r) behind the closed form of I_n.

    S_n(r) = sum_j C(n,j)^2 (2(H_{n-j}-H_j) ln((n+j+r)!) + ln(n+j+r)).
    Its log-factorial weights cancel, so it is the range vector of
    n+r .. 2n+r, dotted; its log-r coefficient is
    exact.tail_log_coefficient(n).
    """
    d, nums = exact.residue_numerators(n)
    # suffix[j] = d * sum_{i >= j} 2C(n,i)^2 (H_{n-i}-H_i)
    suffix = list(accumulate(reversed([-a for a in nums])))[::-1]
    assert suffix[0] == 0  # the weights cancel
    # weights of ln(n + r + i) for i = 0 .. n
    weights = [0] + suffix[1:]
    for j, c in enumerate(exact.scaled_square_weights(n)):
        weights[j] += d * c
    return mn._prime_dot(mn._range_log_pair(d, n + r, weights),
                         p + 2 * n + r.bit_length() + 32)


def test_tail_probe_closed_form_n1():
    for r in (10, 1000, 10 ** 6):
        got = tail_probe(1, r, 128)
        ref = oracles.ln_oracle(Fraction(1 + r, 2 + r), 180)
        assert abs(frac(got) - ref) < Fraction(1, 2 ** 100)
    vals = [abs(float(tail_probe(1, r, 128))) for r in (10, 10 ** 3, 10 ** 6)]
    assert vals[2] < vals[1] < vals[0]


def test_tail_probe_past_the_sieve_cap(monkeypatch):
    # n + r + 1 = 2^20 + 7 is a prime, factored by trial division
    monkeypatch.setattr(mn, "_TABLE", mn.PrimeLogTable())
    r = 1048582
    got = tail_probe(1, r, 64)
    ref = oracles.ln_oracle(Fraction(1 + r, 2 + r), 160)
    assert abs(frac(got) - ref) <= got.err_fraction() + Fraction(1, 2 ** 150)


def test_tail_probe_decay_grid():
    for n in (1, 2, 3, 5):
        mags = [abs(float(tail_probe(n, r, 128)))
                for r in (100, 1000, 10 ** 4)]
        assert mags[2] < mags[1] < mags[0], n


# --- floating A_n ------------------------------------------------------------------

def test_A_float_matches_exact():
    for n in (1, 2, 50, 300):
        af = sq.A_approx(n, 160)
        assert af.contains(exact.A_exact(n))
    a300 = sq.A_approx(300, 160)
    relerr = a300.err_fraction() / frac(a300)
    assert relerr < Fraction(1, 2 ** (160 - 64 - 9))


# --- records ------------------------------------------------------------------------

def test_build_record_content_and_flags():
    rec = sq.build_record(2)
    assert rec.a_exact == Fraction(131, 12)
    assert rec.d2n == 12
    assert rec.l_agree and rec.i_agree and rec.i_positive
    assert rec.tail.cutoff > 2
    assert 0 <= frac(rec.criterion.frac) < 1
    assert abs(float(rec.I_series) - 0.0013472721) < 1e-9
    assert abs(float(rec.L_logfact) - 7.4547199494) < 1e-9


def test_build_record_computes_L_once(monkeypatch):
    # each prime vector is built once and serves the exact identity check,
    # its dot product and criterion_point's precision escalation
    calls = []

    def counted(name):
        real = getattr(sq, name)

        def wrapper(n):
            calls.append((name, n))
            return real(n)
        return wrapper

    for name in ("L_vector", "_log_S_pair"):
        monkeypatch.setattr(sq, name, counted(name))
    real_a = exact.A_exact

    def counted_a(n):
        calls.append(("A_exact", n))
        return real_a(n)

    monkeypatch.setattr(exact, "A_exact", counted_a)
    rec = sq.build_record(3)
    assert calls == [("A_exact", 3), ("L_vector", 3), ("_log_S_pair", 3)]
    p = rec.precision_bits
    direct = sq.I_closed_form(3, p)
    assert (rec.I_closed.val, rec.I_closed.err) == (direct.val, direct.err)


@pytest.mark.parametrize("n, frac_bits", [(1, 64), (7, 64), (60, 64), (401, 64),
                                          (1, 256), (7, 256)])
def test_precision_plan_covers_every_stage(n, frac_bits, monkeypatch):
    # a stage's first dot product is its widest, so a fresh table sized by
    # that request serves every later one without a rebuild; build_record
    # runs I_series first for this.  pi / (6 ln 2) reads ln 2 from the side
    # table, so a threshold wider than the row (n = 1 at frac_bits 256)
    # does not rebuild the shared one.
    policy = PrecisionPolicy(frac_bits=frac_bits)
    for stage in (sq.build_record, sq.criterion_point):
        table = mn.PrimeLogTable()
        monkeypatch.setattr(mn, "_TABLE", table)
        asked = []
        floor_logs = table.floor_logs
        monkeypatch.setattr(table, "floor_logs",
                            lambda primes, w: asked.append(w) or floor_logs(primes, w))
        stage(n, policy)
        assert table.builds == 1, (stage.__name__, n)
        assert asked[0] == max(asked), (stage.__name__, n)


def test_build_record_deterministic():
    r1 = sq.build_record(7)
    r2 = sq.build_record(7)
    assert r1.I_series.val == r2.I_series.val
    assert r1.I_series.err == r2.I_series.err
    assert r1.criterion.q.val == r2.criterion.q.val
    assert r1.log_s.val == r2.log_s.val
    assert r1.tail == r2.tail
    assert r1.precision_bits == r2.precision_bits
