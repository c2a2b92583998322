"""Per-n quantity tests: cross-method agreement, series-vs-quadrature
oracles, criterion probes, and record determinism."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
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
        w = exact.scaled_residue_weights(n)
        assert [-w[n - j] for j in range(n + 1)] == w


def test_log_S_exponents_small():
    assert sq.log_S_exponents(1) == [4]          # S_1 = 2^4
    assert sq.log_S_exponents(2) == [36, 36]     # S_2 = 12^36


def test_log_S_value_small():
    p = 160
    ls1 = sq.log_S(1, p)
    assert abs(frac(ls1) - 4 * oracles.ln2_oracle(200)) < Fraction(1, 2 ** 140)
    ls2 = sq.log_S(2, p)
    assert abs(frac(ls2) - 36 * oracles.ln_oracle(Fraction(12), 220)) \
        < Fraction(1, 2 ** 130)


@given(st.integers(1, 100))
@settings(max_examples=30, deadline=None)
def test_log_S_exponent_integrality(n):
    d2 = 2 * exact.lcm_upto(2 * n)
    for j in range(1, n + 1):
        assert d2 % j == 0
    expo = sq.log_S_exponents(n)
    assert all(isinstance(e, int) and e > 0 for e in expo)


def test_log_S_exponents_past_str_digit_limit():
    # d_10000 has about 4,340 digits, past str()'s default 4,300-digit limit
    n = 5000
    expo = sq.log_S_exponents(n)
    assert len(expo) == n and expo == expo[::-1]
    assert expo[0] == sum(2 * exact.lcm_upto(2 * n) // j for j in range(1, n + 1))


def test_prime_vectors_small():
    assert sq.L_vector(1) == {2: 2}              # L_1 = 2 ln 2
    assert sq.L_vector(2) == {2: 6, 3: 3}        # L_2 = 3 ln 12
    assert sq.log_S_vector(1) == {2: 4}          # S_1 = 2^4
    assert sq.log_S_vector(2) == {2: 72, 3: 36}  # S_2 = 12^36


def test_L_identity_exact():
    for n in range(1, 41):
        sq.check_L_identity(n)


def test_L_identity_violation_raises(monkeypatch):
    real = sq.L_vector

    def corrupted(n):
        vec = dict(real(n))
        vec[2] += Fraction(1, 3)
        return vec

    monkeypatch.setattr(sq, "L_vector", corrupted)
    with pytest.raises(exact.IdentityViolation):
        sq.check_L_identity(4)
    with pytest.raises(exact.IdentityViolation):
        sq.build_record(4)


@given(st.integers(1, 30))
@settings(max_examples=30, deadline=None)
def test_L_cross_method(n):
    rel, ok = sq.L_consistency(n, 224)
    assert ok
    assert float(rel.mpf) < 1e-40


# --- I_n ----------------------------------------------------------------------

def test_series_term_quadrature_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.prec = 220
    for n, v in [(1, 2), (1, 9), (2, 3), (4, 6)]:
        term = sq.series_term(n, v, 192)
        quad = mpmath.quad(
            lambda x: (mpmath.factorial(n) / mpmath.rf(x, n + 1)) ** 2,
            [v, mpmath.inf])
        assert abs(mpmath.mpf(term.mpf) - quad) < mpmath.mpf(10) ** -25


def test_series_partial_sum_oracle():
    # folded main sum == direct term-by-term sum (exact bookkeeping)
    n, V, p = 3, 40, 192
    acc = sq.series_term(n, n + 1, p)
    for v in range(n + 2, V + 1):
        acc = mn.b_add(acc, sq.series_term(n, v, p), p)
    cs = exact.scaled_square_weights(n)
    asw = exact.scaled_residue_weights(n)
    folded_rat = sum(
        (cs[k] * (exact.harmonic(V + k) - exact.harmonic(n + k))
         for k in range(n + 1)), Fraction(0))
    folded = Bounded.from_fraction(folded_rat, p)
    for k in range(n + 1):
        if asw[k] == 0:
            continue
        dlf = mn.b_sub(mn.log_factorial(V + k, p), mn.log_factorial(n + k, p), p)
        folded = mn.b_sub(folded, mn.b_mul(Bounded.from_fraction(asw[k], p), dlf, p), p)
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
            assert kern.em_corr(a, K) == oracles.em_corr(a, K, asw, cs), (n, a, K)
            assert Fraction(*kern.em_remainder(a, K)) \
                == oracles.em_remainder(a, K, asw, cs), (n, a, K)


@given(st.integers(0, 80), st.sampled_from(sq._EM_PADS), st.integers(1, 32))
@settings(max_examples=25, deadline=None)
def test_em_kernel_equals_fraction_oracle_property(n, pad, K):
    asw, cs = _weights(n)
    kern = _kernel(n)
    a = n + pad + 1
    assert kern.em_corr(a, K) == oracles.em_corr(a, K, asw, cs)
    assert Fraction(*kern.em_remainder(a, K)) == oracles.em_remainder(a, K, asw, cs)


def _oracle_cutoff(n, eps):
    asw, cs = _weights(n)
    for pad in sq._EM_PADS:
        for K in sq._EM_TERMS:
            rem = oracles.em_remainder(n + pad + 1, K, asw, cs)
            if rem <= eps / 4:
                return n + pad, K, rem
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


class _OracleKernel(sq._EMKernel):
    """The kernel's interface, answered by the per-term Fraction formulas."""

    def __init__(self, den, num, cs):
        super().__init__(den, num, cs)
        self.asw = [Fraction(a, den) for a in num]

    def em_remainder(self, a, K):
        rem = oracles.em_remainder(a, K, self.asw, self.cs)
        return rem.numerator, rem.denominator

    def em_corr(self, a, K):
        return oracles.em_corr(a, K, self.asw, self.cs)


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
    assert abs(float(cp1.q.mpf) - 6.180710) < 1e-5
    cp2 = sq.criterion_point(2)
    assert cp2.frac.decimal(7).startswith("0.456639")
    assert abs(float(cp2.q.mpf) - 19.48328) < 1e-4
    # distances are certified and coherent
    assert float(cp2.dist_zero.mpf) == pytest.approx(float(cp2.q.mpf))
    thr = sq.sondow_threshold(192)
    assert abs(float(cp2.dist_threshold.mpf)
               - abs(float(cp2.q.mpf) - float(thr.mpf))) < 1e-9


@given(st.integers(1, 40))
@settings(max_examples=15, deadline=None)
def test_criterion_reproducible_across_precision(n):
    cp = sq.criterion_point(n, 64)
    pol2 = PrecisionPolicy(base_bits=2 * cp.precision_bits)
    cp2 = sq.criterion_point(n, 64, pol2)
    assert cp2.precision_bits >= 2 * cp.precision_bits
    assert abs(frac(cp.frac) - frac(cp2.frac)) < Fraction(1, 2 ** 56)
    assert cp.log_s_floor == cp2.log_s_floor


def test_criterion_escalation_ceiling():
    pol = PrecisionPolicy(base_bits=64, max_bits=128)
    with pytest.raises(mn.PrecisionExhausted):
        sq.criterion_point(12, 512, pol)


# --- tail probe --------------------------------------------------------------------

def test_tail_probe_closed_form_n1():
    for r in (10, 1000, 10 ** 6):
        got = sq.tail_probe(1, r, 128)
        ref = oracles.ln_oracle(Fraction(1 + r, 2 + r), 180)
        assert abs(frac(got) - ref) < Fraction(1, 2 ** 100)
    vals = [abs(float(sq.tail_probe(1, r, 128).mpf)) for r in (10, 10 ** 3, 10 ** 6)]
    assert vals[2] < vals[1] < vals[0]


def test_tail_probe_decay_grid():
    for n in (1, 2, 3, 5):
        mags = [abs(float(sq.tail_probe(n, r, 128).mpf))
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
    assert 0 <= frac(rec.frac_log_s) < 1
    assert abs(float(rec.I_series.mpf) - 0.0013472721) < 1e-9
    assert abs(float(rec.L_logfact.mpf) - 7.4547199494) < 1e-9


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

    for name in ("L_vector", "log_S_vector"):
        monkeypatch.setattr(sq, name, counted(name))
    real_a = exact.A_exact

    def counted_a(n):
        calls.append(("A_exact", n))
        return real_a(n)

    monkeypatch.setattr(exact, "A_exact", counted_a)
    rec = sq.build_record(3)
    assert calls == [("A_exact", 3), ("L_vector", 3), ("log_S_vector", 3)]
    p = rec.precision_bits
    direct = sq.I_closed_form(3, p)
    assert (rec.I_closed.val, rec.I_closed.err) == (direct.val, direct.err)


def test_build_record_deterministic():
    r1 = sq.build_record(7)
    r2 = sq.build_record(7)
    assert r1.I_series.val == r2.I_series.val
    assert r1.I_series.err == r2.I_series.err
    assert r1.q.val == r2.q.val
    assert r1.log_s.val == r2.log_s.val
    assert r1.tail == r2.tail
    assert r1.precision_bits == r2.precision_bits
