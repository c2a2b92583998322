"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Tolerances are frozen here, not tuned at runtime.
"""

import time
from fractions import Fraction

import oracles
from gammalab import asymptotics as asy
from gammalab import cli, exact
from gammalab import mpnum as mn
from gammalab import sequences as sq
from gammalab import verify as vf
from gammalab.mpnum import Bounded, PrecisionPolicy


def _report(num, text):
    print(f"[acceptance] criterion {num:02d} PASS: {text}")


def test_criterion_01_exact_zero_sum_identities():
    t0 = time.perf_counter()
    for n in range(1, 201):
        assert exact.tail_log_coefficient(n) == 0, n
        assert exact.tail_log_coefficient_reduced(n) == 0, n
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0
    _report(1, f"both zero-sum identities exact for n <= 200 in {elapsed:.1f}s")


def test_criterion_02_partial_fraction_decomposition():
    for n in range(1, 51):
        for x in vf.random_rational_points(n, 5, seed=0):
            assert exact.partial_fraction_residual(n, x) == 0, (n, x)
    for n in range(0, 61):
        c = exact.partial_fraction_coeffs(n)
        assert sum(c.a, Fraction(0)) == 0
        for k in range(n + 1):
            assert c.a[n - k] == -c.a[k]
            assert c.b[n - k] == c.b[k]
    _report(2, "decomposition exact at 5 seeded points for n <= 50; "
               "symmetry and zero residue sum for n <= 60")


def test_criterion_03_stirling_identities():
    for m in range(0, 201):
        assert exact.stirling_low_order_residuals(m) == (0, 0, 0), m
        assert sum(exact.stirling1_row(m)) == exact.factorial(m), m
    _report(3, "low-order Stirling residuals (0,0,0) and row sums m! "
               "for m <= 200")


def test_criterion_04_integrality():
    for n in range(1, 201):
        exact.integrality_witness(n)  # raises on a non-integer product
    _report(4, "d_2n * A_n an exact integer for n <= 200")


def test_criterion_05_L_cross_method():
    p = 224
    for n in range(1, 31):
        l1 = sq.L_from_factorial_logs(n, p)
        # the power-product route as build_record reads it
        d2n = exact.lcm_upto(2 * n)
        l2 = mn.b_div(mn._prime_dot(sq._log_S_vector(n), p, d2n),
                      Bounded.exact_int(d2n), p)
        assert mn.agrees(l1, l2), n
    # symbolic anchors to >= 30 decimal digits
    tol = Fraction(1, 10 ** 30)
    l1 = sq.L_from_factorial_logs(1, p)
    ref1 = mn.b_mul_int(mn.ln2_const(p), 2, p)
    assert abs(l1.value_fraction() - ref1.value_fraction()) < tol
    l2 = sq.L_from_factorial_logs(2, p)
    ref2 = mn.b_mul_int(mn.ln_int(12, p), 3, p)
    assert abs(l2.value_fraction() - ref2.value_fraction()) < tol
    _report(5, "both L_n routes agree within certified budgets for n <= 30; "
               "2 ln 2 and 3 ln 12 reproduced to 30 digits")


def test_criterion_06_I_cross_method():
    for n in range(1, 21):
        p = sq.closed_form_floor(n) + 160
        ic = sq.I_closed_form(n, p, sq.L_from_factorial_logs(n, p), exact.A_exact(n))
        iser, _ = sq.I_series(n)
        assert mn.agrees(ic, iser), n
    p = 256
    i1, _ = sq.I_series(1)
    closed = mn.b_sub(
        mn.b_add(mn.b_mul_int(mn.euler_gamma(p), 2, p),
                 mn.b_mul_int(mn.ln2_const(p), 2, p), p),
        Bounded.from_fraction(Fraction(5, 2), p), p)
    diff = abs(i1.value_fraction() - closed.value_fraction())
    assert diff < Fraction(1, 10 ** 30)
    assert diff < abs(closed.value_fraction()) * Fraction(1, 10 ** 30)
    _report(6, "closed form and series agree within budgets for n <= 20; "
               "I_1 = 2 gamma + 2 ln 2 - 5/2 reproduced to 30+ digits")


def test_criterion_07_gamma_roundtrip():
    est = sq.gamma_roundtrip(20, 512)
    ref = mn.euler_gamma(512)
    diff = abs(est.value_fraction() - ref.value_fraction())
    assert diff < Fraction(1, 10 ** 30)
    ref, _ = oracles.em_gamma(192)
    bits = oracles.agreeing_bits(mn.euler_gamma(192).value_fraction(), ref, 192 + 64)
    assert bits >= 120
    _report(7, f"(I_20 + A_20 - L_20)/C(40,20) hits gamma to 30+ digits; "
               f"Euler-Maclaurin oracle agrees to {bits} bits at p=192")


def test_criterion_08_I_decay_trend():
    r10 = asy.law_point("i_decay", 10).ratio
    r40 = asy.law_point("i_decay", 40).ratio
    assert abs(r40 - 1.0) < abs(r10 - 1.0)
    assert abs(r40 - 1.0) <= 0.1  # frozen; measured ~0.0059
    _report(8, f"I decay ratio: |r(40)-1| = {abs(r40-1):.4f} < "
               f"|r(10)-1| = {abs(r10-1):.4f}, within 0.1")


def test_criterion_09_asymptotic_trends():
    pairs = {
        "a_growth": (50, 500),
        "l_log_model": (20, 200),
        "l_growth": (20, 200),
        "mean_square": (40, 400),
        "central_binom": (10, 1000),
    }
    for law, (lo, hi) in pairs.items():
        rl = asy.law_point(law, lo).ratio
        rh = asy.law_point(law, hi).ratio
        assert abs(rh - 1.0) < abs(rl - 1.0), law
    # the central-binomial correction approaches 1 strictly from below
    prev = 0.0
    for n in range(1, 1001):
        r = asy.law_point("central_binom", n).ratio
        assert prev < r < 1.0, n
        prev = r
    # prime-number-theorem law is emitted report-only, no tolerance
    rep = asy.convergence_report("lcm_growth")
    assert rep.report_only
    _report(9, "all ratio trends improve toward 1 at the high end; "
               "lcm growth emitted report-only")


def test_criterion_10_criterion_probe():
    worst = None
    for n in range(1, 61):
        mult = (16 ** n) * n // exact.lcm_upto(2 * n)
        frac_bits = 48 + max(0, mult.bit_length())
        pol = PrecisionPolicy(frac_bits=frac_bits)
        cp = sq.criterion_point(n, pol)  # raises on straddle
        pol2 = PrecisionPolicy(base_bits=2 * cp.precision_bits,
                               frac_bits=frac_bits, max_bits=1 << 18)
        cp2 = sq.criterion_point(n, pol2)
        dq = abs(cp.q.value_fraction() - cp2.q.value_fraction())
        assert dq <= Fraction(1, 2 ** 32), n
        assert cp.dist_zero.value_fraction() >= 0
        assert cp.dist_threshold.value_fraction() >= 0
        if worst is None or dq > worst:
            worst = dq
    bits = 999 if worst == 0 else -(worst.numerator.bit_length()
                                    - worst.denominator.bit_length())
    _report(10, f"Q_n certified for n <= 60, no straddles; p vs 2p "
                f"agreement >= {bits} fractional bits (>= 32 required); "
                f"distances to 0 and pi/(6 ln 2) reported, neither asserted")


def test_criterion_11_determinism(tmp_path):
    a = tmp_path / "run1.csv"
    b = tmp_path / "run2.csv"
    args = ["table", "--n", "1..10", "--jobs", "1"]
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    _report(11, "table over n = 1..10 twice: byte-identical data files")
