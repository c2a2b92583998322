"""Asymptotic-law diagnostics: frozen small-n ratios, trend pairs,
Aitken extrapolation behaviour, and report structure."""

import math

import pytest

from gammalab import asymptotics as asy


def ratio(law, n):
    return asy.law_point(law, n).ratio


# --- frozen small-n values (hand-evaluated models) ---------------------------

def test_i_decay_small_values():
    r1 = asy.law_point("i_decay", 1)
    assert r1.ratio == pytest.approx(0.86261, abs=2e-5)
    assert r1.ratio > 0


def test_l_log_model_small_values():
    r = asy.law_point("l_log_model", 2)
    # L_2/C(4,2) = ln(12)/2 vs ln 3
    assert r.ratio == pytest.approx((math.log(12) / 2) / math.log(3), abs=1e-9)
    assert r.residual == pytest.approx(
        2 * (math.log(12) / 2 - math.log(3)), abs=1e-9)


def test_a_growth_small_values():
    assert ratio("a_growth", 2) == pytest.approx(1.02054, abs=1e-4)
    assert ratio("a_growth", 1) == pytest.approx(1.12731, abs=1e-4)


def test_l_growth_small_values():
    assert ratio("l_growth", 2) == pytest.approx(1.06306, abs=1e-4)


def test_central_binom_small_values():
    assert ratio("central_binom", 1) == pytest.approx(2 * math.sqrt(math.pi) / 4,
                                                      abs=1e-12)
    assert ratio("central_binom", 10) == pytest.approx(0.987583, abs=1e-5)


def test_lcm_growth_values():
    assert ratio("lcm_growth", 1) == pytest.approx(math.log(2) / 2, abs=1e-12)
    assert ratio("lcm_growth", 5) == pytest.approx(math.log(2520) / 10, abs=1e-12)


def test_mean_square_exact_values():
    # sum_j C(n,j)^2 (1/2 - j/n)^2 = 1/2 at n = 1 and n = 2
    assert ratio("mean_square", 1) == pytest.approx(2.0, abs=1e-12)
    assert ratio("mean_square", 2) == pytest.approx(4.0 / 3.0, abs=1e-12)


# --- trends -------------------------------------------------------------------

@pytest.mark.parametrize("law,lo,hi", [
    ("i_decay", 10, 40),
    ("l_log_model", 20, 200),
    ("a_growth", 50, 500),
    ("l_growth", 20, 200),
    ("central_binom", 10, 1000),
    ("mean_square", 40, 400),
])
def test_trend_pairs(law, lo, hi):
    assert abs(ratio(law, hi) - 1.0) < abs(ratio(law, lo) - 1.0)


def test_all_ratios_finite_positive():
    for law in asy.LAWS:
        for n in (1, 3, 17, 150, 1000):
            r = asy.law_point(law, n).ratio
            assert math.isfinite(r) and r > 0, (law, n)


def test_central_binom_increasing_below_one():
    prev = 0.0
    for n in range(1, 201):
        r = ratio("central_binom", n)
        assert prev < r < 1.0
        prev = r


def test_l_log_residual_bounded():
    # n (L_n/C(2n,n) - ln(3n/2)) stays bounded; measured max ~0.42 on
    # [20, 200], asserted against a generous frozen cap
    res = [asy.law_point("l_log_model", n).residual for n in range(20, 201, 20)]
    assert max(abs(x) for x in res) < 1.0
    assert all(math.isfinite(x) for x in res)


def test_ln_of_every_default_input_equals_mpmath(monkeypatch):
    # asym's logs, ln(3/2), ln(3n/2) and ln d_2n, are rounded correctly at
    # p + 10 bits, as mpmath's mpf_log rounds them
    from mpmath.libmp import from_int, from_rational, mpf_log

    from gammalab import mpnum as mn

    seen = []

    def recording(x, p):
        got = mn.b_ln(x, p)
        seen.append((x, p, got))
        return got

    monkeypatch.setattr(asy, "b_ln", recording)
    for law in asy.LAWS:
        asy.convergence_report(law)
    inputs = set()
    for x, p, got in seen:
        if isinstance(x[1], dict):
            assert x[0] == 1
            raw = from_int(math.prod(q ** a for q, a in x[1].items()))
        else:
            assert x[1] & (x[1] - 1) == 0  # dyadic, so exactly representable
            raw = from_rational(x[0], x[1], x[0].bit_length())
        assert got.val == mpf_log(raw, p + 10, "n"), x
        assert got.err == mn._fn_err(got.val, p)
        inputs.add(raw)
    # ln(3/2), four ln(3n/2) and six ln d_2n (d_2 = 2 and d_10 = 2520 appear
    # once each)
    assert len(inputs) == 11


def test_a_vs_l_models_differ_by_gamma_term():
    # the two envelope models differ only through the gamma inside the
    # bracket; their quotient trend is reported, not assumed
    n = 200
    ra = asy.law_point("a_growth", n)
    rl = asy.law_point("l_growth", n)
    q = float(ra.model) / float(rl.model)
    expected = (0.5772156649015329 + math.log(1.5) + math.log(n)) / (
        math.log(1.5) + math.log(n))
    assert q == pytest.approx(expected, rel=1e-9)


# --- aitken ---------------------------------------------------------------------

def test_aitken_constant_series_flagged():
    lim, degenerate = asy.aitken_limit([2.0, 2.0, 2.0])
    assert lim == 2.0 and degenerate


def test_aitken_geometric_series():
    vals = [1 + 2.0 ** -k for k in range(1, 6)]
    lim, degenerate = asy.aitken_limit(vals)
    assert not degenerate
    assert lim == pytest.approx(1.0, abs=1e-12)


def test_aitken_overflow_flagged():
    # d2^2 overflows, so the extrapolated limit is not finite
    lim, degenerate = asy.aitken_limit([0.0, 1e200, 2.0000000000001e200])
    assert lim == 2.0000000000001e200 and degenerate


def test_aitken_needs_three_points():
    with pytest.raises(ValueError):
        asy.aitken_limit([1.0, 2.0])


def test_aitken_improves_i_decay():
    rep = asy.convergence_report("i_decay", (5, 10, 20, 40))
    assert not rep.aitken_degenerate
    assert abs(rep.aitken - 1.0) < abs(rep.rows[-1].ratio - 1.0)


# --- report structure -------------------------------------------------------------

def test_report_structure_and_flags():
    rep = asy.convergence_report("lcm_growth", (1, 5, 10))
    assert rep.report_only
    assert [r.n for r in rep.rows] == [1, 5, 10]
    rep2 = asy.convergence_report("central_binom")
    assert not rep2.report_only
    assert rep2.improving
    # one row: nothing to compare or extrapolate, so its ratio stands
    rep3 = asy.convergence_report("lcm_growth", (5,))
    assert rep3.improving and rep3.aitken_degenerate
    assert rep3.aitken == rep3.rows[0].ratio


def test_report_rejects_unknown_or_empty():
    with pytest.raises(KeyError):
        asy.convergence_report("nope", (1, 2, 3))
    with pytest.raises(ValueError):
        asy.convergence_report("i_decay", ())
