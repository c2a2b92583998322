"""Convergence diagnostics for the asymptotic laws of the decomposition.

Every law is evaluated as a ratio-to-model series over an n-range.
Asymptotic "~" claims carry no error constants, so nothing here asserts
a tolerance at a fixed n; the reports record two-point trends
(|ratio - 1| shrinking from the low end of the scan to the high end) and
an Aitken delta-squared extrapolation of the ratio column.  The prime
number theorem law (lcm growth) converges too slowly for even a trend
assertion and is emitted report-only.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from . import exact, mpnum
from .mpnum import (
    Bounded,
    PrecisionPolicy,
    b_add,
    b_div,
    b_ln,
    b_mul_int,
    b_sqrt,
    b_sub,
    euler_gamma,
    ln_int,
    pi_const,
)
from .sequences import A_approx, I_series, L_from_factorial_logs, sondow_threshold

__all__ = [
    "LawRow",
    "ConvergenceReport",
    "LAWS",
    "law_point",
    "convergence_report",
    "aitken_limit",
]

# model constants are evaluated far beyond their ~1e-2 .. 1e-3 asymptotic
# error, so model rounding never pollutes a ratio
_MODEL_BITS = 160

# A_n switches from the exact rational to the floating evaluation here
_A_EXACT_MAX = 300


class LawRow(NamedTuple):
    n: int
    measured: Bounded
    model: Bounded
    ratio: float
    residual: float


class ConvergenceReport(NamedTuple):
    law: str
    description: str
    report_only: bool
    rows: Tuple[LawRow, ...]
    improving: bool
    aitken: float
    aitken_degenerate: bool


def _gauss_envelope(n: int, with_gamma: bool, p: int) -> Bounded:
    # 4^n / sqrt(pi n) * ([gamma] + ln(3/2) + ln n)
    bracket = b_ln((3, 2), p)
    bracket = b_add(bracket, ln_int(n, p), p)
    if with_gamma:
        bracket = b_add(bracket, euler_gamma(p), p)
    denom = b_sqrt(b_mul_int(pi_const(p), n, p), p)
    return b_div(b_mul_int(bracket, 4 ** n, p), denom, p)


def _ratio_row(n: int, measured: Bounded, model: Bounded, p: int) -> LawRow:
    ratio = float(b_div(measured, model, p))
    return LawRow(n, measured, model, ratio, ratio - 1.0)


def _point_i_decay(n: int, p: int, policy: PrecisionPolicy) -> LawRow:
    # I_n * n * 16^n against pi/(6 ln 2); eps only needs scan accuracy
    i_val, _ = I_series(n, Fraction(1, n << (4 * n + 64)), policy)
    measured = b_mul_int(i_val, n * 16 ** n, p)
    return _ratio_row(n, measured, sondow_threshold(p), p)


def _point_l_log(n: int, p: int, policy: PrecisionPolicy) -> LawRow:
    l = L_from_factorial_logs(n, p)
    c = math.comb(2 * n, n)
    ln_model = b_ln((3 * n, 2), p)
    model = b_mul_int(ln_model, c, p)
    ratio = float(b_div(l, model, p))
    per_binom = b_div(l, Bounded.exact_int(c), p)
    residual = float(b_mul_int(b_sub(per_binom, ln_model, p), n, p))
    return LawRow(n, l, model, ratio, residual)


def _point_a_growth(n: int, p: int, policy: PrecisionPolicy) -> LawRow:
    a = (Bounded.from_fraction(exact.A_exact(n), p) if n <= _A_EXACT_MAX
         else A_approx(n, p))
    return _ratio_row(n, a, _gauss_envelope(n, True, p), p)


def _point_l_growth(n: int, p: int, policy: PrecisionPolicy) -> LawRow:
    return _ratio_row(n, L_from_factorial_logs(n, p),
                      _gauss_envelope(n, False, p), p)


def _point_central_binom(n: int, p: int, policy: PrecisionPolicy) -> LawRow:
    model = b_div(Bounded.exact_int(4 ** n),
                  b_sqrt(b_mul_int(pi_const(p), n, p), p), p)
    return _ratio_row(n, Bounded.exact_int(math.comb(2 * n, n)), model, p)


def _point_lcm_growth(n: int, p: int, policy: PrecisionPolicy) -> LawRow:
    # ln d_m = sum_{q <= m} floor(log_q m) ln q, without factoring d_m
    m = 2 * n
    vec = dict.fromkeys(mpnum._TABLE.primes_upto(m), 1)
    for q in mpnum._TABLE.primes_upto(math.isqrt(m)):
        vec[q] = max(e for e in range(2, m.bit_length()) if q ** e <= m)
    return _ratio_row(n, b_ln((1, vec), p), Bounded.exact_int(m), p)


def _point_mean_square(n: int, p: int, policy: PrecisionPolicy) -> LawRow:
    # 8n * sum_j C(n,j)^2 (1/2 - j/n)^2 against C(2n,n), all exact
    s = sum(
        (exact.binomial(n, j) ** 2 * (Fraction(1, 2) - Fraction(j, n)) ** 2
         for j in range(n + 1)),
        Fraction(0),
    )
    measured_q = 8 * n * s
    c = math.comb(2 * n, n)
    ratio = float(Fraction(measured_q, c))
    return LawRow(n, Bounded.from_fraction(measured_q, p),
                  Bounded.exact_int(c), ratio, ratio - 1.0)


class _Law(NamedTuple):
    point: Callable[[int, int, PrecisionPolicy], LawRow]
    description: str
    default_ns: Tuple[int, ...]
    report_only: bool = False


LAWS: Dict[str, _Law] = {
    "i_decay": _Law(
        _point_i_decay,
        "I_n * n * 16^n -> pi/(6 ln 2)",
        (5, 10, 20, 40),
    ),
    "l_log_model": _Law(
        _point_l_log,
        "L_n / C(2n,n) -> ln(3n/2) with O(1/n) residual",
        (20, 50, 100, 200),
    ),
    "a_growth": _Law(
        _point_a_growth,
        "A_n -> 4^n/sqrt(pi n) (gamma + ln(3/2) + ln n)",
        (50, 100, 200, 500),
    ),
    "l_growth": _Law(
        _point_l_growth,
        "L_n -> 4^n/sqrt(pi n) (ln(3/2) + ln n)",
        (20, 50, 100, 200),
    ),
    "central_binom": _Law(
        _point_central_binom,
        "C(2n,n) sqrt(pi n) / 4^n -> 1 from below",
        (10, 100, 1000),
    ),
    "lcm_growth": _Law(
        _point_lcm_growth,
        "ln(d_2n)/(2n) -> 1 (prime number theorem; no tolerance)",
        (1, 5, 10, 50, 100, 500),
        report_only=True,
    ),
    "mean_square": _Law(
        _point_mean_square,
        "8n sum C(n,j)^2 (1/2 - j/n)^2 / C(2n,n) -> 1",
        (40, 100, 200, 400),
    ),
}


def law_point(law: str, n: int,
              policy: PrecisionPolicy = PrecisionPolicy()) -> LawRow:
    return LAWS[law].point(n, _MODEL_BITS, policy)


def aitken_limit(values: Sequence[float]) -> Tuple[float, bool]:
    """Delta-squared extrapolation of the final triple.

    Degenerate second differences (constant or stalled series) return the
    last raw value, flagged.
    """
    xs = list(values)
    if len(xs) < 3:
        raise ValueError("aitken needs at least 3 points")
    x0, x1, x2 = xs[-3:]
    d1 = x1 - x0
    d2 = x2 - x1
    dd = d2 - d1
    if dd == 0.0 or not math.isfinite(dd):
        return x2, True
    limit = x2 - d2 * d2 / dd
    if not math.isfinite(limit):
        return x2, True
    return limit, False


def convergence_report(law: str, ns: Optional[Sequence[int]] = None,
                       policy: PrecisionPolicy = PrecisionPolicy()) -> ConvergenceReport:
    law_def = LAWS[law]
    ns = tuple(sorted(set(law_def.default_ns if ns is None else ns)))
    if not ns:
        raise ValueError("empty n list")
    rows = tuple(law_def.point(n, _MODEL_BITS, policy) for n in ns)
    if len(rows) >= 2:
        improving = abs(rows[-1].ratio - 1.0) < abs(rows[0].ratio - 1.0)
    else:
        improving = True
    if len(rows) >= 3:
        aitken, degenerate = aitken_limit([r.ratio for r in rows])
    else:
        aitken, degenerate = rows[-1].ratio, True
    return ConvergenceReport(
        law=law,
        description=law_def.description,
        report_only=law_def.report_only,
        rows=rows,
        improving=improving,
        aitken=aitken,
        aitken_degenerate=degenerate,
    )
