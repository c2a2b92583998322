"""gammalab: exact and certified-precision workbench for the Sondow
decomposition I_n = C(2n,n) gamma + L_n - A_n of Euler's constant."""

__version__ = "0.1.0"

from .exact import (
    A_exact,
    IdentityViolation,
    bernoulli,
    binomial,
    factorial,
    harmonic,
    integrality_witness,
    lcm_upto,
    partial_fraction_coeffs,
    partial_fraction_residual,
    stirling1_row,
    tail_log_coefficient,
    tail_log_coefficient_reduced,
)
from .mpnum import (
    Bounded,
    PrecisionExhausted,
    PrecisionInsufficient,
    PrecisionPolicy,
    euler_gamma,
    frac_part_certified,
)
from .sequences import (
    CriterionPoint,
    SeqRecord,
    I_closed_form,
    I_series,
    L_from_factorial_logs,
    build_record,
    criterion_point,
    gamma_roundtrip,
    sondow_threshold,
)

# asymptotics is imported on first use of one of its names, so that the
# row and gamma subcommands never load it
_ASYMPTOTICS_NAMES = ("LAWS", "aitken_limit", "convergence_report")


def __getattr__(name):
    if name in _ASYMPTOTICS_NAMES:
        from . import asymptotics

        return getattr(asymptotics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "A_exact",
    "IdentityViolation",
    "bernoulli",
    "binomial",
    "factorial",
    "harmonic",
    "integrality_witness",
    "lcm_upto",
    "partial_fraction_coeffs",
    "partial_fraction_residual",
    "stirling1_row",
    "tail_log_coefficient",
    "tail_log_coefficient_reduced",
    "Bounded",
    "PrecisionExhausted",
    "PrecisionInsufficient",
    "PrecisionPolicy",
    "euler_gamma",
    "frac_part_certified",
    "CriterionPoint",
    "SeqRecord",
    "I_closed_form",
    "I_series",
    "L_from_factorial_logs",
    "build_record",
    "criterion_point",
    "gamma_roundtrip",
    "sondow_threshold",
    "LAWS",
    "aitken_limit",
    "convergence_report",
]
