"""Exact Euler numbers and polynomials, Dirichlet characters with p-adic
values, the p-adic l-function at integer arguments, and verification of the
congruence expanding alternating harmonic sums as p-adic series."""

from .characters import (
    DirichletCharacter,
    legendre_like,
    teichmuller_power,
    trivial_character,
)
from .euler import (
    EulerPolynomial,
    alternating_power_sum,
    alternating_power_sum_closed,
    euler_number,
    euler_numbers,
    euler_polynomial,
    euler_polynomial_value,
    partial_zeta_neg,
)
from .harness import (
    GridConfig,
    alt_harmonic_sum,
    binomial_product_report,
    binomial_ratio_report,
    distribution_report,
    main_congruence_series,
    power_sum_report,
    run_grid,
    verify_main_congruence,
)
from .lfunctions import (
    TruncationPlan,
    generalized_euler_number,
    interpolation_check,
    kummer_check,
    padic_l,
    padic_partial_zeta,
    padic_partial_zeta_at_neg,
    series_closed_check,
)
from .padic import (
    PadicContext,
    PadicNumber,
    angle,
    binomial,
    is_prime,
    teichmuller,
)
from .reports import (
    CongruenceReport,
    format_rational,
    reports_to_csv,
    reports_to_jsonl,
)

__version__ = "0.1.0"

__all__ = [
    "CongruenceReport",
    "DirichletCharacter",
    "EulerPolynomial",
    "GridConfig",
    "PadicContext",
    "PadicNumber",
    "TruncationPlan",
    "alt_harmonic_sum",
    "alternating_power_sum",
    "alternating_power_sum_closed",
    "angle",
    "binomial",
    "binomial_product_report",
    "binomial_ratio_report",
    "distribution_report",
    "euler_number",
    "euler_numbers",
    "euler_polynomial",
    "euler_polynomial_value",
    "format_rational",
    "generalized_euler_number",
    "interpolation_check",
    "is_prime",
    "kummer_check",
    "legendre_like",
    "main_congruence_series",
    "padic_l",
    "padic_partial_zeta",
    "padic_partial_zeta_at_neg",
    "partial_zeta_neg",
    "power_sum_report",
    "reports_to_csv",
    "reports_to_jsonl",
    "run_grid",
    "series_closed_check",
    "teichmuller",
    "teichmuller_power",
    "trivial_character",
    "verify_main_congruence",
]
