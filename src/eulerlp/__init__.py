"""Exact Euler numbers and polynomials, Dirichlet characters with p-adic
values, the p-adic l-function at integer arguments, and verification of the
congruence expanding alternating harmonic sums as p-adic series."""

from .characters import DirichletCharacter, teichmuller_power
from .euler import (
    alternating_power_sum,
    alternating_power_sum_closed,
    euler_number,
    euler_numbers,
    euler_polynomial,
    euler_polynomial_value,
)
from .harness import (
    GridConfig,
    alt_harmonic_sum,
    distribution_report,
    interpolation_check,
    kummer_check,
    main_congruence_series,
    run_grid,
    series_closed_check,
    verify_main_congruence,
)
from .lfunctions import (
    generalized_euler_number,
    padic_l,
    padic_partial_zeta,
    padic_partial_zeta_at_neg,
)
from .padic import (
    PadicContext,
    PadicNumber,
    binomial,
    teichmuller,
)
from .reports import (
    CongruenceReport,
    reports_to_csv,
    reports_to_jsonl,
)

__version__ = "0.1.0"

__all__ = [
    "CongruenceReport",
    "DirichletCharacter",
    "GridConfig",
    "PadicContext",
    "PadicNumber",
    "alt_harmonic_sum",
    "alternating_power_sum",
    "alternating_power_sum_closed",
    "binomial",
    "distribution_report",
    "euler_number",
    "euler_numbers",
    "euler_polynomial",
    "euler_polynomial_value",
    "generalized_euler_number",
    "interpolation_check",
    "kummer_check",
    "main_congruence_series",
    "padic_l",
    "padic_partial_zeta",
    "padic_partial_zeta_at_neg",
    "reports_to_csv",
    "reports_to_jsonl",
    "run_grid",
    "series_closed_check",
    "teichmuller",
    "teichmuller_power",
    "verify_main_congruence",
]
