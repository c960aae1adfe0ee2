"""rescert: executable resonance certificates for Dirichlet polynomials.

For a normalized length-N Dirichlet polynomial with unimodular completely
multiplicative coefficients, the package constructs a resonator, evaluates
the two windowed moments whose ratio lower-bounds sup |D_N| over |t| <= T,
and cross-checks the certified bound against direct grid search.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .bump import Bump, default_bump, decay_constant
from .dirichlet import SearchResult, eval_DN, eval_R, grid_sup, resonance_guided_search
from .errors import QuadratureError, ResourceLimitError
from .moments import (
    MomentReport,
    alpha_shift_error_term,
    balanced_pair_bound_check,
    diagonal_sum,
    growth_bound_from_n,
    growth_bound_from_t,
    m1_exact,
    m1_quadrature,
    m2_exact,
    m2_quadrature,
    min_offdiag_gap,
    moment_main_term,
    ratio_and_bounds,
    tail_truncation_check,
)
from .multfn import (
    UnimodularCMF,
    archimedean_cmf,
    constant_one,
    steinhaus_sample,
    values_up_to,
)
from .ntcore import FactorTable, build_factor_table, factorize, primes_in
from .oracle import (
    ToyResonator,
    diagonal_sum_bruteforce,
    m2_bruteforce_quadrature,
    parametrization_bijection_check,
    random_toy_resonator,
)
from .resonator import (
    Resonator,
    SupportElement,
    build_resonator,
    degenerate_resonator,
    euler_product_one_plus_r2,
    r_value,
    sum_r_squared,
    support_elements,
    window_bounds,
)

__all__ = [
    "__version__",
    "Bump",
    "default_bump",
    "decay_constant",
    "SearchResult",
    "eval_DN",
    "eval_R",
    "grid_sup",
    "resonance_guided_search",
    "QuadratureError",
    "ResourceLimitError",
    "MomentReport",
    "alpha_shift_error_term",
    "balanced_pair_bound_check",
    "diagonal_sum",
    "growth_bound_from_n",
    "growth_bound_from_t",
    "m1_exact",
    "m1_quadrature",
    "m2_exact",
    "m2_quadrature",
    "min_offdiag_gap",
    "moment_main_term",
    "ratio_and_bounds",
    "tail_truncation_check",
    "UnimodularCMF",
    "archimedean_cmf",
    "constant_one",
    "steinhaus_sample",
    "values_up_to",
    "FactorTable",
    "build_factor_table",
    "factorize",
    "primes_in",
    "ToyResonator",
    "diagonal_sum_bruteforce",
    "m2_bruteforce_quadrature",
    "parametrization_bijection_check",
    "random_toy_resonator",
    "Resonator",
    "SupportElement",
    "build_resonator",
    "degenerate_resonator",
    "euler_product_one_plus_r2",
    "r_value",
    "sum_r_squared",
    "support_elements",
    "window_bounds",
]
