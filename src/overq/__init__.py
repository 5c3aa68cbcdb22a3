"""overq: exact truncated q-series with congruence sweeps over bounded ranges.

The library computes overpartition counts, theta-function powers, and
sums-of-squares representation numbers r_k(n) by multiple independent routes,
and mechanically verifies a family of congruences relating them.
"""

from .arith import (
    Factorization,
    divisors,
    divisors_filtered,
    factor,
    is_prime,
    is_square,
    is_twice_square,
    legendre,
    primes_up_to,
    valuation,
)
from .checks import (
    SeriesBank,
    all_check_ids,
    coverage_manifest,
    iter_check_reports,
    run_checks,
)
from .reporting import Budget, CheckReport, summary_counts
from .series import EXACT, NonInvertibleError, RingSpec, TruncatedSeries, mod_ring
from .squares import (
    RkMethod,
    RkRequest,
    r3_recursion,
    r4_formula,
    r5_recursion,
    r8_formula,
    rk_bruteforce,
    rk_recursion_route,
    rk_series,
)
from .theta import (
    RouteMismatchError,
    build_named_series,
    euler_product,
    overpartition_gf,
    p4n3_product_form,
    phi,
)

__version__ = "0.1.0"
