"""overq: exact truncated q-series with congruence sweeps over bounded ranges.

The library computes overpartition counts, theta-function powers, and
sums-of-squares representation numbers r_k(n) by multiple independent routes,
and mechanically verifies a family of congruences relating them.  The names
below are the ones the README's Library section uses; everything else is
imported from its module (overq.arith, overq.checks, overq.squares, ...).
"""

from .checks import all_check_ids, run_checks
from .reporting import Budget
from .series import EXACT, NonInvertibleError, TruncatedSeries, mod_ring
from .squares import r4_formula, rk_series
from .theta import RouteMismatchError, euler_product, overpartition_gf, phi

__version__ = "0.1.0"
