"""Named q-series: theta function phi(q), Euler products, overpartition counts.

phi(q) = 1 + 2q + 2q^4 + 2q^9 + ... has coefficient 2 at every positive square.
(q;q)_inf and (-q;q)_inf are the products of (1 - q^k) resp. (1 + q^k) over
k >= 1.  (q;q)_inf is written down from Euler's pentagonal number theorem,
E(q) = sum_k (-1)^k q^(k(3k-1)/2) over all integers k, and
(-q;q)_inf = (q^2;q^2)_inf / (q;q)_inf = E(q^2) / E(q) is one sparse division.

The overpartition generating function is built by two routes that are always
compared, turning their agreement into an integrity check that runs on every
call: the sparse inversion 1/phi(-q), and the quotient (-q;q)_inf / (q;q)_inf =
E(q^2) / E(q)^2.  The routes share no intermediate series; they agree only
through Gauss's identity phi(-q) = E(q)^2 / E(q^2).

p4n3_product_form builds 8 * (q^2;q^2) * (q^4;q^4)^6 / (q;q)^8, which expands
to sum_{n>=0} pbar(4n+3) q^n, where pbar counts overpartitions.
"""

from __future__ import annotations

from .series import EXACT, RingSpec, TruncatedSeries


class RouteMismatchError(RuntimeError):
    """Independent computation routes disagreed; indicates an arithmetic bug."""


def phi(order: int, ring: RingSpec = EXACT) -> TruncatedSeries:
    """Theta series: constant term 1, coefficient 2 at each positive square."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    cs = [0] * (order + 1)
    cs[0] = 1
    j = 1
    while j * j <= order:
        cs[j * j] = 2
        j += 1
    return TruncatedSeries.make(ring, cs)


def euler_product(order: int, ring: RingSpec = EXACT) -> TruncatedSeries:
    """(q;q)_inf, the product of (1 - q^k) for k = 1..order.

    It is the pentagonal series: sign (-1)^k at the exponents k(3k-1)/2 and
    k(3k+1)/2 for k >= 1, about 1.6 * sqrt(order) nonzero terms.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    cs = [0] * (order + 1)
    cs[0] = 1
    k = 1
    while k * (3 * k - 1) // 2 <= order:
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g <= order:
                cs[g] = (-1) ** k
        k += 1
    return TruncatedSeries.make(ring, cs)


def overpartition_by_theta(order: int, ring: RingSpec = EXACT) -> TruncatedSeries:
    """The overpartition series by the theta route alone: 1/phi(-q)."""
    return phi(order, ring).alternate_signs().inverse()


def overpartition_gf(order: int, ring: RingSpec = EXACT) -> TruncatedSeries:
    """Generating function of overpartition counts, coefficient n = pbar(n).

    Computed by two independent routes, 1/phi(-q) and (-q;q)_inf / (q;q)_inf,
    which must agree coefficient for coefficient; a mismatch aborts the run
    rather than returning questionable numbers.
    """
    via_theta = overpartition_by_theta(order, ring)
    e = euler_product(order, ring)
    via_products = e.substitute_power(2) / e / e
    if via_theta != via_products:
        raise RouteMismatchError(
            "overpartition series routes disagree (theta inverse vs product quotient)"
        )
    return via_theta


def p4n3_product_form(order: int, ring: RingSpec = EXACT) -> TruncatedSeries:
    """8 * (q^2;q^2) * (q^4;q^4)^6 / (q;q)^8 in the given ring.

    (q^4;q^4)^6 is (q;q)^6 built at a quarter of the order and spread onto every
    fourth exponent; eight sparse divisions by (q;q) follow.  Term n equals the
    overpartition count of 4n+3; no series is shared with the theta route that
    id-4n3 checks it against.  A residue build equals the exact one reduced:
    (q;q) has constant term 1, so reduction commutes with each division.
    """
    e1 = euler_product(order, ring)
    e6 = TruncatedSeries.make(ring, (euler_product(order // 4, ring) ** 6).coeffs, order)
    rhs = e1.substitute_power(2) * e6.substitute_power(4)
    for _ in range(8):
        rhs = rhs / e1
    return rhs.scale(8)


# CLI-facing series names; hs43-rhs is the product form above.
SERIES_NAMES = ("phi", "euler", "neg-euler", "overpartition", "hs43-rhs")


def build_named_series(name: str, order: int, ring: RingSpec = EXACT) -> TruncatedSeries:
    """Construct one of the named series for CLI use; every name builds in the target ring."""
    if name == "phi":
        return phi(order, ring)
    if name == "euler":
        return euler_product(order, ring)
    if name == "neg-euler":
        e = euler_product(order, ring)
        return e.substitute_power(2) / e
    if name == "overpartition":
        return overpartition_gf(order, ring)
    if name == "hs43-rhs":
        return p4n3_product_form(order, ring)
    raise ValueError(f"unknown series {name!r}; expected one of {SERIES_NAMES}")
