"""Truncated formal power series in q over exact integers or residues mod m.

A series is a coefficient vector c[0..order]; arithmetic never leaves the
declared coefficient ring: Python big integers for the exact ring, canonical
residues in [0, m) for the modular ring.  Binary operations require identical
rings and truncate to the shorter order, so "working through q^N" is the
default mode of every computation built on top.

Multiplication is an exact Cauchy product truncated at the shorter order,
computed one way for both rings: Kronecker substitution in decimal.  The
coefficients are packed into fixed-width decimal slots of one
`decimal.Decimal` integer, so the whole product is a single multiply by
libmpdec, whose number-theoretic transform beats CPython's Karatsuba on huge
operands; a modular product is the integer product of the residues, reduced
afterwards.
Division a / s runs the power-series recurrence over the nonzero coefficients
of s only, each term costing one C-level itemgetter gather per distinct value
of s (at most two for overq's divisors), so dividing by a sparse series
(theta, pentagonal) is cheap.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from math import gcd
from operator import itemgetter


class NonInvertibleError(ArithmeticError):
    """Constant term is not a unit in the coefficient ring."""


@dataclass(frozen=True)
class RingSpec:
    """Coefficient domain: exact integers (modulus None) or residues mod m >= 2."""

    modulus: int | None = None

    def __post_init__(self) -> None:
        if self.modulus is not None and self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")

    def normalize(self, x: int) -> int:
        return x % self.modulus if self.modulus is not None else x

    def invert_unit(self, x: int) -> int:
        """Multiplicative inverse of x in the ring; NonInvertibleError otherwise."""
        if self.modulus is None:
            if x in (1, -1):
                return x
            raise NonInvertibleError(f"{x} is not a unit over the exact integers")
        g = gcd(x, self.modulus)
        if g != 1:
            raise NonInvertibleError(f"{x} is not a unit mod {self.modulus} (gcd {g})")
        return pow(x, -1, self.modulus)

    def __repr__(self) -> str:
        return "RingSpec(exact)" if self.modulus is None else f"RingSpec(mod {self.modulus})"


EXACT = RingSpec()


def mod_ring(m: int) -> RingSpec:
    return RingSpec(m)


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

# One context for every product: unlimited precision and exponent range, so
# the packed operands and their product are exact integers.  It is never the
# thread's context, which callers may have changed.
_CTX = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


def _digits(x: int) -> int:
    """Number of decimal digits of x >= 1, from its bit length; str(x) may be refused."""
    d = (x.bit_length() - 1) * 30102 // 100000  # 0.30102 < log10(2), so 10**d <= x
    while 10 ** (d + 1) <= x:
        d += 1
    return d + 1


def _pack(cs: list[int], w: int) -> Decimal:
    """cs in w-digit decimal slots, slot i for cs[i]: its positive part minus its negative part."""
    fmt = f"%0{w}d" * len(cs)
    if min(cs) >= 0:
        return Decimal(fmt % tuple(reversed(cs)))
    pos = Decimal(fmt % tuple(c if c > 0 else 0 for c in reversed(cs)))
    neg = Decimal(fmt % tuple(-c if c < 0 else 0 for c in reversed(cs)))
    return _CTX.subtract(pos, neg)


def _convolve_packed(a: list[int], b: list[int], n: int) -> list[int]:
    """Truncated Cauchy product c[0..n] via Kronecker substitution in decimal.

    Each operand is packed into w-digit slots of one decimal integer
    (coefficient i in slot i, so the operand is sum a_i X^i with X = 10^w),
    and the whole convolution is a single libmpdec multiply, which uses a
    number-theoretic transform on huge operands.  Every slot of the product
    is bounded by B = min(|a|_1 max|b|, max|a| |b|_1); w = digits(B) + 1, so
    |c_k| < X/10 and slots never carry into each other.  Nonnegative operands
    (every residue product, every phi power) read their slots straight off
    the digit string.  A signed operand is its positive part minus its
    negative part; its product gets X/2 added to every slot, and a leading 1
    above them all, so the digit string is nonnegative and each slot is
    c_k + X/2 in [0, X).  Slots wider than sys.get_int_max_str_digits() could
    not be converted to int, and raise ValueError instead.
    """
    amax = max(map(abs, a), default=0)
    bmax = max(map(abs, b), default=0)
    if amax == 0 or bmax == 0:
        return [0] * (n + 1)
    bound = min(sum(map(abs, a)) * bmax, amax * sum(map(abs, b)))
    w = _digits(bound) + 1
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # no limit before 3.10.7
    if limit and w > limit:
        raise ValueError(
            f"a product needs {w}-digit slots, more than the int/str conversion "
            f"limit of {limit} digits (sys.get_int_max_str_digits())"
        )
    signed = min(a) < 0 or min(b) < 0
    pa = _pack(a, w)
    # the same object twice lets libmpdec square: two transforms instead of three
    c = _CTX.multiply(pa, pa if a == b else _pack(b, w))
    half = 10**w // 2
    if signed:  # balanced slots: X/2 onto each of them, and a 1 above them all
        c = _CTX.add(c, Decimal("1" + f"{half:0{w}d}" * (2 * n + 2)))
    digits = str(c)[-(n + 1) * w :].rjust((n + 1) * w, "0")  # c >= 0: digits only
    out = list(map(int, re.findall(f".{{{w}}}", digits)))
    out.reverse()
    return [x - half for x in out] if signed else out


# ---------------------------------------------------------------------------
# Series type
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients c[0..order] of a series known through q^order inclusive.

    Immutable after construction; every operation returns a new value.
    """

    ring: RingSpec
    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError(f"order must be >= 0, got {self.order}")
        if len(self.coeffs) != self.order + 1:
            raise ValueError(f"expected {self.order + 1} coefficients, got {len(self.coeffs)}")
        m = self.ring.modulus
        if m is not None and (min(self.coeffs) < 0 or max(self.coeffs) >= m):
            raise ValueError(f"coefficients must be canonical residues in [0, {m})")

    # -- constructors -------------------------------------------------------

    @classmethod
    def make(cls, ring: RingSpec, coeffs, order: int | None = None) -> "TruncatedSeries":
        """Build from any iterable of ints, normalizing into the ring.

        With an explicit order the coefficient list is zero-padded or cut.
        """
        cs = [ring.normalize(int(c)) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError(f"order must be >= 0, got {order}")
            cs = cs[: order + 1] + [ring.normalize(0)] * (order + 1 - len(cs))
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        return cls(ring, len(cs) - 1, tuple(cs))

    @classmethod
    def one(cls, ring: RingSpec, order: int) -> "TruncatedSeries":
        return cls.make(ring, [1], order=order)

    # -- basics -------------------------------------------------------------

    def _require_same_ring(self, other: "TruncatedSeries") -> None:
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"TruncatedSeries({self.ring!r}, order={self.order}, [{head}{tail}])"

    # -- ring operations ----------------------------------------------------

    def scale(self, c: int) -> "TruncatedSeries":
        norm = self.ring.normalize
        return TruncatedSeries(self.ring, self.order, tuple(norm(c * x) for x in self.coeffs))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._require_same_ring(other)
        n = min(self.order, other.order)
        a = list(self.coeffs[: n + 1])
        b = list(other.coeffs[: n + 1])
        out = _convolve_packed(a, b, n)
        m = self.ring.modulus
        if m is not None:
            out = [c % m for c in out]
        return TruncatedSeries(self.ring, n, tuple(out))

    def __pow__(self, e: int) -> "TruncatedSeries":
        """Repeated-squaring power; e = 0 gives the constant series 1."""
        if e < 0:
            raise ValueError(f"exponent must be >= 0, got {e}")
        result = None
        base = self
        k = e
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        if result is None:
            return TruncatedSeries.one(self.ring, self.order)
        return result

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Quotient a / s through the shorter order; s must have a unit constant term.

        Recurrence b_k = s_0^-1 * (a_k - sum_{j>=1} s_j b_{k-j}) over the nonzero
        s_j only.  Those are grouped by value c, and each group's sum is one C
        call: an itemgetter over the offsets -j into the quotient list, which
        is led by a 0 so that b[-j] is b_{k-j} and every gather is a tuple.
        So b_k costs one gather per distinct value of s, at most two for
        overq's divisors (+-1 for E(q), +-2 for phi(-q), or their residues).
        """
        self._require_same_ring(other)
        inv0 = self.ring.invert_unit(other.coeffs[0])
        n = min(self.order, other.order)
        m = self.ring.modulus
        offsets: dict[int, tuple[int, ...]] = {}  # c -> (0, -j for each s_j == c, j <= k)
        gathers: dict[int, itemgetter] = {}
        b = [0]
        for k, (ak, sk) in enumerate(zip(self.coeffs, other.coeffs)):
            if k and sk:
                offsets[sk] = offsets.get(sk, (0,)) + (-k,)
                gathers[sk] = itemgetter(*offsets[sk])
            acc = ak
            for c, gather in gathers.items():
                acc -= c * sum(gather(b))
            b.append(inv0 * acc if m is None else inv0 * acc % m)  # exact inv0 is +-1
        return TruncatedSeries(self.ring, n, tuple(b[1:]))

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse through the same order: one / self."""
        return TruncatedSeries.one(self.ring, self.order) / self

    # -- reindexing operations ----------------------------------------------

    def substitute_power(self, k: int) -> "TruncatedSeries":
        """The series in q^k: coefficient of q^(k*j) is c_j, zero elsewhere."""
        if k < 1:
            raise ValueError(f"need k >= 1, got {k}")
        if k == 1:
            return self
        out = [self.ring.normalize(0)] * (self.order + 1)
        for j in range(self.order // k + 1):
            out[k * j] = self.coeffs[j]
        return TruncatedSeries(self.ring, self.order, tuple(out))

    def alternate_signs(self) -> "TruncatedSeries":
        """Replace q by -q: coefficient k picks up the sign (-1)^k."""
        m = self.ring.modulus
        cs = list(self.coeffs)
        cs[1::2] = [-c % m if m else -c for c in cs[1::2]]
        return TruncatedSeries(self.ring, self.order, tuple(cs))

    def extract_progression(self, m: int, r: int) -> "TruncatedSeries":
        """Coefficients along the arithmetic progression m*j + r.

        Result order is floor((order - r) / m); the progression must start
        inside the known range (r <= order).
        """
        if m < 1:
            raise ValueError(f"need m >= 1, got {m}")
        if r < 0 or r >= m:
            raise ValueError(f"residue {r} out of range [0, {m})")
        if r > self.order:
            raise ValueError(f"progression start {r} beyond known order {self.order}")
        cs = tuple(self.coeffs[m * j + r] for j in range((self.order - r) // m + 1))
        return TruncatedSeries(self.ring, len(cs) - 1, cs)

    def reduce_mod(self, m: int) -> "TruncatedSeries":
        """Coefficient-wise reduction into residues mod m; from mod M, m must properly divide M."""
        if m < 2:
            raise ValueError(f"modulus must be >= 2, got {m}")
        M = self.ring.modulus
        if M is not None and (m == M or M % m):
            raise ValueError(f"a series mod {M} reduces only mod a proper divisor, not mod {m}")
        return TruncatedSeries(mod_ring(m), self.order, tuple(c % m for c in self.coeffs))
