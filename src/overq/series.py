"""Truncated formal power series in q over exact integers or residues mod m.

A series is a coefficient vector c[0..order]; arithmetic never leaves the
declared coefficient ring: Python big integers for the exact ring, canonical
residues in [0, m) for the modular ring.  Binary operations require identical
rings and truncate to the shorter order, so "working through q^N" is the
default mode of every computation built on top.

Multiplication is an exact Cauchy product truncated at the shorter order.
Two interchangeable backends compute it, over the integers; a modular product
is the integer product of the residues, reduced afterwards:

  * support-aware schoolbook, which skips zero coefficients and therefore
    makes products with theta-like or pentagonal-sparse operands cheap;
  * packed-integer convolution (Kronecker substitution) for large dense
    products, where a CPython inner loop would dominate the run time.

Both produce identical coefficients and the test suite cross-checks them.
Division a / s runs the power-series recurrence over the nonzero coefficients
of s only, so dividing by a sparse series (theta, pentagonal) is cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


class NonInvertibleError(ArithmeticError):
    """Constant term is not a unit in the coefficient ring."""


@dataclass(frozen=True)
class RingSpec:
    """Coefficient domain: exact integers (modulus None) or residues mod m >= 2."""

    modulus: int | None = None

    def __post_init__(self) -> None:
        if self.modulus is not None and self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")

    @property
    def is_modular(self) -> bool:
        return self.modulus is not None

    @property
    def kind(self) -> str:
        return "mod" if self.is_modular else "exact"

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
# Convolution backends
# ---------------------------------------------------------------------------

# Above this many nonzero coefficient pairs, packed-integer convolution beats
# the Python schoolbook loop comfortably.
_SCHOOLBOOK_PAIR_LIMIT = 1_500_000


def _convolve_support(a: list[int], b: list[int], n: int) -> list[int]:
    """Truncated Cauchy product iterating only nonzero coefficient pairs."""
    sa = [(i, c) for i, c in enumerate(a) if c]
    sb = [(j, c) for j, c in enumerate(b) if c]
    if len(sa) > len(sb):
        sa, sb = sb, sa
    out = [0] * (n + 1)
    for i, ci in sa:
        if i > n:
            break
        lim = n - i
        for j, cj in sb:
            if j > lim:
                break
            out[i + j] += ci * cj
    return out


def _pack(cs: list[int], nbytes: int) -> int:
    buf = bytearray(nbytes * len(cs))
    for i, v in enumerate(cs):
        if v:
            buf[i * nbytes : (i + 1) * nbytes] = v.to_bytes(nbytes, "little")
    return int.from_bytes(buf, "little")


def _unpack(v: int, nbytes: int, count: int) -> list[int]:
    # the full product spans up to twice count slots; short slices read as 0
    raw = v.to_bytes(max((v.bit_length() + 7) // 8, nbytes * count), "little")
    return [int.from_bytes(raw[i * nbytes : (i + 1) * nbytes], "little") for i in range(count)]


def _convolve_packed(a: list[int], b: list[int], n: int) -> list[int]:
    """Truncated Cauchy product via Kronecker substitution.

    Coefficients are packed into fixed-width slots of one big integer and the
    whole convolution becomes a single CPython big-integer multiply.  Signs are
    handled by splitting each operand into nonnegative and negative parts, so
    every packed slot stays carry-free.
    """
    amax = max((abs(x) for x in a), default=0)
    bmax = max((abs(x) for x in b), default=0)
    if amax == 0 or bmax == 0:
        return [0] * (n + 1)
    # slot bound: sums of (n+1) products, twice (pos+pos and neg+neg share a slot)
    slot_bits = amax.bit_length() + bmax.bit_length() + (n + 1).bit_length() + 2
    nbytes = (slot_bits + 7) // 8
    ap = _pack([x if x > 0 else 0 for x in a], nbytes)
    an = _pack([-x if x < 0 else 0 for x in a], nbytes)
    bp = _pack([x if x > 0 else 0 for x in b], nbytes)
    bn = _pack([-x if x < 0 else 0 for x in b], nbytes)
    pos = ap * bp + an * bn
    neg = ap * bn + an * bp
    cpos = _unpack(pos, nbytes, n + 1)
    if neg == 0:
        return cpos
    cneg = _unpack(neg, nbytes, n + 1)
    return [x - y for x, y in zip(cpos, cneg)]


def _convolve_exact(a: list[int], b: list[int], n: int) -> list[int]:
    na = sum(1 for c in a if c)
    nb = sum(1 for c in b if c)
    if na * nb <= _SCHOOLBOOK_PAIR_LIMIT:
        return _convolve_support(a, b, n)
    return _convolve_packed(a, b, n)


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
        if m is not None and any(c < 0 or c >= m for c in self.coeffs):
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
        return f"TruncatedSeries({self.ring.kind}, order={self.order}, [{head}{tail}])"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._require_same_ring(other)
        n = min(self.order, other.order)
        norm = self.ring.normalize
        cs = tuple(norm(x + y) for x, y in zip(self.coeffs[: n + 1], other.coeffs[: n + 1]))
        return TruncatedSeries(self.ring, n, cs)

    def scale(self, c: int) -> "TruncatedSeries":
        norm = self.ring.normalize
        return TruncatedSeries(self.ring, self.order, tuple(norm(c * x) for x in self.coeffs))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._require_same_ring(other)
        n = min(self.order, other.order)
        a = list(self.coeffs[: n + 1])
        b = list(other.coeffs[: n + 1])
        out = _convolve_exact(a, b, n)
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

        Recurrence b_k = s_0^-1 * (a_k - sum_{j>=1} s_j b_{k-j}), iterating only
        the nonzero s_j, so division by a sparse series (theta, pentagonal)
        costs O(order * support) instead of O(order^2).
        """
        self._require_same_ring(other)
        inv0 = self.ring.invert_unit(other.coeffs[0])
        n = min(self.order, other.order)
        m = self.ring.modulus
        support = [(j, cj) for j, cj in enumerate(other.coeffs[: n + 1]) if j and cj]
        b = [0] * (n + 1)
        for k in range(n + 1):
            acc = self.coeffs[k]
            for j, cj in support:
                if j > k:
                    break
                acc -= cj * b[k - j]
            b[k] = inv0 * acc if m is None else inv0 * acc % m  # exact inv0 is +-1
        return TruncatedSeries(self.ring, n, tuple(b))

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
        norm = self.ring.normalize
        cs = tuple(c if k % 2 == 0 else norm(-c) for k, c in enumerate(self.coeffs))
        return TruncatedSeries(self.ring, self.order, cs)

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
        """Coefficient-wise reduction of an exact series into residues mod m."""
        if self.ring.is_modular:
            raise ValueError("reduce_mod applies to exact-integer series only")
        if m < 2:
            raise ValueError(f"modulus must be >= 2, got {m}")
        return TruncatedSeries(mod_ring(m), self.order, tuple(c % m for c in self.coeffs))
