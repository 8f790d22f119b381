"""Exact scalars for computations in base-n coordinates.

Everything downstream works over three kinds of numbers, all exact:

* arbitrary rationals (``fractions.Fraction``, re-exported as ``Rational``),
* the subring Z[1/n] of rationals whose denominator divides a power of n
  (``NInvertible``),
* truncated n-adic integers, i.e. residues mod n**D (``TruncatedNAdic``).

The base n may be composite.  The n-adic integers for composite n split as a
product of p-adic rings over the primes p | n, so membership and unit tests
are always performed per prime; the coarse quantity ``n_valuation`` (the
largest h with x in n**h * Z_n) is derived from the per-prime valuations and
is NOT itself additive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (
    BaseMismatch,
    InvalidParams,
    NotDivisible,
    NotInvertible,
    ParseError,
)

Rational = Fraction


class _PlusInfinity:
    """Valuation of zero.  Compares above every integer; a single instance."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "+inf"

    def __eq__(self, other):
        return isinstance(other, _PlusInfinity)

    def __hash__(self):
        return hash("bslat-plus-infinity")

    def __gt__(self, other):
        return not isinstance(other, _PlusInfinity)

    def __ge__(self, other):
        return True

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, _PlusInfinity)


INFINITY = _PlusInfinity()


@dataclass(frozen=True)
class PrimeSignature:
    """Factorization n = prod p**e_p, p listed in increasing order."""

    base: int
    primes: tuple[tuple[int, int], ...]

    @staticmethod
    def of(n: int) -> "PrimeSignature":
        return _prime_signature(n)


@lru_cache(maxsize=None)
def _prime_signature(n: int) -> PrimeSignature:
    if n < 2:
        raise InvalidParams(f"base must be >= 2, got {n}")
    rest, factors, p = n, [], 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if rest > 1:
        factors.append((rest, 1))
    return PrimeSignature(base=n, primes=tuple(factors))


def p_valuation(x, p: int):
    """v_p of a rational (INFINITY for zero)."""
    q = Fraction(x)
    if q == 0:
        return INFINITY
    v, num = 0, abs(q.numerator)
    while num % p == 0:
        num //= p
        v += 1
    den = q.denominator
    while den % p == 0:
        den //= p
        v -= 1
    return v


def smooth_denominator(x, n: int) -> bool:
    """True iff x lies in Z[1/n]: the denominator's primes all divide n."""
    den = Fraction(x).denominator
    for p, _ in _prime_signature(n).primes:
        while den % p == 0:
            den //= p
    return den == 1


def valuation_in_base(x, n: int):
    """Largest h with x in n**h * Z_n; INFINITY for zero.

    Computed as min over p | n of floor(v_p(x) / e_p).  May be negative.
    """
    q = Fraction(x)
    if q == 0:
        return INFINITY
    return min(
        p_valuation(q, p) // e for p, e in _prime_signature(n).primes
    )


def integral_in_base(x, n: int) -> bool:
    """True iff x lies in Z_n, i.e. v_p(x) >= 0 for every p | n."""
    q = Fraction(x)
    return all(p_valuation(q, p) >= 0 for p, _ in _prime_signature(n).primes)


def unit_in_base(x, n: int) -> bool:
    """True iff x is a unit of Z_n: v_p(x) = 0 for every p | n."""
    q = Fraction(x)
    if q == 0:
        return False
    return all(p_valuation(q, p) == 0 for p, _ in _prime_signature(n).primes)


def in_ball(x, height: int, n: int) -> bool:
    """True iff x lies in n**height * Z_n (per-prime membership)."""
    q = Fraction(x)
    return all(
        p_valuation(q, p) >= height * e
        for p, e in _prime_signature(n).primes
    )


def smooth_divisors(n: int, level_cap: int) -> list[int]:
    """All positive divisors of n**level_cap, sorted increasing.

    The candidate pool for literal smallest-multiplier searches.
    """
    if level_cap < 0:
        raise InvalidParams("level_cap must be >= 0")
    divisors = [1]
    for p, e in _prime_signature(n).primes:
        divisors = [
            d * p**t for d in divisors for t in range(level_cap * e + 1)
        ]
    return sorted(divisors)


def is_ring_unit(x, n: int) -> bool:
    """True iff x is invertible inside Z[1/n] itself.

    Equivalently both numerator and denominator are (up to sign) products of
    primes dividing n.  Such x are exactly the elements whose reciprocal still
    has an n-power-smooth denominator.
    """
    q = Fraction(x)
    if q == 0:
        return False
    num, den = abs(q.numerator), q.denominator
    for p, _ in _prime_signature(n).primes:
        while num % p == 0:
            num //= p
        while den % p == 0:
            den //= p
    return num == 1 and den == 1


def nadic_residue(x, height: int, n: int) -> Fraction:
    """Canonical representative of x mod n**height * Z_n.

    The result r lies in Z[1/n], satisfies 0 <= r < n**height, and x - r is
    in n**height * Z_n.  x may be any rational whose denominator is coprime
    to n after removing its n-smooth part (i.e. any rational at all); the
    coprime part is divided out by a modular inverse.
    """
    q = Fraction(x)
    sig = _prime_signature(n)
    den = q.denominator
    for p, _ in sig.primes:
        while den % p == 0:
            den //= p
    coprime_part = den
    if coprime_part == 1:
        return q % (Fraction(n) ** height)
    smooth_part = q.denominator // coprime_part
    shift = max(0, -height)
    while n**shift % smooth_part != 0:
        shift += 1
    scaled_num = q.numerator * (n**shift // smooth_part)
    modulus = n ** (height + shift)
    inv = pow(coprime_part, -1, modulus)
    return Fraction((scaled_num * inv) % modulus, n**shift)


@dataclass(frozen=True)
class NInvertible:
    """Element of Z[1/n], tagged with its base."""

    value: Fraction
    base: int

    def __post_init__(self):
        _prime_signature(self.base)
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))
        if not smooth_denominator(self.value, self.base):
            raise InvalidParams(
                f"{self.value} is not in Z[1/{self.base}]: denominator has a "
                f"prime factor not dividing {self.base}"
            )

    @staticmethod
    def of(value, base: int) -> "NInvertible":
        if isinstance(value, str):
            value = parse_rational(value)
        return NInvertible(Fraction(value), base)

    def _coerce(self, other) -> Fraction:
        if isinstance(other, NInvertible):
            if other.base != self.base:
                raise BaseMismatch(
                    f"mixed bases {self.base} and {other.base}"
                )
            return other.value
        return Fraction(other)

    def __add__(self, other):
        return NInvertible(self.value + self._coerce(other), self.base)

    __radd__ = __add__

    def __sub__(self, other):
        return NInvertible(self.value - self._coerce(other), self.base)

    def __rsub__(self, other):
        return NInvertible(self._coerce(other) - self.value, self.base)

    def __mul__(self, other):
        return NInvertible(self.value * self._coerce(other), self.base)

    __rmul__ = __mul__

    def __truediv__(self, other):
        quotient = self.value / self._coerce(other)
        if not smooth_denominator(quotient, self.base):
            raise NotInvertible(
                f"{self.value} / {self._coerce(other)} leaves Z[1/{self.base}]"
            )
        return NInvertible(quotient, self.base)

    def __pow__(self, exponent: int):
        if exponent < 0 and not is_ring_unit(self.value, self.base):
            raise NotInvertible(
                f"{self.value} has no inverse in Z[1/{self.base}]"
            )
        return NInvertible(self.value**exponent, self.base)

    def __neg__(self):
        return NInvertible(-self.value, self.base)

    def valuation(self):
        return valuation_in_base(self.value, self.base)

    def is_unit(self) -> bool:
        return unit_in_base(self.value, self.base)

    def is_integral(self) -> bool:
        return integral_in_base(self.value, self.base)

    def __str__(self):
        return format_rational(self.value)


def n_valuation(x: NInvertible):
    """Largest h with x in n**h * Z_n, for the tagged base; INFINITY at 0."""
    return valuation_in_base(x.value, x.base)


def is_unit_in_Zn(x: NInvertible) -> bool:
    """Unit test in the n-adic integers of the tagged base."""
    return unit_in_base(x.value, x.base)


@dataclass(frozen=True)
class TruncatedNAdic:
    """Residue mod base**precision, standing in for an n-adic integer."""

    base: int
    precision: int
    residue: int

    def __post_init__(self):
        _prime_signature(self.base)
        if self.precision < 0:
            raise InvalidParams("precision must be >= 0")
        modulus = self.base**self.precision
        if not 0 <= self.residue < modulus:
            object.__setattr__(self, "residue", self.residue % modulus)

    def residue_at(self, level: int) -> int:
        """The residue mod base**level, for level <= precision."""
        if not 0 <= level <= self.precision:
            raise InvalidParams(
                f"level {level} outside [0, {self.precision}]"
            )
        return self.residue % self.base**level

    def __str__(self):
        return f"{self.residue} mod {self.base}^{self.precision}"


def power_quotient(j: int, k: int, n: int) -> int:
    """The exact integer x with j * x == n**k.

    Raises NotDivisible when j does not divide n**k (there is then no
    truncation-exact solution even though 1/j may exist n-adically).
    """
    if j < 1 or k < 0:
        raise InvalidParams("need j >= 1 and k >= 0")
    _prime_signature(n)
    target = n**k
    if target % j != 0:
        raise NotDivisible(f"{j} does not divide {n}^{k}")
    return target // j


def truncated_inverse(x, precision: int, n: int) -> TruncatedNAdic:
    """Inverse of a Z_n-unit mod n**precision.

    x may be an int, Fraction or NInvertible; it must be n-adically integral
    and a unit (NotInvertible otherwise).
    """
    value = x.value if isinstance(x, NInvertible) else Fraction(x)
    if not unit_in_base(value, n):
        raise NotInvertible(f"{value} is not a unit in Z_{n}")
    modulus = n**precision
    residue = nadic_residue(value, precision, n)
    inv = pow(int(residue), -1, modulus) if modulus > 1 else 0
    return TruncatedNAdic(base=n, precision=precision, residue=inv)


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' (or 'p'), sign on the numerator only."""
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}: {exc}") from None
    return value


def format_rational(x) -> str:
    """Render as 'p/q', or 'p' when the denominator is 1."""
    return str(Fraction(x))
