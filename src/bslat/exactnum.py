"""Exact scalars for computations in base-n coordinates.

Everything downstream works over two kinds of numbers, both exact:

* rationals (``fractions.Fraction`` or int), each with an explicit base n;
  ``smooth_denominator`` tests membership in the subring Z[1/n],
* truncated n-adic integers, i.e. residues mod n**D (``nadic_residue``;
  ``tree.TruncatedNAdic`` holds one with its base and precision).

Text becomes a number only in the CLI, the JSON record readers and the one
text branch of ``lattice.standard_embedding``; ``_fraction`` refuses it.

The base n may be composite.  The n-adic integers for composite n split as a
product of p-adic rings over the primes p | n, so membership and unit tests
are always performed per prime; the coarse quantity ``valuation_in_base``
(the largest h with x in n**h * Z_n) is derived from the per-prime
valuations and is NOT itself additive.

``integral_level`` and ``transitive_pair`` hold, once, the per-prime
exponent arithmetic behind the lattice invariant (s, m).  The size caps of
the whole package sit in one table here, next to ``power_exceeds``, the one
test of a power against a cap.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache

from .errors import InvalidParams, ParseError, TooLarge

# Every size cap; past one, a command is refused with TooLarge (exit 3).
SEARCH_LEVEL_CAP = 64  # levels the literal (k, j) search tries
SEARCH_BUDGET = 20_000  # candidates j it may scan to reach the formula's k
ORBIT_CONE_CAP = 4096  # cone vertices an orbit, picture or window builds
SIZE_CAP = 10**6  # lab group orders and labels a level; twice it: orbit steps
TOP_CAP = 64  # top-level vertices of a lab group
ABELIAN_SEARCH_CAP = 200  # group order past which no abelian search runs
SCALING_CAP = (1 << 2**18) - 1  # n**l, the stable letter's scaling: 2**18 bits
FACTOR_BUDGET = 10**6  # largest trial divisor that factoring a base tries


def power_exceeds(base: int, exponent: int, cap: int) -> bool:
    """base**exponent > cap, for a cap >= 0.  |base|**exponent has at least
    exponent * (b - 1) and at most exponent * b bits, b the bit length of
    |base|, so a power is built only when those bounds straddle the cap's
    bit length."""
    if base < 0 and exponent % 2:
        return False
    size = abs(base)
    bits = size.bit_length()
    if exponent * (bits - 1) >= cap.bit_length():
        return True
    if 0 <= exponent and exponent * bits < cap.bit_length():
        return False
    return size**exponent > cap


def check_scaling(n: int, power: int):
    """Refuse n**power past SCALING_CAP, before it is built; a negative
    power is worded by its denominator, which is what has the bits."""
    if power_exceeds(abs(n), abs(power), SCALING_CAP):
        bits = SCALING_CAP.bit_length()
        part = "the denominator of " if power < 0 else ""
        raise TooLarge(f"{part}{n}^{power} has more than {bits} bits")


def check_printable(n: int, h: int):
    """Refuse height h when its centers (their denominators, at h < 0) can
    reach n**|h| >= 10**limit, past the digits Python converts to text."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    # 2**|h| > 10**limit once |h| > 4 * limit, whatever n is
    if limit and (
        abs(h) > 4 * limit or power_exceeds(n, abs(h), 10**limit - 1)
    ):
        shown = format_rational(h)  # tree act's h is past printing itself
        raise TooLarge(f"centers at height {shown} can exceed {limit} digits")


# The valuation of zero, above every integer.
INFINITY = math.inf


@lru_cache(maxsize=None)
def _prime_signature(n: int) -> tuple[tuple[int, int], ...]:
    """The factorization n = prod p**e_p as ((p, e_p), ...), p increasing."""
    if n < 2:
        raise InvalidParams(f"base must be >= 2, got {n}")
    rest, factors, p = n, [], 2
    while p * p <= rest:
        if p > FACTOR_BUDGET:
            raise TooLarge(
                f"factoring the base needs trial division past {FACTOR_BUDGET}"
            )
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if rest > 1:
        factors.append((rest, 1))
    return tuple(factors)


def _fraction(x) -> Fraction:
    """x, a Fraction or an int, as a Fraction; a Fraction is not copied."""
    if type(x) is not Fraction and type(x) is not int:
        raise TypeError(f"need a Fraction or an int, not {type(x).__name__}")
    return x if type(x) is Fraction else Fraction(x)


def _strip(x: int, p: int) -> tuple[int, int]:
    """(v, x // p**v) for the largest v with p**v dividing the nonzero x;
    p**2 is stripped from x // p recursively, so v costs O(log v) divisions."""
    if x % p:
        return 0, x
    v, x = _strip(x // p, p * p)
    if x % p:
        return 2 * v + 1, x
    return 2 * v + 2, x // p


def _coprime_part(x: int, n: int) -> int:
    """x with every prime factor of n divided out."""
    for p, _ in _prime_signature(n):
        x = _strip(x, p)[1]
    return x


def p_valuation(x, p: int):
    """v_p of a rational (INFINITY for zero)."""
    q = _fraction(x)
    if q == 0:
        return INFINITY
    return _strip(q.numerator, p)[0] - _strip(q.denominator, p)[0]


def smooth_denominator(x, n: int) -> bool:
    """True iff x lies in Z[1/n]: the denominator's primes all divide n."""
    return _coprime_part(_fraction(x).denominator, n) == 1


def valuation_in_base(x, n: int):
    """Largest h with x in n**h * Z_n; INFINITY for zero.

    Computed as min over p | n of floor(v_p(x) / e_p).  May be negative.
    """
    q = _fraction(x)
    if q == 0:
        return INFINITY
    return min(
        p_valuation(q, p) // e for p, e in _prime_signature(n)
    )


def integral_in_base(x, n: int) -> bool:
    """True iff x lies in Z_n, i.e. v_p(x) >= 0 for every p | n."""
    q = _fraction(x)
    return all(p_valuation(q, p) >= 0 for p, _ in _prime_signature(n))


def unit_in_base(x, n: int) -> bool:
    """True iff x is a unit of Z_n: v_p(x) = 0 for every p | n."""
    q = _fraction(x)
    if q == 0:
        return False
    return all(p_valuation(q, p) == 0 for p, _ in _prime_signature(n))


def in_ball(x, height: int, n: int) -> bool:
    """True iff x lies in n**height * Z_n (per-prime membership)."""
    q = _fraction(x)
    return all(
        p_valuation(q, p) >= height * e
        for p, e in _prime_signature(n)
    )


def smooth_divisors(n: int, level_cap: int) -> list[int]:
    """All positive divisors of n**level_cap, sorted increasing.

    The candidate pool for literal smallest-multiplier searches.
    """
    if level_cap < 0:
        raise InvalidParams("level_cap must be >= 0")
    divisors = [1]
    for p, e in _prime_signature(n):
        divisors = [
            d * p**t for d in divisors for t in range(level_cap * e + 1)
        ]
    return sorted(divisors)


def integral_level(x, n: int, l: int = 1) -> int:
    """Least t >= 0 with n**(l*t) * x in Z_n (0 for x = 0): the largest of 0
    and ceil(-v_p(x) / (l*e)) over the prime powers p**e of n."""
    q = _fraction(x)
    if q == 0:
        return 0
    primes = _prime_signature(n)
    return max(0, *(-(p_valuation(q, p) // (l * e)) for p, e in primes))


def transitive_pair(beta, l: int, n: int) -> tuple[int, int]:
    """Least k >= 0, then least n-smooth j, with j * beta / n**(l*k) a unit
    of Z_n: j copies of the shift by the nonzero beta act transitively
    forever from l*k levels up.  The closed form k = integral_level(1/beta),
    j = prod p**(l*k*e - v_p(beta)) must agree with the literal search,
    which stops below level SEARCH_LEVEL_CAP: TooLarge unless it reaches k
    within SEARCH_BUDGET candidates j."""
    q = _fraction(beta)
    k = integral_level(1 / q, n, l)
    if k >= SEARCH_LEVEL_CAP:
        raise TooLarge(
            f"the (k, j) search stops below k = {SEARCH_LEVEL_CAP}; "
            f"the formula gives k = {k}"
        )
    primes = _prime_signature(n)
    spread = max(abs(p_valuation(q, p)) for p, _ in primes)
    candidates = sum(  # the divisors of n**(l*level + spread + 1) it scans
        math.prod((l * level + spread + 1) * e + 1 for _, e in primes)
        for level in range(k + 1)
    )
    if candidates > SEARCH_BUDGET:
        raise TooLarge(
            "the (k, j) search needs up to "
            f"{format_rational(candidates)} candidates to reach "
            f"k = {k}; budget is {SEARCH_BUDGET}"
        )
    j = 1
    for p, e in primes:
        j *= p ** (l * k * e - p_valuation(q, p))
    searched = _search_pair(q, l, n)
    if searched != (k, j):
        raise AssertionError(
            f"exponent self-check failed: formula (k, j) = {(k, j)}, "
            f"search {searched}"
        )
    return k, j


def _search_pair(beta: Fraction, l: int, n: int):
    """Literal transitive_pair: for k = 0, 1, ... below SEARCH_LEVEL_CAP try
    the divisors of n**(l*k + spread + 1) in increasing order; None when
    nothing is found."""
    primes = _prime_signature(n)
    spread = max(abs(p_valuation(beta, p)) for p, _ in primes)
    for k in range(SEARCH_LEVEL_CAP):
        scale = Fraction(n) ** (l * k)
        for j in smooth_divisors(n, l * k + spread + 1):
            if unit_in_base(j * beta / scale, n):
                return k, j
    return None


def is_ring_unit(x, n: int) -> bool:
    """True iff x is invertible inside Z[1/n] itself.

    Equivalently both numerator and denominator are (up to sign) products of
    primes dividing n.  Such x are exactly the elements whose reciprocal still
    has an n-power-smooth denominator.
    """
    q = _fraction(x)
    return (
        q != 0
        and abs(_coprime_part(q.numerator, n)) == 1
        and _coprime_part(q.denominator, n) == 1
    )


def nadic_residue(x, height: int, n: int) -> Fraction:
    """Canonical representative of x mod n**height * Z_n.

    The result r lies in Z[1/n], satisfies 0 <= r < n**height, and x - r is
    in n**height * Z_n.  x may be any rational whose denominator is coprime
    to n after removing its n-smooth part (i.e. any rational at all); the
    coprime part is divided out by a modular inverse.
    """
    q = _fraction(x)
    coprime_part = _coprime_part(q.denominator, n)
    if coprime_part == 1:
        return q % (Fraction(n) ** height)
    smooth_part = q.denominator // coprime_part
    shift = max(-height, integral_level(Fraction(1, smooth_part), n))
    scaled_num = q.numerator * (n**shift // smooth_part)
    modulus = n ** (height + shift)
    inv = pow(coprime_part, -1, modulus)
    return Fraction((scaled_num * inv) % modulus, n**shift)


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' (or 'p'), sign on the numerator only."""
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}: {exc}") from None
    return value


def record_int(record: dict, key: str) -> int:
    """The integer field key of a JSON record; a bool, a float or a string
    is a TypeError, which the CLI reports as a malformed record."""
    value = record[key]
    if type(value) is not int:
        kind = type(value).__name__
        raise TypeError(f"{key} must be an integer, not {kind}")
    return value


def format_rational(x) -> str:
    """Render as 'p/q', or 'p' when the denominator is 1.

    A numerator or denominator past Python's int-to-str digit limit raises
    TooLarge instead of the ValueError of the conversion.
    """
    value = Fraction(x)
    try:
        return str(value)
    except ValueError:
        raise _too_many_digits() from None


def format_quotient(p: int, q: int) -> str:
    """format_rational(Fraction(p, q)) for q >= 1, reduced by math.gcd
    without building the Fraction."""
    common = math.gcd(p, q)
    try:
        if common == q:
            return str(p // q)
        return f"{p // common}/{q // common}"
    except ValueError:
        raise _too_many_digits() from None


def _too_many_digits() -> TooLarge:
    limit = sys.get_int_max_str_digits()
    return TooLarge(f"a rational exceeds {limit} digits")
