import contextlib
import functools
import itertools
import math
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bslat import exactnum as xn
from bslat.errors import (
    InvalidParams,
    NotInvertible,
    ParseError,
    TooLarge,
    ValidationError,
)

BASES = [2, 3, 4, 6, 10, 12]


# Helpers that only the tests need.


class NotDivisible(ValidationError):
    """An exact division in the n-adic integers does not exist."""


def power_quotient(j: int, k: int, n: int) -> int:
    """The exact integer x with j * x == n**k.

    Raises NotDivisible when j does not divide n**k (there is then no
    truncation-exact solution even though 1/j may exist n-adically).
    """
    if j < 1 or k < 0:
        raise InvalidParams("need j >= 1 and k >= 0")
    xn._prime_signature(n)
    target = n**k
    if target % j != 0:
        raise NotDivisible(f"{j} does not divide {n}^{k}")
    return target // j


def truncated_inverse(x, precision: int, n: int) -> xn.TruncatedNAdic:
    """Inverse of a Z_n-unit mod n**precision.

    x may be an int or a Fraction; it must be n-adically integral and a
    unit (NotInvertible otherwise).
    """
    value = Fraction(x)
    if not xn.unit_in_base(value, n):
        raise NotInvertible(f"{value} is not a unit in Z_{n}")
    modulus = n**precision
    residue = xn.nadic_residue(value, precision, n)
    inv = pow(int(residue), -1, modulus) if modulus > 1 else 0
    return xn.TruncatedNAdic(base=n, precision=precision, residue=inv)


def naive_p_valuation(q: Fraction, p: int) -> int:
    # independent oracle: repeated division, numerator minus denominator
    assert q != 0
    v, num, den = 0, abs(q.numerator), q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def naive_coprime_part(x: int, n: int) -> int:
    for p, _ in xn._prime_signature(n).primes:
        while x % p == 0:
            x //= p
    return x


def orbit_size(shift: Fraction, n: int, level: int) -> int:
    # labels of the level that repeated shifts reach from label 0
    r, size = int(xn.nadic_residue(shift, level, n)), n**level
    return len({step * r % size for step in range(size)})


def brute_transitive_pair(beta: Fraction, l: int, n: int):
    # the least k, then the least j, for which j copies of the shift by beta
    # are integral l*k levels up and walk one orbit through all labels of
    # levels 1 and 2; beta's n-power denominator is at most n**2, so j
    # divides n**(l*k + 2)
    for k in itertools.count():
        scale = Fraction(n) ** (l * k)
        for j in xn.smooth_divisors(n, l * k + 2):
            value = j * beta / scale
            if xn.integral_in_base(value, n) and all(
                orbit_size(value, n, level) == n**level for level in (1, 2)
            ):
                return k, j


def naive_in_ball(q: Fraction, h: int, n: int) -> bool:
    # q in n^h Z_n iff q / n^h has, at every prime of n, no denominator part
    shifted = q / Fraction(n) ** h
    primes = [p for p, _ in xn._prime_signature(n).primes]
    return all(naive_p_valuation(shifted, p) >= 0 for p in primes if shifted)


rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=512
)


class TestPrimeSignature:
    def test_examples(self):
        assert xn._prime_signature(12).primes == ((2, 2), (3, 1))
        assert xn._prime_signature(2).primes == ((2, 1),)
        assert xn._prime_signature(9).primes == ((3, 2),)

    def test_bad_base(self):
        with pytest.raises(InvalidParams):
            xn._prime_signature(1)

    def test_trial_division_budget(self):
        # 999983 is the largest prime up to the budget of 10**6: every base
        # whose cofactor left after it is 1 or a prime below its square
        # factors as before; a cofactor needing a larger divisor is refused
        budget = xn.FACTOR_BUDGET
        assert budget == 10**6
        assert xn._prime_signature(999983 * 1000003).primes == (
            (999983, 1), (1000003, 1),
        )
        assert xn._prime_signature(6 * 999983**2).primes == (
            (2, 1), (3, 1), (999983, 2),
        )
        assert xn._prime_signature(2**80 * 1000003).primes == (
            (2, 80), (1000003, 1),
        )
        for n in (1000003**2, 10**24 + 7, 2 * 1000003 * 1000033):
            start = time.perf_counter()
            with pytest.raises(TooLarge, match="trial division past 1000000"):
                xn._prime_signature(n)
            assert time.perf_counter() - start < 2


class TestValuation:
    def test_numbers_are_fractions_or_ints(self):
        # text is parsed at the edge; below it a string, a float or a bool
        # is refused rather than read by Fraction()
        for value in ("1", 0.5, True):
            with pytest.raises(TypeError):
                xn.smooth_denominator(value, 2)
        assert xn.smooth_denominator(Fraction(1, 4), 2)

    def test_frozen_examples(self):
        assert xn.valuation_in_base(12, 2) == 2
        assert xn.valuation_in_base(8, 4) == 1
        assert xn.valuation_in_base(Fraction(9, 2), 6) == -1
        assert xn.valuation_in_base(2, 12) == 0  # floor(v_2/e_2) = floor(1/2)
        assert xn.valuation_in_base(144, 12) == 2
        assert xn.valuation_in_base(0, 7) is xn.INFINITY

    def test_examples_against_oracle(self):
        cases = [
            (Fraction(144), 12, 2),
            (Fraction(8), 4, 1),
            (Fraction(9, 2), 6, -1),
            (Fraction(12), 2, 2),
        ]
        for q, n, expected in cases:
            sig = xn._prime_signature(n).primes
            oracle = min(naive_p_valuation(q, p) // e for p, e in sig)
            assert oracle == expected
            assert xn.valuation_in_base(q, n) == expected

    @given(x=rationals, y=rationals, n=st.sampled_from(BASES))
    def test_multiplicative_lower_bound(self, x, y, n):
        # valuation of a product is >= sum of valuations; equality can fail
        # for composite n because the minimum is over several primes
        if x == 0 or y == 0:
            return
        v = xn.valuation_in_base(x * y, n)
        assert v >= xn.valuation_in_base(x, n) + xn.valuation_in_base(y, n)

    @given(x=rationals, y=rationals, n=st.sampled_from([2, 3, 5, 7]))
    def test_additive_on_primes(self, x, y, n):
        if x == 0 or y == 0:
            return
        assert xn.valuation_in_base(x * y, n) == xn.valuation_in_base(
            x, n
        ) + xn.valuation_in_base(y, n)

    def test_not_additive_on_higher_prime_powers(self):
        # floor(v_p/e) is not additive once e > 1: val_4(2) = 0, val_4(4) = 1
        assert xn.valuation_in_base(2, 4) == 0
        assert xn.valuation_in_base(4, 4) == 1

    def test_composite_strictness_witness(self):
        # n=6: val(2)=0=val(3) but val(6)=1
        assert xn.valuation_in_base(2, 6) == 0
        assert xn.valuation_in_base(3, 6) == 0
        assert xn.valuation_in_base(6, 6) == 1

    @given(x=rationals, n=st.sampled_from(BASES), h=st.integers(-4, 4))
    def test_ball_membership_matches_valuation(self, x, n, h):
        if x == 0:
            assert xn.in_ball(x, h, n)
            return
        assert xn.in_ball(x, h, n) == (xn.valuation_in_base(x, n) >= h)
        assert xn.in_ball(x, h, n) == naive_in_ball(x, h, n)


class TestStripping:
    @settings(max_examples=60)
    @given(
        p=st.sampled_from([2, 3, 5, 7]),
        unit=st.integers(-(10**6), 10**6).filter(bool),
        exponent=st.integers(-10_000, 10_000),
    )
    def test_valuation_matches_naive(self, p, unit, exponent):
        q = unit * Fraction(p) ** exponent
        assert xn.p_valuation(q, p) == naive_p_valuation(q, p)

    @settings(max_examples=60)
    @given(
        n=st.sampled_from(BASES),
        unit=st.integers(-50, 50).filter(bool),
        coprime=st.sampled_from([1, 7, 11, 49]),
        up=st.integers(0, 3000),
        down=st.integers(0, 3000),
    )
    def test_units_and_denominators_match_naive(
        self, n, unit, coprime, up, down
    ):
        q = Fraction(unit * n**up, coprime * n**down)
        num = naive_coprime_part(q.numerator, n)
        den = naive_coprime_part(q.denominator, n)
        assert xn.smooth_denominator(q, n) == (den == 1)
        assert xn.is_ring_unit(q, n) == (abs(num) == 1 and den == 1)

    def test_long_valuation_is_fast(self):
        start = time.perf_counter()
        assert xn.p_valuation(Fraction(1, 2**50000), 2) == -50000
        assert xn.p_valuation(Fraction(3**40000, 7), 3) == 40000
        assert time.perf_counter() - start < 0.1


class TestExponentCore:
    @given(x=rationals, n=st.sampled_from(BASES), l=st.integers(1, 3))
    def test_integral_level_is_least(self, x, n, l):
        t = xn.integral_level(x, n, l)
        assert xn.integral_in_base(x * Fraction(n) ** (l * t), n)
        if t > 0:
            below = x * Fraction(n) ** (l * (t - 1))
            assert not xn.integral_in_base(below, n)

    @settings(max_examples=60)
    @given(
        n=st.sampled_from(BASES),
        l=st.integers(1, 3),
        num=st.integers(-300, 300).filter(bool),
        down=st.integers(0, 2),
        coprime=st.sampled_from([1, 7, 11, 13]),
    )
    def test_transitive_pair_matches_brute_force(
        self, n, l, num, down, coprime
    ):
        beta = Fraction(num, coprime * n**down)
        assert xn.transitive_pair(beta, l, n) == brute_transitive_pair(
            beta, l, n
        )

    def test_examples(self):
        assert xn.transitive_pair(4, 1, 6) == (2, 9)
        assert xn.transitive_pair(Fraction(1, 3), 1, 2) == (0, 1)
        assert xn.transitive_pair(Fraction(3, 4), 2, 2) == (0, 4)
        assert xn.integral_level(Fraction(1, 48), 12) == 2
        assert xn.integral_level(Fraction(1, 8), 4, l=2) == 1
        assert xn.integral_level(0, 5) == 0

    def test_search_refused_past_level_cap_or_budget(self):
        with pytest.raises(TooLarge, match="the formula gives k = 100"):
            xn.transitive_pair(2**100, 1, 6)
        with pytest.raises(TooLarge, match="535214 candidates"):
            xn.transitive_pair(2**60, 1, 6)
        assert xn.transitive_pair(2**60, 1, 2) == (60, 1)

    @pytest.mark.parametrize(
        "beta, l, n",
        [
            (2**19, 1, 6),
            (4, 1, 6),
            (Fraction(1, 3), 2, 12),
            (Fraction(3, 4), 2, 2),
        ],
    )
    def test_budget_counts_the_search_candidates(self, monkeypatch, beta, l, n):
        pair = xn.transitive_pair(beta, l, n)
        primes = xn._prime_signature(n).primes
        spread = max(abs(xn.p_valuation(beta, p)) for p, _ in primes)
        literal = sum(
            len(xn.smooth_divisors(n, l * level + spread + 1))
            for level in range(pair[0] + 1)
        )
        monkeypatch.setattr(xn, "SEARCH_BUDGET", literal)
        assert xn.transitive_pair(beta, l, n) == pair
        monkeypatch.setattr(xn, "SEARCH_BUDGET", literal - 1)
        with pytest.raises(TooLarge, match=f"up to {literal} candidates"):
            xn.transitive_pair(beta, l, n)

    def test_self_check_names_both_values(self, monkeypatch):
        monkeypatch.setattr(xn, "_search_pair", lambda beta, l, n: (5, 7))
        with pytest.raises(AssertionError) as failure:
            xn.transitive_pair(4, 1, 6)
        assert str(failure.value) == (
            "exponent self-check failed: formula (k, j) = (2, 9), "
            "search (5, 7)"
        )


class TestUnits:
    def test_frozen_examples(self):
        assert not xn.unit_in_base(10, 6)  # v_2(10)=1
        assert xn.unit_in_base(5, 6)
        assert xn.unit_in_base(35, 6)
        assert not xn.unit_in_base(Fraction(1, 2), 2)
        assert not xn.unit_in_base(0, 5)

    def test_unit_iff_valuation_zero_is_one_sided(self):
        # unit implies valuation_in_base 0; the converse fails for composite n
        assert xn.valuation_in_base(10, 6) == 0
        assert not xn.unit_in_base(10, 6)

    @given(x=rationals, n=st.sampled_from(BASES))
    def test_unit_implies_valuation_zero(self, x, n):
        if xn.unit_in_base(x, n):
            assert xn.valuation_in_base(x, n) == 0

    def test_ring_unit(self):
        assert xn.is_ring_unit(Fraction(4, 3), 6)
        assert xn.is_ring_unit(-8, 2)
        assert not xn.is_ring_unit(3, 2)
        assert not xn.is_ring_unit(Fraction(5, 2), 2)


class TestPowerQuotient:
    def test_frozen_examples(self):
        assert power_quotient(4, 3, 2) == 2
        with pytest.raises(NotDivisible):
            power_quotient(3, 1, 2)

    @given(
        n=st.sampled_from(BASES),
        k=st.integers(0, 8),
        data=st.data(),
    )
    def test_roundtrip(self, n, k, data):
        j = data.draw(st.sampled_from(_divisors_of_power(n, k)))
        assert j * power_quotient(j, k, n) == n**k

    def test_bad_params(self):
        with pytest.raises(InvalidParams):
            power_quotient(0, 1, 2)


def _divisors_of_power(n, k):
    target, out = n**k, []
    d = 1
    while d * d <= target:
        if target % d == 0:
            out.extend({d, target // d})
        d += 1
    return sorted(out)


class TestTruncatedInverse:
    def test_frozen_examples(self):
        assert truncated_inverse(3, 3, 2).residue == 3  # 3*3=9=1 mod 8
        with pytest.raises(NotInvertible):
            truncated_inverse(2, 2, 2)

    @given(
        n=st.sampled_from(BASES),
        d=st.integers(1, 6),
        x=st.integers(-500, 500),
    )
    def test_inverse_property(self, n, d, x):
        if not xn.unit_in_base(x, n):
            return
        inv = truncated_inverse(x, d, n)
        assert (x * inv.residue) % n**d == 1 % n**d

    def test_fractional_unit(self):
        # 3/5 is a unit in Z_2; its truncated inverse must multiply back to 1
        inv = truncated_inverse(Fraction(3, 5), 4, 2)
        assert xn.nadic_residue(Fraction(3, 5) * inv.residue, 4, 2) == 1

    def test_truncated_residue_levels(self):
        t = xn.TruncatedNAdic(base=2, precision=3, residue=6)
        assert [t.residue_at(i) for i in range(4)] == [0, 0, 2, 6]
        with pytest.raises(InvalidParams):
            t.residue_at(4)


class TestNadicResidue:
    def test_smooth_cases(self):
        assert xn.nadic_residue(Fraction(7), 2, 2) == 3
        assert xn.nadic_residue(Fraction(-1), 2, 2) == 3
        assert xn.nadic_residue(Fraction(5, 2), 1, 2) == Fraction(1, 2)

    def test_negative_height(self):
        r = xn.nadic_residue(Fraction(3, 8), -1, 2)
        assert 0 <= r < Fraction(1, 2)
        assert xn.in_ball(Fraction(3, 8) - r, -1, 2)

    @given(x=rationals, n=st.sampled_from(BASES), h=st.integers(-3, 5))
    def test_defining_property(self, x, n, h):
        r = xn.nadic_residue(x, h, n)
        assert 0 <= r < Fraction(n) ** h
        assert xn.smooth_denominator(r, n)
        assert xn.in_ball(x - r, h, n)

    def test_coprime_denominator(self):
        # 1/3 is a 2-adic integer; residue mod 4 is 3 since 3*3 = 9 = 1 mod 4
        assert xn.nadic_residue(Fraction(1, 3), 2, 2) == 3


class TestParsing:
    def test_roundtrip(self):
        for text in ["3", "-3/2", "0", "7/8"]:
            assert xn.format_rational(xn.parse_rational(text)) == text

    def test_errors(self):
        with pytest.raises(ParseError):
            xn.parse_rational("3/0")
        with pytest.raises(ParseError):
            xn.parse_rational("a/b")

    @given(
        p=st.integers(-(10**30), 10**30),
        q=st.integers(1, 10**30),
        scale=st.integers(1, 10**6),
    )
    def test_quotient_formats_like_the_fraction(self, p, q, scale):
        expected = xn.format_rational(Fraction(p, q))
        assert xn.format_quotient(p * scale, q * scale) == expected

    def test_quotient_past_the_digit_limit(self):
        huge = 10 ** (2 * sys.get_int_max_str_digits())
        for p, q in [(huge, 1), (1, huge + 1)]:
            with pytest.raises(TooLarge) as failure:
                xn.format_quotient(p, q)
            with pytest.raises(TooLarge) as reference:
                xn.format_rational(Fraction(p, q))
            assert str(failure.value) == str(reference.value)
        assert xn.format_quotient(huge * 3, huge * 2) == "3/2"


# The guards the size table replaced, as they stood, kept as oracles.


def old_check_printable(n, h):
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    if limit and (abs(h) > 4 * limit or n ** abs(h) >= 10**limit):
        raise TooLarge(f"centers at height {h} can exceed {limit} digits")


def old_check_cone(n, depth, copies=1):
    cap = xn.ORBIT_CONE_CAP
    if n >= 2 and (depth >= cap.bit_length() or copies * n**depth > cap):
        count = f"{n}^{depth}" if copies == 1 else f"{copies} * {n}^{depth}"
        raise TooLarge(f"{count} cone vertices; cap is {cap}")


def old_power_exceeds(n, k, cap):
    """n**k > cap for n >= 2 and k >= 0."""
    return k >= cap.bit_length() or n**k > cap


def old_certification_guard(n, depth):
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    count = f"more than 10^{limit}"
    if abs(n) < 2 or depth * (abs(n).bit_length() - 1) <= 4 * limit:
        steps = depth if n == 1 else (n ** (depth + 1) - n) // (n - 1)
        if steps <= 2 * xn.SIZE_CAP:
            return
        with contextlib.suppress(ValueError):
            count = str(steps)
    elif n < 0 and depth % 2:
        return
    raise TooLarge(f"orbit certification needs {count} steps; reduce depth")


def refusal(guard, *args):
    """The message of the TooLarge a guard raises, or None."""
    try:
        guard(*args)
    except TooLarge as exc:
        return str(exc)
    return None


LIMIT = sys.get_int_max_str_digits()
CAPS = {
    "top": xn.TOP_CAP,
    "byte": 256,
    "cone": xn.ORBIT_CONE_CAP,
    "size": xn.SIZE_CAP,
    "steps": 2 * xn.SIZE_CAP,
    "digits": 10**LIMIT - 1,
    "printable-steps": 2 ** (4 * LIMIT),
    "scaling": xn.SCALING_CAP,
}


@functools.cache
def crossing(n, cap):
    """The least e >= 0 with |n|**e > cap (None for |n| < 2)."""
    if abs(n) < 2:
        return None
    e = max(0, int(cap.bit_length() / math.log2(abs(n))) - 2)
    while abs(n) ** e <= cap:
        e += 1
    return e


@functools.cache
def thresholds(n):
    """Where the guards' answers or shortcuts switch, for base n."""
    found = {4 * LIMIT}
    for cap in CAPS.values():
        found.add(cap.bit_length())
        found.add(crossing(n, cap) or 0)
        if abs(n) >= 2:  # where exponent * (bit length - 1) passes the cap
            found.add(cap.bit_length() // (abs(n).bit_length() - 1))
    return sorted(found)


@st.composite
def base_and_exponent(draw, cap=None):
    """n in [-3, 10], and an exponent on either side of a threshold."""
    n = draw(st.integers(min_value=-3, max_value=10))
    near = crossing(n, cap) if cap else draw(st.sampled_from(thresholds(n)))
    exponent = draw(
        st.integers(min_value=0, max_value=40)
        | st.integers(min_value=-3, max_value=3).map(
            lambda d: max(0, (near or 0) + d)
        )
    )
    return n, exponent


class TestSizeTable:
    @pytest.mark.parametrize("name", CAPS)
    @given(data=st.data())
    def test_power_exceeds_agrees_with_the_lab_predicate(self, name, data):
        cap = CAPS[name]
        n, k = data.draw(base_and_exponent(cap))
        if n >= 2:
            assert xn.power_exceeds(n, k, cap) == old_power_exceeds(n, k, cap)
        assert xn.power_exceeds(n, k, cap) == (n**k > cap)

    def test_power_exceeds_answers_huge_exponents_at_once(self):
        start = time.perf_counter()
        for n in (2, 3, 10, 10**4000):
            assert xn.power_exceeds(n, 10**15, xn.SCALING_CAP)
            assert not xn.power_exceeds(-n, 10**15 + 1, xn.SCALING_CAP)
        assert not xn.power_exceeds(1, 10**15, xn.TOP_CAP)
        assert time.perf_counter() - start < 0.1

    @given(base_and_exponent(), st.sampled_from([1, -1]))
    def test_check_printable_matches_the_old_guard(self, pair, sign):
        n, h = pair
        assert refusal(xn.check_printable, n, sign * h) == refusal(
            old_check_printable, n, sign * h
        )

    @given(
        base_and_exponent(),
        st.integers(min_value=1, max_value=20)
        | st.integers(min_value=1, max_value=3 * xn.ORBIT_CONE_CAP),
    )
    def test_check_cone_matches_the_old_guard(self, pair, copies):
        from bslat.cli import _check_cone

        n, depth = pair
        assert refusal(_check_cone, n, depth, copies) == refusal(
            old_check_cone, n, depth, copies
        )

    @given(base_and_exponent())
    def test_certification_guard_matches_the_old_guard(self, pair):
        from bslat.lab import _certification_guard

        n, depth = pair
        assert refusal(_certification_guard, n, depth) == refusal(
            old_certification_guard, n, depth
        )

    def test_check_scaling_words_a_negative_power_by_its_denominator(self):
        assert refusal(xn.check_scaling, 2, 262143) is None
        assert refusal(xn.check_scaling, 2, -262143) is None
        assert refusal(xn.check_scaling, 2, 300000) == (
            "2^300000 has more than 262144 bits"
        )
        assert refusal(xn.check_scaling, 2, -300000) == (
            "the denominator of 2^-300000 has more than 262144 bits"
        )
