from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bslat import exactnum as xn
from bslat.errors import (
    BaseMismatch,
    InvalidParams,
    NotDivisible,
    NotInvertible,
    ParseError,
)

BASES = [2, 3, 4, 6, 10, 12]


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


def naive_in_ball(q: Fraction, h: int, n: int) -> bool:
    # q in n^h Z_n iff q / n^h has, at every prime of n, no denominator part
    shifted = q / Fraction(n) ** h
    primes = [p for p, _ in xn.PrimeSignature.of(n).primes]
    return all(naive_p_valuation(shifted, p) >= 0 for p in primes if shifted)


rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=512
)


def ninvertibles(base):
    return st.builds(
        lambda a, e: xn.NInvertible(Fraction(a, base**e), base),
        st.integers(min_value=-400, max_value=400),
        st.integers(min_value=0, max_value=4),
    )


class TestPrimeSignature:
    def test_examples(self):
        assert xn.PrimeSignature.of(12).primes == ((2, 2), (3, 1))
        assert xn.PrimeSignature.of(2).primes == ((2, 1),)
        assert xn.PrimeSignature.of(9).primes == ((3, 2),)

    def test_bad_base(self):
        with pytest.raises(InvalidParams):
            xn.PrimeSignature.of(1)


class TestValuation:
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
            sig = xn.PrimeSignature.of(n).primes
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


class TestNInvertible:
    def test_membership(self):
        xn.NInvertible.of("3/8", 2)
        xn.NInvertible.of(Fraction(5, 12), 6)
        with pytest.raises(InvalidParams):
            xn.NInvertible.of(Fraction(1, 3), 2)
        with pytest.raises(InvalidParams):
            xn.NInvertible.of(Fraction(1, 10), 4)

    def test_arithmetic_examples(self):
        a = xn.NInvertible.of("5/2", 6)
        b = xn.NInvertible.of("1/3", 6)
        assert (a + b).value == Fraction(17, 6)
        assert (a * b).value == Fraction(5, 6)
        assert (-a).value == Fraction(-5, 2)

    def test_base_mismatch(self):
        with pytest.raises(BaseMismatch):
            xn.NInvertible.of(1, 2) + xn.NInvertible.of(1, 3)

    def test_division_closure(self):
        a = xn.NInvertible.of(Fraction(3, 2), 2)
        assert (a / 3).value == Fraction(1, 2)
        with pytest.raises(NotInvertible):
            a / 5

    def test_negative_power(self):
        u = xn.NInvertible.of(-2, 2)
        assert (u**-1).value == Fraction(-1, 2)
        with pytest.raises(NotInvertible):
            xn.NInvertible.of(3, 2) ** -1

    @given(n=st.sampled_from(BASES), data=st.data())
    def test_ring_laws(self, n, data):
        x = data.draw(ninvertibles(n))
        y = data.draw(ninvertibles(n))
        z = data.draw(ninvertibles(n))
        assert ((x + y) + z).value == (x + (y + z)).value
        assert (x * (y + z)).value == (x * y + x * z).value
        assert (x * y).value == (y * x).value

    def test_spec_surface(self):
        x = xn.NInvertible.of(12, 2)
        assert xn.valuation_in_base(x.value, x.base) == 2
        assert not xn.unit_in_base(x.value, x.base)
        assert xn.unit_in_base(3, 2)
        assert xn.valuation_in_base(0, 2) is xn.INFINITY


class TestPowerQuotient:
    def test_frozen_examples(self):
        assert xn.power_quotient(4, 3, 2) == 2
        with pytest.raises(NotDivisible):
            xn.power_quotient(3, 1, 2)

    @given(
        n=st.sampled_from(BASES),
        k=st.integers(0, 8),
        data=st.data(),
    )
    def test_roundtrip(self, n, k, data):
        j = data.draw(st.sampled_from(_divisors_of_power(n, k)))
        assert j * xn.power_quotient(j, k, n) == n**k

    def test_bad_params(self):
        with pytest.raises(InvalidParams):
            xn.power_quotient(0, 1, 2)


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
        assert xn.truncated_inverse(3, 3, 2).residue == 3  # 3*3=9=1 mod 8
        with pytest.raises(NotInvertible):
            xn.truncated_inverse(2, 2, 2)

    @given(
        n=st.sampled_from(BASES),
        d=st.integers(1, 6),
        x=st.integers(-500, 500),
    )
    def test_inverse_property(self, n, d, x):
        if not xn.unit_in_base(x, n):
            return
        inv = xn.truncated_inverse(x, d, n)
        assert (x * inv.residue) % n**d == 1 % n**d

    def test_fractional_unit(self):
        # 3/5 is a unit in Z_2; its truncated inverse must multiply back to 1
        inv = xn.truncated_inverse(Fraction(3, 5), 4, 2)
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
