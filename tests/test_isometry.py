"""Arithmetic isometries: composition, the dichotomy, td, the splitting."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bslat.errors import BaseMismatch, InvalidParams, NotElliptic, NotInvertible
from bslat.exactnum import is_ring_unit
from bslat.isometry import (
    AmbientAutomorphism,
    ArithmeticIsometry,
    IsometryType,
    apply_automorphism,
    classify_type,
    decompose,
    translation_distance,
)
from bslat.tree import BallAffineMap

BASES = st.sampled_from([2, 3, 4, 6])


@st.composite
def isometries(draw, base=None, eps=None, elliptic=False, invertible=False):
    n = base or draw(BASES)
    h = 0 if elliptic else draw(st.integers(min_value=-2, max_value=2))
    if invertible:
        unit = draw(st.sampled_from([1, -1]))
    else:
        unit = draw(
            st.integers(min_value=1, max_value=25).filter(
                lambda w: all(w % p for p in (2, 3, 5) if n % p == 0)
            )
        ) * draw(st.sampled_from([1, -1]))
    beta = Fraction(draw(st.integers(min_value=-36, max_value=36)), n**2)
    alpha = Fraction(
        draw(st.integers(min_value=-30, max_value=30)),
        draw(st.integers(min_value=1, max_value=9)),
    )
    sign = eps or draw(st.sampled_from([1, -1]))
    return ArithmeticIsometry(
        n, sign, h, alpha, BallAffineMap(n, h, unit * Fraction(n) ** h, beta)
    )


def unit_pair(n):
    return ArithmeticIsometry.standard_generator_pair(n)


class TestValidation:
    def test_height_must_match_tree(self):
        with pytest.raises(InvalidParams):
            ArithmeticIsometry(
                2, 1, 1, Fraction(0), BallAffineMap.identity(2)
            )

    def test_eps_is_a_sign(self):
        with pytest.raises(InvalidParams):
            ArithmeticIsometry(
                2, 0, 0, Fraction(0), BallAffineMap.identity(2)
            )

    def test_base_mismatch(self):
        with pytest.raises(BaseMismatch):
            ArithmeticIsometry(
                3, 1, 0, Fraction(0), BallAffineMap.identity(2)
            )

    def test_alpha_may_have_foreign_denominator(self):
        f = ArithmeticIsometry.real_translation(2, Fraction(7, 3))
        assert f.alpha == Fraction(7, 3)


class TestCompose:
    def test_defining_relation(self):
        a, b = unit_pair(2)
        lhs = b.compose(a)
        rhs = a.power(2).compose(b)
        expected = ArithmeticIsometry(
            2, 1, 1, Fraction(2), BallAffineMap(2, 1, Fraction(2), Fraction(2))
        )
        assert lhs == rhs == expected

    def test_inverse_of_translation(self):
        a, _ = unit_pair(2)
        assert a.inverse() == ArithmeticIsometry(
            2, 1, 0, Fraction(-1), BallAffineMap.translation(2, -1)
        )

    def test_reflection_squares_to_identity(self):
        c = ArithmeticIsometry(
            2, -1, 0, Fraction(1), BallAffineMap(2, 0, Fraction(-1), Fraction(1))
        )
        assert c.compose(c).is_identity()

    @given(isometries(base=2), isometries(base=2), isometries(base=2))
    def test_associative(self, f, g, h):
        assert f.compose(g).compose(h) == f.compose(g.compose(h))

    @given(isometries(invertible=True))
    def test_two_sided_inverse(self, f):
        assert f.compose(f.inverse()).is_identity()
        assert f.inverse().compose(f).is_identity()

    @given(isometries())
    def test_inverse_needs_invertible_tree_part(self, f):
        if is_ring_unit(f.tree.u, f.n):
            f.inverse()
        else:
            with pytest.raises(NotInvertible):
                f.inverse()

    @given(isometries(base=3), isometries(base=3))
    def test_height_and_sign_are_homomorphisms(self, f, g):
        fg = f.compose(g)
        assert fg.h == f.h + g.h
        assert fg.eps == f.eps * g.eps

    @given(isometries(), st.integers(min_value=0, max_value=6))
    def test_power_matches_iteration(self, f, k):
        step = ArithmeticIsometry.identity(f.n)
        for _ in range(k):
            step = step.compose(f)
        assert f.power(k) == step

    @given(isometries(base=2), isometries(base=2))
    def test_conjugation_is_total_and_consistent(self, f, g):
        conj = f.conjugated_by(g)
        # defining property checked without inverting g
        assert g.compose(f) == conj.compose(g)

    def test_real_map_evaluation(self):
        _, b = unit_pair(2)
        assert b.real_map(Fraction(3, 2)) == 3
        c = ArithmeticIsometry(
            2, -1, 0, Fraction(5), BallAffineMap.identity(2)
        )
        assert c.real_map(2) == 3


class TestClassify:
    def test_scaling_is_hyperbolic(self):
        _, b = unit_pair(2)
        assert classify_type(b) == IsometryType.HYPERBOLIC

    def test_translation_is_elliptic(self):
        a, _ = unit_pair(2)
        assert classify_type(a) == IsometryType.ELLIPTIC

    def test_pure_real_translation_is_elliptic(self):
        f = ArithmeticIsometry.real_translation(2, 5)
        assert classify_type(f) == IsometryType.ELLIPTIC

    @given(isometries())
    def test_matches_height(self, f):
        assert (classify_type(f) == IsometryType.HYPERBOLIC) == (f.h != 0)


class TestTranslationDistance:
    def test_reads_alpha(self):
        f = ArithmeticIsometry(
            2, 1, 0, Fraction(3, 2),
            BallAffineMap.translation(2, Fraction(3, 2)),
        )
        assert translation_distance(f) == Fraction(3, 2)

    def test_conjugation_by_scaling_doubles(self):
        a, b = unit_pair(2)
        assert translation_distance(a.conjugated_by(b)) == 2

    def test_identity_has_zero(self):
        assert translation_distance(ArithmeticIsometry.identity(2)) == 0

    def test_rejects_hyperbolic_and_reversing(self):
        _, b = unit_pair(2)
        with pytest.raises(NotElliptic):
            translation_distance(b)
        c = ArithmeticIsometry(
            2, -1, 0, Fraction(1), BallAffineMap(2, 0, Fraction(-1), Fraction(1))
        )
        with pytest.raises(NotElliptic):
            translation_distance(c)

    @given(isometries(eps=1, elliptic=True), isometries())
    def test_equivariance(self, f, g):
        if g.n != f.n:
            return
        expected = g.eps * Fraction(f.n) ** g.h * translation_distance(f)
        assert translation_distance(f.conjugated_by(g)) == expected


class TestDecompose:
    def test_unit_translation(self):
        a, b = unit_pair(2)
        amount, pure = decompose(a)
        assert amount == 1
        assert pure == ArithmeticIsometry.pure_tree(
            BallAffineMap.translation(2, 1)
        )
        assert decompose(b) == (Fraction(0), b)

    def test_mixed_element(self):
        a, b = unit_pair(2)
        amount, pure = decompose(a.compose(b))
        assert amount == 1
        assert pure.tree == BallAffineMap(2, 1, Fraction(2), Fraction(1))

    @given(isometries(eps=1))
    def test_round_trip(self, f):
        amount, pure = decompose(f)
        assert pure.alpha == 0
        rebuilt = ArithmeticIsometry.real_translation(f.n, amount).compose(pure)
        assert rebuilt == f

    @given(isometries(eps=1), isometries(eps=1))
    def test_semidirect_rule(self, f, g):
        if g.n != f.n:
            return
        amount_f, pure_f = decompose(f)
        amount_g, _ = decompose(g)
        combined, _ = decompose(f.compose(g))
        assert combined == amount_f + Fraction(f.n) ** pure_f.h * amount_g


class TestAmbientAutomorphism:
    def test_validation(self):
        with pytest.raises(InvalidParams):
            AmbientAutomorphism(Fraction(0), ArithmeticIsometry.identity(2))
        with pytest.raises(InvalidParams):
            AmbientAutomorphism(
                Fraction(1), ArithmeticIsometry.real_translation(2, 1)
            )

    def test_scaling_by_two(self):
        a, _ = unit_pair(2)
        got = apply_automorphism(AmbientAutomorphism.scaling(2, 2), a)
        assert got == ArithmeticIsometry(
            2, 1, 0, Fraction(2), BallAffineMap.translation(2, 1)
        )

    def test_scaling_by_minus_one(self):
        a, _ = unit_pair(2)
        got = apply_automorphism(AmbientAutomorphism.scaling(2, -1), a)
        assert got.alpha == -1
        assert got.tree == a.tree

    @given(isometries(eps=1, base=2), st.data())
    def test_pure_conjugation_case(self, f, data):
        g = data.draw(isometries(base=2, eps=1))
        conjugator = ArithmeticIsometry.pure_tree(g.tree)
        phi = AmbientAutomorphism(Fraction(1), conjugator)
        assert apply_automorphism(phi, f) == f.conjugated_by(conjugator)

    @given(st.data())
    def test_preserves_group_structure(self, data):
        f = data.draw(isometries(base=2, eps=1))
        g = data.draw(isometries(base=2, eps=1))
        conj = ArithmeticIsometry.pure_tree(
            data.draw(isometries(base=2, eps=1)).tree
        )
        phi = AmbientAutomorphism(Fraction(5, 3), conj)
        lhs = apply_automorphism(phi, f.compose(g))
        rhs = apply_automorphism(phi, f).compose(apply_automorphism(phi, g))
        assert lhs == rhs

    @given(st.data())
    def test_action_law(self, data):
        f = data.draw(isometries(base=2, eps=1))
        g1 = ArithmeticIsometry.pure_tree(
            data.draw(isometries(base=2, eps=1)).tree
        )
        g2 = ArithmeticIsometry.pure_tree(
            data.draw(isometries(base=2, eps=1)).tree
        )
        phi1 = AmbientAutomorphism(Fraction(3), g1)
        phi2 = AmbientAutomorphism(Fraction(-1, 2), g2)
        stepwise = apply_automorphism(phi2, apply_automorphism(phi1, f))
        assert stepwise == apply_automorphism(phi2.compose(phi1), f)


class TestSerialization:
    def test_fixed_payload(self):
        _, b = unit_pair(2)
        assert b.to_json() == {
            "eps": 1, "h": 1, "alpha": "0", "u": "2", "beta": "0"
        }

    @given(isometries())
    def test_round_trip(self, f):
        assert ArithmeticIsometry.from_json(f.n, f.to_json()) == f
