from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bslat import bsgroup as bs
from bslat.errors import BaseMismatch, InvalidGenerator, InvalidParams, ParseError
from bslat.exactnum import is_ring_unit, smooth_denominator, smooth_divisors


def w(N, text):
    return bs.BSWord.from_text(N, text)


def theta_is_automorphism(m, N):
    """a -> a^m extends to an automorphism iff every prime of m divides N."""
    if m < 1:
        raise InvalidParams("m must be >= 1")
    return is_ring_unit(m, N)


def in_image_theta(word, m):
    """True iff the element lies in the image of a -> a^m, b -> b.

    The image subgroup <a^m, b> consists exactly of the elements whose
    translation part lies in m * Z[1/N].
    """
    if m < 1:
        raise InvalidParams("m must be >= 1")
    return smooth_denominator(bs.evaluate(word).c / m, word.N)


def stepwise_normal_form(inv):
    # the library's loop before x was read off the valuations: raise x one
    # step at a time until N**x * c is an integer and x + h >= 0
    x = 0
    while (Fraction(inv.N) ** x * inv.c).denominator != 1 or x + inv.h < 0:
        x += 1
    y = int(Fraction(inv.N) ** x * inv.c)
    return bs.BSNormalForm(inv.N, x, y, x + inv.h)


class TestParsing:
    def test_case_insensitive(self):
        assert w(2, "B^-1 A B").letters == w(2, "b^-1 a b").letters

    def test_merging(self):
        assert w(2, "a a a").letters == (("a", 3),)
        assert w(2, "a b b^-1 a^-1").letters == ()

    def test_render_roundtrip(self):
        for text in ["b^-1 a b", "a^5", "1", "b^2 a^-3"]:
            assert str(w(2, text)) == text

    def test_errors(self):
        with pytest.raises(ParseError):
            w(2, "a^")
        with pytest.raises(ParseError):
            w(2, "x y")
        with pytest.raises(ParseError):
            w(2, "ab")  # letters must be whitespace-separated


class TestEvaluate:
    def test_frozen_examples(self):
        inv = bs.evaluate(w(2, "b^-1 a b"))
        assert (inv.h, inv.c) == (0, Fraction(1, 2))
        inv = bs.evaluate(w(2, ""))
        assert (inv.h, inv.c) == (0, 0)
        inv = bs.evaluate(w(2, "a b a b^-1"))
        assert (inv.h, inv.c) == (0, 3)

    def test_homomorphism(self):
        u, v = w(2, "b^-1 a"), w(2, "a^3 b^2 a")
        assert bs.evaluate(u * v) == bs.evaluate(u).compose(bs.evaluate(v))

    def test_word_inverse(self):
        word = w(3, "b^-2 a^5 b a^-1")
        assert bs.evaluate(word * word.inverse()) == bs.AffineInvariant.identity(3)


class TestNormalize:
    def test_frozen_examples(self):
        nf = bs.normalize(w(2, "b^-1 a b"))
        assert (nf.x, nf.y, nf.z) == (1, 1, 1)
        nf = bs.normalize(w(2, "b^-1 a b b^-1 a b"))
        assert (nf.x, nf.y, nf.z) == (0, 1, 0)
        nf = bs.normalize(w(3, "a^5"))
        assert (nf.x, nf.y, nf.z) == (0, 5, 0)

    def test_pure_b_powers(self):
        assert bs.normalize(w(2, "b^3")) == bs.BSNormalForm(2, 0, 0, 3)
        assert bs.normalize(w(2, "b^-2")) == bs.BSNormalForm(2, 2, 0, 0)

    def test_idempotent(self):
        nf = bs.normalize(w(2, "b^-2 a^3 b"))
        assert bs.normal_form_of(nf.invariant()) == nf

    @given(
        data=st.data(),
        N=st.sampled_from([2, 3, 4, 6, 10, 12]),
        h=st.integers(-8, 8),
        y=st.integers(-500, 500),
    )
    def test_matches_stepwise_loop(self, data, N, h, y):
        # every denominator in Z[1/N] up to N**6, prime powers included
        d = data.draw(st.sampled_from(smooth_divisors(N, 6)))
        inv = bs.AffineInvariant(N, h, Fraction(y, d))
        assert bs.normal_form_of(inv) == stepwise_normal_form(inv)

    def test_self_check_names_both_values(self, monkeypatch):
        monkeypatch.setattr(bs, "integral_level", lambda c, N: 0)
        with pytest.raises(AssertionError) as failure:
            bs.normal_form_of(bs.AffineInvariant(2, 0, Fraction(1, 2)))
        message = str(failure.value)
        assert message.startswith("normal form self-check failed")
        assert "x=0, y=0, z=0" in message and "c=Fraction(1, 2)" in message

    def test_invariant_enforced(self):
        with pytest.raises(InvalidParams):
            bs.BSNormalForm(2, 1, 2, 1)
        with pytest.raises(InvalidParams):
            bs.BSNormalForm(2, 1, 0, 1)

    def test_defining_relation_all_small_N(self):
        for N in range(2, 13):
            lhs = bs.normalize(w(N, "b a b^-1"))
            rhs = bs.normalize(w(N, f"a^{N}"))
            assert lhs == rhs == bs.BSNormalForm(N, 0, N, 0)

    def test_injective_on_valid_triples_exhaustive(self):
        # distinct valid (x, y, z) triples give distinct invariants
        for N in (2, 3):
            seen = {}
            for x in range(5):
                for z in range(5):
                    for y in range(-50, 51):
                        if x > 0 and z > 0 and y % N == 0:
                            continue
                        inv = bs.BSNormalForm(N, x, y, z).invariant()
                        key = (inv.h, inv.c)
                        assert key not in seen, (seen[key], (x, y, z))
                        seen[key] = (x, y, z)


class TestMultiply:
    def test_frozen_examples(self):
        a = bs.BSNormalForm(2, 0, 1, 0)
        assert bs.multiply(a, a) == bs.BSNormalForm(2, 0, 2, 0)
        assert bs.invert(bs.BSNormalForm(2, 1, 1, 1)) == bs.BSNormalForm(2, 1, -1, 1)
        assert bs.multiply(a, bs.BSNormalForm(2, 1, 1, 1)) == bs.BSNormalForm(
            2, 1, 3, 1
        )

    def test_base_mismatch(self):
        with pytest.raises(BaseMismatch):
            bs.multiply(bs.BSNormalForm(2, 0, 1, 0), bs.BSNormalForm(3, 0, 1, 0))

    @given(
        N=st.sampled_from([2, 3, 6]),
        hs=st.lists(st.integers(-3, 3), min_size=3, max_size=3),
        ys=st.lists(st.integers(-40, 40), min_size=3, max_size=3),
        es=st.lists(st.integers(0, 3), min_size=3, max_size=3),
    )
    def test_group_laws(self, N, hs, ys, es):
        elems = [
            bs.normal_form_of(bs.AffineInvariant(N, h, Fraction(y, N**e)))
            for h, y, e in zip(hs, ys, es)
        ]
        u, v, t = elems
        assert bs.multiply(bs.multiply(u, v), t) == bs.multiply(u, bs.multiply(v, t))
        ident = bs.normal_form_of(bs.AffineInvariant.identity(N))
        assert bs.multiply(u, bs.invert(u)) == ident
        assert bs.multiply(bs.invert(u), u) == ident


class TestCollins:
    def test_frozen_examples(self):
        assert str(bs.apply_collins("D", w(2, "a b a"))) == "a^-1 b a^-1"
        assert str(bs.apply_collins("C", w(2, "b"))) == "a b"
        assert str(bs.apply_collins("theta_3", w(2, "a"))) == "a^3"
        assert not theta_is_automorphism(3, 2)
        assert theta_is_automorphism(2, 2)
        assert theta_is_automorphism(12, 6)

    def test_inner_generators(self):
        word = w(2, "b^-1 a^3 b^2")
        for gen, conj in [("A", "a"), ("B", "b")]:
            image = bs.apply_collins(gen, word)
            direct = w(2, conj) * word * w(2, conj).inverse()
            assert bs.evaluate(image) == bs.evaluate(direct)

    def test_d_is_an_involution(self):
        for text in ["a", "b", "b^-1 a^5 b^2"]:
            word = w(2, text)
            assert bs.normalize(bs.apply_collins("D", bs.apply_collins("D", word))) == bs.normalize(word)

    def test_d_conjugates_c_to_its_inverse(self):
        # D C D = C^-1, where C^-1 sends a -> a, b -> a^-1 b; checked on the
        # images of both generators for several N
        for N in (2, 3, 5):
            for gen_text, inverse_image in [("a", "a"), ("b", "a^-1 b")]:
                chained = bs.apply_collins(
                    "D", bs.apply_collins("C", bs.apply_collins("D", w(N, gen_text)))
                )
                assert bs.evaluate(chained) == bs.evaluate(w(N, inverse_image))

    def test_c_is_inner_only_for_base_two(self):
        # C equals conjugation by a^-1 exactly when N = 2
        for text in ["a", "b", "b^-1 a b^2"]:
            word = w(2, text)
            conj = w(2, "a^-1") * word * w(2, "a")
            assert bs.evaluate(bs.apply_collins("C", word)) == bs.evaluate(conj)
        word = w(3, "b")
        conj = w(3, "a^-1") * word * w(3, "a")
        assert bs.evaluate(bs.apply_collins("C", word)) != bs.evaluate(conj)

    def test_power_maps_commute(self):
        word = w(6, "b^-1 a b a^2")
        q1q2 = bs.apply_collins("Q1", bs.apply_collins("Q2", word))
        q2q1 = bs.apply_collins("Q2", bs.apply_collins("Q1", word))
        assert bs.evaluate(q1q2) == bs.evaluate(q2q1)

    def test_theta_composes(self):
        word = w(2, "b^-1 a^3 b")
        lhs = bs.apply_collins("theta_2", bs.apply_collins("theta_4", word))
        assert bs.evaluate(lhs) == bs.evaluate(bs.apply_collins("theta_8", word))

    def test_invalid_generators(self):
        with pytest.raises(InvalidGenerator):
            bs.apply_collins("E", w(2, "a"))
        with pytest.raises(InvalidGenerator):
            bs.apply_collins("Q2", w(2, "a"))  # 2 has a single prime
        with pytest.raises(InvalidGenerator):
            bs.apply_collins("theta_0", w(2, "a"))


class TestThetaImage:
    def test_frozen_examples(self):
        assert in_image_theta(w(2, "a"), 2)
        assert not in_image_theta(w(2, "a"), 3)
        assert in_image_theta(w(2, "b"), 5)

    def test_conjugated_member(self):
        # b^-k a^{m j} b^k has translation part m*j/N^k, inside m*Z[1/N]
        word = w(2, "b^-2 a^6 b^2")
        assert in_image_theta(word, 3)
        assert not in_image_theta(w(2, "b^-2 a^6 b^2 a"), 3)
