"""Tree vertices, ball-affine actions, level permutations, conjugators."""

import dataclasses
import itertools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from bslat.errors import (
    AxisMismatch,
    DoesNotFix,
    HeightMismatch,
    InvalidParams,
    NotCommuting,
    NotElliptic,
    NotHyperbolic,
    NotInvertible,
    NotMember,
    TooLarge,
)
from bslat.exactnum import (
    INFINITY,
    TruncatedNAdic,
    format_quotient,
    format_rational,
    nadic_residue,
    smooth_denominator,
    unit_in_base,
    valuation_in_base,
)
from bslat.tree import (
    _certify_window,
    BallAffineMap,
    LevelPermAutomorphism,
    PartialTreeMap,
    TreeVertex,
    act,
    act_inverse,
    act_power,
    axis_vertex,
    build_conjugator,
    enumerate_cone_tops,
    fixes,
    is_transitive_on_up,
    label_above,
    levelwise_translation,
    restrict_to_up,
    subtree_dot,
    translation_amount,
    vertex_above,
)

BASES = st.sampled_from([2, 3, 4, 6])


# Oracles and generators that only the tests need.


def child(v, digit):
    """The upward neighbor of v whose new top digit is ``digit``."""
    return TreeVertex(v.n, v.h + 1, v.c + Fraction(v.n) ** v.h * digit)


def transitive_forever(beta, w):
    """Exact form of transitivity at every level simultaneously: the
    translation by beta fixing w is transitive on every level above w iff
    beta / n**h_w is a unit of Z_n."""
    return unit_in_base(Fraction(beta) / Fraction(w.n) ** w.h, w.n)


def truncate(f, depth):
    """The restriction of a cone automorphism to its first depth levels."""
    if not 0 <= depth <= f.depth:
        raise InvalidParams(f"depth {depth} outside [0, {f.depth}]")
    return LevelPermAutomorphism(f.n, f.perms[:depth])


def automorphism_of_top(n, top):
    """The automorphism with top-level permutation top, its lower levels
    being reductions mod n**i, built by the validating constructor."""
    perms, size = [], 1
    while size < len(top):
        size *= n
        perms.append([label % size for label in top[:size]])
    return LevelPermAutomorphism(n, perms)


def enumerate_cone_automorphisms(n, depth):
    """All cone automorphisms of the given depth, in canonical order."""
    for top in enumerate_cone_tops(n, depth):
        yield automorphism_of_top(n, top)


@st.composite
def vertices(draw, base=None):
    n = base or draw(BASES)
    h = draw(st.integers(min_value=-3, max_value=4))
    num = draw(st.integers(min_value=0, max_value=n ** (h + 3) - 1))
    return TreeVertex(n, h, Fraction(num, n**3))


@st.composite
def ball_maps(draw, base=None, elliptic=False):
    n = base or draw(BASES)
    h = 0 if elliptic else draw(st.integers(min_value=-2, max_value=2))
    unit = draw(
        st.integers(min_value=1, max_value=25).filter(
            lambda w: all(w % p for p in (2, 3, 5) if n % p == 0)
        )
    )
    sign = draw(st.sampled_from([1, -1]))
    beta = Fraction(draw(st.integers(min_value=-64, max_value=64)), n**2)
    return BallAffineMap(n, h, sign * unit * Fraction(n) ** h, beta)


class TestTreeVertex:
    def test_canonicalizes_center(self):
        assert TreeVertex.of(2, 2, 7).c == 3
        assert TreeVertex.of(2, 2, -1).c == 3
        assert TreeVertex.of(3, 1, Fraction(10, 3)).c == Fraction(1, 3)

    def test_rejects_non_canonical_center(self):
        with pytest.raises(InvalidParams):
            TreeVertex(2, 2, Fraction(5))
        with pytest.raises(InvalidParams):
            TreeVertex(2, 1, Fraction(1, 3))

    def test_parent_drops_top_digit(self):
        assert TreeVertex.of(2, 3, 5).parent == TreeVertex.of(2, 2, 1)
        assert TreeVertex.root(2).parent == TreeVertex(2, -1, Fraction(0))

    def test_negative_height_vertices(self):
        v = TreeVertex(2, -1, Fraction(1, 4))
        assert v.parent == TreeVertex(2, -2, Fraction(0))
        assert child(v, 1) == TreeVertex(2, 0, Fraction(3, 4))

    @given(vertices(), st.data())
    def test_child_then_parent(self, v, data):
        digit = data.draw(st.integers(min_value=0, max_value=v.n - 1))
        assert child(v, digit).parent == v

    def test_is_above(self):
        root = TreeVertex.root(2)
        v = TreeVertex.of(2, 2, 3)
        assert v.is_above(root)
        assert v.is_above(v)
        assert not root.is_above(v)
        assert not v.is_above(TreeVertex.of(2, 1, 0))  # 3 mod 2 = 1

    def test_json_round_trip(self):
        v = TreeVertex(6, -1, Fraction(1, 12))
        assert TreeVertex.from_json(6, v.to_json()) == v
        assert v.to_json() == {"h": -1, "c": "1/12"}

    def test_json_height_past_the_scaling_cap_is_refused(self):
        assert TreeVertex.from_json(2, {"h": 262143, "c": "5"}).c == 5
        for h in (262144, -262144, 99999999999):
            start = time.perf_counter()
            with pytest.raises(TooLarge, match="more than 262144 bits"):
                TreeVertex.from_json(2, {"h": h, "c": "0"})
            assert time.perf_counter() - start < 2
        with pytest.raises(InvalidParams):  # the base is named first
            TreeVertex.from_json(-2, {"h": 99999999999, "c": "0"})


class TestLabels:
    @given(vertices(), st.data())
    def test_label_vertex_round_trip(self, w, data):
        level = data.draw(st.integers(min_value=0, max_value=3))
        label = data.draw(st.integers(min_value=0, max_value=w.n**level - 1))
        v = vertex_above(w, level, label)
        assert label_above(w, v) == label

    def test_label_requires_membership(self):
        with pytest.raises(NotMember):
            label_above(TreeVertex.of(2, 1, 1), TreeVertex.of(2, 2, 0))


class TestBallAffineMap:
    def test_validates_scaling_factor(self):
        with pytest.raises(InvalidParams):
            BallAffineMap(2, 1, Fraction(3), Fraction(0))
        with pytest.raises(InvalidParams):
            BallAffineMap(4, 1, Fraction(2), Fraction(0))  # need v_2 = 2
        with pytest.raises(InvalidParams):
            BallAffineMap(6, 1, Fraction(12), Fraction(0))  # v_3 = 1, v_2 = 2
        # composite coefficients with the right valuations are fine
        BallAffineMap(2, 1, Fraction(6), Fraction(0))
        BallAffineMap(6, 1, Fraction(-6), Fraction(1, 6))

    def test_base_scaling_refuses_past_the_scaling_cap(self):
        # n**l up to 2**18 bits is built; past it, l is refused unbuilt
        assert BallAffineMap.base_scaling(2, 2**18 - 1).u == 2 ** (2**18 - 1)
        with pytest.raises(TooLarge, match=r"^2\^262144 has more than 262144"):
            BallAffineMap.base_scaling(2, 2**18)
        for n, power in [(2, 10**15), (10, -(10**15)), (3, 165395)]:
            with pytest.raises(TooLarge):
                BallAffineMap.base_scaling(n, power)

    def test_rejects_non_smooth_beta(self):
        with pytest.raises(InvalidParams):
            BallAffineMap(2, 0, Fraction(1), Fraction(1, 5))

    def test_defining_relation(self):
        for n in range(2, 7):
            a = BallAffineMap.translation(n, 1)
            b = BallAffineMap.base_scaling(n)
            lhs = b.compose(a).compose(b.inverse())
            assert lhs == a.power(n)

    @given(ball_maps(base=2), ball_maps(base=2), ball_maps(base=2))
    def test_compose_associative(self, f, g, h):
        assert f.compose(g).compose(h) == f.compose(g.compose(h))

    def test_inverse_needs_ring_unit(self):
        squeeze = BallAffineMap(2, 1, Fraction(6), Fraction(0))
        with pytest.raises(NotInvertible):
            squeeze.inverse()
        stretch = BallAffineMap.base_scaling(2)
        assert stretch.inverse().compose(stretch) == BallAffineMap.identity(2)

    @given(ball_maps(base=3), st.integers(min_value=-3, max_value=3))
    def test_power_of_invertible(self, f, k):
        from bslat.exactnum import is_ring_unit

        if not is_ring_unit(f.u, f.n):
            return
        assert f.power(k).compose(f.power(-k)) == BallAffineMap.identity(3)

    @given(ball_maps(base=2), ball_maps(base=2))
    def test_conjugation_without_inverting(self, f, g):
        from bslat.exactnum import is_ring_unit

        conj = f.conjugated_by(g)
        if is_ring_unit(g.u, g.n):
            assert conj == g.compose(f).compose(g.inverse())
        assert conj.h == f.h

    def test_evaluates_points(self):
        m = BallAffineMap(2, 1, Fraction(2), Fraction(1))
        assert m(Fraction(3, 4)) == Fraction(5, 2)


class TestAct:
    def test_translation_on_level_one(self):
        a = BallAffineMap.translation(2, 1)
        assert act(a, TreeVertex.of(2, 1, 0)) == TreeVertex.of(2, 1, 1)

    def test_scaling_doubles_labels(self):
        b = BallAffineMap.base_scaling(2)
        assert act(b, TreeVertex.of(2, 1, 1)) == TreeVertex.of(2, 2, 2)

    def test_translation_fixes_root(self):
        a = BallAffineMap.translation(2, 1)
        assert act(a, TreeVertex.root(2)) == TreeVertex.root(2)

    @given(ball_maps(), st.data())
    def test_left_action(self, f, data):
        g = data.draw(ball_maps(base=f.n))
        v = data.draw(vertices(base=f.n))
        assert act(f.compose(g), v) == act(f, act(g, v))

    @given(ball_maps(), st.data())
    def test_commutes_with_parent(self, f, data):
        v = data.draw(vertices(base=f.n))
        assert act(f, v).parent == act(f, v.parent)

    @given(ball_maps(), st.data())
    def test_act_inverse_round_trip(self, f, data):
        v = data.draw(vertices(base=f.n))
        assert act(f, act_inverse(f, v)) == v
        assert act_inverse(f, act(f, v)) == v

    def test_act_power_matches_iteration(self):
        b = BallAffineMap(2, 1, Fraction(6), Fraction(1))
        v = TreeVertex.of(2, 1, 1)
        assert act_power(b, 3, v) == act(b, act(b, act(b, v)))
        assert act_power(b, -2, act_power(b, 2, v)) == v


class TestFixes:
    def test_even_translation_fixes_level_one(self):
        assert fixes(BallAffineMap.translation(2, 2), TreeVertex.of(2, 1, 0))

    def test_odd_translation_moves_level_one(self):
        assert not fixes(BallAffineMap.translation(2, 1), TreeVertex.of(2, 1, 0))

    def test_identity_fixes_everything(self):
        for v in [TreeVertex.root(2), TreeVertex.of(2, 3, 5), TreeVertex(2, -2, Fraction(0))]:
            assert fixes(BallAffineMap.identity(2), v)

    def test_rejects_hyperbolic(self):
        with pytest.raises(NotElliptic):
            fixes(BallAffineMap.base_scaling(2), TreeVertex.root(2))

    @given(ball_maps(elliptic=True), st.data())
    def test_agrees_with_act(self, f, data):
        v = data.draw(vertices(base=f.n))
        assert fixes(f, v) == (act(f, v) == v)


class TestAxisVertex:
    def test_scaling_axis_through_root(self):
        b = BallAffineMap.base_scaling(2)
        assert axis_vertex(b, 3) == TreeVertex.of(2, 3, 0)
        assert axis_vertex(BallAffineMap.base_scaling(3), 1) == TreeVertex.of(3, 1, 0)

    def test_fixed_point_minus_one(self):
        m = BallAffineMap(2, 1, Fraction(2), Fraction(1))
        # x* = -1, whose residue mod 4 is 3
        assert axis_vertex(m, 2) == TreeVertex.of(2, 2, 3)

    def test_rejects_elliptic(self):
        with pytest.raises(NotHyperbolic):
            axis_vertex(BallAffineMap.translation(2, 1), 0)

    def test_coprime_denominator_fixed_point(self):
        m = BallAffineMap(2, 2, Fraction(4), Fraction(1))
        assert m.hyperbolic_fixed_point() == Fraction(-1, 3)
        assert axis_vertex(m, 2) == TreeVertex.of(2, 2, 1)
        assert axis_vertex(m, 3) == TreeVertex.of(2, 3, 5)

    @given(ball_maps(), st.integers(min_value=-3, max_value=4))
    def test_axis_is_coherent_and_invariant(self, m, j):
        if m.h == 0:
            return
        v = axis_vertex(m, j)
        assert v.parent == axis_vertex(m, j - 1)
        assert act(m, v) == axis_vertex(m, j + m.h)

    def test_meet_height(self):
        x = Fraction(0)
        assert axis_meet_height(x, TreeVertex.of(2, 3, 0)) == 3
        assert axis_meet_height(x, TreeVertex.of(2, 3, 4)) == 2
        assert axis_meet_height(x, TreeVertex.of(2, 3, 1)) == 0
        assert axis_meet_height(x, TreeVertex(2, 0, Fraction(1, 2))) == -1


class TestTransitivity:
    def test_full_cycle_every_level(self):
        a = BallAffineMap.translation(2, 1)
        root = TreeVertex.root(2)
        for level in (1, 2, 3):
            assert is_transitive_on_up(a, root, level)
        assert transitive_forever(1, root)

    def test_doubled_translation_splits(self):
        two = BallAffineMap.translation(2, 2)
        root = TreeVertex.root(2)
        assert not is_transitive_on_up(two, root, 2)
        assert not transitive_forever(2, root)
        # but relative to a height-1 vertex the same amount is a unit
        w = TreeVertex.of(2, 1, 0)
        assert is_transitive_on_up(two, w, 2)
        assert transitive_forever(2, w)

    def test_base_four_needs_unit(self):
        assert not transitive_forever(2, TreeVertex.root(4))
        assert not is_transitive_on_up(
            BallAffineMap.translation(4, 2), TreeVertex.root(4), 1
        )

    def test_requires_fixing(self):
        with pytest.raises(DoesNotFix):
            is_transitive_on_up(
                BallAffineMap.translation(2, 1), TreeVertex.of(2, 1, 0), 1
            )

    def test_general_unit_multiplier(self):
        m = BallAffineMap(2, 0, Fraction(3), Fraction(1))
        root = TreeVertex.root(2)
        assert is_transitive_on_up(m, root, 1)
        assert not is_transitive_on_up(m, root, 2)

    @given(st.sampled_from([2, 3, 4, 6]), st.integers(min_value=-8, max_value=8))
    def test_exact_form_matches_orbits(self, n, num):
        beta = Fraction(num, n)
        if beta == 0:
            return
        root = TreeVertex.root(n)
        f = BallAffineMap.translation(n, beta)
        if not fixes(f, root):
            return
        forever = transitive_forever(beta, root)
        levelwise = all(is_transitive_on_up(f, root, i) for i in (1, 2))
        # unit translation amounts are transitive at every level; non-units
        # already fail by level 2 (their defect is visible mod n^2)
        assert forever == levelwise


class TestLevelPermAutomorphism:
    def test_rejects_non_permutation(self):
        with pytest.raises(InvalidParams):
            LevelPermAutomorphism(2, ((0, 0),))

    def test_rejects_incompatible_levels(self):
        with pytest.raises(InvalidParams):
            LevelPermAutomorphism(2, ((1, 0), (0, 1, 2, 3)))

    def test_identity_and_apply(self):
        f = LevelPermAutomorphism.identity(3, 2)
        assert f.depth == 2
        assert f.apply(2, 7) == 7
        with pytest.raises(InvalidParams):
            f.apply(3, 0)

    def test_compose_invert_exhaustive_depth_two(self):
        group = list(enumerate_cone_automorphisms(2, 2))
        assert len(group) == 8
        identity = LevelPermAutomorphism.identity(2, 2)
        for f, g in itertools.product(group, repeat=2):
            f.compose(g)  # validation inside would raise on a compat break
        for f in group:
            assert f.compose(f.inverse()) == identity

    def test_invert_exhaustive_depth_three(self):
        group = list(enumerate_cone_automorphisms(2, 3))
        assert len(group) == 128
        identity = LevelPermAutomorphism.identity(2, 3)
        for f in group:
            assert f.inverse().compose(f) == identity

    @given(st.data())
    def test_compose_preserves_compatibility_base_three(self, data):
        indices = data.draw(st.tuples(*[st.integers(0, 1295)] * 2))
        tops = enumerate_cone_tops(3, 2)
        f, g = (automorphism_of_top(3, tops[i]) for i in indices)
        f.compose(g)
        f.inverse()

    def test_truncate(self):
        f = levelwise_translation(TruncatedNAdic(2, 3, 5))
        assert truncate(f, 2) == levelwise_translation(TruncatedNAdic(2, 2, 1))

    def test_list_round_trip(self):
        f = levelwise_translation(TruncatedNAdic(2, 2, 3))
        assert f.to_lists() == [[1, 0], [3, 0, 1, 2]]
        assert LevelPermAutomorphism.from_lists(2, f.to_lists()) == f


class TestLevelwiseTranslation:
    def test_unit_shift_is_full_cycles(self):
        f = levelwise_translation(TruncatedNAdic(2, 2, 1))
        assert f.to_lists() == [[1, 0], [1, 2, 3, 0]]

    def test_zero_is_identity(self):
        assert levelwise_translation(
            TruncatedNAdic(2, 3, 0)
        ) == LevelPermAutomorphism.identity(2, 3)

    def test_three_reduces_per_level(self):
        f = levelwise_translation(TruncatedNAdic(2, 2, 3))
        assert f.perms[0] == (1, 0)
        assert f.perms[1] == (3, 0, 1, 2)

    def test_amount_round_trip(self):
        for residue in range(8):
            eta = TruncatedNAdic(2, 3, residue)
            assert translation_amount(levelwise_translation(eta)) == eta

    def test_amount_of_double_shift(self):
        f = LevelPermAutomorphism(2, ((0, 1), (2, 3, 0, 1)))
        assert translation_amount(f) == TruncatedNAdic(2, 2, 2)

    def test_transposition_does_not_commute(self):
        f = LevelPermAutomorphism(2, ((0, 1), (2, 1, 0, 3)))
        with pytest.raises(NotCommuting):
            translation_amount(f)

    def test_commutes_with_unit_shift(self):
        cycle = levelwise_translation(TruncatedNAdic(2, 3, 1))
        for residue in range(8):
            f = levelwise_translation(TruncatedNAdic(2, 3, residue))
            assert f.compose(cycle) == cycle.compose(f)

    def test_centralizer_is_exactly_the_translations(self):
        # brute force over all depth-3 cone automorphisms of the binary tree
        cycle = levelwise_translation(TruncatedNAdic(2, 3, 1))
        commuting = [
            f
            for f in enumerate_cone_automorphisms(2, 3)
            if f.compose(cycle) == cycle.compose(f)
        ]
        expected = [
            levelwise_translation(TruncatedNAdic(2, 3, r)) for r in range(8)
        ]
        assert len(commuting) == 8
        assert sorted(f.perms for f in commuting) == sorted(
            f.perms for f in expected
        )


class TestRestrictToUp:
    def test_matches_levelwise_translation(self):
        a = BallAffineMap.translation(2, 1)
        got = restrict_to_up(a, TreeVertex.root(2), 3)
        assert got == levelwise_translation(TruncatedNAdic(2, 3, 1))

    def test_requires_fixed_root(self):
        with pytest.raises(DoesNotFix):
            restrict_to_up(BallAffineMap.translation(2, 1), TreeVertex.of(2, 1, 0), 2)

    def test_defining_relation_levelwise(self):
        for n in (2, 3):
            a = BallAffineMap.translation(n, 1)
            b = BallAffineMap.base_scaling(n)
            conj = b.compose(a).compose(b.inverse())
            for depth in (1, 2, 3, 4):
                assert restrict_to_up(
                    conj, TreeVertex.root(n), depth
                ) == restrict_to_up(a.power(n), TreeVertex.root(n), depth)


# The literal walks below are the oracle for the closed forms in bslat.tree:
# they act on one vertex, or compose one map, per step.


def walk_restrict(map_, w, depth):
    return tuple(
        tuple(
            label_above(w, act(map_, vertex_above(w, level, y)))
            for y in range(w.n**level)
        )
        for level in range(1, depth + 1)
    )


def walk_orbit_length(map_, w, level):
    start = vertex_above(w, level, 0)
    v, length = act(map_, start), 1
    while v != start:
        v, length = act(map_, v), length + 1
    return length


def walk_act_power(map_, k, v):
    for _ in range(abs(k)):
        v = act(map_, v) if k > 0 else act_inverse(map_, v)
    return v


def compose_power(map_, k):
    result = BallAffineMap.identity(map_.n)
    for _ in range(k):
        result = result.compose(map_)
    return result


@st.composite
def coprime_units(draw, n):
    """Units of Z_n, mostly with a denominator coprime to n."""
    numerator = draw(
        st.integers(min_value=1, max_value=25).filter(
            lambda w: math.gcd(w, n) == 1
        )
    )
    denominator = draw(st.sampled_from([1, 5, 7, 11]))
    return draw(st.sampled_from([1, -1])) * Fraction(numerator, denominator)


@st.composite
def fixed_pairs(draw):
    """An elliptic map and a vertex it fixes.  Heights reach -3 with
    fractional centers, and u may have a denominator coprime to n."""
    n = draw(BASES)
    w = draw(vertices(base=n))
    u = draw(coprime_units(n))
    # beta = (1 - u) * c_w mod n**h_w, moved by a multiple of n**h_w
    beta = nadic_residue((1 - u) * w.c, w.h, n) + Fraction(n) ** w.h * draw(
        st.integers(min_value=-20, max_value=20)
    )
    return BallAffineMap(n, 0, u, beta), w


@st.composite
def any_maps(draw):
    """Elliptic or hyperbolic maps; u = unit * n**h may have a denominator
    coprime to n, and need not be a unit of Z[1/n] (e.g. 6 at n = 2)."""
    n = draw(BASES)
    h = draw(st.integers(min_value=-2, max_value=2))
    u = draw(coprime_units(n)) * Fraction(n) ** h
    beta = Fraction(draw(st.integers(min_value=-64, max_value=64)), n**2)
    return BallAffineMap(n, h, u, beta)


class TestClosedFormsAgainstWalks:
    @given(fixed_pairs(), st.integers(min_value=1, max_value=3))
    def test_restrict_to_up(self, pair, depth):
        map_, w = pair
        while w.n**depth > 64:
            depth -= 1
        assert restrict_to_up(map_, w, depth).perms == walk_restrict(
            map_, w, depth
        )

    @given(fixed_pairs(), st.integers(min_value=1, max_value=4))
    def test_is_transitive_on_up(self, pair, level):
        map_, w = pair
        while w.n**level > 216:
            level -= 1
        assert is_transitive_on_up(map_, w, level) == (
            walk_orbit_length(map_, w, level) == w.n**level
        )

    @given(any_maps(), st.integers(min_value=-40, max_value=40), st.data())
    def test_act_power(self, map_, k, data):
        v = data.draw(vertices(base=map_.n))
        assert act_power(map_, k, v) == walk_act_power(map_, k, v)

    @pytest.mark.parametrize(
        "u, beta, v",
        [
            (Fraction(3), Fraction(1), TreeVertex(2, -2, Fraction(0))),
            (Fraction(-5, 7), Fraction(5), TreeVertex(6, -1, Fraction(0))),
            (Fraction(2, 5), Fraction(1, 3),
             TreeVertex(3, -3, Fraction(1, 81))),
        ],
    )
    def test_elliptic_power_below_the_root(self, u, beta, v):
        f = BallAffineMap(v.n, 0, u, beta)
        for k in (-7, -1, 0, 1, 2, 9):
            assert act_power(f, k, v) == walk_act_power(f, k, v)

    @given(ball_maps(), st.integers(min_value=0, max_value=40))
    def test_power(self, map_, k):
        assert map_.power(k) == compose_power(map_, k)

    def test_power_of_non_ring_unit_fails_like_composition(self):
        # u = 1/3 at n = 2: u * beta leaves Z[1/2], so f o f is no map
        third = BallAffineMap(2, 0, Fraction(1, 3), Fraction(1))
        assert third.power(1) == compose_power(third, 1)
        for power in (third.power, lambda k: compose_power(third, k)):
            with pytest.raises(InvalidParams):
                power(2)

    def test_large_elliptic_power(self):
        k = 10**7
        f = BallAffineMap(2, 0, Fraction(7), Fraction(1))
        # 1 + 7 + ... + 7**(k-1) = (7**k - 1) / 6, reduced mod 2**20
        modulus = 6 * 2**20
        expected = (pow(7, k, modulus) - 1) % modulus // 6
        assert act_power(f, k, TreeVertex(2, 20, Fraction(0))) == TreeVertex(
            2, 20, Fraction(expected)
        )
        inverse = act_power(f, -k, TreeVertex(2, 20, Fraction(expected)))
        assert inverse == TreeVertex(2, 20, Fraction(0))

    def test_label_step_self_check_names_both_values(self, monkeypatch):
        import bslat.tree as tree

        real_act = tree.act
        monkeypatch.setattr(
            tree, "act", lambda f, v: real_act(f, real_act(f, v))
        )
        message = "label 1: closed form 0, act 1"
        with pytest.raises(AssertionError, match=message):
            restrict_to_up(
                BallAffineMap.translation(2, 1), TreeVertex.root(2), 1
            )


class TestPartialTreeMap:
    def test_pairs_are_read_from_the_rows_in_canonical_order(self):
        # height 0 kept pointwise, the two vertices at height 1 swapped
        m = PartialTreeMap(2, ((0, 0, 1, 2, (0, 1)), (1, 0, 1, 1, (1, 0))))
        assert len(m) == 4
        assert "pairs" not in vars(m)
        low0 = TreeVertex.of(2, 0, 0)
        low1 = TreeVertex.of(2, 0, Fraction(1, 2))
        high0, high1 = TreeVertex.of(2, 1, 0), TreeVertex.of(2, 1, 1)
        assert m.pairs == (
            (low0, low0), (low1, low1), (high0, high1), (high1, high0)
        )
        assert m.domain == (low0, low1, high0, high1)
        assert m.image_of(high0) == high1
        assert high1 in m and TreeVertex.of(2, 2, 0) not in m
        with pytest.raises(NotMember):
            m.image_of(TreeVertex.of(2, 2, 0))

    def test_equal_rows_give_equal_hashable_maps(self):
        b = BallAffineMap.base_scaling(2)
        swap = LevelPermAutomorphism(
            2, ((0, 1), (0, 3, 2, 1), (0, 7, 2, 5, 4, 3, 6, 1))
        )
        g = build_conjugator(b, b, swap, 1, 2)
        again = build_conjugator(b, b, swap, 1, 2)
        assert [field.name for field in dataclasses.fields(g)] == [
            "n", "layers"
        ]
        assert (g, hash(g)) == (again, hash(again))
        # reading the pairs leaves equality and hash alone
        assert len(g.pairs) == len(g)
        assert (g, hash(g)) == (again, hash(again))
        identity = LevelPermAutomorphism.identity(2, 3)
        assert g != build_conjugator(b, b, identity, 1, 2)


# The vertex walk below is the oracle for the integer build_conjugator: it
# builds every window vertex, pulls it back to the seed's cone by b'**-segment,
# relabels it by g0 and pushes it out by b**segment, one TreeVertex per step.


def window_vertices(n, x_star, low, high, depth):
    """All vertices with height in [low, high] within tree-distance
    ``depth`` of the axis through x*, in canonical order."""
    for h in range(low, high + 1):
        base = Fraction(n) ** (h - depth)
        anchor = nadic_residue(x_star, h - depth, n)
        for y in range(n**depth):
            yield TreeVertex(n, h, anchor + base * y)


def axis_meet_height(x_star, v):
    """Height at which the downward chain from v joins the axis through x*:
    min(h_v, largest j with c - x* in n**j * Z_n)."""
    ball_val = valuation_in_base(v.c - x_star, v.n)
    return v.h if ball_val is INFINITY else min(v.h, ball_val)


def walked_conjugator(b, b_prime, g0, window, depth):
    n, length = b.n, b.h
    x_star = b.hyperbolic_fixed_point()
    anchor = TreeVertex(n, 0, nadic_residue(x_star, 0, n))
    pairs = []
    for v in window_vertices(
        n, x_star, -window * length, window * length, depth
    ):
        meet = axis_meet_height(x_star, v)
        if meet == v.h:
            pairs.append((v, v))
            continue
        segment = meet // length
        pulled = act_power(b_prime, -segment, v)
        level = pulled.h - anchor.h
        relabeled = vertex_above(
            anchor, level, g0.apply(level, label_above(anchor, pulled))
        )
        pairs.append((v, act_power(b, segment, relabeled)))
    return tuple(sorted(pairs, key=lambda pair: (pair[0].h, pair[0].c)))


def conjugation_failures(pairs, b, b_prime):
    """Sources v of the vertex pairs with g(b'(v)) != b(g(v)), skipping
    those where b'(v) is not a source."""
    lookup = dict(pairs)
    failures = []
    for v, gv in pairs:
        moved = act(b_prime, v)
        if moved in lookup and lookup[moved] != act(b, gv):
            failures.append(v)
    return failures


@st.composite
def axis_pairs(draw):
    """Hyperbolic b and b' with the same height change and axis, and a
    window depth.  u = n**l * unit may have a denominator coprime to n, so
    x* need not lie in Z[1/n]; b' = b when t = 0."""
    n = draw(BASES)
    l = draw(st.integers(min_value=1, max_value=2))
    depth = draw(st.integers(min_value=0, max_value=3))
    while n ** (depth + l - 1) > 64:
        depth -= 1
    u = draw(coprime_units(n)) * Fraction(n) ** l
    beta = Fraction(draw(st.integers(min_value=-40, max_value=40)), n**2)
    # u' = u - (1 - u) * n**(2l) * t keeps v_p(u') = v_p(u) and fixes x*
    t = draw(st.integers(min_value=-2, max_value=2)) * Fraction(n) ** (2 * l)
    b = BallAffineMap(n, l, u, beta)
    return b, BallAffineMap(n, l, u - (1 - u) * t, beta * (1 + t)), depth


@st.composite
def axis_fixing_seeds(draw, b, depth):
    """A random cone automorphism of the given depth above the height-0
    axis vertex of b that fixes every axis label."""
    n, x_star = b.n, b.hyperbolic_fixed_point()
    origin = nadic_residue(x_star, 0, n)
    axis = [
        int(nadic_residue(x_star, level, n) - origin)
        for level in range(depth + 1)
    ]
    perms, coarse = [], (0,)
    for level in range(1, depth + 1):
        size = n ** (level - 1)
        fine = [0] * (n * size)
        for y in range(size):
            digits = draw(st.permutations(range(n)))
            if y == axis[level - 1]:
                # keep the axis digit where it is
                kept = axis[level] // size
                at = digits.index(kept)
                digits[at], digits[kept] = digits[kept], digits[at]
            for digit in range(n):
                fine[y + size * digit] = coarse[y] + size * digits[digit]
        perms.append(tuple(fine))
        coarse = fine
    return LevelPermAutomorphism(n, tuple(perms))


@st.composite
def off_lattice_axes(draw):
    """A hyperbolic b whose fixed point x* lies outside Z[1/n], with l in
    {1, 2}, and a window depth."""
    n = draw(BASES)
    l = draw(st.integers(min_value=1, max_value=2))
    depth = draw(st.integers(min_value=0, max_value=3))
    while n ** (depth + l - 1) > 64:
        depth -= 1
    unit = draw(
        st.sampled_from([-5, -3, -1, 1, 3, 5, 7]).filter(
            lambda r: math.gcd(r, n) == 1
        )
    )
    beta = Fraction(draw(st.integers(min_value=1, max_value=40)), n**2)
    b = BallAffineMap(n, l, unit * Fraction(n) ** l, beta)
    assume(not smooth_denominator(b.hyperbolic_fixed_point(), n))
    return b, depth


class TestWindow:
    def test_counts_and_membership(self):
        got = list(window_vertices(2, Fraction(0), -2, 2, 2))
        assert len(got) == 5 * 4
        for v in got:
            assert -2 <= v.h <= 2
            assert v.h - axis_meet_height(Fraction(0), v) <= 2


class TestBuildConjugator:
    def test_identity_input_gives_identity(self):
        b = BallAffineMap.base_scaling(2)
        g = build_conjugator(b, b, LevelPermAutomorphism.identity(2, 3), 2, 2)
        assert all(source == target for source, target in g.pairs)
        assert conjugation_failures(g.pairs, b, b) == []

    def test_branch_swap_propagates(self):
        b = BallAffineMap.base_scaling(2)
        swap = LevelPermAutomorphism(
            2, ((0, 1), (0, 3, 2, 1), (0, 7, 2, 5, 4, 3, 6, 1))
        )
        g = build_conjugator(b, b, swap, 1, 2)
        assert conjugation_failures(g.pairs, b, b) == []
        moved = {
            (str(s), str(t)) for s, t in g.pairs if s != t
        }
        assert ("(1, 1/2)", "(1, 3/2)") in moved
        assert ("(0, 1/4)", "(0, 3/4)") in moved
        # axis and on-axis branches stay put
        assert g.image_of(TreeVertex.of(2, 1, 0)) == TreeVertex.of(2, 1, 0)

    def test_restriction_agrees_with_seed(self):
        b = BallAffineMap.base_scaling(2)
        swap = LevelPermAutomorphism(
            2, ((0, 1), (0, 3, 2, 1), (0, 7, 2, 5, 4, 3, 6, 1))
        )
        g = build_conjugator(b, b, swap, 1, 2)
        anchor = TreeVertex.root(2)
        for level in (1, 2):
            for label in range(2**level):
                v = vertex_above(anchor, level, label)
                if v in g:
                    assert g.image_of(v) == vertex_above(
                        anchor, level, swap.apply(level, label)
                    )

    def test_different_maps_same_axis(self):
        b = BallAffineMap.base_scaling(2)
        squeezed = BallAffineMap(2, 1, Fraction(6), Fraction(0))
        g0 = LevelPermAutomorphism.identity(2, 3)
        g = build_conjugator(b, squeezed, g0, 2, 2)
        assert conjugation_failures(g.pairs, b, squeezed) == []
        assert len(g) == 5 * 4

    def test_longer_translation_length(self):
        b = BallAffineMap.base_scaling(2, 2)
        swap = LevelPermAutomorphism(
            2, ((0, 1), (0, 3, 2, 1), (0, 7, 2, 5, 4, 3, 6, 1))
        )
        g = build_conjugator(b, b, swap, 1, 2)
        assert conjugation_failures(g.pairs, b, b) == []

    def test_height_mismatch(self):
        b = BallAffineMap.base_scaling(2)
        with pytest.raises(HeightMismatch):
            build_conjugator(
                b, b.power(2), LevelPermAutomorphism.identity(2, 3), 1, 1
            )

    def test_axis_mismatch_reports_height(self):
        b = BallAffineMap.base_scaling(2)
        shifted = BallAffineMap(2, 1, Fraction(2), Fraction(2))
        with pytest.raises(AxisMismatch, match="height 2"):
            build_conjugator(
                b, shifted, LevelPermAutomorphism.identity(2, 3), 1, 1
            )

    def test_seed_must_fix_axis(self):
        b = BallAffineMap.base_scaling(2)
        cycle = levelwise_translation(TruncatedNAdic(2, 3, 1))
        with pytest.raises(DoesNotFix):
            build_conjugator(b, b, cycle, 1, 2)

    def test_seed_depth_budget(self):
        b = BallAffineMap.base_scaling(2, 2)
        with pytest.raises(InvalidParams):
            build_conjugator(
                b, b, LevelPermAutomorphism.identity(2, 2), 1, 2
            )

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), maps=axis_pairs(), window=st.integers(1, 2))
    def test_integer_build_matches_vertex_walk(self, data, maps, window):
        b, b_prime, depth = maps
        g0 = data.draw(axis_fixing_seeds(b, depth + b.h - 1))
        g = build_conjugator(b, b_prime, g0, window, depth)
        walked = walked_conjugator(b, b_prime, g0, window, depth)
        # the length comes from the integer rows, before any vertex exists
        assert len(g) == (2 * window * b.h + 1) * b.n**depth
        assert "pairs" not in vars(g)
        assert g.pairs == walked
        assert g.domain == tuple(source for source, _ in walked)
        for v, gv in walked[:: max(1, len(walked) // 16)]:
            assert v in g
            assert g.image_of(v) == gv
        assert conjugation_failures(g.pairs, b, b_prime) == []
        assert conjugation_failures(walked, b, b_prime) == []

    @given(data=st.data(), axis=off_lattice_axes(), window=st.integers(1, 2))
    def test_integer_centers_format_like_vertex_centers(
        self, data, axis, window
    ):
        b, depth = axis
        g0 = data.draw(axis_fixing_seeds(b, depth + b.h - 1))
        g = build_conjugator(b, b, g0, window, depth)
        heights = [layer[0] for layer in g.layers]
        assert heights[0] < 0 < heights[-1]
        from_integers = [
            (h, format_quotient(a + d * y, q), format_quotient(a + d * t, q))
            for h, a, d, q, targets in g.layers
            for y, t in enumerate(targets)
        ]
        assert from_integers == [
            (source.h, format_rational(source.c), format_rational(target.c))
            for source, target in g.pairs
        ]

    @pytest.mark.parametrize(
        "n, wrong, message",
        [
            # one label of the seed sent onto the axis label 0
            (2, {(2, 1): 0},
             "window map not injective at (-1, 1/8): it and (-1, 0) both "
             "go to (-1, 0)"),
            # level 1 swapped, level 2 left as it was
            (3, {(1, 1): 2, (1, 2): 1},
             "window self-check failed at (0, 1/9): g(parent(v)) = "
             "(-1, 2/9), parent(g(v)) = (-1, 1/9)"),
        ],
    )
    def test_certificate_names_vertex_and_images(
        self, monkeypatch, n, wrong, message
    ):
        real_apply = LevelPermAutomorphism.apply
        monkeypatch.setattr(
            LevelPermAutomorphism, "apply",
            lambda self, level, label: wrong.get(
                (level, label), real_apply(self, level, label)
            ),
        )
        b = BallAffineMap.base_scaling(n)
        with pytest.raises(AssertionError) as failure:
            build_conjugator(b, b, LevelPermAutomorphism.identity(n, 2), 1, 2)
        assert str(failure.value) == message

    def test_certificate_checks_conjugation(self):
        # injective rows with parent links kept, but g(b'(v)) != b(g(v))
        with pytest.raises(AssertionError) as failure:
            _certify_window(
                {0: [0, 1], 1: [1, 0]},
                lambda h, w: f"({h}, {w})",
                2, 1, 1, 1,
            )
        assert str(failure.value) == (
            "window self-check failed at (0, 0): g(b'(v)) = (1, 1), "
            "b(g(v)) = (1, 0)"
        )

    def test_failures_are_detected(self):
        a = BallAffineMap.translation(2, 1)
        v0, v1 = TreeVertex.of(2, 1, 0), TreeVertex.of(2, 1, 1)
        frozen = ((v0, v0), (v1, v1))
        assert conjugation_failures(
            frozen, BallAffineMap.identity(2), a
        ) == [v0, v1]


class TestDotExport:
    def test_contains_nodes_edges_and_colors(self):
        root = TreeVertex.root(2)
        text = subtree_dot(root, 2, orbit_of=lambda v: v.h % 2)
        assert text.startswith("digraph tree {")
        assert '"(2, 3)" -> "(1, 1)"' in text
        assert text.count("->") == 2 + 4
        assert "fillcolor" in text


class TestEnumeration:
    def test_binary_counts(self):
        assert len(list(enumerate_cone_automorphisms(2, 1))) == 2
        assert len(list(enumerate_cone_automorphisms(2, 2))) == 8
        assert len(list(enumerate_cone_automorphisms(2, 3))) == 128

    def test_ternary_count(self):
        assert len(list(enumerate_cone_automorphisms(3, 2))) == 6**4

    def test_all_distinct_and_valid(self):
        seen = set(f.perms for f in enumerate_cone_automorphisms(2, 3))
        assert len(seen) == 128

    @pytest.mark.parametrize(
        "n, depth",
        [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1)],
    )
    def test_tops_match_validated_elements_in_canonical_order(self, n, depth):
        expected = [
            bytes(g.perms[-1])
            for g in sorted(
                _validated_cone_automorphisms(n, depth),
                key=lambda g: g.to_lists(),
            )
        ]
        tops = enumerate_cone_tops(n, depth)
        assert list(tops) == expected
        # the kernel is sorted once per level, yet the tuple holds the
        # lifts in the order a sort of each coarse top's lifts gives
        assert tops == tuple(_sorted_lift_cone_tops(n, depth))

    def test_elements_are_the_validated_ones(self):
        for n, depth in [(2, 3), (3, 2)]:
            # the validating constructor refuses a top that is not an
            # automorphism's
            built = list(enumerate_cone_automorphisms(n, depth))
            assert built == sorted(built, key=lambda g: g.to_lists())

    def test_depth_zero_and_byte_cap(self):
        assert list(enumerate_cone_tops(3, 0)) == [bytes(1)]
        assert list(enumerate_cone_automorphisms(3, 0)) == [
            LevelPermAutomorphism(3, ())
        ]
        with pytest.raises(TooLarge):
            next(enumerate_cone_tops(2, 9))


def _sorted_lift_cone_tops(n, depth):
    """The recursive bytes enumerator that sorts the lifts of each coarse
    top in turn: the oracle for the once-sorted kernel."""
    if depth == 0:
        yield bytes(1)
        return
    size = n ** (depth - 1)
    digit_perms = list(itertools.permutations(range(n)))
    padding = bytes(range(n * size, 256))
    kernel = [
        bytes(
            y + size * assignment[y][digit]
            for digit in range(n)
            for y in range(size)
        )
        + padding
        for assignment in itertools.product(digit_perms, repeat=size)
    ]
    for coarse in _sorted_lift_cone_tops(n, depth - 1):
        lift = bytes(
            coarse[y] + size * digit for digit in range(n) for y in range(size)
        )
        yield from sorted(lift.translate(table) for table in kernel)


def _validated_cone_automorphisms(n, depth):
    """The digit-permutation recursion with every element validated, in
    product order: the oracle for the bytes enumerator."""
    digit_perms = sorted(itertools.permutations(range(n)))

    def extend(prefix):
        if len(prefix) == depth:
            yield LevelPermAutomorphism(n, tuple(prefix))
            return
        size = n ** len(prefix)
        coarse = prefix[-1] if prefix else (0,)
        for assignment in itertools.product(digit_perms, repeat=size):
            fine = [0] * (n * size)
            for y in range(size):
                for digit, image_digit in enumerate(assignment[y]):
                    fine[y + size * digit] = coarse[y] + size * image_digit
            yield from extend(prefix + [tuple(fine)])

    yield from extend([])
