"""Tree vertices, ball-affine actions, level permutations, conjugators."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

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
)
from bslat.exactnum import TruncatedNAdic, nadic_residue
from bslat.tree import (
    BallAffineMap,
    LevelPermAutomorphism,
    PartialTreeMap,
    TreeVertex,
    act,
    act_inverse,
    act_power,
    axis_meet_height,
    axis_vertex,
    build_conjugator,
    conjugation_failures,
    enumerate_cone_automorphisms,
    fixes,
    is_transitive_on_up,
    label_above,
    levelwise_translation,
    restrict_to_up,
    subtree_dot,
    transitive_forever,
    translation_amount,
    vertex_above,
    window_vertices,
)

BASES = st.sampled_from([2, 3, 4, 6])


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
        assert v.child(1) == TreeVertex(2, 0, Fraction(3, 4))

    @given(vertices(), st.data())
    def test_child_then_parent(self, v, data):
        digit = data.draw(st.integers(min_value=0, max_value=v.n - 1))
        assert v.child(digit).parent == v

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
        group = None
        indices = data.draw(st.tuples(*[st.integers(0, 1295)] * 2))
        group = list(enumerate_cone_automorphisms(3, 2))
        f, g = group[indices[0]], group[indices[1]]
        f.compose(g)
        f.inverse()

    def test_truncate(self):
        f = levelwise_translation(TruncatedNAdic(2, 3, 5))
        assert f.truncate(2) == levelwise_translation(TruncatedNAdic(2, 2, 1))

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


class TestPartialTreeMap:
    def test_sorted_and_injective(self):
        v0, v1 = TreeVertex.of(2, 1, 0), TreeVertex.of(2, 1, 1)
        m = PartialTreeMap(2, ((v1, v0), (v0, v1)))
        assert m.domain == (v0, v1)
        assert m.image_of(v0) == v1
        with pytest.raises(NotMember):
            m.image_of(TreeVertex.of(2, 2, 0))
        with pytest.raises(InvalidParams):
            PartialTreeMap(2, ((v0, v1), (v1, v1)))

    def test_constant_height_change(self):
        v0 = TreeVertex.of(2, 1, 0)
        up = TreeVertex.of(2, 2, 0)
        with pytest.raises(InvalidParams):
            PartialTreeMap(2, ((v0, v0), (up, TreeVertex.of(2, 1, 1))))

    def test_parent_links_checked(self):
        v = TreeVertex.of(2, 2, 0)
        w = TreeVertex.of(2, 2, 2)
        bad = ((v.parent, TreeVertex.of(2, 1, 1)), (v, w))
        # w.parent = (1,0) but v.parent is sent to (1,1)
        with pytest.raises(InvalidParams):
            PartialTreeMap(2, bad)


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
        assert conjugation_failures(g, b, b) == []

    def test_branch_swap_propagates(self):
        b = BallAffineMap.base_scaling(2)
        swap = LevelPermAutomorphism(
            2, ((0, 1), (0, 3, 2, 1), (0, 7, 2, 5, 4, 3, 6, 1))
        )
        g = build_conjugator(b, b, swap, 1, 2)
        assert conjugation_failures(g, b, b) == []
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
        assert conjugation_failures(g, b, squeezed) == []
        assert len(g) == 5 * 4

    def test_longer_translation_length(self):
        b = BallAffineMap.base_scaling(2, 2)
        swap = LevelPermAutomorphism(
            2, ((0, 1), (0, 3, 2, 1), (0, 7, 2, 5, 4, 3, 6, 1))
        )
        g = build_conjugator(b, b, swap, 1, 2)
        assert conjugation_failures(g, b, b) == []

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

    def test_failures_are_detected(self):
        a = BallAffineMap.translation(2, 1)
        v0, v1 = TreeVertex.of(2, 1, 0), TreeVertex.of(2, 1, 1)
        frozen = PartialTreeMap(2, ((v0, v0), (v1, v1)))
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
