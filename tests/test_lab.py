"""Brute-force lab: enumeration, centralizers, transitivity search,
orbit sums, and the report plumbing.

Frozen numbers below were derived by independent hand counts where small
(wreath-product orders, shift centralizers) and by the level-extension
recurrence otherwise; the claimed closed forms are only ever compared,
never trusted.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bslat.errors import (
    BaseMismatch,
    InvalidParams,
    NotMember,
    TooLarge,
    ZeroTranslation,
)
from bslat.exactnum import NInvertible, smooth_divisors, unit_in_base
from bslat.lab import (
    LemmaReport,
    LevelPermGroup,
    _shift_element,
    centralizer,
    centralizer_bound_report,
    enumerate_level_group,
    eventually_transitive_search,
    jordan_index_report,
    level_group_order_formula,
    level_group_order_recursive,
    level_group_report,
    level_sum_report,
)
from bslat.lattice import classify, standard_embedding
from bslat.tree import LevelPermAutomorphism


class TestLemmaReport:
    def test_factory_sets_match(self):
        report = LemmaReport.of("x", {"n": 2}, 8, 8)
        assert report.match
        assert not LemmaReport.of("x", {}, 128, 32).match

    def test_match_flag_must_mirror_equality(self):
        with pytest.raises(InvalidParams):
            LemmaReport("x", {}, 8, 8, False)

    def test_json_record_shape(self):
        payload = LemmaReport.of("x", {"n": 2}, 1, 2, notes="hidden").to_json()
        assert sorted(payload) == ["brute", "formula", "lemma", "match", "params"]


class TestEnumeration:
    @pytest.mark.parametrize(
        "n, k, expected",
        [(2, 1, 2), (2, 2, 8), (2, 3, 128), (3, 1, 6), (4, 1, 24)],
    )
    def test_orders(self, n, k, expected):
        group = enumerate_level_group(n, k)
        assert len(group) == expected
        assert len(group) == level_group_order_recursive(n, k)
        assert all(g.depth == k and g.n == n for g in group)

    def test_two_level_ternary_order(self):
        assert len(enumerate_level_group(3, 2)) == 1296

    def test_depth_one_is_symmetric_group(self):
        group = enumerate_level_group(2, 1)
        assert [g.to_lists() for g in group] == [[[0, 1]], [[1, 0]]]

    def test_closure_by_hand(self):
        group = enumerate_level_group(2, 2)
        elements = list(group)
        for f in elements:
            assert f.inverse() in group
            for g in elements:
                assert f.compose(g) in group

    def test_deterministic(self):
        one = enumerate_level_group(2, 3)
        again = enumerate_level_group(2, 3)
        assert [g.to_lists() for g in one] == [g.to_lists() for g in again]
        assert one == again

    def test_formula_values(self):
        assert level_group_order_formula(2, 2) == 8
        assert level_group_order_formula(3, 1) == 6
        assert level_group_order_formula(2, 3) == 32

    def test_report_flags_formula_disagreement(self):
        assert level_group_report(2, 2).match
        deep = level_group_report(2, 3)
        assert (deep.brute, deep.formula, deep.match) == (128, 32, False)
        assert "128" in deep.notes

    def test_size_guards(self):
        with pytest.raises(TooLarge):
            enumerate_level_group(2, 7)
        with pytest.raises(TooLarge):
            enumerate_level_group(4, 2)
        with pytest.raises(TooLarge):
            enumerate_level_group(3, 3)
        with pytest.raises(InvalidParams):
            enumerate_level_group(2, 0)

    def test_group_type_validation(self):
        group = enumerate_level_group(2, 1)
        ident = LevelPermAutomorphism.identity(2, 1)
        with pytest.raises(InvalidParams):
            LevelPermGroup(2, 1, tuple(group) + (ident,))
        swap = LevelPermAutomorphism(2, ((1, 0),))
        with pytest.raises(InvalidParams):
            LevelPermGroup(2, 1, (swap,))  # identity missing
        with pytest.raises(InvalidParams):
            LevelPermGroup(2, 2, tuple(group))  # depth mismatch

    def test_verify_closure_counts_pairs(self):
        # the generating set grows 1 -> 2 -> 3 as <S> doubles 1 -> 2 -> 4
        # -> 8; each step multiplies the old members by the new generator
        # and each new member by all |S| generators
        group = enumerate_level_group(2, 2)
        assert group.verify_closure() == (
            (1 + 1 * 1) + (2 + 2 * 2) + (4 + 4 * 3)
        )

    def test_verify_closure_rejects_exactly_the_unclosed_subsets(self):
        # every subset of G_2 at n = 2 holding the identity and its inverses:
        # the certificate must reject exactly those that the all-pairs
        # compose check finds a product outside of
        elements = list(enumerate_level_group(2, 2))
        identity = LevelPermAutomorphism.identity(2, 2)
        others = [g for g in elements if g != identity]
        rejected = accepted = 0
        for mask in range(2 ** len(others)):
            subset = [identity] + [
                g for i, g in enumerate(others) if mask >> i & 1
            ]
            if any(g.inverse() not in subset for g in subset):
                continue
            closed = all(
                f.compose(g) in subset for f in subset for g in subset
            )
            group = LevelPermGroup(2, 2, tuple(subset))
            if closed:
                group.verify_closure()
                accepted += 1
            else:
                with pytest.raises(InvalidParams):
                    group.verify_closure()
                rejected += 1
        # G_2 at n = 2 is the dihedral group of order 8: 10 subgroups
        assert (accepted, rejected) == (10, 54)


class TestCentralizer:
    def test_shift_centralizer_is_the_shift_subgroup(self):
        for n, k in [(2, 2), (2, 3), (3, 1)]:
            group = enumerate_level_group(n, k)
            sub = centralizer(_shift_element(n, k, 1), group)
            assert len(sub) == n**k
            assert set(sub) == {
                _shift_element(n, k, r) for r in range(n**k)
            }

    def test_identity_is_central(self):
        group = enumerate_level_group(2, 2)
        assert centralizer(LevelPermAutomorphism.identity(2, 2), group) == group

    def test_doubled_shift_is_central_at_depth_two(self):
        group = enumerate_level_group(2, 2)
        assert len(centralizer(_shift_element(2, 2, 2), group)) == 8

    def test_depth_three_orders(self):
        group = enumerate_level_group(2, 3)
        assert len(centralizer(_shift_element(2, 3, 1), group)) == 8
        assert len(centralizer(_shift_element(2, 3, 2), group)) == 32

    def test_membership_enforced(self):
        group = enumerate_level_group(2, 2)
        shallow = LevelPermAutomorphism.identity(2, 1)
        with pytest.raises(NotMember):
            centralizer(shallow, group)
        shifts = centralizer(_shift_element(2, 2, 1), group)
        outsider = next(
            g for g in group if g not in shifts
        )
        with pytest.raises(NotMember):
            centralizer(outsider, shifts)

    def test_base_mismatch(self):
        with pytest.raises(BaseMismatch):
            centralizer(
                LevelPermAutomorphism.identity(3, 2),
                enumerate_level_group(2, 2),
            )


class TestCentralizerBoundReport:
    def test_small_cases_match_bound(self):
        report = centralizer_bound_report(2, 2, 1)
        assert (report.brute, report.formula, report.match) == (4, 4, True)
        assert report.params["l"] == 0
        report = centralizer_bound_report(2, 2, 2)
        assert (report.brute, report.formula, report.match) == (8, 8, True)

    def test_deep_case_exceeds_claimed_bound(self):
        report = centralizer_bound_report(2, 3, 2)
        assert (report.brute, report.formula, report.match) == (32, 16, False)
        assert "32" in report.notes
        assert "exceeds" in report.notes

    def test_ternary_case(self):
        report = centralizer_bound_report(3, 2, 3)
        assert (report.brute, report.formula, report.match) == (162, 54, False)

    def test_requires_effective_shift(self):
        with pytest.raises(InvalidParams):
            centralizer_bound_report(2, 2, 4)
        with pytest.raises(InvalidParams):
            centralizer_bound_report(2, 1, 2)


class TestTransitivitySearch:
    @pytest.mark.parametrize(
        "n, beta, l, expected",
        [
            (2, 1, 1, (0, 1)),
            (2, 12, 1, (2, 1)),
            (6, 4, 1, (2, 9)),
            (6, 4, 2, (1, 9)),
            (2, Fraction(3, 4), 1, (0, 4)),
            (3, 5, 1, (0, 1)),
        ],
    )
    def test_frozen_searches(self, n, beta, l, expected):
        assert eventually_transitive_search(beta, l, depth=4, n=n) == expected

    def test_tagged_input_carries_base(self):
        tagged = NInvertible.of(12, 2)
        assert eventually_transitive_search(tagged, 1, depth=4) == (2, 1)
        with pytest.raises(BaseMismatch):
            eventually_transitive_search(tagged, 1, depth=4, n=3)

    def test_rejects_degenerate_input(self):
        with pytest.raises(ZeroTranslation):
            eventually_transitive_search(0, 1, n=2)
        with pytest.raises(InvalidParams):
            eventually_transitive_search(3, 0, n=2)
        with pytest.raises(InvalidParams):
            eventually_transitive_search(3, 1, depth=-1, n=2)
        with pytest.raises(InvalidParams):
            eventually_transitive_search(3, 1, n=None)

    def test_certification_cost_guard(self):
        with pytest.raises(TooLarge):
            eventually_transitive_search(5, 1, depth=9, n=6)

    @given(
        st.sampled_from([2, 3, 4, 6]),
        st.integers(-300, 300).filter(bool),
        st.integers(0, 2),
        st.integers(1, 3),
    )
    def test_result_is_minimal(self, n, num, den_power, l):
        beta = Fraction(num, n**den_power)
        k, j = eventually_transitive_search(beta, l, depth=0, n=n)
        assert unit_in_base(j * beta / Fraction(n) ** (l * k), n)
        for smaller in smooth_divisors(n, l * k + 10):
            if smaller >= j:
                break
            assert not unit_in_base(
                smaller * beta / Fraction(n) ** (l * k), n
            )
        if k > 0:
            for candidate in smooth_divisors(n, l * k + 10):
                assert not unit_in_base(
                    candidate * beta / Fraction(n) ** (l * (k - 1)), n
                )

    @given(
        st.sampled_from([2, 3, 4, 6]),
        st.integers(1, 2),
        st.integers(1, 12),
    )
    def test_agrees_with_classifier_on_reduced_specs(self, n, l, m):
        stripped = m
        for p in (2, 3):
            while stripped % p == 0 and n % p == 0:
                stripped //= p
        if stripped != 1 or m % n == 0:
            return
        classified = classify(standard_embedding(n, l, 1, m))
        assert eventually_transitive_search(m, l, depth=0, n=n) == (
            classified.k,
            classified.j,
        )


class TestLevelSum:
    def test_unit_shift_single_orbit(self):
        report = level_sum_report(1, 1, 6, n=2)
        assert report.brute == ["1"] * 6
        assert report.match

    def test_odd_shift_half_weight(self):
        report = level_sum_report(3, Fraction(1, 2), 6, n=2)
        assert report.brute == ["1/2"] * 6
        assert report.match

    def test_non_unit_shift_splits_orbits(self):
        report = level_sum_report(2, 1, 4, n=4)
        assert report.brute == ["1"] * 4
        assert report.match

    def test_zero_shift_fixes_everything(self):
        report = level_sum_report(0, Fraction(7, 3), 3, n=3)
        assert report.brute == ["7/3"] * 3
        assert report.match

    def test_tagged_input(self):
        report = level_sum_report(NInvertible.of(3, 2), Fraction(1, 2), 2)
        assert report.params["n"] == 2
        assert report.match

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidParams):
            level_sum_report(Fraction(1, 2), 1, 3, n=2)
        with pytest.raises(InvalidParams):
            level_sum_report(1, 0, 3, n=2)
        with pytest.raises(InvalidParams):
            level_sum_report(1, 1, 0, n=2)
        with pytest.raises(TooLarge):
            level_sum_report(1, 1, 21, n=2)


class TestJordanIndex:
    def test_shallow_binary(self):
        report = jordan_index_report(2, 2, [1, 2])
        assert report.brute == [2, 1]
        assert report.formula == [2, 1]
        assert report.match
        assert "order 4" in report.notes

    def test_index_grows_with_depth(self):
        report = jordan_index_report(2, 3, [1, 2])
        assert report.brute == [16, 4]
        assert report.match
        assert "order 16" in report.notes

    def test_large_group_skips_abelian_search(self):
        report = jordan_index_report(3, 2, [1, 3])
        assert report.brute == [144, 8]
        assert "skipped" in report.notes

    def test_trivial_shift_gives_index_one(self):
        report = jordan_index_report(2, 2, [4])
        assert report.brute == [1]

    def test_needs_values(self):
        with pytest.raises(InvalidParams):
            jordan_index_report(2, 2, [])
        with pytest.raises(InvalidParams):
            jordan_index_report(2, 2, [0])
