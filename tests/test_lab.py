"""Brute-force lab: enumeration, centralizers, transitivity search,
orbit sums, and the report plumbing.

Frozen numbers below were derived by independent hand counts where small
(wreath-product orders, shift centralizers) and by the level-extension
recurrence otherwise; the claimed closed forms are only ever compared,
never trusted.
"""

import functools
import itertools
import operator
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

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
from bslat.exactnum import (
    _prime_signature,
    p_valuation,
    smooth_divisors,
    transitive_pair,
    unit_in_base,
)
from bslat.lab import (
    LemmaReport,
    SIZE_CAP,
    LevelPermGroup,
    _abelian_search_order,
    _collapse_level,
    _generated,
    _outside,
    _padded,
    _top_of,
    centralizer,
    enumerate_level_group,
    eventually_transitive_search,
    jordan_index_report,
    level_group_order_formula,
    level_group_order_recursive,
    level_group_report,
    level_sum_report,
    shift_element,
)
from bslat.lattice import classify, standard_embedding
from bslat.tree import LevelPermAutomorphism


def _element(n, top):
    """The automorphism with top-level permutation top, its lower levels
    being reductions mod n**i, built by the validating constructor."""
    perms, size = [], 1
    while size < len(top):
        size *= n
        perms.append([label % size for label in top[:size]])
    return LevelPermAutomorphism(n, perms)


def _elements(group):
    return [_element(group.n, top) for top in group.tops]


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
        assert all(g.depth == k and g.n == n for g in _elements(group))

    def test_two_level_ternary_order(self):
        assert len(enumerate_level_group(3, 2)) == 1296

    def test_depth_one_is_symmetric_group(self):
        group = enumerate_level_group(2, 1)
        assert [g.to_lists() for g in _elements(group)] == [
            [[0, 1]], [[1, 0]]
        ]

    def test_closure_by_hand(self):
        group = enumerate_level_group(2, 2)
        elements = _elements(group)
        for f in elements:
            assert f.inverse() in group
            for g in elements:
                assert f.compose(g) in group

    def test_deterministic(self):
        one = enumerate_level_group(2, 3)
        again = enumerate_level_group(2, 3)
        assert one.tops == again.tops
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
        ident = _top_of(LevelPermAutomorphism.identity(2, 1))
        with pytest.raises(InvalidParams, match="duplicate"):
            LevelPermGroup(2, 1, group.tops + (ident,))
        swap = _top_of(LevelPermAutomorphism(2, ((1, 0),)))
        with pytest.raises(InvalidParams, match="identity missing"):
            LevelPermGroup(2, 1, (swap,))
        # depth-1 tops lack the depth-2 identity
        with pytest.raises(InvalidParams, match="identity missing"):
            LevelPermGroup(2, 2, group.tops)

    def test_verify_closure_counts_pairs(self):
        # the generating set S_i grows 1 -> 2 -> 3 as <S> doubles from
        # H_i = 1 -> 2 -> 4 to 8; with one new coset a step costs
        # 1 + |H_i| + |S_i|: the identity times t, the fill of H_i.t, and
        # t times every generator
        group = enumerate_level_group(2, 2)
        assert group.verify_closure() == (1 + 1 + 1) + (1 + 2 + 2) + (1 + 4 + 3)

    def test_verify_closure_rejects_exactly_the_unclosed_subsets(self):
        # every subset of G_2 at n = 2 holding the identity and its inverses:
        # the certificate must reject exactly those that the all-pairs
        # compose check finds a product outside of
        elements = _elements(enumerate_level_group(2, 2))
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
            tops = tuple(map(_top_of, subset))
            if closed:
                group = LevelPermGroup(2, 2, tops)
                group.verify_closure()
                accepted += 1
            else:
                # construction runs the certificate
                with pytest.raises(InvalidParams):
                    LevelPermGroup(2, 2, tops)
                rejected += 1
        # G_2 at n = 2 is the dihedral group of order 8: 10 subgroups
        assert (accepted, rejected) == (10, 54)


def _adjoin_within(members, tables, tops, within) -> int:
    """Grow the group members generated by tables by the generators tops,
    multiplying every new member by every generator; a product outside
    within raises InvalidParams."""
    pending = [_padded(top) for top in tops]
    tables += pending
    frontier, checked = list(members), 0
    while frontier:
        checked += len(frontier) * len(pending)
        nxt = []
        for f in frontier:
            for table in pending:
                prod = f.translate(table)
                if prod not in members:
                    if prod not in within:
                        raise InvalidParams("not closed under composition")
                    members.add(prod)
                    nxt.append(prod)
        frontier, pending = nxt, tables
    return checked


def _element_certificate(tops) -> int:
    """The element-by-element closure certificate of the tops, which hold
    the identity, in O(|G| * |S|) compositions: the oracle for the coset
    certificate."""
    reached, tables, checked = {bytes(range(len(tops[0])))}, [], 0
    for top in tops:
        if top not in reached:
            checked += _adjoin_within(reached, tables, [top], set(tops))
    if len(reached) != len(tops):
        raise InvalidParams("generated too few elements")
    return checked


_level_group = functools.lru_cache(maxsize=None)(enumerate_level_group)


def _inverse(top: bytes) -> bytes:
    return bytes.maketrans(top, bytes(range(len(top))))[: len(top)]


class TestCosetCertificate:
    @given(
        shape=st.sampled_from([(2, 3), (3, 2)]),
        gens=st.lists(st.integers(min_value=0), max_size=3),
        toggles=st.lists(st.integers(min_value=0), max_size=3),
    )
    def test_agrees_with_the_element_certificate(self, shape, gens, toggles):
        # a subgroup <gens> with up to three elements (and their inverses)
        # toggled in or out: closed or not, the coset certificate accepts
        # exactly when the element-by-element one does
        group = _level_group(*shape)
        tops = group.tops
        identity = tops[0]
        chosen = _generated([tops[i % len(tops)] for i in gens] or [identity])
        for i in toggles:
            top = tops[i % len(tops)]
            if top != identity:
                pair = {top, _inverse(top)}
                chosen = chosen - pair if top in chosen else chosen | pair
        kept = tuple(t for t in tops if t in chosen)
        try:
            _element_certificate(kept)
        except InvalidParams:
            # construction runs the certificate
            with pytest.raises(InvalidParams):
                LevelPermGroup(group.n, group.k, tops=kept)
        else:
            subset = LevelPermGroup(group.n, group.k, tops=kept)
            assert subset.verify_closure() <= 2 * len(subset)
            assert {_inverse(t) for t in subset.tops} == set(subset.tops)

    @given(
        shape=st.sampled_from([(2, 2), (2, 3), (3, 2)]),
        gens=st.lists(st.integers(min_value=0), max_size=3),
        toggles=st.lists(st.integers(min_value=0), min_size=1, max_size=3),
    )
    def test_a_closed_set_holds_every_inverse(self, shape, gens, toggles):
        # single elements toggled, so a set may miss an inverse: a finite
        # set holding the identity and closed under composition is a group
        # (Dummit and Foote, Abstract Algebra, 3rd ed., section 2.1), so
        # construction, which certifies only composition, accepts exactly
        # what the element certificate accepts, and never a set missing
        # an inverse
        group = _level_group(*shape)
        tops = group.tops
        chosen = _generated([tops[i % len(tops)] for i in gens] or [tops[0]])
        for i in toggles:
            if tops[i % len(tops)] != tops[0]:
                chosen ^= {tops[i % len(tops)]}
        kept = tuple(t for t in tops if t in chosen)
        try:
            _element_certificate(kept)
        except InvalidParams:
            with pytest.raises(InvalidParams, match="not closed"):
                LevelPermGroup(group.n, group.k, tops=kept)
        else:
            subset = LevelPermGroup(group.n, group.k, tops=kept)
            assert {_inverse(t) for t in subset.tops} == chosen

    def test_a_set_missing_an_inverse_is_refused_when_built(self):
        # the 4-cycle's inverse is its cube; its square, the first product
        # outside the set, is what the refusal names
        identity, cycle = bytes([0, 1, 2, 3]), bytes([1, 2, 3, 0])
        with pytest.raises(
            InvalidParams,
            match=r"^not closed under composition: "
            r"the generated \[2, 3, 0, 1\] leaves the set$",
        ):
            LevelPermGroup(2, 2, tops=(identity, cycle))

    def test_an_outsider_is_refused_once_the_reached_set_outgrows_the_set(
        self
    ):
        # the reflections a and b sort first; <a, b> holds their product
        # [2, 3, 0, 1], outside the set, yet has no more elements than it,
        # so the refusal comes when c's coset joins, and names the least
        # of the four outsiders reached by then
        a, b = bytes([0, 3, 2, 1]), bytes([2, 1, 0, 3])
        c = bytes([3, 2, 1, 0])
        with pytest.raises(
            InvalidParams,
            match=r"^not closed under composition: "
            r"the generated \[1, 0, 3, 2\] leaves the set$",
        ):
            LevelPermGroup(2, 2, tops=(bytes(range(4)), a, b, c))

    def test_error_is_the_same_under_any_hash_seed(self):
        # {shift 0, 1, 7} is refused with two generated shifts outside it,
        # and {1, a, b, c} above with four; each message names the least,
        # not the first in set order, and the raise is explicit, so it
        # survives python -O
        code = (
            "from bslat.lab import LevelPermGroup, shift_element, _top_of\n"
            "shifts = tuple(_top_of(shift_element(2, 3, a))\n"
            "               for a in (0, 1, 7))\n"
            "tops = tuple(map(bytes, ([0, 1, 2, 3], [0, 3, 2, 1],\n"
            "                         [2, 1, 0, 3], [3, 2, 1, 0])))\n"
            "for build in (lambda: LevelPermGroup(2, 3, shifts),\n"
            "              lambda: LevelPermGroup(2, 2, tops=tops)):\n"
            "    try:\n"
            "        build().verify_closure()\n"
            "    except Exception as exc:\n"
            "        print(type(exc).__name__, exc)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        messages = {
            subprocess.run(
                [sys.executable, "-O", "-c", code],
                capture_output=True, text=True, check=True, timeout=30,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            ).stdout
            for seed in ("0", "1", "2", "3")
        }
        assert len(messages) == 1
        shifts, tops = messages.pop().splitlines()
        assert shifts.startswith("InvalidParams not closed under composition")
        assert tops == (
            "InvalidParams not closed under composition: "
            "the generated [1, 0, 3, 2] leaves the set"
        )

    def test_size_guard_stops_a_huge_subgroup(self):
        # the 64 shifts are a closed subgroup H; t = reflection then a top
        # swap sorts after them, and <H, t> has more than 10**6 elements:
        # the reached set must be refused once it outgrows the 66 elements
        n, k = 2, 6
        shifts = [_top_of(shift_element(n, k, a)) for a in range(n**k)]
        swap = bytearray(range(64))
        swap[0], swap[32] = 32, 0
        t = bytes(63 - x for x in range(64)).translate(_padded(bytes(swap)))
        # in canonical order, as the enumerator passes tops
        tops = sorted(
            shifts + [t, _inverse(t)],
            key=lambda top: _element(n, top).to_lists(),
        )
        start = time.perf_counter()
        with pytest.raises(InvalidParams, match="not closed"):
            LevelPermGroup(n, k, tuple(tops))
        assert time.perf_counter() - start < 1.0


class TestCentralizer:
    def test_shift_centralizer_is_the_shift_subgroup(self):
        for n, k in [(2, 2), (2, 3), (3, 1)]:
            group = enumerate_level_group(n, k)
            sub = centralizer(shift_element(n, k, 1), group)
            assert len(sub) == n**k
            assert set(_elements(sub)) == {
                shift_element(n, k, r) for r in range(n**k)
            }

    def test_identity_is_central(self):
        group = enumerate_level_group(2, 2)
        assert centralizer(LevelPermAutomorphism.identity(2, 2), group) == group

    def test_doubled_shift_is_central_at_depth_two(self):
        group = enumerate_level_group(2, 2)
        assert len(centralizer(shift_element(2, 2, 2), group)) == 8

    def test_depth_three_orders(self):
        group = enumerate_level_group(2, 3)
        assert len(centralizer(shift_element(2, 3, 1), group)) == 8
        assert len(centralizer(shift_element(2, 3, 2), group)) == 32

    def test_membership_enforced(self):
        group = enumerate_level_group(2, 2)
        shallow = LevelPermAutomorphism.identity(2, 1)
        with pytest.raises(NotMember):
            centralizer(shallow, group)
        shifts = centralizer(shift_element(2, 2, 1), group)
        outsider = next(g for g in _elements(group) if g not in shifts)
        with pytest.raises(NotMember):
            centralizer(outsider, shifts)

    def test_base_mismatch(self):
        with pytest.raises(BaseMismatch):
            centralizer(
                LevelPermAutomorphism.identity(3, 2),
                enumerate_level_group(2, 2),
            )


def _filtered_centralizer(g, group):
    """Tops of the group members commuting with g, by the exhaustive
    filter: the oracle for the lift search."""
    pivot = bytes(g.perms[-1])
    table, after_pivot = _padded(pivot), operator.itemgetter(*pivot)
    return tuple(
        top
        for top in group.tops
        if top.translate(table) == bytes(after_pivot(top))
    )


class TestCentralizerSearch:
    @pytest.mark.parametrize("n, k", [(2, 3), (3, 2), (2, 4)])
    def test_every_shift_matches_the_filter(self, n, k):
        group = enumerate_level_group(n, k)
        for m in range(1, n**k):
            shift = shift_element(n, k, m)
            assert centralizer(shift, group).tops == (
                _filtered_centralizer(shift, group)
            )

    @pytest.mark.parametrize("n, k", [(2, 3), (3, 2)])
    def test_random_pivots_match_the_filter(self, n, k):
        group = enumerate_level_group(n, k)
        # the tops are sampled, and only the sampled elements built
        for top in random.Random(8 * n + k).sample(group.tops, 20):
            g = _element(n, top)
            assert centralizer(g, group).tops == _filtered_centralizer(g, group)

    def test_subgroup_matches_the_filter(self):
        for n, k, m in [(2, 2, 1), (2, 3, 2), (3, 2, 3)]:
            group = enumerate_level_group(n, k)
            sub = centralizer(shift_element(n, k, m), group)
            assert len(sub) < len(group)
            outsider = next(g for g in _elements(group) if g not in sub)
            shifts_of_outsider = centralizer(outsider, group)
            for g in _elements(sub):
                assert centralizer(g, sub).tops == _filtered_centralizer(g, sub)
            for g in _elements(shifts_of_outsider):
                assert centralizer(g, shifts_of_outsider).tops == (
                    _filtered_centralizer(g, shifts_of_outsider)
                )

    def test_search_is_capped_by_the_full_group(self):
        identity = LevelPermAutomorphism.identity(2, 5)
        trivial = LevelPermGroup(2, 5, (_top_of(identity),))
        assert level_group_order_recursive(2, 5) > SIZE_CAP
        with pytest.raises(TooLarge):
            centralizer(identity, trivial)

    def test_enumeration_builds_no_elements(self, monkeypatch):
        built = []
        original = LevelPermAutomorphism.__post_init__

        def counting(self):
            built.append(self.depth)
            original(self)

        monkeypatch.setattr(LevelPermAutomorphism, "__post_init__", counting)
        group = enumerate_level_group(2, 4)
        assert built == []
        # fifteen index-2 steps: sum of 1 + |H_i| + |S_i| over
        # |H_i| = 2**(i - 1), |S_i| = i, against 491,520 for the
        # element-by-element certificate
        assert group.verify_closure() == 32902 == sum(
            1 + 2 ** (i - 1) + i for i in range(1, 16)
        )
        assert len(centralizer(shift_element(2, 4, 1), group)) == 16
        assert built == [4]  # the shift itself


def _two_set_group(n, k, tops) -> int:
    """The constructor that kept set(tops) as the member set beside the
    certificate's reached set: the oracle for the one member set.  Returns
    the compositions made, or raises as construction did."""
    if not tops:
        raise InvalidParams("a group needs at least the identity")
    members = set(tops)
    if len(members) != len(tops):
        raise InvalidParams("duplicate elements")
    identity = bytes(range(n**k))
    if identity not in members:
        raise InvalidParams("identity missing")
    reached, tables, checked = {identity}, [], 0
    for top in itertools.filterfalse(reached.__contains__, tops):
        old = list(reached)
        tables.append(_padded(top))
        reps, row = [identity], tables[-1:]
        for rep in reps:
            for table in row:
                prod = rep.translate(table)
                if prod not in reached:
                    reps.append(prod)
                    reached.update(f.translate(_padded(prod)) for f in old)
                    if len(reached) > len(tops):
                        raise _outside(reached, members)
            checked += len(row)
            row = tables
        checked += (len(reps) - 1) * len(old)
    return checked


class TestGroupOfTops:
    @given(
        shape=st.sampled_from([(2, 2), (2, 3), (3, 2)]),
        gens=st.lists(st.integers(min_value=0), max_size=3),
        toggles=st.lists(st.integers(min_value=0), max_size=3),
        repeats=st.lists(st.integers(min_value=0), max_size=2),
        drop_identity=st.booleans(),
    )
    def test_agrees_with_the_two_set_constructor(
        self, shape, gens, toggles, repeats, drop_identity
    ):
        # a subgroup with single tops toggled in or out (outsiders, or a
        # missing inverse), some tops repeated, and the identity perhaps
        # dropped: the one member set accepts and refuses exactly as the
        # two sets did, with the same message, and holds exactly the tops
        group = _level_group(*shape)
        tops = group.tops
        chosen = _generated([tops[i % len(tops)] for i in gens] or [tops[0]])
        for i in toggles:
            if tops[i % len(tops)] != tops[0]:
                chosen ^= {tops[i % len(tops)]}
        if drop_identity:
            chosen.discard(tops[0])
        kept = [t for t in tops if t in chosen]
        for i in repeats:
            if kept:
                kept.insert(i % len(kept), kept[i % len(kept)])
        kept = tuple(kept)
        try:
            checked = _two_set_group(group.n, group.k, kept)
        except InvalidParams as refusal:
            with pytest.raises(InvalidParams) as failure:
                LevelPermGroup(group.n, group.k, kept)
            assert str(failure.value) == str(refusal)
        else:
            subset = LevelPermGroup(group.n, group.k, kept)
            assert subset._members == set(subset.tops)
            assert subset.verify_closure() == checked

    def test_tops_are_checked(self):
        identity, swap = bytes([0, 1]), bytes([1, 0])
        with pytest.raises(InvalidParams):
            LevelPermGroup(2, 1, tops=(identity, swap, swap))
        # for a 3-cycle a the size check has slack: <a> reaches the outsider
        # a**2 and holds three tops, no more than (1, a, a), so only the
        # duplicate check refuses it
        one, a = bytes([0, 1, 2]), bytes([1, 2, 0])
        with pytest.raises(InvalidParams, match="^duplicate elements$"):
            LevelPermGroup(3, 1, tops=(one, a, a))
        with pytest.raises(InvalidParams):
            LevelPermGroup(2, 1, tops=(swap,))
        with pytest.raises(InvalidParams):
            LevelPermGroup(2, 1, tops=())
        with pytest.raises(InvalidParams):
            LevelPermGroup(2, 2, tops=(bytes([0, 1, 2, 3]), bytes([1, 2, 3, 0])))
        # a top that is not a valid top is never reached, so it joins the
        # generating set and is checked there: too short, not a
        # permutation, incompatible with the level below, or holding a
        # label past n**k
        cases = [
            (2, [1, 0], "top [1, 0]: level 2 is not a permutation of Z/2^2"),
            (1, [0, 0], "top [0, 0]: level 1 is not a permutation of Z/2^1"),
            (2, [1, 0, 2, 3],
             "top [1, 0, 2, 3]: levels 1 and 2 incompatible at 2"),
            # labels past n**k are not read mod n**k at the top level
            (2, [0, 1, 2, 7], "top [0, 1, 2, 7]: level 2 is not a "
             "permutation of Z/2^2"),
        ]
        # a refusal is not cached: the second build is refused again
        for k, top, message in cases + cases:
            with pytest.raises(InvalidParams) as refused:
                LevelPermGroup(2, k, tops=(bytes(range(2**k)), bytes(top)))
            assert str(refused.value) == message

    def test_membership_by_top(self):
        group = enumerate_level_group(2, 2)
        shifts = centralizer(shift_element(2, 2, 1), group)
        assert shift_element(2, 2, 3) in shifts
        assert LevelPermAutomorphism(2, ((0, 1), (2, 1, 0, 3))) not in shifts
        assert LevelPermAutomorphism.identity(2, 1) not in group
        assert LevelPermAutomorphism.identity(3, 2) not in group


def centralizer_bound_report(n: int, k: int, m: int) -> LemmaReport:
    """Brute-force centralizer order of the depth-k shift by m, against
    the claimed bound n**k * |G_l| and the split-sequence order
    n**((k-l)*n**l) * |G_l|."""
    level = _collapse_level(n, m)
    if level >= k:
        raise InvalidParams(
            f"shift by {m} is trivial at depth {k} (l = {level}); "
            "need l < k"
        )
    group = enumerate_level_group(n, k)
    brute = len(centralizer(shift_element(n, k, m), group))
    lower_order = 1 if level == 0 else len(enumerate_level_group(n, level))
    claimed = n**k * lower_order
    structural = n ** ((k - level) * n**level) * lower_order
    direction = "within" if brute <= claimed else "exceeds"
    return LemmaReport.of(
        lemma="centralizer-order-bound",
        params={"n": n, "k": k, "m": m, "l": level},
        brute=brute,
        formula=claimed,
        notes=(
            f"split exact sequence predicts {structural}; "
            f"brute force {direction} the claimed bound"
        ),
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


class TestCollapseLevel:
    @staticmethod
    def per_prime_formula(n, m):
        # the lab's own formula before it moved into exactnum
        return max(
            [0]
            + [
                -(-p_valuation(m, p) // e)
                for p, e in _prime_signature(n).primes
                if m % p == 0
            ]
        )

    @given(
        st.sampled_from([2, 3, 4, 6, 10, 12]),
        st.integers(1, 10**6),
    )
    def test_matches_per_prime_formula(self, n, m):
        assert _collapse_level(n, m) == self.per_prime_formula(n, m)
        assert _collapse_level(n, m) == transitive_pair(m, 1, n)[0]

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParams):
            _collapse_level(2, 0)


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

    def test_rejects_degenerate_input(self):
        with pytest.raises(ZeroTranslation):
            eventually_transitive_search(0, 1, n=2)
        with pytest.raises(InvalidParams):
            eventually_transitive_search(3, 0, n=2)
        with pytest.raises(InvalidParams):
            eventually_transitive_search(3, 1, depth=-1, n=2)

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


def _rebuilt_abelian_search_order(tops):
    """The abelian subgroup search regrowing every subgroup from the
    identity: the oracle for growing each pair's subgroup once."""
    count = len(tops)
    if count > 200:
        return None
    tables = {f: _padded(f) for f in tops}

    def commutes(f, g):
        return g.translate(tables[f]) == f.translate(tables[g])

    best = 1
    pairs = [
        (f, g)
        for i, f in enumerate(tops)
        for g in tops[i:]
        if commutes(f, g)
    ]
    for f, g in pairs:
        best = max(best, len(_generated((f, g))))
    if count**3 <= 2 * SIZE_CAP:
        for f, g in pairs:
            for h in tops:
                if commutes(f, h) and commutes(g, h):
                    best = max(best, len(_generated((f, g, h))))
    return best


class TestAbelianSearch:
    @pytest.mark.parametrize("n, k, expected", [(2, 2, 4), (2, 3, 16)])
    def test_matches_rebuilding_from_the_identity(self, n, k, expected):
        tops = list(enumerate_level_group(n, k).tops)
        assert _abelian_search_order(tops) == expected
        assert _rebuilt_abelian_search_order(tops) == expected
        sample = random.Random(n + k).sample(tops, min(len(tops), 40))
        assert _abelian_search_order(sample) == (
            _rebuilt_abelian_search_order(sample)
        )

    def test_large_input_is_skipped(self):
        tops = list(enumerate_level_group(3, 2).tops)
        assert _abelian_search_order(tops) is None
