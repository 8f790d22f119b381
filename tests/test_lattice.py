"""Lattice embeddings: classification, quotient data, covolume,
straightening, and the full-isometry-group presentations.

The quotient minimal-translation values are cross-checked against a brute
force scan over conjugated generator powers, which is the ground truth the
closed forms must reproduce.
"""

import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bslat.errors import (
    BaseMismatch,
    CaseInvalid,
    InvalidParams,
    NotStraightenable,
    ParseError,
    TooLarge,
    ZeroTranslation,
)
from bslat.exactnum import in_ball, unit_in_base
from bslat.isometry import (
    AmbientAutomorphism,
    ArithmeticIsometry,
    translation_distance,
)
from bslat.lattice import (
    EmbeddingClass,
    EmbeddingSpec,
    PresentationCase,
    QuotientEntry,
    apply_automorphism_to_spec,
    are_automorphism_equivalent,
    are_conjugate,
    build_full_lattice,
    classify,
    conjugate_spec,
    covolume,
    covolume_from_quotient,
    enumerate_quotient,
    evaluate_word,
    flip_commutator_exponent,
    presentation_relators,
    standard_embedding,
    straighten,
    validate,
    verify_presentation,
)
from bslat.tree import (
    BallAffineMap,
    LevelPermAutomorphism,
    TreeVertex,
    act,
    fixes,
)


def reduced_multiplier(n: int, m: int) -> bool:
    """m has only prime factors of n and is not divisible by n."""
    stripped = m
    for p in (2, 3, 5, 7, 11):
        while stripped % p == 0 and n % p == 0:
            stripped //= p
    return stripped == 1 and m % n != 0


@st.composite
def embedding_params(draw):
    n = draw(st.sampled_from([2, 3, 4, 6]))
    l = draw(st.integers(1, 2))
    s = Fraction(
        draw(st.integers(-8, 8).filter(bool)), draw(st.integers(1, 6))
    )
    m = draw(
        st.integers(1, 12).filter(lambda v: reduced_multiplier(n, v))
    )
    return n, l, s, m


@st.composite
def conjugators(draw, n):
    h = draw(st.integers(-2, 2))
    unit = draw(
        st.integers(1, 50).filter(lambda v: unit_in_base(v, n))
    )
    u = draw(st.sampled_from([1, -1])) * unit * Fraction(n) ** h
    beta = Fraction(
        draw(st.integers(-20, 20)), n ** draw(st.integers(0, 2))
    )
    alpha = Fraction(draw(st.integers(-12, 12)), draw(st.integers(1, 7)))
    return ArithmeticIsometry(n, 1, h, alpha, BallAffineMap(n, h, u, beta))


@st.composite
def spec_and_conjugator(draw):
    n, l, s, m = draw(embedding_params())
    return standard_embedding(n, l, s, m), draw(conjugators(n))


class TestStandardEmbedding:
    def test_images(self):
        spec = standard_embedding(2, 1, Fraction(1, 2), 3)
        assert spec.imgA.alpha == Fraction(3, 2)
        assert spec.imgA.tree == BallAffineMap.translation(2, 3)
        assert spec.imgB.tree == BallAffineMap.base_scaling(2, 1)
        assert spec.imgB.alpha == 0

    def test_string_s_accepted(self):
        spec = standard_embedding(2, 1, "7/3", 1)
        assert spec.imgA.alpha == Fraction(7, 3)

    def test_rejects_degenerate_params(self):
        with pytest.raises(InvalidParams):
            standard_embedding(2, 1, 0, 1)
        with pytest.raises(InvalidParams):
            standard_embedding(2, 1, 1, 0)
        with pytest.raises(InvalidParams):
            standard_embedding(2, 0, 1, 1)

    def test_validate_accepts_standard(self):
        assert validate(standard_embedding(6, 2, Fraction(2, 3), 9)) == []

    def test_refuses_a_float_s(self):
        # text is parsed; any other non-number fails before arithmetic
        with pytest.raises(TypeError):
            standard_embedding(2, 1, 1.5, 1)
        with pytest.raises(ParseError):
            standard_embedding(2, 1, "1/0", 1)

    def test_benchmark_records_rebuild(self, tmp_path, monkeypatch):
        # bench/record_golden.py writes each embedding record from the text
        # values of s in SPEC_FILES; each must equal its committed file
        bench = Path(__file__).resolve().parent.parent / "bench"
        monkeypatch.syspath_prepend(str(bench))
        import record_golden
        import workloads

        monkeypatch.setattr(record_golden, "ROOT", tmp_path)
        (tmp_path / "bench").mkdir()
        record_golden.write_spec_files()
        for stem, *_ in workloads.SPEC_FILES:
            path = Path(workloads.spec_path(stem))
            assert (tmp_path / path).read_text() == (
                bench.parent / path
            ).read_text()


class TestValidateDiagnostics:
    def test_orientation(self):
        a = ArithmeticIsometry(
            2, -1, 0, Fraction(1), BallAffineMap.translation(2, 1)
        )
        b = ArithmeticIsometry.pure_tree(BallAffineMap.base_scaling(2, 1))
        problems = validate(EmbeddingSpec(2, 1, a, b))
        assert any("orientation" in str(p) for p in problems)

    def test_heights(self):
        good = standard_embedding(2, 2, 1, 1)
        bad = EmbeddingSpec(2, 1, good.imgA, good.imgB)
        assert any("height change 1" in str(p) for p in validate(bad))

    def test_twisting_rejected(self):
        a = ArithmeticIsometry(
            3, 1, 0, Fraction(1), BallAffineMap(3, 0, Fraction(-1), Fraction(1))
        )
        b = ArithmeticIsometry.pure_tree(BallAffineMap.base_scaling(3, 1))
        problems = validate(EmbeddingSpec(3, 1, a, b))
        assert any("u = 1" in str(p) for p in problems)

    def test_zero_translation_distance(self):
        a = ArithmeticIsometry.pure_tree(BallAffineMap.translation(2, 1))
        b = ArithmeticIsometry.pure_tree(BallAffineMap.base_scaling(2, 1))
        problems = validate(EmbeddingSpec(2, 1, a, b))
        assert any("nonzero translation" in str(p) for p in problems)
        with pytest.raises(ZeroTranslation):
            classify(EmbeddingSpec(2, 1, a, b))

    def test_the_first_problem_picks_the_error(self):
        # l < 1 is checked before beta == 0, so l's error is raised
        a = ArithmeticIsometry(2, 1, 0, Fraction(1), BallAffineMap.identity(2))
        b = ArithmeticIsometry.pure_tree(BallAffineMap.identity(2))
        spec = EmbeddingSpec(2, 0, a, b)
        assert [type(p) for p in validate(spec)] == [
            InvalidParams, ZeroTranslation
        ]
        with pytest.raises(InvalidParams, match="^l must be >= 1, got 0$"):
            classify(spec)

    def test_relation_failure(self):
        good = standard_embedding(2, 1, 1, 1)
        skewed = ArithmeticIsometry.pure_tree(
            BallAffineMap(2, 1, Fraction(6), Fraction(0))
        )
        problems = validate(EmbeddingSpec(2, 1, good.imgA, skewed))
        assert any("defining relation" in str(p) for p in problems)
        with pytest.raises(InvalidParams):
            classify(EmbeddingSpec(2, 1, good.imgA, skewed))

    def test_base_mismatch_is_structural(self):
        good = standard_embedding(2, 1, 1, 1)
        with pytest.raises(BaseMismatch):
            EmbeddingSpec(3, 1, good.imgA, good.imgB)


class TestClassify:
    def test_unit_multiplier(self):
        got = classify(standard_embedding(2, 1, 1, 3))
        assert (got.s, got.m) == (Fraction(3), 1)
        assert (got.h0, got.j, got.k) == (0, 1, 0)
        assert got.w0 == TreeVertex(2, 0, Fraction(0))

    def test_multiplier_absorbed_into_height(self):
        got = classify(standard_embedding(2, 1, 1, 2))
        assert (got.s, got.m) == (Fraction(1), 1)
        assert got.h0 == 1

    def test_prime_power_base_sees_partial_step(self):
        got = classify(standard_embedding(4, 1, 1, 2))
        assert (got.s, got.m) == (Fraction(1), 2)
        assert (got.h0, got.j, got.k) == (0, 2, 1)

    def test_composite_base_mixed_valuations(self):
        got = classify(standard_embedding(6, 1, 1, 720))
        assert (got.s, got.m) == (Fraction(5), 4)
        assert (got.h0, got.j, got.k) == (2, 9, 2)

    def test_negative_height_start(self):
        a = ArithmeticIsometry(
            2, 1, 0, Fraction(3, 2), BallAffineMap.translation(2, Fraction(3, 4))
        )
        b = ArithmeticIsometry.pure_tree(BallAffineMap.base_scaling(2, 1))
        got = classify(EmbeddingSpec(2, 1, a, b))
        assert (got.s, got.m, got.h0) == (Fraction(6), 1, -2)

    def test_json_shape(self):
        got = classify(standard_embedding(2, 1, 1, 3))
        assert got.to_json() == {"s": "3", "m": 1, "h0": 0, "j": 1, "k": 0}

    @given(embedding_params())
    def test_round_trip_on_reduced_multipliers(self, params):
        n, l, s, m = params
        got = classify(standard_embedding(n, l, s, m))
        assert (got.s, got.m) == (s, m)
        assert got.h0 == 0
        assert got.m * got.j == n ** (l * got.k)

    @given(embedding_params())
    def test_multiplier_collapse_by_base(self, params):
        n, l, s, m = params
        direct = classify(standard_embedding(n, l, s, m))
        inflated = classify(standard_embedding(n, l, s, m * n))
        assert inflated.invariant_pair == direct.invariant_pair
        assert inflated.h0 == 1

    def test_power_substitution_fixed_by_stable_letter(self):
        for n, l in [(2, 1), (3, 1), (6, 1)]:
            spec = standard_embedding(n, l, Fraction(3, 2), 1)
            replaced = EmbeddingSpec(
                n, l,
                spec.imgA.power(n).conjugated_by(spec.imgB.inverse()),
                spec.imgB,
            )
            assert classify(replaced) == classify(spec)

    def test_prime_conjugation_collapse(self):
        for p in (2, 3, 5):
            got = classify(standard_embedding(p, 1, Fraction(7, 2), p))
            assert (got.s, got.m, got.h0) == (Fraction(7, 2), 1, 1)


class TestConjugationInvariance:
    @given(spec_and_conjugator())
    def test_invariant_under_conjugation(self, data):
        spec, g = data
        moved = conjugate_spec(spec, g)
        assert validate(moved) == []
        base, shifted = classify(spec), classify(moved)
        assert shifted.invariant_pair == base.invariant_pair
        assert (shifted.j, shifted.k) == (base.j, base.k)
        assert shifted.h0 == base.h0 + g.h
        assert shifted.w0 == act(g.tree, base.w0)
        assert are_conjugate(spec, moved)
        assert covolume(moved) == covolume(spec)

    def test_different_s_not_conjugate(self):
        assert not are_conjugate(
            standard_embedding(2, 1, 1, 1), standard_embedding(2, 1, 2, 1)
        )
        assert are_automorphism_equivalent(
            standard_embedding(2, 1, 1, 1), standard_embedding(2, 1, 2, 1)
        )

    def test_different_m_not_equivalent(self):
        assert not are_conjugate(
            standard_embedding(4, 1, 1, 1), standard_embedding(4, 1, 1, 2)
        )
        assert not are_automorphism_equivalent(
            standard_embedding(4, 1, 1, 1), standard_embedding(4, 1, 1, 2)
        )

    def test_unreduced_multiplier_is_conjugate_to_reduced(self):
        assert are_conjugate(
            standard_embedding(2, 1, 1, 3), standard_embedding(2, 1, 3, 1)
        )

    def test_power_mismatch(self):
        assert not are_conjugate(
            standard_embedding(2, 1, 1, 1), standard_embedding(2, 2, 1, 1)
        )

    def test_base_mismatch(self):
        with pytest.raises(BaseMismatch):
            are_conjugate(
                standard_embedding(2, 1, 1, 1), standard_embedding(3, 1, 1, 1)
            )


class TestAutomorphismAction:
    @given(embedding_params(), st.integers(-6, 6).filter(bool),
           st.integers(1, 5))
    def test_scaling_multiplies_s(self, params, num, den):
        n, l, s, m = params
        r = Fraction(num, den)
        spec = standard_embedding(n, l, s, m)
        moved = apply_automorphism_to_spec(
            spec, AmbientAutomorphism.scaling(n, r)
        )
        got = classify(moved)
        assert got.invariant_pair == (r * s, m)
        assert are_automorphism_equivalent(spec, moved)
        if r != 1:
            assert not are_conjugate(spec, moved)

    def test_tree_component_acts_by_conjugation(self):
        spec = standard_embedding(2, 1, 1, 3)
        g = ArithmeticIsometry.pure_tree(
            BallAffineMap.translation(2, Fraction(1, 2))
        )
        phi = AmbientAutomorphism(Fraction(2), g)
        got = classify(apply_automorphism_to_spec(spec, phi))
        assert got.invariant_pair == (Fraction(2) * 3, 1)


def brute_min_translation(spec, vertex, x_max=6, y_cap=5000):
    """Smallest positive |td| among conjugated powers B^-x A^y B^x fixing
    the vertex.  Honest scan, no valuation formulas."""
    best = None
    for x in range(x_max + 1):
        pulled = spec.imgA.conjugated_by(spec.imgB.power(-x))
        step = abs(translation_distance(pulled))
        shift = pulled.tree.beta
        for y in range(1, y_cap + 1):
            if in_ball(y * shift, vertex.h, spec.n):
                candidate = y * step
                if best is None or candidate < best:
                    best = candidate
                break
    return best


class TestQuotient:
    def test_standard_unit_case(self):
        entries = enumerate_quotient(standard_embedding(2, 1, 1, 1))
        assert len(entries) == 1
        assert entries[0] == QuotientEntry(
            TreeVertex(2, 0, Fraction(0)), Fraction(1), 0, 1
        )

    def test_two_level_case(self):
        entries = enumerate_quotient(
            standard_embedding(2, 2, Fraction(1, 2), 1)
        )
        assert [e.height for e in entries] == [0, 1]
        assert [e.min_translation for e in entries] == [
            Fraction(1, 2), Fraction(1),
        ]
        assert [e.rep for e in entries] == [
            TreeVertex(2, 0, Fraction(0)), TreeVertex(2, 1, Fraction(0)),
        ]
        assert all(e.fixed_order == 1 for e in entries)

    def test_entry_defends_positivity(self):
        with pytest.raises(InvalidParams):
            QuotientEntry(TreeVertex(2, 0, Fraction(0)), Fraction(-1), 0, 1)

    def test_json_field_names(self):
        entry = enumerate_quotient(standard_embedding(2, 1, 1, 1))[0]
        assert entry.to_json() == {
            "rep": {"h": 0, "c": "0"}, "a_v": "1", "h_v": 0, "stab0": 1,
        }

    @pytest.mark.parametrize(
        "n, l, s, m",
        [
            (2, 1, Fraction(1), 3),
            (2, 1, Fraction(1), 2),
            (4, 1, Fraction(1), 2),
            (2, 2, Fraction(1, 2), 1),
            (6, 1, Fraction(1), 4),
            (6, 2, Fraction(2, 3), 9),
            (3, 2, Fraction(-1), 1),
        ],
    )
    def test_brute_force_stabilizers(self, n, l, s, m):
        spec = standard_embedding(n, l, s, m)
        for entry in enumerate_quotient(spec):
            assert brute_min_translation(spec, entry.rep) == entry.min_translation

    def test_brute_force_on_conjugated_spec(self):
        g = ArithmeticIsometry(
            2, 1, 1, Fraction(1, 3),
            BallAffineMap(2, 1, Fraction(6), Fraction(1, 2)),
        )
        spec = conjugate_spec(standard_embedding(2, 1, 1, 2), g)
        for entry in enumerate_quotient(spec):
            assert brute_min_translation(spec, entry.rep) == entry.min_translation

    @pytest.mark.parametrize("n, l, s, m", [
        (2, 5, Fraction(3), 1),
        (6, 4, Fraction(-2, 3), 9),
        (3, 3, Fraction(1, 9), 1),
    ])
    def test_distances_step_by_n(self, n, l, s, m):
        spec = standard_embedding(n, l, s, m)
        classified = classify(spec)
        entries = enumerate_quotient(spec)
        h0 = classified.h0
        assert [e.height for e in entries] == list(range(h0, h0 + l))
        assert [e.min_translation for e in entries] == [
            abs(classified.s) * Fraction(n) ** h for h in range(h0, h0 + l)
        ]

    def test_brute_force_negative_heights(self):
        a = ArithmeticIsometry(
            2, 1, 0, Fraction(3, 2), BallAffineMap.translation(2, Fraction(3, 4))
        )
        b = ArithmeticIsometry.pure_tree(BallAffineMap.base_scaling(2, 1))
        spec = EmbeddingSpec(2, 1, a, b)
        entry = enumerate_quotient(spec)[0]
        assert entry.height == -2
        assert entry.min_translation == Fraction(3, 2)
        assert brute_min_translation(spec, entry.rep) == Fraction(3, 2)


class TestCovolume:
    def test_from_quotient_frozen(self):
        v0 = TreeVertex(2, 0, Fraction(0))
        v1 = TreeVertex(2, 1, Fraction(0))
        assert covolume_from_quotient(
            [QuotientEntry(v0, Fraction(1), 0, 1)], 2
        ) == 1
        assert covolume_from_quotient(
            [
                QuotientEntry(v0, Fraction(1, 2), 0, 1),
                QuotientEntry(v1, Fraction(1), 1, 1),
            ],
            2,
        ) == 1
        assert covolume_from_quotient(
            [QuotientEntry(v0, Fraction(1), 0, 2)], 2
        ) == Fraction(1, 2)

    def test_height_past_the_scaling_cap_is_refused(self):
        # 2**262143 is the last power of 2 within SCALING_CAP; past it the
        # term would be past printing, so no power is built
        v0 = TreeVertex(2, 0, Fraction(0))
        for h in (262143, -262143):
            assert covolume_from_quotient(
                [QuotientEntry(v0, Fraction(3), h, 1)], 2
            ) == 3 * Fraction(2) ** -h
        for h in (262144, -262144, 99999999999):
            start = time.perf_counter()
            with pytest.raises(TooLarge, match="more than 262144 bits"):
                covolume_from_quotient(
                    [QuotientEntry(v0, Fraction(3), h, 1)], 2
                )
            assert time.perf_counter() - start < 2
        # a height one step past the last one is checked too
        with pytest.raises(TooLarge, match="more than 262144 bits"):
            covolume_from_quotient(
                [
                    QuotientEntry(v0, Fraction(3), h, 1)
                    for h in (262143, 262144)
                ],
                2,
            )

    @given(
        st.sampled_from([2, 3, 6]),
        st.lists(
            st.tuples(
                st.integers(-4, 4),
                st.integers(1, 20),
                st.integers(1, 3),
            ),
            max_size=8,
        ),
    )
    def test_matches_the_sum_of_powers(self, n, rows):
        # heights in any order, with runs, gaps and repeats
        v0 = TreeVertex(n, 0, Fraction(0))
        entries = [
            QuotientEntry(v0, Fraction(a_v), h, stab0)
            for h, a_v, stab0 in rows
        ]
        assert covolume_from_quotient(entries, n) == sum(
            Fraction(a_v) * Fraction(n) ** -h / stab0
            for h, a_v, stab0 in rows
        )

    def test_unreduced_multiplier(self):
        assert covolume(standard_embedding(2, 1, 1, 3)) == 3

    @given(embedding_params())
    def test_grid_value(self, params):
        n, l, s, m = params
        assert covolume(standard_embedding(n, l, s, m)) == l * abs(s)


class TestStraighten:
    def test_unit_translation_already_straight(self):
        g = straighten(standard_embedding(2, 1, 1, 1), depth=3)
        assert all(g.image_of(v) == v for v in g.domain)

    def test_conjugates_translation_amounts(self):
        spec = standard_embedding(2, 1, 1, 3)
        g = straighten(spec, depth=4)
        # multiplication by 1/3 = 3 mod 4 on the level-2 labels
        assert g.image_of(TreeVertex(2, 2, Fraction(1))) == TreeVertex(
            2, 2, Fraction(3)
        )
        assert g.image_of(TreeVertex(2, 1, Fraction(1, 2))) == TreeVertex(
            2, 1, Fraction(3, 2)
        )

    @pytest.mark.parametrize(
        "n, l, s, m", [(2, 1, 1, 3), (2, 2, 1, 3), (3, 1, 1, 2), (6, 1, 1, 5)]
    )
    def test_intertwines_generators_on_window(self, n, l, s, m):
        spec = standard_embedding(n, l, s, m)
        g = straighten(spec, depth=3)
        straight = BallAffineMap.translation(n, 1)
        mapping = dict(g.pairs)
        checked = 0
        for v, image in mapping.items():
            moved = mapping.get(act(spec.imgA.tree, v))
            if moved is not None:
                assert moved == act(straight, image)
                checked += 1
            lifted = mapping.get(act(spec.imgB.tree, v))
            if lifted is not None:
                assert lifted == act(spec.imgB.tree, image)
                checked += 1
        assert checked > 20

    def test_failed_certificate_names_vertex_and_images(self, monkeypatch):
        real_apply = LevelPermAutomorphism.apply
        # the seed multiplies labels by 1/3, except one sent onto the axis
        monkeypatch.setattr(
            LevelPermAutomorphism, "apply",
            lambda self, level, label: 0 if (level, label) == (2, 1)
            else real_apply(self, level, label),
        )
        with pytest.raises(AssertionError) as failure:
            straighten(standard_embedding(2, 1, 1, 3), depth=2)
        assert str(failure.value) == (
            "window map not injective at (-2, 1/16): it and (-2, 0) both "
            "go to (-2, 0)"
        )

    def test_builds_at_most_two_vertices_per_pair(self, monkeypatch):
        # the vertex walk built 7,041 validated vertices for these 1,215
        built = []
        original = TreeVertex.__post_init__

        def counting(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(TreeVertex, "__post_init__", counting)
        g = straighten(standard_embedding(3, 1, 1, 1), depth=5)
        assert len(g) == 1215
        assert len(built) <= 2 * len(g)

    def test_rejects_shifted_embedding(self):
        with pytest.raises(NotStraightenable, match="m = 1 and h0 = 0"):
            straighten(standard_embedding(2, 1, 1, 2), depth=3)
        with pytest.raises(NotStraightenable):
            straighten(standard_embedding(4, 1, 1, 2), depth=3)

    def test_rejects_nonstandard_stable_letter(self):
        g = ArithmeticIsometry.pure_tree(
            BallAffineMap.translation(2, Fraction(1, 2))
        )
        moved = conjugate_spec(standard_embedding(2, 1, 1, 3), g)
        with pytest.raises(NotStraightenable, match="standard position"):
            straighten(moved, depth=3)

    def test_depth_validated(self):
        with pytest.raises(InvalidParams):
            straighten(standard_embedding(2, 1, 1, 3), depth=0)

    def test_window_validated(self):
        # a negative window used to give an empty map
        spec = standard_embedding(2, 1, 1, 1)
        with pytest.raises(InvalidParams, match="window"):
            straighten(spec, depth=3, window=-1)
        assert len(straighten(spec, depth=3, window=0).pairs) == 8


class TestPresentations:
    def test_case_validation(self):
        with pytest.raises(CaseInvalid):
            PresentationCase(4, 2, 1)
        with pytest.raises(CaseInvalid):
            PresentationCase(2, 2, 1)
        with pytest.raises(CaseInvalid):
            PresentationCase(3, 2, 1)
        with pytest.raises(InvalidParams):
            PresentationCase(1, 2, 0)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("l", [1, 2])
    def test_orientation_preserving_case(self, n, l):
        case = PresentationCase(1, n, l)
        gens = build_full_lattice(case)
        assert sorted(gens) == ["a", "b"]
        relators = presentation_relators(case)
        assert relators == [f"b a b^-1 a^{-n**l}"]
        assert verify_presentation(gens, relators)

    @pytest.mark.parametrize("n, l", [(2, 2), (3, 2), (2, 4)])
    def test_even_power_flip_case(self, n, l):
        case = PresentationCase(2, n, l)
        gens = build_full_lattice(case)
        assert gens["c"].eps == -1
        assert gens["c"].compose(gens["c"]) == gens["b"]
        assert verify_presentation(gens, presentation_relators(case))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("l", [1, 2])
    @pytest.mark.parametrize("m_ref", [-1, 0, 1])
    def test_point_flip_case(self, n, l, m_ref):
        case = PresentationCase(3, n, l, m_ref)
        gens = build_full_lattice(case)
        assert gens["c"].compose(gens["c"]).is_identity()
        assert verify_presentation(gens, presentation_relators(case))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("l", [1, 2])
    @pytest.mark.parametrize("m_ref", [-1, 0, 1, 2])
    def test_flip_commutator_exponent(self, n, l, m_ref):
        y = flip_commutator_exponent(PresentationCase(3, n, l, m_ref))
        assert y == m_ref * (1 - n**l)
        linear = m_ref * (1 - n)
        if l == 1:
            assert y == linear
        elif m_ref != 0:
            # the linear shortcut only covers l = 1
            assert y != linear

    def test_broken_relator_detected(self):
        gens = build_full_lattice(PresentationCase(1, 2, 1))
        assert not verify_presentation(gens, ["a b a^-1 b^-1"])

    def test_word_evaluation(self):
        gens = build_full_lattice(PresentationCase(1, 2, 1))
        b_a_binv = evaluate_word(gens, "b a b^-1")
        assert b_a_binv == gens["a"].power(2)
        with pytest.raises(ParseError):
            evaluate_word(gens, "b a d")


class TestSerialization:
    def test_round_trip(self):
        spec = standard_embedding(6, 2, Fraction(-7, 3), 4)
        payload = spec.to_json()
        assert sorted(payload) == ["a", "b", "l", "n"]
        assert EmbeddingSpec.from_json(payload) == spec

    def test_conjugated_round_trip(self):
        g = ArithmeticIsometry(
            2, 1, -1, Fraction(5, 3),
            BallAffineMap(2, -1, Fraction(3, 2), Fraction(1, 4)),
        )
        spec = conjugate_spec(standard_embedding(2, 1, 1, 3), g)
        assert EmbeddingSpec.from_json(spec.to_json()) == spec


def test_classifier_search_budget_is_generous():
    # deep valuations still land within the literal search budget
    got = classify(standard_embedding(2, 1, 1, 2**10))
    assert (got.s, got.m, got.h0) == (Fraction(1), 1, 10)
