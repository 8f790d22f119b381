"""Release gate: every criterion in one file, one printed line each.

Each test prints `ACCEPTANCE <i> PASS/FAIL <summary>` directly to the
terminal (bypassing capture) so the verdict survives in any log.  Randomized
criteria use fixed seeds; timings are wall-clock with generous warmup.
"""

import contextlib
import io
import json
import random
import sys
import time
from fractions import Fraction

import pytest

from bslat.cli import main as cli_main
from bslat.exactnum import (
    integral_in_base,
    nadic_residue,
    smooth_divisors,
    unit_in_base,
)
from bslat.isometry import (
    AmbientAutomorphism,
    ArithmeticIsometry,
    translation_distance,
)
from bslat.lab import (
    centralizer,
    enumerate_level_group,
    eventually_transitive_search,
    level_group_order_formula,
    level_group_order_recursive,
    level_group_report,
    level_sum_report,
    shift_element,
)
from bslat.lattice import (
    PresentationCase,
    apply_automorphism_to_spec,
    build_full_lattice,
    classify,
    conjugate_spec,
    covolume,
    enumerate_quotient,
    flip_commutator_exponent,
    presentation_relators,
    standard_embedding,
    verify_presentation,
)
from bslat.tree import (
    BallAffineMap,
    TreeVertex,
    TruncatedNAdic,
    levelwise_translation,
    restrict_to_up,
    translation_amount,
)


def _stamp(number: int, verdict: str, summary: str):
    line = f"ACCEPTANCE {number:2d} {verdict}  {summary}"
    print(line, file=sys.__stdout__, flush=True)


@contextlib.contextmanager
def criterion(capsys, number: int, summary: str):
    # capsys.disabled() lifts pytest's fd-level capture so the verdict
    # lines land in the real terminal (and in any teed log) in every mode
    try:
        yield
    except BaseException:
        with capsys.disabled():
            _stamp(number, "FAIL", summary)
        raise
    with capsys.disabled():
        _stamp(number, "PASS", summary)


def _star_valid(n: int, m: int) -> bool:
    rest = m
    for p in (2, 3):
        if n % p == 0:
            while rest % p == 0:
                rest //= p
    return rest == 1 and m % n != 0


# The documented grid gives 180 (n, l, s, m) combinations; two extra s
# values push it past the 200-case floor while keeping every original point.
_BASE_S = [
    Fraction(-1, 2),
    Fraction(1, 2),
    Fraction(-1),
    Fraction(1),
    Fraction(3, 2),
    Fraction(7, 3),
]
_EXTRA_S = [Fraction(5, 4), Fraction(-7, 3)]


def _grid():
    cases = []
    for n in (2, 3, 4, 6):
        for l in (1, 2, 3):
            for s in _BASE_S + _EXTRA_S:
                for m in range(1, 13):
                    if _star_valid(n, m):
                        cases.append((n, l, s, m))
    return cases


def test_criterion_01_reference_classification(capsys):
    with criterion(capsys, 1, "reference pair classifies to (3, 1) in under 10 ms"):
        spec = standard_embedding(2, 1, 1, 3)
        got = classify(spec)
        assert got.invariant_pair == (Fraction(3), 1)
        best = min(
            _timed(lambda: classify(spec)) for _ in range(5)
        )
        assert best < 0.010, f"warm classification took {best * 1000:.2f} ms"


def _timed(thunk) -> float:
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


def test_criterion_02_classifier_round_trip(capsys):
    with criterion(capsys, 2, "round trip over the parameter grid, 240 cases under 1 s"):
        cases = _grid()
        literal = [c for c in cases if c[2] in _BASE_S]
        assert len(literal) == 180
        assert len(cases) >= 200
        start = time.perf_counter()
        for n, l, s, m in cases:
            got = classify(standard_embedding(n, l, s, m))
            assert got.invariant_pair == (s, m), (n, l, s, m)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"grid took {elapsed:.3f} s"


def _random_conjugator(rng: random.Random, n: int) -> ArithmeticIsometry:
    height = rng.randint(-4, 4)
    while True:
        unit = rng.randint(1, 999)
        if unit_in_base(unit, n):
            break
    slope = rng.choice([1, -1]) * Fraction(unit) * Fraction(n) ** height
    beta = Fraction(rng.randint(-1000, 1000), n ** rng.randint(0, 3))
    alpha = Fraction(rng.randint(-1000, 1000), rng.randint(1, 60))
    return ArithmeticIsometry(
        n, 1, height, alpha, BallAffineMap(n, height, slope, beta)
    )


def test_criterion_03_conjugation_invariance(capsys):
    with criterion(capsys, 3, "1000 random conjugations preserve the class exactly"):
        rng = random.Random(30221)
        pool = [
            (spec, classify(spec).invariant_pair)
            for spec in (
                standard_embedding(n, l, s, m)
                for (n, l, s, m) in _grid()[::11]
            )
        ]
        for _ in range(1000):
            spec, pair = rng.choice(pool)
            moved = conjugate_spec(spec, _random_conjugator(rng, spec.n))
            assert classify(moved).invariant_pair == pair


def test_criterion_04_scaling_action(capsys):
    with criterion(capsys, 4, "100 random rescalings send (s, m) to (r*s, m)"):
        rng = random.Random(40221)
        grid = _grid()
        for _ in range(100):
            n, l, s, m = rng.choice(grid)
            spec = standard_embedding(n, l, s, m)
            r = Fraction(
                rng.choice([v for v in range(-20, 21) if v]),
                rng.randint(1, 20),
            )
            moved = apply_automorphism_to_spec(
                spec, AmbientAutomorphism.scaling(n, r)
            )
            assert classify(moved).invariant_pair == (r * s, m)


def _brute_min_translation(spec, height: int, x_max: int = 4) -> Fraction:
    """Smallest positive translation distance among stabilizer elements of
    the axis ball at the given height, by direct scan over b^-x a^y b^x."""
    n, l = spec.n, spec.l
    beta = spec.imgA.tree.beta
    td_a = abs(translation_distance(spec.imgA))
    best = None
    for x in range(x_max + 1):
        scale = Fraction(n) ** (l * x)
        for y in range(1, 5001):
            if integral_in_base(y * beta / scale / Fraction(n) ** height, n):
                candidate = y * td_a / scale
                if best is None or candidate < best:
                    best = candidate
                break
    assert best is not None
    return best


def test_criterion_05_covolume(capsys):
    with criterion(capsys, 5, "covolume l*|s| on the grid, brute-checked on 24 cases"):
        assert covolume(standard_embedding(2, 1, 1, 1)) == 1
        for n, l, s, m in _grid():
            spec = standard_embedding(n, l, s, m)
            total = covolume(spec)
            assert total == l * abs(s), (n, l, s, m)
            if s > 0:
                assert total == l * s
        checked = 0
        for s in (Fraction(1), Fraction(1, 2), Fraction(-1)):
            for n, l, m in (
                (2, 1, 1), (2, 2, 1), (3, 1, 1), (3, 2, 1),
                (4, 1, 2), (4, 2, 2), (6, 1, 4), (6, 2, 9),
            ):
                spec = standard_embedding(n, l, s, m)
                for entry in enumerate_quotient(spec):
                    assert entry.min_translation == _brute_min_translation(
                        spec, entry.height
                    ), (n, l, s, m, entry.height)
                checked += 1
        assert checked >= 20


# Level sizes grow as n**depth; these depths keep every level in the
# low thousands while still reaching depth 8 where that is affordable.
_LEVEL_DEPTH = {2: 8, 3: 7, 4: 5, 5: 4, 6: 4}


def test_criterion_06_defining_relation(capsys):
    with criterion(capsys, 6, "stable letter relation exact, and levelwise on cones"):
        for n in (2, 3, 4, 5, 6):
            for l in (1, 2, 3):
                for m in (mm for mm in (1, 2, 3, 4, 9) if _star_valid(n, mm)):
                    spec = standard_embedding(n, l, Fraction(3, 2), m)
                    lhs = spec.imgB.compose(spec.imgA).compose(
                        spec.imgB.inverse()
                    )
                    assert lhs == spec.imgA.power(n**l)
        rng = random.Random(60221)
        for _ in range(50):
            n = rng.choice([2, 3, 4, 6])
            spec = standard_embedding(n, rng.randint(1, 2), 1, 1)
            moved = conjugate_spec(spec, _random_conjugator(rng, n))
            lhs = moved.imgB.compose(moved.imgA).compose(moved.imgB.inverse())
            assert lhs == moved.imgA.power(n**spec.l)
        for n, depth in _LEVEL_DEPTH.items():
            for l in (1, 2):
                for beta in (1, 3):
                    a = BallAffineMap.translation(n, beta)
                    b = BallAffineMap.base_scaling(n, l)
                    composite = b.compose(a).compose(b.inverse())
                    anchor = TreeVertex(n, l, Fraction(0))
                    assert restrict_to_up(
                        composite, anchor, depth
                    ) == restrict_to_up(a.power(n**l), anchor, depth)


def test_criterion_07_shift_centralizer(capsys):
    with criterion(capsys, 7, "commuting elements are exactly the n^k level shifts"):
        for k in (1, 2, 3):
            group = enumerate_level_group(2, k)
            commuting = centralizer(shift_element(2, k, 1), group)
            assert len(commuting) == 2**k
            shifts = {
                levelwise_translation(
                    TruncatedNAdic(base=2, precision=k, residue=r)
                )
                for r in range(2**k)
            }
            # 2**k distinct shifts, each a member: they are the centralizer
            assert len(shifts) == 2**k
            assert all(shift in commuting for shift in shifts)
            for r in range(2**k):
                built = levelwise_translation(
                    TruncatedNAdic(base=2, precision=k, residue=r)
                )
                assert translation_amount(built).residue == r
            for element in shifts:
                eta = translation_amount(element)
                assert levelwise_translation(eta) == element


def _orbit_walk_transitive(value, n: int, depth: int) -> bool:
    for level in range(1, depth + 1):
        size = n**level
        shift = int(nadic_residue(value, level, n))
        count, y = 1, shift % size
        while y != 0:
            count += 1
            y = (y + shift) % size
        if count != size:
            return False
    return True


def _brute_minimal_pair(beta, l: int, n: int, depth: int):
    for k_try in range(25):
        scale = Fraction(n) ** (l * k_try)
        for j_try in smooth_divisors(n, l * k_try + 12):
            value = j_try * beta / scale
            if not integral_in_base(value, n):
                continue
            if _orbit_walk_transitive(value, n, depth):
                return k_try, j_try
    raise AssertionError(f"no transitive multiplier for {beta} over {n}")


def test_criterion_08_transitivity_search(capsys):
    with criterion(capsys, 8, "search agrees with orbit enumeration on 500 offsets"):
        rng = random.Random(80221)
        plan = [(2, 8, 170), (3, 6, 130), (4, 5, 120), (6, 4, 80)]
        total = 0
        for n, depth, count in plan:
            for _ in range(count):
                numerator = rng.choice(
                    [v for v in range(-1000, 1001) if v]
                )
                beta = Fraction(numerator, n ** rng.randint(0, 2))
                for l in (1, 2):
                    found = eventually_transitive_search(
                        beta, l, depth=depth, n=n
                    )
                    assert found == _brute_minimal_pair(beta, l, n, depth)
                total += 1
        assert total == 500


def test_criterion_09_level_sums(capsys):
    with criterion(capsys, 9, "orbit sums constant over levels 1..6, 50 cases"):
        rng = random.Random(90221)
        for _ in range(50):
            n = rng.choice([2, 2, 3, 3, 4, 6])
            gamma = rng.randint(0, 10**6)
            weight = Fraction(rng.randint(1, 40), rng.randint(1, 40))
            report = level_sum_report(gamma, weight, 6, n=n)
            assert report.match
            assert len(set(report.brute)) == 1


def test_criterion_10_presentations(capsys):
    with criterion(capsys, 10, "all relators evaluate to the identity, cases 1-3"):
        for n in (2, 3):
            for l in (1, 2):
                case = PresentationCase(1, n, l)
                assert verify_presentation(
                    build_full_lattice(case), presentation_relators(case)
                )
                if l % 2 == 0:
                    case = PresentationCase(2, n, l)
                    assert verify_presentation(
                        build_full_lattice(case), presentation_relators(case)
                    )
                for m_ref in (-1, 0, 1):
                    case = PresentationCase(3, n, l, m_ref)
                    assert flip_commutator_exponent(case) == m_ref * (
                        1 - n**l
                    )
                    assert verify_presentation(
                        build_full_lattice(case), presentation_relators(case)
                    )


def test_criterion_11_enumeration_reports(capsys):
    with criterion(capsys, 11, "group enumerations match reports, each under 5 s"):
        assert len(enumerate_level_group(2, 2)) == 8
        assert level_group_order_formula(2, 2) == 8
        assert level_group_report(2, 1).match
        assert level_group_report(2, 2).match
        elapsed_deep = _timed(lambda: enumerate_level_group(2, 3))
        elapsed_wide = _timed(lambda: enumerate_level_group(3, 2))
        assert elapsed_deep < 5.0 and elapsed_wide < 5.0
        start = time.perf_counter()
        tall = enumerate_level_group(2, 4)
        assert time.perf_counter() - start < 5.0
        assert len(tall) == 32768 == level_group_order_recursive(2, 4)
        deep = level_group_report(2, 3)
        assert (deep.brute, deep.formula) == (128, 32)
        assert deep.match is False
        wide = level_group_report(3, 2)
        assert (wide.brute, wide.formula) == (1296, 108)
        assert wide.match is False
        # closure invariants are asserted; the formula's validity beyond
        # n = 2, k <= 2 stays an open comparison carried by the reports
        assert enumerate_level_group(2, 3).verify_closure() > 0
        assert enumerate_level_group(3, 2).verify_closure() > 0


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def test_criterion_12_cli_determinism(capsys, tmp_path):
    with criterion(capsys, 12, "CLI corpus byte-identical across runs"):
        phi = tmp_path / "phi.json"
        phi.write_text(
            json.dumps(standard_embedding(2, 1, 1, 3).to_json())
        )
        corpus = [
            ["bs", "normalize", "--N", "2", "b^-1 a^5 b^2", "--json"],
            ["bs", "collins", "--N", "6", "theta_2", "a b a^-1"],
            ["tree", "orbit", "--n", "2", "--beta", "3", "--vertex", "0:0",
             "--depth", "4", "--json"],
            ["tree", "aeta", "--n", "3", "--depth", "3", "--eta", "11"],
            ["embed", "classify", "--file", str(phi), "--json"],
            ["embed", "conjugate", "--file", str(phi), "--random",
             "--seed", "5", "--json"],
            ["embed", "straighten", "--n", "2", "--l", "1", "--s", "1",
             "--m", "3", "--depth", "3", "--json"],
            ["covol", "enumerate", "--n", "6", "--l", "2", "--s=-2/3",
             "--m", "9", "--json"],
            ["present", "verify", "--case", "3", "--n", "3", "--l", "2",
             "--m-ref", "-1"],
            ["lab", "count-hk", "--n", "3", "--k", "2", "--json"],
            ["lab", "count-hk", "--n", "2", "--k", "3", "--json"],
            ["lab", "centralizer", "--n", "2", "--k", "3", "--m", "2",
             "--json"],
            ["lab", "trans-search", "--n", "6", "--beta", "243/4",
             "--l", "2", "--json"],
            ["lab", "level-sum", "--n", "4", "--gamma", "2", "--a-v", "1",
             "--depth", "4"],
            ["lab", "jordan-index", "--n", "2", "--k", "3", "--m", "1",
             "--m", "2", "--m", "4", "--json"],
        ]
        for argv in corpus:
            first = _run_cli(argv)
            second = _run_cli(argv)
            assert first[0] == 0, (argv, first)
            assert first == second, argv


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
