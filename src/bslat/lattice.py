"""Lattice embeddings of the solvable Baumslag-Solitar groups into the
isometry group, their complete (s, m) invariant, covolumes, and the
presentations of the full-isometry-group lattices.

An embedding is given by the images of the two generators: an elliptic
isometry imgA (image of the torsion-free generator a) and a height-l
isometry imgB (image of the stable letter).  The defining relation forces
the tree scaling factor of imgB to be exactly n**l and the classifier reads
everything else off the per-prime valuations of imgA's tree translation
part.

Every call checks the classifier two ways: h0 from the valuations against a
walk along the axis, and (k, j) from the per-prime formula of
``exactnum.transitive_pair`` against its literal search over n-smooth
multipliers.  A mismatch is an internal error, not a user error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bsgroup import parse_letters
from .errors import (
    BaseMismatch,
    CaseInvalid,
    InvalidParams,
    NotStraightenable,
    ValidationError,
    ZeroTranslation,
)
from .exactnum import (
    _fraction,
    _prime_signature,
    check_scaling,
    format_rational,
    p_valuation,
    parse_rational,
    record_int,
    transitive_pair,
    valuation_in_base,
)
from .isometry import (
    AmbientAutomorphism,
    ArithmeticIsometry,
    apply_automorphism,
    translation_distance,
)
from .tree import (
    BallAffineMap,
    PartialTreeMap,
    TreeVertex,
    axis_vertex,
    build_conjugator,
    fixes,
    restrict_to_up,
)


@dataclass(frozen=True)
class EmbeddingSpec:
    """Images of the generators a and the stable letter of BS(1, n**l)."""

    n: int
    l: int
    imgA: ArithmeticIsometry
    imgB: ArithmeticIsometry

    def __post_init__(self):
        if self.imgA.n != self.n or self.imgB.n != self.n:
            raise BaseMismatch("generator images over a different base")

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "l": self.l,
            "a": self.imgA.to_json(),
            "b": self.imgB.to_json(),
        }

    @staticmethod
    def from_json(payload: dict) -> "EmbeddingSpec":
        n = record_int(payload, "n")
        return EmbeddingSpec(
            n,
            record_int(payload, "l"),
            ArithmeticIsometry.from_json(n, payload["a"]),
            ArithmeticIsometry.from_json(n, payload["b"]),
        )


@dataclass(frozen=True)
class EmbeddingClass:
    """Conjugacy data of an embedding: the complete invariant (s, m) plus
    the diagnostics (h0, j, k, w0) the classifier passed through."""

    s: Fraction
    m: int
    h0: int
    j: int
    k: int
    w0: TreeVertex

    @property
    def invariant_pair(self):
        return (self.s, self.m)

    def to_json(self) -> dict:
        return {
            "s": format_rational(self.s),
            "m": self.m,
            "h0": self.h0,
            "j": self.j,
            "k": self.k,
        }


@dataclass(frozen=True)
class QuotientEntry:
    """One vertex orbit of the quotient graph: representative, minimal
    positive translation distance of its stabilizer, height, and the order
    of the finite part of the stabilizer."""

    rep: TreeVertex
    min_translation: Fraction
    height: int
    fixed_order: int

    def __post_init__(self):
        if self.min_translation <= 0:
            raise InvalidParams("minimal translation distance must be > 0")
        if self.fixed_order < 1:
            raise InvalidParams("finite stabilizer order must be >= 1")

    def to_json(self) -> dict:
        return {
            "rep": self.rep.to_json(),
            "a_v": format_rational(self.min_translation),
            "h_v": self.height,
            "stab0": self.fixed_order,
        }


def standard_embedding(n: int, l: int, s, m: int) -> EmbeddingSpec:
    """The reference embedding: a -> translation by s*m on the real factor
    and by m on the tree; stable letter -> the pure scaling of height l."""
    # text s is from bench/record_golden.py, which changes with the benchmark
    s = parse_rational(s) if isinstance(s, str) else _fraction(s)
    if s == 0:
        raise InvalidParams("s must be nonzero")
    if m < 1:
        raise InvalidParams("m must be a positive integer")
    if l < 1:
        raise InvalidParams("l must be >= 1")
    img_a = ArithmeticIsometry(
        n, 1, 0, s * m, BallAffineMap.translation(n, m)
    )
    img_b = ArithmeticIsometry.pure_tree(BallAffineMap.base_scaling(n, l))
    return EmbeddingSpec(n, l, img_a, img_b)


def validate(spec: EmbeddingSpec) -> list[ValidationError]:
    """All violated embedding invariants, in checking order, each as the
    error it raises; empty means ok."""
    problems = []
    if spec.l < 1:
        problems.append(InvalidParams(f"l must be >= 1, got {spec.l}"))
    if spec.imgA.eps != 1 or spec.imgB.eps != 1:
        problems.append(
            InvalidParams("generator images must be orientation-preserving")
        )
    if spec.imgA.h != 0:
        problems.append(InvalidParams(
            f"image of a must be elliptic, height change is {spec.imgA.h}"
        ))
    if spec.imgB.h != spec.l:
        problems.append(InvalidParams(
            f"stable letter must have height change {spec.l}, "
            f"got {spec.imgB.h}"
        ))
    if spec.imgA.tree.u != 1:
        problems.append(InvalidParams(
            "tree part of the image of a must be a translation (u = 1): "
            "otherwise its square is a pure real translation whose "
            "conjugates accumulate at the identity"
        ))
    if spec.imgA.alpha == 0:
        problems.append(ZeroTranslation(
            "image of a must have nonzero translation distance"
        ))
    if spec.imgA.tree.beta == 0:
        problems.append(
            ZeroTranslation("image of a must move the tree (beta != 0)")
        )
    if not problems:
        power = spec.imgA.power(spec.n**spec.l)
        if spec.imgA.conjugated_by(spec.imgB) != power:
            problems.append(InvalidParams(
                "defining relation fails: conjugating the image of a by the "
                f"stable letter is not its {spec.n}^{spec.l}-th power"
            ))
    return problems


def _h0_by_axis_walk(spec: EmbeddingSpec) -> int:
    """Literal reading of h0: walk the axis of the stable letter to the
    highest vertex fixed by the image of a."""
    shift = BallAffineMap.translation(spec.n, spec.imgA.tree.beta)
    axis_tree = spec.imgB.tree
    h = 0
    if fixes(shift, axis_vertex(axis_tree, 0)):
        while fixes(shift, axis_vertex(axis_tree, h + 1)):
            h += 1
    else:
        while not fixes(shift, axis_vertex(axis_tree, h)):
            h -= 1
    return h


def classify(spec: EmbeddingSpec) -> EmbeddingClass:
    """The complete conjugacy invariant (s, m) with diagnostics.

    h0 is the highest axis vertex fixed by the image of a; k and j describe
    the smallest power j of that image acting transitively forever l*k
    levels higher; m = n**(l*k) / j.  h0 is read off the valuations and
    checked against a walk along the axis; (k, j) comes from
    exactnum.transitive_pair, which checks itself against a literal search.
    An invalid embedding raises the first problem that validate finds.
    """
    problems = validate(spec)
    if problems:
        raise problems[0]
    n, l = spec.n, spec.l
    beta = spec.imgA.tree.beta
    h0 = valuation_in_base(beta, n)
    walked = _h0_by_axis_walk(spec)
    if walked != h0:
        raise AssertionError(
            f"classifier self-check failed: h0 formula {h0}, "
            f"axis walk {walked}"
        )
    reduced = beta / Fraction(n) ** h0
    k, j = transitive_pair(reduced, l, n)
    m = 1
    for p, _ in _prime_signature(n).primes:
        m *= p ** p_valuation(reduced, p)
    if m * j != n ** (l * k):
        raise AssertionError(
            f"classifier self-check failed: m * j = {m * j}, "
            f"n**(l*k) = {n ** (l * k)}"
        )
    s = translation_distance(spec.imgA) / (m * Fraction(n) ** h0)
    return EmbeddingClass(
        s=s, m=m, h0=h0, j=j, k=k,
        w0=axis_vertex(spec.imgB.tree, h0),
    )


def are_conjugate(spec1: EmbeddingSpec, spec2: EmbeddingSpec) -> bool:
    """Equal (l, s, m) decides conjugacy inside the orientation-preserving
    isometry group."""
    if spec1.n != spec2.n:
        raise BaseMismatch("embeddings over different bases")
    if spec1.l != spec2.l:
        return False
    c1, c2 = classify(spec1), classify(spec2)
    return c1.invariant_pair == c2.invariant_pair


def are_automorphism_equivalent(
    spec1: EmbeddingSpec, spec2: EmbeddingSpec
) -> bool:
    """Equal (l, m): the real-scaling factor of the ambient automorphism
    group absorbs s."""
    if spec1.n != spec2.n:
        raise BaseMismatch("embeddings over different bases")
    if spec1.l != spec2.l:
        return False
    return classify(spec1).m == classify(spec2).m


def conjugate_spec(spec: EmbeddingSpec, g: ArithmeticIsometry) -> EmbeddingSpec:
    return EmbeddingSpec(
        spec.n,
        spec.l,
        spec.imgA.conjugated_by(g),
        spec.imgB.conjugated_by(g),
    )


def apply_automorphism_to_spec(
    spec: EmbeddingSpec, phi: AmbientAutomorphism
) -> EmbeddingSpec:
    return EmbeddingSpec(
        spec.n,
        spec.l,
        apply_automorphism(phi, spec.imgA),
        apply_automorphism(phi, spec.imgB),
    )


def enumerate_quotient(spec: EmbeddingSpec) -> tuple[QuotientEntry, ...]:
    """The l vertex orbits of the quotient graph.

    Representatives are the axis vertices at heights h0 .. h0+l-1; the
    stabilizer of the one at height h0+i consists of the conjugates
    B^-x A^y B^x whose tree parts translate by multiples of n**(h0+i), and
    its minimal positive translation distance works out to |s|*n^(h0+i).
    The finite part of every stabilizer is trivial (the image group is
    torsion-free).  The last distance has the largest numerator, so one
    that format_rational refuses is refused before any entry is built.
    """
    classified = classify(spec)
    n = spec.n
    scale = abs(classified.s)
    format_rational(scale * Fraction(n) ** (classified.h0 + spec.l - 1))
    entries = []
    power = Fraction(n) ** classified.h0  # n**height, stepped by n
    for i in range(spec.l):
        height = classified.h0 + i
        entries.append(
            QuotientEntry(
                rep=axis_vertex(spec.imgB.tree, height),
                min_translation=scale * power,
                height=height,
                fixed_order=1,
            )
        )
        power *= n
    return tuple(entries)


def covolume_from_quotient(entries, n: int) -> Fraction:
    """Sum of a_v * n**(-h_v) / stab0 over the quotient entries.  An h_v
    with n**|h_v| past SCALING_CAP is refused before the power is built:
    a_v is a printable rational, so the term, and with it the sum of
    positive terms, would be past printing anyway."""
    total = Fraction(0)
    height = scale = None  # scale is n**-height, stepped while heights climb
    for entry in entries:
        check_scaling(n, entry.height)
        if scale is not None and entry.height == height + 1:
            scale /= n
        else:
            scale = Fraction(n) ** (-entry.height)
        height = entry.height
        total += entry.min_translation * scale / entry.fixed_order
    return total


def covolume(spec: EmbeddingSpec) -> Fraction:
    return covolume_from_quotient(enumerate_quotient(spec), spec.n)


def straighten(
    spec: EmbeddingSpec, depth: int, window: int = 2
) -> PartialTreeMap:
    """Window conjugator taking the tree parts to the standard pair.

    Requires the embedding to be in transitively-forever position (m = 1
    and h0 = 0, i.e. the tree translation amount of imgA is a Z_n-unit)
    with the standard stable letter.  The seed automorphism, the cone
    restriction of x -> x / beta, multiplies the labels above the root by
    the inverse of that unit; build_conjugator extends it along the axis.
    The real components are untouched (they are matched by the ambient real
    scaling, not by a tree conjugation).
    """
    classified = classify(spec)
    if depth < 1:
        raise InvalidParams("depth must be >= 1")
    n, l = spec.n, spec.l
    if classified.m != 1 or classified.h0 != 0:
        raise NotStraightenable(
            f"embedding has (m, h0) = ({classified.m}, {classified.h0}); "
            "straightening needs m = 1 and h0 = 0"
        )
    standard_b = BallAffineMap.base_scaling(n, l)
    if spec.imgB.tree != standard_b or spec.imgB.alpha != 0:
        raise NotStraightenable(
            "stable letter is not the standard scaling; conjugate the "
            "embedding into standard position first"
        )
    inverse = BallAffineMap(n, 0, 1 / spec.imgA.tree.beta, 0)
    seed = restrict_to_up(inverse, TreeVertex.root(n), depth + l - 1)
    return build_conjugator(standard_b, standard_b, seed, window, depth)


@dataclass(frozen=True)
class PresentationCase:
    """One of the three lattice presentations in the full isometry group.

    Case 1 is the orientation-preserving lattice itself; case 2 (l even)
    adjoins a flip whose square is the stable letter; case 3 adjoins an
    involutive flip about the reference point m_ref.
    """

    case_number: int
    n: int
    l: int
    m_ref: int | None = None

    def __post_init__(self):
        if self.case_number not in (1, 2, 3):
            raise CaseInvalid(f"unknown case {self.case_number}")
        if self.l < 1:
            raise InvalidParams("l must be >= 1")
        if self.case_number == 2 and self.l % 2:
            raise CaseInvalid("case 2 needs an even power l")
        if self.case_number == 3 and self.m_ref is None:
            raise CaseInvalid("case 3 needs the reference point m_ref")


def build_full_lattice(case: PresentationCase) -> dict[str, ArithmeticIsometry]:
    """Concrete generators for the chosen presentation case."""
    n, l = case.n, case.l
    a = ArithmeticIsometry(
        n, 1, 0, Fraction(1), BallAffineMap.translation(n, 1)
    )
    b = ArithmeticIsometry.pure_tree(BallAffineMap.base_scaling(n, l))
    generators = {"a": a, "b": b}
    if case.case_number == 2:
        half = l // 2
        generators["c"] = ArithmeticIsometry(
            n, -1, half, Fraction(0),
            BallAffineMap(n, half, -(Fraction(n) ** half), Fraction(0)),
        )
    elif case.case_number == 3:
        m_ref = Fraction(case.m_ref)
        generators["c"] = ArithmeticIsometry(
            n, -1, 0, m_ref, BallAffineMap(n, 0, Fraction(-1), m_ref)
        )
    return generators


def flip_commutator_exponent(case: PresentationCase) -> int:
    """The exponent y with c b c^-1 = a^y b, computed by composition.

    Works out to m_ref * (1 - n**l); independent derivations (and the l = 1
    shortcut m_ref * (1 - n)) are compared against this in reports rather
    than trusted.
    """
    if case.case_number != 3:
        raise CaseInvalid("only case 3 has the flip-stable-letter relation")
    gens = build_full_lattice(case)
    a, b, c = gens["a"], gens["b"], gens["c"]
    product = c.compose(b).compose(c.inverse()).compose(b.inverse())
    y = product.alpha
    # a power of a is the translation by y on both components
    power = ArithmeticIsometry(
        case.n, 1, 0, y, BallAffineMap.translation(case.n, y)
    )
    if product != power or y.denominator != 1:
        raise AssertionError(
            f"flip relation did not reduce to a power of a: product "
            f"{product}, translation by y = {format_rational(y)}: {power}"
        )
    expected = a.power(int(y))
    if product != expected:
        raise AssertionError(
            f"flip relation self-check failed: product {product}, "
            f"a^{int(y)} = {expected}"
        )
    return int(y)


def presentation_relators(case: PresentationCase) -> list[str]:
    """Relator words (over a, b, c) that must evaluate to the identity; an
    exponent past the printable digits is refused by format_rational."""
    n, l = case.n, case.l
    relators = [f"b a b^-1 a^{format_rational(-n**l)}"]
    if case.case_number == 2:
        relators.append(f"c a c^-1 a^{format_rational(n ** (l // 2))}")
        relators.append("c^2 b^-1")
    elif case.case_number == 3:
        y = flip_commutator_exponent(case)
        relators.append("c a c^-1 a")
        relators.append(f"c b c^-1 b^-1 a^{format_rational(-y)}")
        relators.append("c^2")
    return relators


def evaluate_word(
    generators: dict[str, ArithmeticIsometry], word: str
) -> ArithmeticIsometry:
    letters = parse_letters(word, alphabet="".join(sorted(generators)))
    bases = {g.n for g in generators.values()}
    if len(bases) != 1:
        raise BaseMismatch("generators over different bases")
    result = ArithmeticIsometry.identity(bases.pop())
    for symbol, exponent in letters:
        result = result.compose(generators[symbol].power(exponent))
    return result


def verify_presentation(
    generators: dict[str, ArithmeticIsometry], relators
) -> bool:
    """Whether every relator evaluates to the identity isometry."""
    return all(
        evaluate_word(generators, word).is_identity() for word in relators
    )
