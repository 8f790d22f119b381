"""Brute-force laboratory for the finite-depth cone automorphism groups.

Everything here treats exhaustive enumeration as ground truth and the
closed-form counts as claims to be displayed next to it.  A depth-k cone
automorphism is determined by its top-level permutation (the lower levels
are reductions mod n**i), so the hot loops work on byte-encoded top
permutations, composed with bytes.translate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    BaseMismatch,
    InvalidParams,
    NotMember,
    TooLarge,
    ZeroTranslation,
)
from .exactnum import (
    NInvertible,
    TruncatedNAdic,
    _prime_signature,
    format_rational,
    integral_in_base,
    nadic_residue,
    p_valuation,
    smooth_divisors,
    unit_in_base,
)
from .tree import (
    BallAffineMap,
    LevelPermAutomorphism,
    TreeVertex,
    enumerate_cone_automorphisms,
    is_transitive_on_up,
    levelwise_translation,
)

SIZE_CAP = 10**6
TOP_CAP = 64


@dataclass(frozen=True)
class LemmaReport:
    """Brute-force value next to a claimed formula value.

    match is forced to mean exact equality of the two values; commentary
    (structural counts, inequality directions) goes into notes.
    """

    lemma: str
    params: dict
    brute: object
    formula: object
    match: bool
    notes: str = ""

    def __post_init__(self):
        if self.match != (self.brute == self.formula):
            raise InvalidParams("match flag must mirror value equality")

    @staticmethod
    def of(lemma, params, brute, formula, notes="") -> "LemmaReport":
        return LemmaReport(
            lemma, dict(params), brute, formula, brute == formula, notes
        )

    def to_json(self) -> dict:
        return {
            "lemma": self.lemma,
            "params": self.params,
            "brute": self.brute,
            "formula": self.formula,
            "match": self.match,
        }


def _top_of(g: LevelPermAutomorphism) -> bytes:
    return bytes(g.perms[-1])


def _padded(top: bytes) -> bytes:
    """top as a bytes.translate table: f.translate(_padded(g)) is g after f."""
    return top + bytes(range(len(top), 256))


def _adjoin(members, tables, tops, within=None) -> int:
    """Grow the group ``members`` generated by ``tables`` in place by the
    generators ``tops``, going on from the members reached; returns the
    compositions made.  A product outside ``within`` raises InvalidParams.
    """
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
                    if within is not None and prod not in within:
                        raise InvalidParams(
                            "not closed under composition: "
                            f"{list(table[:len(f)])} after {list(f)} "
                            "leaves the set"
                        )
                    members.add(prod)
                    nxt.append(prod)
        frontier, pending = nxt, tables
    return checked


def _generated(gens) -> set[bytes]:
    """The elements of the group generated by the tops gens."""
    members = {bytes(range(len(gens[0])))}
    _adjoin(members, [], gens)
    return members


def _invert_top(top: bytes) -> bytes:
    out = bytearray(len(top))
    for y, image in enumerate(top):
        out[image] = y
    return bytes(out)


@dataclass(frozen=True)
class LevelPermGroup:
    """Group of depth-k cone automorphisms as an explicit element list.

    Elements are kept sorted by their permutation tables so equal groups
    compare equal and reports are deterministic.  Construction checks the
    cheap invariants (sorted, duplicate-free, identity and all inverses
    present); composition closure is certified exhaustively by
    verify_closure, which the enumerator and centralizer always run.
    """

    n: int
    k: int
    elements: tuple[LevelPermAutomorphism, ...] = field(repr=False)

    def __post_init__(self):
        if not self.elements:
            raise InvalidParams("a group needs at least the identity")
        if self.n**self.k > TOP_CAP:
            raise TooLarge(
                f"top level has {self.n}^{self.k} vertices; cap is {TOP_CAP}"
            )
        ordered = tuple(
            sorted(self.elements, key=lambda g: g.to_lists())
        )
        object.__setattr__(self, "elements", ordered)
        tops = set()
        for g in ordered:
            if g.n != self.n:
                raise BaseMismatch("element over a different base")
            if g.depth != self.k:
                raise InvalidParams(
                    f"element of depth {g.depth} in a depth-{self.k} group"
                )
            tops.add(_top_of(g))
        if len(tops) != len(ordered):
            raise InvalidParams("duplicate elements")
        if bytes(range(self.n**self.k)) not in tops:
            raise InvalidParams("identity missing")
        for top in tops:
            if _invert_top(top) not in tops:
                raise InvalidParams("not closed under inverse")

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g: LevelPermAutomorphism):
        return any(g == member for member in self.elements)

    def verify_closure(self) -> int:
        """Certify composition closure from a generating set; returns the
        number of compositions checked.

        Elements not yet generated join the generating set S in order, and
        <S> grows by each of them inside the element set, so a product
        outside it raises.  Ending with |<S>| = |H| proves H is the group
        <S>.  Each new generator at least doubles <S>, so |S| <= log2 |H|
        and the whole check costs O(|H| * |S|) compositions.
        """
        tops = {_top_of(g) for g in self.elements}
        reached, tables = {bytes(range(self.n**self.k))}, []
        checked = 0
        for g in self.elements:
            top = _top_of(g)
            if top not in reached:
                checked += _adjoin(reached, tables, [top], within=tops)
        if len(reached) != len(tops):
            raise InvalidParams(
                f"generated {len(reached)} of {len(tops)} elements"
            )
        return checked


def _feasibility_guard(n: int, k: int):
    if n < 2 or k < 1:
        raise InvalidParams("need n >= 2 and k >= 1")
    if n**k > TOP_CAP:
        raise TooLarge(
            f"top level has {n}^{k} vertices; cap is {TOP_CAP}"
        )
    predicted = level_group_order_recursive(n, k)
    if predicted > SIZE_CAP:
        raise TooLarge(
            f"group order {predicted} exceeds the cap {SIZE_CAP}"
        )


def enumerate_level_group(n: int, k: int) -> LevelPermGroup:
    """Exhaustive enumeration of the depth-k cone automorphism group.

    The elements come from tree.enumerate_cone_automorphisms (an
    independent digit permutation above each vertex, level by level); the
    group sorts them canonically and its closure is certified exhaustively.
    """
    _feasibility_guard(n, k)
    group = LevelPermGroup(n, k, tuple(enumerate_cone_automorphisms(n, k)))
    group.verify_closure()
    return group


def level_group_order_formula(n: int, k: int) -> int:
    """The claimed closed form (n!)**k * n**(k-1), reported verbatim."""
    if n < 2 or k < 1:
        raise InvalidParams("need n >= 2 and k >= 1")
    return math.factorial(n) ** k * n ** (k - 1)


def level_group_order_recursive(n: int, k: int) -> int:
    """Orbit-stabilizer count: each depth adds an independent digit
    permutation above every vertex, so |G_k| = n! * |G_{k-1}|**n."""
    if n < 2 or k < 0:
        raise InvalidParams("need n >= 2 and k >= 0")
    order = 1
    for _ in range(k):
        order = math.factorial(n) * order**n
    return order


def level_group_report(n: int, k: int) -> LemmaReport:
    """Enumerated group order against the claimed closed form."""
    brute = len(enumerate_level_group(n, k))
    recursive = level_group_order_recursive(n, k)
    return LemmaReport.of(
        lemma="level-group-order",
        params={"n": n, "k": k},
        brute=brute,
        formula=level_group_order_formula(n, k),
        notes=f"level-extension recurrence gives {recursive}",
    )


def centralizer(
    g: LevelPermAutomorphism, group: LevelPermGroup
) -> LevelPermGroup:
    """Exhaustive filter of the elements commuting with g."""
    if g.n != group.n:
        raise BaseMismatch("element over a different base")
    if g.depth != group.k:
        raise NotMember(
            f"depth {g.depth} element cannot lie in a depth-{group.k} group"
        )
    pivot = _top_of(g)
    if pivot not in {_top_of(member) for member in group}:
        raise NotMember("element outside the group")
    table = _padded(pivot)
    kept = []
    for member in group:
        top = _top_of(member)
        if pivot.translate(_padded(top)) == top.translate(table):
            kept.append(member)
    result = LevelPermGroup(group.n, group.k, tuple(kept))
    result.verify_closure()
    return result


def _shift_element(n: int, k: int, amount: int) -> LevelPermAutomorphism:
    return levelwise_translation(
        TruncatedNAdic(base=n, precision=k, residue=amount % n**k)
    )


def _collapse_level(n: int, m: int) -> int:
    """Smallest l with m dividing n**l times a unit, i.e. the n-part of m
    fits inside n**l."""
    if m < 1:
        raise InvalidParams("m must be a positive integer")
    return max(
        [0]
        + [
            -(-p_valuation(m, p) // e)
            for p, e in _prime_signature(n).primes
            if m % p == 0
        ]
    )


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
    brute = len(centralizer(_shift_element(n, k, m), group))
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


def _coerce_base(value, n):
    if isinstance(value, NInvertible):
        if n is not None and n != value.base:
            raise BaseMismatch(
                f"value tagged with base {value.base}, got n={n}"
            )
        return value.value, value.base
    if n is None:
        raise InvalidParams("pass an NInvertible or an explicit base n")
    return Fraction(value), n


def _certification_guard(n: int, depth: int):
    steps = sum(n**i for i in range(1, depth + 1))
    if steps > 2 * SIZE_CAP:
        raise TooLarge(
            f"orbit certification needs {steps} steps; reduce depth"
        )


def eventually_transitive_search(beta, l: int, depth: int = 8, n=None):
    """Minimal (k, j): j copies of the shift land in n**(l*k) * Z_n with a
    unit quotient, so the shift's j-th power is transitive forever from
    height l*k on.

    Computed two ways (per-prime closed form, literal search over
    increasing smooth multipliers) which must agree, then certified by
    explicit orbit enumeration down to ``depth`` levels.
    """
    value, base = _coerce_base(beta, n)
    if value == 0:
        raise ZeroTranslation("the shift must be nonzero")
    if l < 1:
        raise InvalidParams("l must be >= 1")
    if depth < 0:
        raise InvalidParams("depth must be >= 0")
    _certification_guard(base, depth)
    sig = _prime_signature(base)
    vals = {p: p_valuation(value, p) for p, _ in sig.primes}
    k = max([0] + [-(-vals[p] // (l * e)) for p, e in sig.primes])
    j = 1
    for p, e in sig.primes:
        j *= p ** (l * k * e - vals[p])
    spread = max(abs(vals[p]) for p, _ in sig.primes)
    searched = None
    for k_try in range(64):
        cap = l * k_try + spread + 1
        for j_try in smooth_divisors(base, cap):
            if unit_in_base(
                j_try * value / Fraction(base) ** (l * k_try), base
            ):
                searched = (k_try, j_try)
                break
        if searched:
            break
    if searched != (k, j):
        raise AssertionError(
            f"transitivity search self-check failed: formula {(k, j)}, "
            f"search {searched}"
        )
    if depth > 0:
        anchor = TreeVertex(base, l * k, Fraction(0))
        shift = BallAffineMap.translation(base, j * value)
        for level in range(1, depth + 1):
            if not is_transitive_on_up(shift, anchor, level):
                raise AssertionError(
                    f"orbit certification failed at level {level}"
                )
    return (k, j)


def level_sum_report(gamma, weight, depth: int, n=None) -> LemmaReport:
    """Orbit sums of the shift by gamma on Z/n**i, each weighted by
    weight * |orbit| * n**-i; the lemma says every level sums to weight."""
    value, base = _coerce_base(gamma, n)
    weight = Fraction(weight)
    if weight <= 0:
        raise InvalidParams("the vertex weight must be positive")
    if depth < 1:
        raise InvalidParams("depth must be >= 1")
    if not integral_in_base(value, base):
        raise InvalidParams(
            f"{value} is not an n-adic integer for base {base}"
        )
    if base**depth > SIZE_CAP:
        raise TooLarge(f"{base}^{depth} labels per level; reduce depth")
    sums = []
    for i in range(1, depth + 1):
        size = base**i
        shift = int(nadic_residue(value, i, base))
        seen = bytearray(size)
        total = Fraction(0)
        for start in range(size):
            if seen[start]:
                continue
            orbit = 0
            y = start
            while not seen[y]:
                seen[y] = 1
                orbit += 1
                y = (y + shift) % size
            total += weight * orbit * Fraction(base) ** (-i)
        sums.append(total)
    return LemmaReport.of(
        lemma="orbit-sum-constancy",
        params={
            "n": base,
            "gamma": format_rational(value),
            "a_v": format_rational(weight),
            "depth": depth,
        },
        brute=[format_rational(s) for s in sums],
        formula=[format_rational(weight)] * depth,
        notes="each level must sum to the vertex weight exactly",
    )


def _abelian_search_order(tops: list[bytes]) -> int | None:
    """Largest abelian subgroup found from commuting generating sets of
    size up to three; None when the group is too big to search."""
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


def jordan_index_report(n: int, k: int, m_values) -> LemmaReport:
    """Exact indices of the shift centralizers, one per m.

    The formula column carries the split-sequence prediction
    |G_k| / (n**((k-l)*n**l) * |G_l|); growth of the indices in k at fixed
    m is the point of the report.
    """
    m_values = list(m_values)
    if not m_values:
        raise InvalidParams("need at least one m")
    group = enumerate_level_group(n, k)
    order = len(group)
    brute, predicted = [], []
    for m in m_values:
        size = len(centralizer(_shift_element(n, k, m), group))
        if order % size:
            raise AssertionError("centralizer order must divide the group")
        brute.append(order // size)
        level = min(k, _collapse_level(n, m))
        structural = n ** ((k - level) * n**level) * (
            level_group_order_recursive(n, level)
        )
        predicted.append(
            int(Fraction(order, structural))
            if order % structural == 0
            else format_rational(Fraction(order, structural))
        )
    abelian = _abelian_search_order([_top_of(g) for g in group])
    if abelian is None:
        notes = (
            "abelian subgroup search skipped above order 200; "
            "centralizer indices only bound the abelian-subgroup index"
        )
    else:
        notes = (
            f"largest abelian subgroup found has order {abelian} "
            f"(index {order // abelian})"
        )
    return LemmaReport.of(
        lemma="shift-centralizer-index",
        params={"n": n, "k": k, "m": m_values},
        brute=brute,
        formula=predicted,
        notes=notes,
    )
