"""Brute-force laboratory for the finite-depth cone automorphism groups.

Everything here treats exhaustive enumeration as ground truth and the
closed-form counts as claims to be displayed next to it.  A depth-k cone
automorphism is determined by its top-level permutation (the lower levels
are reductions mod n**i), so the hot loops work on byte-encoded top
permutations, composed with bytes.translate.  A group is the tuple of its
certified tops, with the certificate's reached set as its one member set.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import (
    BaseMismatch,
    InvalidParams,
    NotMember,
    TooLarge,
    ZeroTranslation,
)
from .exactnum import (
    ABELIAN_SEARCH_CAP,
    SIZE_CAP,
    TOP_CAP,
    format_rational,
    integral_in_base,
    integral_level,
    nadic_residue,
    power_exceeds,
    transitive_pair,
)
from .tree import (
    BallAffineMap,
    LevelPermAutomorphism,
    TreeVertex,
    TruncatedNAdic,
    check_levels,
    enumerate_cone_tops,
    is_transitive_on_up,
    levelwise_translation,
)


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


def _adjoin(members, tables, tops) -> int:
    """Grow the group ``members`` generated by ``tables`` in place by the
    generators ``tops``, going on from the members reached; returns the
    compositions made."""
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
                    members.add(prod)
                    nxt.append(prod)
        frontier, pending = nxt, tables
    return checked


def _generated(gens) -> set[bytes]:
    """The elements of the group generated by the tops gens."""
    members = {bytes(range(len(gens[0])))}
    _adjoin(members, [], gens)
    return members


@dataclass(frozen=True)
class LevelPermGroup:
    """Group of depth-k cone automorphisms, held as the tuple of their tops
    (n**k bytes each), in the canonical order the enumerator and the
    centralizer search pass, so equal groups compare equal.  Construction
    refuses duplicates, found by a transient set, and a missing identity,
    then certifies composition closure by verify_closure, which checks each
    top it adopts as a generator and whose reached set becomes the one
    member set.  A finite set holding the identity and closed under
    composition holds every inverse, so every LevelPermGroup is a group.
    """

    n: int
    k: int
    tops: tuple[bytes, ...] = field(repr=False)

    def __post_init__(self):
        if not self.tops:
            raise InvalidParams("a group needs at least the identity")
        if power_exceeds(self.n, self.k, TOP_CAP):
            raise TooLarge(
                f"top level has {self.n}^{self.k} vertices; cap is {TOP_CAP}"
            )
        if len(set(self.tops)) != len(self.tops):
            raise InvalidParams("duplicate elements")
        if bytes(range(self.n**self.k)) not in self.tops:
            raise InvalidParams("identity missing")
        self.verify_closure()

    def __len__(self):
        return len(self.tops)

    def __contains__(self, g: LevelPermAutomorphism):
        return (
            g.n == self.n
            and g.depth == self.k
            and _top_of(g) in self._members
        )

    def verify_closure(self) -> int:
        """Certify composition closure coset by coset (Dimino's method) and
        keep the reached set as the member set; returns the compositions made.

        Elements not yet reached join the generating set S in order, each
        checked by _check_top as it joins: a product of valid tops is valid,
        so an invalid top is never reached and always joins.  When one, t,
        joins, the reached set is a certified group H.  Each coset
        representative r (the identity, with t alone, then t and every new
        one) is multiplied by each generator s, and a product r.s not yet
        reached is a new representative: its whole coset H.(r.s) joins in
        one pass over H.  The reached set stays a union of right H-cosets,
        so h.r.s lies in H.(r.s) for every h in H: it is closed under S and
        is the group <S>.  Every top ends up reached (the identity times it,
        when it joins), so for distinct tops the reached set equals their
        set exactly when it never outgrows the tuple; (1, a, a) could reach
        an outsider a**2.  That is the one check, made as each coset joins:
        a set is refused once the reached set holds more tops than it, so
        before it passes 2 * |G| tops.  Ending without a refusal proves the
        tops a group, with the reached set as its member set.

        A step costs one composition (r = 1, s = t) and |H| + |S| more for
        each coset beyond H, so a group costs about |G| compositions and at
        most 2 * |G|.
        """
        identity = bytes(range(self.n**self.k))
        reached, tables, checked = {identity}, [], 0
        for top in itertools.filterfalse(reached.__contains__, self.tops):
            _check_top(top, self.n, self.k)
            old = list(reached)
            tables.append(_padded(top))
            # the identity coset H is closed under the old generators
            reps, row = [identity], tables[-1:]
            for rep in reps:
                for table in row:
                    prod = rep.translate(table)
                    if prod not in reached:
                        reps.append(prod)
                        coset = itertools.repeat(_padded(prod))
                        reached.update(map(bytes.translate, old, coset))
                        if len(reached) > len(self.tops):
                            raise _outside(reached, set(self.tops))
                checked += len(row)
                row = tables
            checked += (len(reps) - 1) * len(old)
        object.__setattr__(self, "_members", reached)
        return checked


@lru_cache(maxsize=4096)
def _check_top(top: bytes, n: int, k: int):
    """Refuse, naming it, a top whose implied levels (level i < k: its first
    n**i labels mod n**i) fail tree.check_levels; cached, as groups built
    in one process adopt the same generators again."""
    levels = [[label % n**i for label in top[: n**i]] for i in range(1, k)]
    try:
        check_levels(n, (*levels, top))
    except InvalidParams as refusal:
        raise InvalidParams(f"top {list(top)}: {refusal}") from None


def _outside(reached, members) -> InvalidParams:
    """The error naming the least generated top outside members, so the
    message does not depend on the hash seed."""
    return InvalidParams(
        "not closed under composition: the generated "
        f"{list(min(reached - members))} leaves the set"
    )


def _feasibility_guard(n: int, k: int):
    if n < 2 or k < 1:
        raise InvalidParams("need n >= 2 and k >= 1")
    if power_exceeds(n, k, TOP_CAP):
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

    The tops come from tree.enumerate_cone_tops (an independent digit
    permutation above each vertex, level by level) already in canonical
    order, as a tuple the group keeps; building the group certifies it.
    """
    _feasibility_guard(n, k)
    return LevelPermGroup(n, k, tops=enumerate_cone_tops(n, k))


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


def _commuting_tops(pivot: bytes, n: int) -> list[bytes]:
    """Tops of every cone automorphism of the pivot's depth commuting with
    the pivot, found level by level.

    Restriction to depth i - 1 is a homomorphism, so the depth-i solutions
    are lifts of the depth-(i - 1) ones.  A lift permutes the digits above
    each vertex independently, and f(p(x)) = p(f(x)) carries its choice
    above y to the one above p(y): one choice per orbit of the coarse
    restriction of p fixes the lift on the whole orbit, and is kept when
    the walk around the orbit closes up.  Each kept choice sets disjoint
    bytes, so a lift is the sum of one kept choice per orbit, read as a
    little-endian integer.
    """
    digit_perms = list(itertools.permutations(range(n)))
    layer, size = [bytes(1)], 1
    while size < len(pivot):
        coarse, size = size, size * n
        p = pivot[:size].translate(bytes(b % size for b in range(256)))
        orbits, seen = [], bytearray(coarse)
        for start in range(coarse):
            y, length = start, 0
            while not seen[y]:
                seen[y] = 1
                y, length = p[y] % coarse, length + 1
            if length:
                orbits.append((start, length))
        found = []
        for c in layer:
            sums = [0]
            for start, length in orbits:
                kept = []
                for sigma in digit_perms:
                    first = [
                        (start + coarse * d, c[start] + coarse * image)
                        for d, image in enumerate(sigma)
                    ]
                    pairs, value = first, 0
                    for _ in range(length):
                        value += sum(fx << 8 * x for x, fx in pairs)
                        pairs = [(p[x], p[fx]) for x, fx in pairs]
                    if sorted(pairs) == first:
                        kept.append(value)
                sums = [a + b for a in sums for b in kept]
            found += [total.to_bytes(size, "little") for total in sums]
        layer = found
    return layer


def centralizer(
    g: LevelPermAutomorphism, group: LevelPermGroup
) -> LevelPermGroup:
    """The elements of group commuting with g, by an exhaustive lift search
    in the full depth-k group intersected with group; building the result
    certifies it."""
    if g.n != group.n:
        raise BaseMismatch("element over a different base")
    if g.depth != group.k:
        raise NotMember(
            f"depth {g.depth} element cannot lie in a depth-{group.k} group"
        )
    if g not in group:
        raise NotMember("element outside the group")
    full_order = level_group_order_recursive(group.n, group.k)
    if full_order > SIZE_CAP:
        raise TooLarge(
            f"the search runs in a group of order {full_order}; "
            f"cap is {SIZE_CAP}"
        )
    found = set(_commuting_tops(_top_of(g), group.n))
    return LevelPermGroup(
        group.n, group.k, tops=tuple(filter(found.__contains__, group.tops))
    )


def shift_element(n: int, k: int, amount: int) -> LevelPermAutomorphism:
    """The depth-k cone automorphism acting by +amount mod n**i on every
    level."""
    return levelwise_translation(
        TruncatedNAdic(base=n, precision=k, residue=amount % n**k)
    )


def _collapse_level(n: int, m: int) -> int:
    """Smallest l with m dividing n**l times a unit, i.e. the n-part of m
    fits inside n**l."""
    if m < 1:
        raise InvalidParams("m must be a positive integer")
    return integral_level(Fraction(1, m), n)


def _certification_guard(n: int, depth: int):
    """Refuse an orbit certification of more than 2 * SIZE_CAP steps, the
    sum of n**i over 1 <= i <= depth, naming the count while it is
    printable.  Once |n| >= 2 the sum has the sign of n**depth and is past
    2**(4 * limit) > 10**limit when |n|**depth is, so a depth that far out
    is refused (or passed, for a negative sum) without computing it.  The
    base itself is checked after this guard."""
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    count = f"more than 10^{limit}"
    if not power_exceeds(abs(n), depth, 2 ** (4 * limit)):
        steps = depth if n == 1 else (n ** (depth + 1) - n) // (n - 1)
        if steps <= 2 * SIZE_CAP:
            return
        with contextlib.suppress(ValueError):
            count = str(steps)
    elif n < 0 and depth % 2:
        return
    raise TooLarge(f"orbit certification needs {count} steps; reduce depth")


def eventually_transitive_search(beta, l: int, depth: int = 8, *, n: int):
    """Minimal (k, j): j copies of the shift by beta, a Fraction or an int,
    land in n**(l*k) * Z_n with a unit quotient, so the shift's j-th power
    is transitive forever from height l*k on.  The base n is required.

    Computed by exactnum.transitive_pair (closed form checked against a
    literal search), then certified by explicit orbit enumeration down to
    ``depth`` levels.
    """
    if beta == 0:
        raise ZeroTranslation("the shift must be nonzero")
    if l < 1:
        raise InvalidParams("l must be >= 1")
    if depth < 0:
        raise InvalidParams("depth must be >= 0")
    _certification_guard(n, depth)
    k, j = transitive_pair(beta, l, n)
    if depth > 0:
        anchor = TreeVertex(n, l * k, Fraction(0))
        shift = BallAffineMap.translation(n, j * beta)
        for level in range(1, depth + 1):
            if not is_transitive_on_up(shift, anchor, level):
                raise AssertionError(
                    f"orbit certification failed at level {level}: "
                    f"(k, j) = ({k}, {j}) but the walk is not transitive"
                )
    return (k, j)


def level_sum_report(gamma, weight, depth: int, n: int) -> LemmaReport:
    """Orbit sums of the shift by gamma on Z/n**i, each weighted by
    weight * |orbit| * n**-i; the lemma says every level sums to weight.
    gamma and weight are Fractions or ints, over the required base n."""
    weight = Fraction(weight)
    if weight <= 0:
        raise InvalidParams("the vertex weight must be positive")
    if depth < 1:
        raise InvalidParams("depth must be >= 1")
    if not integral_in_base(gamma, n):
        raise InvalidParams(
            f"{gamma} is not an n-adic integer for base {n}"
        )
    if power_exceeds(n, depth, SIZE_CAP):
        raise TooLarge(f"{n}^{depth} labels per level; reduce depth")
    sums = []
    for i in range(1, depth + 1):
        size = n**i
        shift = int(nadic_residue(gamma, i, n))
        seen = bytearray(size)
        # the sum over orbits of weight * |orbit| * n**-i, with the common
        # factor weight * n**-i taken out, so each orbit adds an int
        total = 0
        for start in range(size):
            if seen[start]:
                continue
            orbit = 0
            y = start
            while not seen[y]:
                seen[y] = 1
                orbit += 1
                y = (y + shift) % size
            total += orbit
        sums.append(weight * total * Fraction(n) ** (-i))
    return LemmaReport.of(
        lemma="orbit-sum-constancy",
        params={
            "n": n,
            "gamma": format_rational(gamma),
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
    if count > ABELIAN_SEARCH_CAP:
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
    with_third = not power_exceeds(count, 3, 2 * SIZE_CAP)
    for f, g in pairs:
        members = _generated((f, g))
        best = max(best, len(members))
        if not with_third:
            continue
        for h in tops:
            if h not in members and commutes(f, h) and commutes(g, h):
                grown = set(members)
                _adjoin(grown, [tables[f], tables[g]], [h])
                best = max(best, len(grown))
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
        size = len(centralizer(shift_element(n, k, m), group))
        if order % size:
            raise AssertionError(
                f"centralizer order {size} does not divide |G| = {order}"
            )
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
    abelian = _abelian_search_order(list(group.tops))
    if abelian is None:
        notes = (
            "abelian subgroup search skipped above order "
            f"{ABELIAN_SEARCH_CAP}; centralizer indices only bound the "
            "abelian-subgroup index"
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
