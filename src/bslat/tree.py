"""The regular (n+1)-valent tree in ball coordinates, and its automorphisms.

Vertices are balls c + n**h * Z_n in Q_n, encoded by the pair (height h,
canonical center c).  The tree itself is never stored: parents, children and
group actions are computed on demand, which keeps the infinite tree available
exactly.

Three kinds of maps act on it:

* ``BallAffineMap`` -- arithmetic automorphisms x -> u*x + beta with exact
  Z[1/n] coefficients.  These are total on vertices (even when u is not
  invertible inside Z[1/n] the vertex-level inverse exists), and every
  "for all levels" statement about them is certified exactly.
* ``LevelPermAutomorphism`` -- a general automorphism of the upward cone of a
  vertex, truncated at finite depth D and stored as one permutation of
  Z/n**i per level i <= D.
* ``PartialTreeMap`` -- a finite association list of vertex pairs, used for
  conjugators built on a window around an axis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    AxisMismatch,
    BaseMismatch,
    DoesNotFix,
    HeightMismatch,
    InvalidParams,
    NotCommuting,
    NotElliptic,
    NotHyperbolic,
    NotInvertible,
    NotMember,
)
from .exactnum import (
    INFINITY,
    NInvertible,
    TruncatedNAdic,
    _prime_signature,
    format_rational,
    in_ball,
    is_ring_unit,
    nadic_residue,
    p_valuation,
    parse_rational,
    smooth_denominator,
    unit_in_base,
    valuation_in_base,
)


def _as_fraction(value, n: int, what: str) -> Fraction:
    if isinstance(value, NInvertible):
        if value.base != n:
            raise BaseMismatch(f"{what} tagged with base {value.base}, not {n}")
        return value.value
    if isinstance(value, str):
        return parse_rational(value)
    return Fraction(value)


@dataclass(frozen=True)
class TreeVertex:
    """Ball c + n**h * Z_n, with canonical center 0 <= c < n**h."""

    n: int
    h: int
    c: Fraction

    def __post_init__(self):
        _prime_signature(self.n)
        if not isinstance(self.c, Fraction):
            object.__setattr__(self, "c", Fraction(self.c))
        if not smooth_denominator(self.c, self.n):
            raise InvalidParams(
                f"center {self.c} is not in Z[1/{self.n}]"
            )
        if not 0 <= self.c < Fraction(self.n) ** self.h:
            raise InvalidParams(
                f"center {self.c} outside [0, {self.n}^{self.h})"
            )

    @staticmethod
    def of(n: int, h: int, c) -> "TreeVertex":
        """Build a vertex, canonicalizing an arbitrary Z[1/n] center."""
        value = _as_fraction(c, n, "center")
        return TreeVertex(n, h, nadic_residue(value, h, n))

    @staticmethod
    def root(n: int) -> "TreeVertex":
        return TreeVertex(n, 0, Fraction(0))

    @property
    def parent(self) -> "TreeVertex":
        # dropping one level forgets the top digit of the center
        return TreeVertex(
            self.n, self.h - 1, nadic_residue(self.c, self.h - 1, self.n)
        )

    def child(self, digit: int) -> "TreeVertex":
        """The upward neighbor whose new top digit is ``digit``."""
        if not 0 <= digit < self.n:
            raise InvalidParams(f"digit {digit} outside [0, {self.n})")
        return TreeVertex(
            self.n, self.h + 1, self.c + Fraction(self.n) ** self.h * digit
        )

    def is_above(self, other: "TreeVertex") -> bool:
        """True iff other lies on the downward chain from this vertex."""
        if other.n != self.n:
            raise BaseMismatch("vertices over different bases")
        return self.h >= other.h and in_ball(
            self.c - other.c, other.h, self.n
        )

    def to_json(self) -> dict:
        return {"h": self.h, "c": format_rational(self.c)}

    @staticmethod
    def from_json(n: int, payload: dict) -> "TreeVertex":
        return TreeVertex.of(n, int(payload["h"]), parse_rational(str(payload["c"])))

    def __str__(self):
        return f"({self.h}, {format_rational(self.c)})"


def label_above(base_vertex: TreeVertex, v: TreeVertex) -> int:
    """Label in Z/n**i of a vertex at relative level i above base_vertex."""
    if not v.is_above(base_vertex):
        raise NotMember(f"{v} is not above {base_vertex}")
    offset = (v.c - base_vertex.c) / Fraction(base_vertex.n) ** base_vertex.h
    # offset is n-integral with n-smooth denominator, hence a plain integer
    return int(offset)


def vertex_above(base_vertex: TreeVertex, level: int, label: int) -> TreeVertex:
    """Inverse of label_above: the vertex at relative ``level`` with ``label``."""
    n = base_vertex.n
    if level < 0:
        raise InvalidParams("relative level must be >= 0")
    label %= n**level
    return TreeVertex(
        n,
        base_vertex.h + level,
        base_vertex.c + Fraction(n) ** base_vertex.h * label,
    )


@dataclass(frozen=True)
class BallAffineMap:
    """x -> u*x + beta on Q_n, shifting heights by h.

    u and beta lie in Z[1/n] and u / n**h must be a unit of Z_n, i.e.
    v_p(u) = h * e_p for every prime p | n.  The inverse map exists inside
    this class only when u is invertible in Z[1/n]; the induced bijection of
    tree vertices is inverted by ``act_inverse`` regardless.
    """

    n: int
    h: int
    u: Fraction
    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "u", _as_fraction(self.u, self.n, "u"))
        object.__setattr__(self, "beta", _as_fraction(self.beta, self.n, "beta"))
        if not smooth_denominator(self.beta, self.n):
            raise InvalidParams(f"beta {self.beta} not in Z[1/{self.n}]")
        for p, e in _prime_signature(self.n).primes:
            if p_valuation(self.u, p) != self.h * e:
                raise InvalidParams(
                    f"u = {self.u} does not scale balls by {self.n}^{self.h}: "
                    f"v_{p}(u) != {self.h * e}"
                )

    @staticmethod
    def identity(n: int) -> "BallAffineMap":
        return BallAffineMap(n, 0, Fraction(1), Fraction(0))

    @staticmethod
    def translation(n: int, amount) -> "BallAffineMap":
        return BallAffineMap(n, 0, Fraction(1), _as_fraction(amount, n, "amount"))

    @staticmethod
    def base_scaling(n: int, power: int = 1) -> "BallAffineMap":
        """x -> n**power * x, the standard height-raising action."""
        return BallAffineMap(n, power, Fraction(n) ** power, Fraction(0))

    def _check_base(self, other: "BallAffineMap"):
        if other.n != self.n:
            raise BaseMismatch(
                f"maps over different bases {self.n} and {other.n}"
            )

    def compose(self, other: "BallAffineMap") -> "BallAffineMap":
        """self after other."""
        self._check_base(other)
        return BallAffineMap(
            self.n,
            self.h + other.h,
            self.u * other.u,
            self.u * other.beta + self.beta,
        )

    def inverse(self) -> "BallAffineMap":
        if not is_ring_unit(self.u, self.n):
            raise NotInvertible(
                f"u = {self.u} has no inverse in Z[1/{self.n}]; "
                "use act_inverse for the vertex-level inverse"
            )
        return BallAffineMap(self.n, -self.h, 1 / self.u, -self.beta / self.u)

    def conjugated_by(self, g: "BallAffineMap") -> "BallAffineMap":
        """g o self o g^{-1}, computed without inverting g."""
        self._check_base(g)
        return BallAffineMap(
            self.n,
            self.h,
            self.u,
            g.u * self.beta + (1 - self.u) * g.beta,
        )

    def power(self, k: int) -> "BallAffineMap":
        if k < 0:
            return self.inverse().power(-k)
        result = BallAffineMap.identity(self.n)
        for _ in range(k):
            result = result.compose(self)
        return result

    def __call__(self, x):
        return self.u * _as_fraction(x, self.n, "x") + self.beta

    def is_elliptic(self) -> bool:
        return self.h == 0

    def hyperbolic_fixed_point(self) -> Fraction:
        """The rational fixed point x* = beta / (1 - u) of a hyperbolic map.

        x* need not lie in Z[1/n]; its denominator's coprime part is handled
        exactly by nadic_residue when locating axis vertices.
        """
        if self.h == 0:
            raise NotHyperbolic("height change is zero, no translation axis")
        if self.u == 1:
            raise AssertionError(
                f"hyperbolic self-check failed: height change {self.h}, "
                f"multiplier u = {self.u}"
            )
        return self.beta / (1 - self.u)

    def __str__(self):
        return (
            f"x -> {format_rational(self.u)}*x + {format_rational(self.beta)}"
        )


def act(map_: BallAffineMap, v: TreeVertex) -> TreeVertex:
    """Transport a ball: (h, c) -> (h + h_map, canonical(u*c + beta))."""
    if map_.n != v.n:
        raise BaseMismatch("map and vertex over different bases")
    return TreeVertex.of(v.n, v.h + map_.h, map_.u * v.c + map_.beta)


def act_inverse(map_: BallAffineMap, v: TreeVertex) -> TreeVertex:
    """The unique w with act(map_, w) = v.

    Total even when map_.inverse() does not exist: the center is recovered as
    the canonical residue of the exact rational (c - beta) / u.
    """
    if map_.n != v.n:
        raise BaseMismatch("map and vertex over different bases")
    return TreeVertex.of(v.n, v.h - map_.h, (v.c - map_.beta) / map_.u)


def act_power(map_: BallAffineMap, k: int, v: TreeVertex) -> TreeVertex:
    for _ in range(abs(k)):
        v = act(map_, v) if k > 0 else act_inverse(map_, v)
    return v


def fixes(map_: BallAffineMap, v: TreeVertex) -> bool:
    """Whether an elliptic map fixes the vertex: (u-1)*c + beta in n**h * Z_n."""
    if map_.h != 0:
        raise NotElliptic(f"height change {map_.h} != 0")
    if map_.n != v.n:
        raise BaseMismatch("map and vertex over different bases")
    return in_ball((map_.u - 1) * v.c + map_.beta, v.h, v.n)


def axis_vertex(map_: BallAffineMap, at_height: int) -> TreeVertex:
    """The height-j vertex on the translation axis of a hyperbolic map.

    The axis is the coherent line through the fixed point x* of x -> u*x +
    beta; the vertex at height j is the ball of that height containing x*.
    """
    x_star = map_.hyperbolic_fixed_point()
    return TreeVertex(
        map_.n, at_height, nadic_residue(x_star, at_height, map_.n)
    )


def axis_meet_height(x_star: Fraction, v: TreeVertex):
    """Height at which the downward chain from v joins the axis through x*.

    Returns min(h_v, largest j with c - x* in n**j * Z_n); INFINITY never
    escapes (a vertex on the axis meets it at its own height).
    """
    ball_val = valuation_in_base(v.c - x_star, v.n)
    return v.h if ball_val is INFINITY else min(v.h, ball_val)


def is_transitive_on_up(map_: BallAffineMap, w: TreeVertex, level: int) -> bool:
    """Whether the cyclic group of an elliptic map fixing w acts transitively
    on the n**level vertices at relative ``level`` above w."""
    if not fixes(map_, w):
        raise DoesNotFix(f"{map_} does not fix {w}")
    if level < 1:
        raise InvalidParams("level must be >= 1")
    count = w.n**level
    start = vertex_above(w, level, 0)
    seen, v = 0, start
    while True:
        seen += 1
        v = act(map_, v)
        if v == start:
            break
        if seen > count:
            raise AssertionError("orbit failed to close")
    return seen == count


def transitive_forever(beta, w: TreeVertex) -> bool:
    """Exact form of transitivity at every level simultaneously.

    The translation by beta fixing w is transitive on every level above w iff
    beta / n**h_w is a unit of Z_n.
    """
    value = _as_fraction(beta, w.n, "beta")
    return unit_in_base(value / Fraction(w.n) ** w.h, w.n)


@dataclass(frozen=True)
class LevelPermAutomorphism:
    """Automorphism of the depth-D upward cone of a vertex.

    Stored as permutations sigma_1 .. sigma_D, sigma_i a bijection of
    Z/n**i in one-line notation, compatible along the parent map:
    sigma_{i+1}(y) mod n**i = sigma_i(y mod n**i).
    """

    n: int
    perms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _prime_signature(self.n)
        object.__setattr__(
            self, "perms", tuple(tuple(p) for p in self.perms)
        )
        for i, perm in enumerate(self.perms, start=1):
            size = self.n**i
            if len(perm) != size or sorted(perm) != list(range(size)):
                raise InvalidParams(
                    f"level {i} is not a permutation of Z/{self.n}^{i}"
                )
        for i in range(1, len(self.perms)):
            coarse, fine = self.perms[i - 1], self.perms[i]
            size = self.n**i
            for y, image in enumerate(fine):
                if image % size != coarse[y % size]:
                    raise InvalidParams(
                        f"levels {i} and {i + 1} incompatible at {y}"
                    )

    @property
    def depth(self) -> int:
        return len(self.perms)

    @staticmethod
    def identity(n: int, depth: int) -> "LevelPermAutomorphism":
        return LevelPermAutomorphism(
            n, tuple(tuple(range(n**i)) for i in range(1, depth + 1))
        )

    def apply(self, level: int, label: int) -> int:
        if not 1 <= level <= self.depth:
            raise InvalidParams(f"level {level} outside [1, {self.depth}]")
        return self.perms[level - 1][label % self.n**level]

    def _check(self, other: "LevelPermAutomorphism"):
        if other.n != self.n:
            raise BaseMismatch("automorphisms over different bases")
        if other.depth != self.depth:
            raise InvalidParams(
                f"depth mismatch: {self.depth} vs {other.depth}"
            )

    def compose(self, other: "LevelPermAutomorphism") -> "LevelPermAutomorphism":
        """self after other, levelwise."""
        self._check(other)
        return LevelPermAutomorphism(
            self.n,
            tuple(
                tuple(mine[theirs] for theirs in perm)
                for mine, perm in zip(self.perms, other.perms)
            ),
        )

    def inverse(self) -> "LevelPermAutomorphism":
        inverted = []
        for perm in self.perms:
            out = [0] * len(perm)
            for y, image in enumerate(perm):
                out[image] = y
            inverted.append(tuple(out))
        return LevelPermAutomorphism(self.n, tuple(inverted))

    def truncate(self, depth: int) -> "LevelPermAutomorphism":
        if not 0 <= depth <= self.depth:
            raise InvalidParams(f"depth {depth} outside [0, {self.depth}]")
        return LevelPermAutomorphism(self.n, self.perms[:depth])

    def to_lists(self) -> list:
        return [list(p) for p in self.perms]

    @staticmethod
    def from_lists(n: int, lists) -> "LevelPermAutomorphism":
        return LevelPermAutomorphism(n, tuple(tuple(p) for p in lists))


def restrict_to_up(
    map_: BallAffineMap, w: TreeVertex, depth: int
) -> LevelPermAutomorphism:
    """Truncate an elliptic map fixing w to a depth-D cone automorphism."""
    if not fixes(map_, w):
        raise DoesNotFix(f"{map_} does not fix {w}")
    perms = []
    for level in range(1, depth + 1):
        perms.append(
            tuple(
                label_above(w, act(map_, vertex_above(w, level, y)))
                for y in range(w.n**level)
            )
        )
    return LevelPermAutomorphism(w.n, tuple(perms))


def levelwise_translation(eta: TruncatedNAdic) -> LevelPermAutomorphism:
    """The cone automorphism acting by +eta mod n**i on every level."""
    n, depth = eta.base, eta.precision
    perms = []
    for level in range(1, depth + 1):
        size = n**level
        shift = eta.residue_at(level)
        perms.append(tuple((y + shift) % size for y in range(size)))
    return LevelPermAutomorphism(n, tuple(perms))


def translation_amount(f: LevelPermAutomorphism) -> TruncatedNAdic:
    """Recover eta from a cone automorphism commuting with the full cycle.

    Inverse of levelwise_translation at depth D; raises NotCommuting naming
    the first level where f fails to commute with x -> x + 1.
    """
    for level in range(1, f.depth + 1):
        size = f.n**level
        perm = f.perms[level - 1]
        for y in range(size):
            if perm[(y + 1) % size] != (perm[y] + 1) % size:
                raise NotCommuting(
                    f"level {level} does not commute with the full cycle"
                )
    residue = f.perms[-1][0] if f.depth > 0 else 0
    return TruncatedNAdic(base=f.n, precision=f.depth, residue=residue)


@dataclass(frozen=True)
class PartialTreeMap:
    """Finite injective vertex map with a constant height change.

    Pairs are kept sorted by source (height, center) so equal maps compare
    and serialize identically.  Parent links are preserved wherever both
    endpoints lie in the domain.
    """

    n: int
    pairs: tuple[tuple[TreeVertex, TreeVertex], ...]

    def __post_init__(self):
        ordered = tuple(
            sorted(self.pairs, key=lambda pair: (pair[0].h, pair[0].c))
        )
        object.__setattr__(self, "pairs", ordered)
        sources = {}
        targets = set()
        height_change = None
        for source, target in ordered:
            if source.n != self.n or target.n != self.n:
                raise BaseMismatch("vertex over a different base")
            if source in sources:
                raise InvalidParams(f"duplicate source {source}")
            if target in targets:
                raise InvalidParams(f"not injective at {target}")
            sources[source] = target
            targets.add(target)
            delta = target.h - source.h
            if height_change is None:
                height_change = delta
            elif delta != height_change:
                raise InvalidParams(
                    f"height change {delta} at {source} differs from "
                    f"{height_change}"
                )
        for source, target in ordered:
            below = sources.get(source.parent)
            if below is not None and target.parent != below:
                raise InvalidParams(
                    f"parent link broken at {source}"
                )

    @property
    def domain(self) -> tuple[TreeVertex, ...]:
        return tuple(source for source, _ in self.pairs)

    def image_of(self, v: TreeVertex) -> TreeVertex:
        for source, target in self.pairs:
            if source == v:
                return target
        raise NotMember(f"{v} outside the domain")

    def __len__(self):
        return len(self.pairs)

    def __contains__(self, v: TreeVertex):
        return any(source == v for source, _ in self.pairs)


def window_vertices(n: int, x_star: Fraction, low: int, high: int, depth: int):
    """All vertices with height in [low, high] within tree-distance
    ``depth`` of the axis through x*, in canonical order."""
    for h in range(low, high + 1):
        base = Fraction(n) ** (h - depth)
        anchor = nadic_residue(x_star, h - depth, n)
        for y in range(n**depth):
            yield TreeVertex(n, h, anchor + base * y)


def build_conjugator(
    b: BallAffineMap,
    b_prime: BallAffineMap,
    g0: LevelPermAutomorphism,
    window: int,
    depth: int,
) -> PartialTreeMap:
    """A tree map g with g o b' o g^{-1} = b on a finite window.

    b and b' must be hyperbolic with the same height change l >= 1 and the
    same axis.  g0 prescribes g on the cone above the height-0 axis vertex
    (covering the subtrees hanging off the axis segment of length l), must
    fix the axis labels, and must have depth at least depth + l - 1.  The
    rest of the window is filled in by the inductive rule
    g = b o g o b'^{-1}, one axis segment at a time; the result contains
    every vertex of height in [-window*l, window*l] within tree-distance
    ``depth`` of the axis.
    """
    if b.n != b_prime.n:
        raise BaseMismatch("maps over different bases")
    n = b.n
    if b.h != b_prime.h:
        raise HeightMismatch(
            f"height changes differ: {b.h} vs {b_prime.h}"
        )
    length = b.h
    if length < 1:
        raise HeightMismatch("need height change >= 1")
    x_b = b.hyperbolic_fixed_point()
    x_bp = b_prime.hyperbolic_fixed_point()
    if x_b != x_bp:
        split = valuation_in_base(x_b - x_bp, n) + 1
        raise AxisMismatch(
            f"x* = {format_rational(x_b)} vs {format_rational(x_bp)} "
            f"differ at height {split}"
        )
    x_star = x_b
    if g0.n != n:
        raise BaseMismatch("g0 over a different base")
    if g0.depth < depth + length - 1:
        raise InvalidParams(
            f"g0 depth {g0.depth} < {depth} + {length} - 1"
        )
    anchor = TreeVertex(n, 0, nadic_residue(x_star, 0, n))
    for level in range(1, g0.depth + 1):
        axis_label = label_above(
            anchor, TreeVertex(n, level, nadic_residue(x_star, level, n))
        )
        if g0.apply(level, axis_label) != axis_label:
            raise DoesNotFix(
                f"g0 moves the axis label at level {level}"
            )
    pairs = []
    for v in window_vertices(n, x_star, -window * length, window * length, depth):
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
    return PartialTreeMap(n, tuple(pairs))


def conjugation_failures(
    g: PartialTreeMap, b: BallAffineMap, b_prime: BallAffineMap
) -> list[TreeVertex]:
    """Vertices v in the domain with g(b'(v)) != b(g(v)), skipping those
    where b'(v) leaves the domain."""
    lookup = dict(g.pairs)
    failures = []
    for v, gv in g.pairs:
        moved = act(b_prime, v)
        if moved in lookup and lookup[moved] != act(b, gv):
            failures.append(v)
    return failures


def subtree_dot(
    root: TreeVertex, depth: int, orbit_of=None
) -> str:
    """DOT rendering of the cone above root to the given depth.

    ``orbit_of`` optionally maps a vertex to an orbit index; vertices are
    then filled from a small color palette by index.
    """
    palette = (
        "lightblue", "lightsalmon", "palegreen", "gold",
        "plum", "khaki", "lightpink", "aquamarine",
    )
    lines = ["digraph tree {", "  rankdir=BT;"]
    vertices = [root]
    for level in range(1, depth + 1):
        vertices.extend(
            vertex_above(root, level, y) for y in range(root.n**level)
        )
    for v in vertices:
        attrs = [f'label="{v}"']
        if orbit_of is not None:
            index = orbit_of(v)
            if index is not None:
                attrs.append("style=filled")
                attrs.append(f'fillcolor="{palette[index % len(palette)]}"')
        lines.append(f'  "{v}" [{", ".join(attrs)}];')
    for v in vertices[1:]:
        lines.append(f'  "{v}" -> "{v.parent}";')
    lines.append("}")
    return "\n".join(lines)


def enumerate_cone_automorphisms(n: int, depth: int):
    """All LevelPermAutomorphisms of the given depth, in lexicographic order.

    Feasible only for tiny n**depth; the one enumerator behind the lab's
    brute-force groups and certifications.
    """
    digit_perms = sorted(itertools.permutations(range(n)))

    def extend(prefix):
        if len(prefix) == depth:
            yield LevelPermAutomorphism(n, tuple(prefix))
            return
        size = n ** len(prefix)
        coarse = prefix[-1] if prefix else (0,)
        # a finer level = an independent digit permutation above each vertex
        for assignment in itertools.product(digit_perms, repeat=size):
            fine = [0] * (n * size)
            for y in range(size):
                for digit, image_digit in enumerate(assignment[y]):
                    fine[y + size * digit] = coarse[y] + size * image_digit
            yield from extend(prefix + [tuple(fine)])

    yield from extend([])
