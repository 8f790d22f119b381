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
* ``PartialTreeMap`` -- a conjugator on a finite window around an axis,
  kept as integer rows from which its vertex pairs are built when read.

A ``TruncatedNAdic`` is the translation amount eta of the level-wise
translation by +eta.
"""

from __future__ import annotations

import functools
import itertools
import math
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
    TooLarge,
)
from .exactnum import (
    _fraction,
    _prime_signature,
    check_scaling,
    format_rational,
    in_ball,
    integral_level,
    is_ring_unit,
    nadic_residue,
    p_valuation,
    parse_rational,
    power_exceeds,
    record_int,
    smooth_denominator,
    valuation_in_base,
)


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
        """Build a vertex, canonicalizing a Fraction or int center mod n**h."""
        return TreeVertex(n, h, nadic_residue(c, h, n))

    @staticmethod
    def root(n: int) -> "TreeVertex":
        return TreeVertex(n, 0, Fraction(0))

    @property
    def parent(self) -> "TreeVertex":
        # dropping one level forgets the top digit of the center
        return TreeVertex(
            self.n, self.h - 1, nadic_residue(self.c, self.h - 1, self.n)
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
        """The vertex of a record; a height h with n**|h| past SCALING_CAP
        is refused before any power of n is built."""
        h = record_int(payload, "h")
        _prime_signature(n)  # a bad base is named before a bad height
        check_scaling(n, h)
        return TreeVertex.of(n, h, parse_rational(str(payload["c"])))

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


def affine_power(u, beta, k: int) -> tuple[Fraction, Fraction]:
    """(A, B) with x -> A*x + B the k-th power of x -> u*x + beta, k >= 0,
    in closed form: A = u**k and B = beta * (A - 1) / (u - 1), or k * beta
    when u = 1.  B may leave Z[1/n] when u has a denominator coprime to n,
    so no map is built here."""
    scale = u**k
    if u == 1:
        return scale, k * beta
    return scale, beta * (scale - 1) / (u - 1)


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
        object.__setattr__(self, "u", _fraction(self.u))
        object.__setattr__(self, "beta", _fraction(self.beta))
        if not smooth_denominator(self.beta, self.n):
            raise InvalidParams(f"beta {self.beta} not in Z[1/{self.n}]")
        for p, e in _prime_signature(self.n):
            if p_valuation(self.u, p) != self.h * e:
                raise InvalidParams(
                    f"u = {self.u} does not scale balls by {self.n}^{self.h}: "
                    f"v_{p}(u) != {format_rational(self.h * e)}"
                )

    @staticmethod
    def identity(n: int) -> "BallAffineMap":
        return BallAffineMap(n, 0, Fraction(1), Fraction(0))

    @staticmethod
    def translation(n: int, amount) -> "BallAffineMap":
        return BallAffineMap(n, 0, Fraction(1), amount)

    @staticmethod
    def base_scaling(n: int, power: int = 1) -> "BallAffineMap":
        """x -> n**power * x, the standard height-raising action; refused
        past SCALING_CAP, before n**power is built."""
        check_scaling(n, power)
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
        return BallAffineMap(
            self.n, k * self.h, *affine_power(self.u, self.beta, k)
        )

    def __call__(self, x):
        return self.u * x + self.beta

    def hyperbolic_fixed_point(self) -> Fraction:
        """The rational fixed point x* = beta / (1 - u) of a hyperbolic map.

        x* need not lie in Z[1/n]; its denominator's coprime part is handled
        exactly by nadic_residue when locating axis vertices.  u is not 1:
        the constructor holds v_p(u) = h * e_p, so u = 1 forces h = 0.
        """
        if self.h == 0:
            raise NotHyperbolic("height change is zero, no translation axis")
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
    """act applied k times, or act_inverse applied -k times, in O(log |k|)."""
    if map_.n != v.n:
        raise BaseMismatch("map and vertex over different bases")
    if map_.h == 0:
        return _act_elliptic_power(map_, k, v)
    scale, shift = affine_power(map_.u, map_.beta, abs(k))
    center = (v.c - shift) / scale if k < 0 else scale * v.c + shift
    return TreeVertex.of(v.n, v.h + k * map_.h, center)


def _act_elliptic_power(
    map_: BallAffineMap, k: int, v: TreeVertex
) -> TreeVertex:
    """act_power of a height-preserving map with numbers bounded by v.

    With n**t clearing the n-part of the denominators of c and beta, the
    image center (A*c + B) mod n**H of the k-th power x -> A*x + B depends
    only on A mod n**(H+t) and on n**t * B mod n**(H+t), so the pair is
    squared and multiplied as integers reduced mod n**(H+t).  u is a unit
    of Z_n, hence invertible mod n**(H+t) for k < 0.
    """
    n = v.n
    denominator = math.lcm(v.c.denominator, map_.beta.denominator)
    t = max(-v.h, integral_level(Fraction(1, denominator), n))
    scale, modulus = n**t, n ** (v.h + t)
    a = int(nadic_residue(map_.u, v.h + t, n))
    b = int(map_.beta * scale) % modulus
    if k < 0:
        a = pow(a, -1, modulus)
        b = -a * b % modulus
        k = -k
    # (a, b) after (a2, b2) is (a*a2, a*b2 + b); powers of one map commute
    big_a, big_b = 1, 0
    while k:
        if k & 1:
            big_a, big_b = a * big_a % modulus, (a * big_b + b) % modulus
        k >>= 1
        if k:
            a, b = a * a % modulus, (a * b + b) % modulus
    center = (big_a * int(v.c * scale) + big_b) % modulus
    return TreeVertex(n, v.h, Fraction(center, scale))


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
    return TreeVertex.of(map_.n, at_height, map_.hyperbolic_fixed_point())


def is_transitive_on_up(map_: BallAffineMap, w: TreeVertex, level: int) -> bool:
    """Whether the cyclic group of an elliptic map fixing w acts transitively
    on the n**level vertices at relative ``level`` above w."""
    if not fixes(map_, w):
        raise DoesNotFix(f"{map_} does not fix {w}")
    if level < 1:
        raise InvalidParams("level must be >= 1")
    a, d = _label_step(map_, w, level)
    count = w.n**level
    seen, y = 0, 0
    while True:
        seen += 1
        y = (a * y + d) % count
        if y == 0:
            break
        if seen > count:
            raise AssertionError(
                f"orbit failed to close: {seen} steps on {count} labels"
            )
    return seen == count


def _label_step(
    map_: BallAffineMap, w: TreeVertex, level: int
) -> tuple[int, int]:
    """(a, d) such that an elliptic map fixing w moves the labels at
    relative ``level`` above w by y -> (a*y + d) mod n**level.

    a is the residue of u and d that of (u*c_w + beta - c_w) / n**h_w.  The
    step is checked against the literal act at one label of the level.
    """
    n = w.n
    a = int(nadic_residue(map_.u, level, n))
    offset = (map_.u * w.c + map_.beta - w.c) / Fraction(n) ** w.h
    d = int(nadic_residue(offset, level, n))
    size = n**level
    label = size - 1
    stepped = (a * label + d) % size
    acted = label_above(w, act(map_, vertex_above(w, level, label)))
    if stepped != acted:
        raise AssertionError(
            f"label step self-check failed at level {level}, label {label}: "
            f"closed form {stepped}, act {acted}"
        )
    return a, d


def check_levels(n: int, perms):
    """Refuse perms, label sequences, unless level i permutes Z/n**i and
    level i + 1 reduces mod n**i to level i: a cone automorphism's levels."""
    for i, perm in enumerate(perms, start=1):
        size = n**i
        if len(perm) != size or sorted(perm) != list(range(size)):
            raise InvalidParams(f"level {i} is not a permutation of Z/{n}^{i}")
    for i in range(1, len(perms)):
        coarse, fine = perms[i - 1], perms[i]
        size = n**i
        for y, image in enumerate(fine):
            if image % size != coarse[y % size]:
                raise InvalidParams(f"levels {i} and {i + 1} incompatible at {y}")


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
        check_levels(self.n, self.perms)

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

    def to_lists(self) -> list:
        return [list(p) for p in self.perms]

    @staticmethod
    def from_lists(n: int, lists) -> "LevelPermAutomorphism":
        """The automorphism of outside input, whose labels must be ints:
        true, 1.0 or "a" is refused like any other non-permutation."""
        perms = tuple(tuple(p) for p in lists)
        _prime_signature(n)  # a bad base is named before a bad label
        for i, perm in enumerate(perms, start=1):
            if any(type(label) is not int for label in perm):
                raise InvalidParams(
                    f"level {i} is not a permutation of Z/{n}^{i}"
                )
        return LevelPermAutomorphism(n, perms)


def restrict_to_up(
    map_: BallAffineMap, w: TreeVertex, depth: int
) -> LevelPermAutomorphism:
    """Truncate an elliptic map fixing w to a depth-D cone automorphism."""
    if not fixes(map_, w):
        raise DoesNotFix(f"{map_} does not fix {w}")
    perms = []
    for level in range(1, depth + 1):
        a, d = _label_step(map_, w, level)
        size = w.n**level
        perms.append(tuple((a * y + d) % size for y in range(size)))
    return LevelPermAutomorphism(w.n, tuple(perms))


@dataclass(frozen=True)
class TruncatedNAdic:
    """Residue mod base**precision, standing in for an n-adic integer."""

    base: int
    precision: int
    residue: int

    def __post_init__(self):
        _prime_signature(self.base)
        if self.precision < 0:
            raise InvalidParams("precision must be >= 0")
        modulus = self.base**self.precision
        if not 0 <= self.residue < modulus:
            object.__setattr__(self, "residue", self.residue % modulus)

    def residue_at(self, level: int) -> int:
        """The residue mod base**level, for level <= precision."""
        if not 0 <= level <= self.precision:
            raise InvalidParams(
                f"level {level} outside [0, {self.precision}]"
            )
        return self.residue % self.base**level

    def __str__(self):
        return f"{self.residue} mod {self.base}^{self.precision}"


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
    """Finite injective vertex map that keeps heights, on a window around
    an axis: the map build_conjugator builds and certifies.

    ``layers`` holds one (h, a, d, q, targets) per height, in increasing
    order.  The source with residue y has center (a + d*y) / q and goes to
    the one with residue targets[y], so y order is canonical order.  The
    vertex pairs are built from these rows when first read.
    """

    n: int
    layers: tuple[tuple[int, int, int, int, tuple[int, ...]], ...]

    @functools.cached_property
    def pairs(self) -> tuple[tuple[TreeVertex, TreeVertex], ...]:
        pairs = []
        for h, a, d, q, targets in self.layers:
            built = [
                TreeVertex(self.n, h, Fraction(a + d * y, q))
                for y in range(len(targets))
            ]
            pairs += [(built[y], built[t]) for y, t in enumerate(targets)]
        return tuple(pairs)

    @property
    def domain(self) -> tuple[TreeVertex, ...]:
        return tuple(source for source, _ in self.pairs)

    def image_of(self, v: TreeVertex) -> TreeVertex:
        for source, target in self.pairs:
            if source == v:
                return target
        raise NotMember(f"{v} outside the domain")

    def __len__(self):
        return sum(len(layer[-1]) for layer in self.layers)

    def __contains__(self, v: TreeVertex):
        return any(source == v for source, _ in self.pairs)


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

    On integers: (h, w), w in Z/n**depth, is the ball x* + n**(h - depth) *
    (w + n**depth * Z_n).  b and b' fix x*, so b**k takes it to (h + k*l,
    r**k * w) with r = u / n**l mod n**depth, and b' with its own r.

    The rows certified by _certify_window are returned as the map's layers;
    no vertex is built until a caller reads the map's pairs.
    """
    if b.n != b_prime.n:
        raise BaseMismatch("maps over different bases")
    n = b.n
    if b.h != b_prime.h:
        raise HeightMismatch(f"height changes differ: {b.h} vs {b_prime.h}")
    length = b.h
    if length < 1:
        raise HeightMismatch("need height change >= 1")
    x_star = b.hyperbolic_fixed_point()
    x_bp = b_prime.hyperbolic_fixed_point()
    if x_star != x_bp:
        split = valuation_in_base(x_star - x_bp, n) + 1
        raise AxisMismatch(
            f"x* = {format_rational(x_star)} vs {format_rational(x_bp)} "
            f"differ at height {split}"
        )
    if g0.n != n:
        raise BaseMismatch("g0 over a different base")
    if g0.depth < depth + length - 1:
        raise InvalidParams(f"g0 depth {g0.depth} < {depth} + {length} - 1")
    # axis[level]: the label of the axis vertex at level above height 0
    origin = nadic_residue(x_star, 0, n)
    axis = [
        int(nadic_residue(x_star, level, n) - origin)
        for level in range(g0.depth + 1)
    ]
    for level in range(1, g0.depth + 1):
        if g0.apply(level, axis[level]) != axis[level]:
            raise DoesNotFix(f"g0 moves the axis label at level {level}")
    size = n**depth
    unit_b, unit_bp = (
        int(nadic_residue(f.u / Fraction(n) ** length, depth, n))
        for f in (b, b_prime)
    )
    # shared[w]: the largest i <= depth with n**i | w, so (h, w) meets the
    # axis at height h - depth + shared[w]
    shared = [depth] * size
    for level in range(depth):
        for w in range(n**level, size, n**level):
            shared[w] = level
    rows, forms = {}, {}
    for h in range(-window * length, window * length + 1):
        anchor = nadic_residue(x_star, h - depth, n)
        step = Fraction(n) ** (h - depth)
        # the label of the axis vertex at h above the one at h - depth
        shift = int((nadic_residue(x_star, h, n) - anchor) / step)
        # (h, w) has residue y = w + shift and center (a + d*y) / q
        q = math.lcm(anchor.denominator, step.denominator)
        forms[h] = (int(anchor * q), int(step * q), q, shift)
        row = rows[h] = [0] * size
        for w in range(1, size):
            segment = (h - depth + shared[w]) // length
            level = h - segment * length
            # b'**-segment pulls (h, w) back to the label axis + n**(level -
            # depth) * w above the height-0 axis vertex, g0 relabels it and
            # b**segment pushes it out.  Both scalings are exact: the pulled
            # vertex and its image meet the axis at max(0, level - depth) up
            up, down = n ** max(level - depth, 0), n ** max(depth - level, 0)
            pulled = pow(unit_bp, -segment, size) * w % size * up // down
            label = (axis[level] + pulled) % n**level
            image = (g0.apply(level, label) - axis[level]) % n**level
            row[w] = pow(unit_b, segment, size) * (image * down // up) % size

    def vertex(h, w):
        a, d, q, shift = forms[h]
        return TreeVertex(n, h, Fraction(a + d * ((w + shift) % size), q))

    _certify_window(rows, vertex, n, length, unit_b, unit_bp)
    layers = []
    for h, (a, d, q, shift) in forms.items():
        row = rows[h]
        # canonical order: by residue y, whose label w = y - shift (an index
        # that wraps round when negative, as 0 <= shift < size)
        targets = tuple((row[y - shift] + shift) % size for y in range(size))
        layers.append((h, a, d, q, targets))
    return PartialTreeMap(n, tuple(layers))


def _certify_window(rows, vertex, n: int, length: int, unit_b, unit_bp):
    """Raise AssertionError naming a vertex v and two images unless the
    window map g is injective, keeps parent links and has g(b'(v)) = b(g(v))
    wherever b'(v) is in the window.  g(h, w) = (h, rows[h][w]) keeps
    heights; vertex(h, w) names (h, w), whose parent is (h - 1, n*w) and
    b'-image (h + l, unit_bp * w).  Vertices are named only on failure."""
    for h, row in rows.items():
        size = len(row)
        if len(set(row)) < size:
            w = next(w for w, image in enumerate(row) if row.index(image) < w)
            raise AssertionError(
                f"window map not injective at {vertex(h, w)}: it and "
                f"{vertex(h, row.index(row[w]))} both go to "
                f"{vertex(h, row[w])}"
            )
        for other, move, move_image, name, name_image in (
            (h - 1, n, n, "parent", "parent"),
            (h + length, unit_bp, unit_b, "b'", "b"),
        ):
            for w, image in enumerate(row if other in rows else ()):
                got = rows[other][move * w % size]
                want = move_image * image % size
                if got != want:
                    raise AssertionError(
                        f"window self-check failed at {vertex(h, w)}: "
                        f"g({name}(v)) = {vertex(other, got)}, "
                        f"{name_image}(g(v)) = {vertex(other, want)}"
                    )


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


def enumerate_cone_tops(n: int, depth: int) -> tuple[bytes, ...]:
    """Top-level permutations of all depth-D cone automorphisms, as bytes,
    in the canonical order of their to_lists().

    The automorphisms of depth i over one of depth i - 1 are its identity
    lift composed with an independent digit permutation above each vertex.
    A kernel table T sends position y + size * d to y + size * sigma_y(d),
    so one bytes.translate of T through the identity lift of a coarse top
    c gives c[y] + size * sigma_y(d) there, which grows with T's entry.
    Lifts of c therefore compare as their kernel tables do: the kernel is
    sorted once per level, and the lifts of every coarse top come out in
    canonical order.  Feasible only for tiny n**depth; the one enumerator
    behind the lab's brute-force groups and certifications.
    """
    if power_exceeds(n, depth, 256):
        raise TooLarge(f"{n}^{depth} labels do not fit in a byte")
    digit_perms = list(itertools.permutations(range(n)))
    tops, size = (bytes(1),), 1
    for _ in range(depth):
        kernel = sorted(
            bytes(
                y + size * sigma[y][d] for d in range(n) for y in range(size)
            )
            for sigma in itertools.product(digit_perms, repeat=size)
        )
        steps, padding = range(0, n * size, size), bytes(range(n * size, 256))
        lifts = (
            map(bytes.translate, kernel, itertools.repeat(
                bytes(b + step for step in steps for b in c) + padding
            ))
            for c in tops
        )
        tops, size = tuple(itertools.chain.from_iterable(lifts)), size * n
    return tops
