"""Arithmetic isometries of the model space: a real affine map paired with a
tree action sharing one height change.

An element is (eps, h, alpha, tree): the real line is moved by
t -> eps * n**h * t + alpha while the tree part is a BallAffineMap of the
same height change h.  eps = +1 is the orientation-preserving subgroup; the
real translation part alpha is an arbitrary rational, independent of the
tree translation beta (this independence is what the whole lattice story
turns on).

The group splits as (real translations) x| (pure tree actions); decompose
and apply_automorphism work through that splitting.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .errors import BaseMismatch, InvalidParams, NotElliptic
from .exactnum import format_rational, parse_rational
from .tree import BallAffineMap


class IsometryType(enum.Enum):
    ELLIPTIC = "elliptic"
    HYPERBOLIC = "hyperbolic"


def _rational(value) -> Fraction:
    if isinstance(value, str):
        return parse_rational(value)
    return Fraction(value)


@dataclass(frozen=True)
class ArithmeticIsometry:
    n: int
    eps: int
    h: int
    alpha: Fraction
    tree: BallAffineMap

    def __post_init__(self):
        if self.eps not in (1, -1):
            raise InvalidParams(f"eps must be +1 or -1, got {self.eps}")
        object.__setattr__(self, "alpha", _rational(self.alpha))
        if self.tree.n != self.n:
            raise BaseMismatch(
                f"tree part over base {self.tree.n}, isometry over {self.n}"
            )
        if self.tree.h != self.h:
            raise InvalidParams(
                f"tree height change {self.tree.h} != {self.h}"
            )

    @staticmethod
    def identity(n: int) -> "ArithmeticIsometry":
        return ArithmeticIsometry(
            n, 1, 0, Fraction(0), BallAffineMap.identity(n)
        )

    @staticmethod
    def real_translation(n: int, amount) -> "ArithmeticIsometry":
        """Move the real coordinate only; the tree is untouched."""
        return ArithmeticIsometry(
            n, 1, 0, _rational(amount), BallAffineMap.identity(n)
        )

    @staticmethod
    def pure_tree(tree: BallAffineMap) -> "ArithmeticIsometry":
        """Act on the tree only; real translation part zero."""
        return ArithmeticIsometry(
            tree.n, 1, tree.h, Fraction(0), tree
        )

    @staticmethod
    def standard_generator_pair(n: int):
        """The unit translation and the base scaling, acting diagonally."""
        a = ArithmeticIsometry(
            n, 1, 0, Fraction(1), BallAffineMap.translation(n, 1)
        )
        b = ArithmeticIsometry(
            n, 1, 1, Fraction(0), BallAffineMap.base_scaling(n)
        )
        return a, b

    def _check_base(self, other: "ArithmeticIsometry"):
        if other.n != self.n:
            raise BaseMismatch(
                f"isometries over different bases {self.n} and {other.n}"
            )

    def real_slope(self) -> Fraction:
        return self.eps * Fraction(self.n) ** self.h

    def compose(self, other: "ArithmeticIsometry") -> "ArithmeticIsometry":
        """self after other."""
        self._check_base(other)
        return ArithmeticIsometry(
            self.n,
            self.eps * other.eps,
            self.h + other.h,
            self.real_slope() * other.alpha + self.alpha,
            self.tree.compose(other.tree),
        )

    def inverse(self) -> "ArithmeticIsometry":
        return ArithmeticIsometry(
            self.n,
            self.eps,
            -self.h,
            -self.alpha / self.real_slope(),
            self.tree.inverse(),
        )

    def conjugated_by(self, g: "ArithmeticIsometry") -> "ArithmeticIsometry":
        """g o self o g^{-1}, total (no tree inverse needed)."""
        self._check_base(g)
        return ArithmeticIsometry(
            self.n,
            self.eps,
            self.h,
            g.real_slope() * self.alpha + (1 - self.real_slope()) * g.alpha,
            self.tree.conjugated_by(g.tree),
        )

    def power(self, k: int) -> "ArithmeticIsometry":
        if k < 0:
            return self.inverse().power(-k)
        result = ArithmeticIsometry.identity(self.n)
        square = self
        while k:
            if k & 1:
                result = result.compose(square)
            square = square.compose(square)
            k >>= 1
        return result

    def is_identity(self) -> bool:
        return self == ArithmeticIsometry.identity(self.n)

    def real_map(self, t):
        return self.real_slope() * Fraction(t) + self.alpha

    def to_json(self) -> dict:
        return {
            "eps": self.eps,
            "h": self.h,
            "alpha": format_rational(self.alpha),
            "u": format_rational(self.tree.u),
            "beta": format_rational(self.tree.beta),
        }

    @staticmethod
    def from_json(n: int, payload: dict) -> "ArithmeticIsometry":
        return ArithmeticIsometry(
            n,
            int(payload["eps"]),
            int(payload["h"]),
            parse_rational(str(payload["alpha"])),
            BallAffineMap(
                n,
                int(payload["h"]),
                parse_rational(str(payload["u"])),
                parse_rational(str(payload["beta"])),
            ),
        )

    def __str__(self):
        sign = "" if self.eps == 1 else "-"
        return (
            f"(t -> {sign}{self.n}^{self.h}*t + {format_rational(self.alpha)}; "
            f"{self.tree})"
        )


def classify_type(f: ArithmeticIsometry) -> IsometryType:
    """Hyperbolic iff the height change is nonzero.

    A height-zero arithmetic isometry always fixes a vertex: its tree part
    moves centers by (u-1)*c + beta, and every ball of height below the
    valuation of that displacement is preserved.
    """
    return IsometryType.HYPERBOLIC if f.h else IsometryType.ELLIPTIC


def translation_distance(f: ArithmeticIsometry) -> Fraction:
    """Signed real translation amount of an orientation-preserving elliptic
    isometry."""
    if f.h != 0:
        raise NotElliptic(f"height change {f.h} != 0")
    if f.eps != 1:
        raise NotElliptic("orientation-reversing: no translation distance")
    return f.alpha


def decompose(f: ArithmeticIsometry):
    """Split f = real_translation(alpha) o pure tree action.

    Defined on the orientation-preserving subgroup; the pair (alpha, pure
    part) determines f and the product rule is the semidirect one.
    """
    if f.eps != 1:
        raise InvalidParams("decompose needs an orientation-preserving input")
    return f.alpha, ArithmeticIsometry.pure_tree(f.tree)


@dataclass(frozen=True)
class AmbientAutomorphism:
    """Outer data (r, g): rescale the real factor by r, then conjugate by a
    pure tree action g."""

    r: Fraction
    g: ArithmeticIsometry

    def __post_init__(self):
        object.__setattr__(self, "r", _rational(self.r))
        if self.r == 0:
            raise InvalidParams("scaling factor r must be nonzero")
        if self.g.eps != 1 or self.g.alpha != 0:
            raise InvalidParams(
                "conjugator must be a pure tree action (eps=+1, alpha=0)"
            )

    @staticmethod
    def identity(n: int) -> "AmbientAutomorphism":
        return AmbientAutomorphism(
            Fraction(1), ArithmeticIsometry.identity(n)
        )

    @staticmethod
    def scaling(n: int, r) -> "AmbientAutomorphism":
        return AmbientAutomorphism(
            _rational(r), ArithmeticIsometry.identity(n)
        )

    def compose(self, other: "AmbientAutomorphism") -> "AmbientAutomorphism":
        """self after other: (r r', g o g')."""
        return AmbientAutomorphism(
            self.r * other.r, self.g.compose(other.g)
        )


def apply_automorphism(
    phi: AmbientAutomorphism, f: ArithmeticIsometry
) -> ArithmeticIsometry:
    """Scale the real translation component of f by r, then conjugate by g."""
    if f.eps != 1:
        raise InvalidParams(
            "automorphisms are applied on the orientation-preserving subgroup"
        )
    scaled = ArithmeticIsometry(f.n, 1, f.h, phi.r * f.alpha, f.tree)
    return scaled.conjugated_by(phi.g)
