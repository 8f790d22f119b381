"""Words and normal forms in the solvable Baumslag-Solitar group BS(1,N).

BS(1,N) = <a, b | b a b^-1 = a^N> acts faithfully by affine maps of the line,
a: t -> t+1 and b: t -> N*t.  A group element is therefore determined by the
pair (height change h, translation part c) of its affine map t -> N^h*t + c
with c in Z[1/N]; all equality tests go through that invariant, so no word
rewriting is ever needed.

The classical generators of Aut(BS(1,N)) act by letter substitution: the
inner automorphisms A, B (conjugation by a and b), C (a -> a, b -> ab),
D (a -> a^-1, b -> b) and the power maps Q_i / theta_m (a -> a^{p_i}, b -> b).
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BaseMismatch,
    InvalidGenerator,
    InvalidParams,
    ParseError,
)
from .exactnum import (
    _prime_signature,
    format_rational,
    integral_level,
    smooth_denominator,
)

_TOKEN = re.compile(r"^([A-Za-z])(?:\^(-?\d+))?$")


def parse_letters(text: str, alphabet: tuple[str, ...]) -> tuple[tuple[str, int], ...]:
    """Parse "b^-1 a b" into ((gen, exponent), ...), case-insensitive.

    The empty string (or "1") is the empty word.  Generic over the alphabet so
    presentation words over {a, b, c} can reuse it.
    """
    text = text.strip()
    if text in ("", "1"):
        return ()
    letters = []
    for token in text.split():
        match = _TOKEN.match(token)
        if match is None:
            raise ParseError(f"bad word token {token!r}")
        gen = match.group(1).lower()
        if gen not in alphabet:
            raise ParseError(
                f"unknown generator {gen!r}; expected one of {alphabet}"
            )
        try:
            exp = int(match.group(2) or 1)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            raise ParseError(
                f"exponent of {gen} has over {limit} digits"
            ) from None
        if exp != 0:
            letters.append((gen, exp))
    return tuple(letters)


def format_letters(letters) -> str:
    if not letters:
        return "1"
    parts = []
    for gen, exp in letters:
        parts.append(gen if exp == 1 else f"{gen}^{format_rational(exp)}")
    return " ".join(parts)


def _merge(letters):
    merged: list[list] = []
    for gen, exp in letters:
        if exp == 0:
            continue
        if merged and merged[-1][0] == gen:
            merged[-1][1] += exp
            if merged[-1][1] == 0:
                merged.pop()
        else:
            merged.append([gen, exp])
    return tuple((g, e) for g, e in merged)


@dataclass(frozen=True)
class BSWord:
    """Word in the generators a, b; adjacent equal letters are merged."""

    N: int
    letters: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        if self.N < 2:
            raise InvalidParams(f"N must be >= 2, got {self.N}")
        object.__setattr__(self, "letters", _merge(self.letters))
        for gen, _ in self.letters:
            if gen not in ("a", "b"):
                raise InvalidParams(f"unknown generator {gen!r}")

    @staticmethod
    def from_text(N: int, text: str) -> "BSWord":
        return BSWord(N, parse_letters(text, ("a", "b")))

    def __mul__(self, other: "BSWord") -> "BSWord":
        if self.N != other.N:
            raise BaseMismatch(f"mixed N: {self.N} vs {other.N}")
        return BSWord(self.N, self.letters + other.letters)

    def inverse(self) -> "BSWord":
        return BSWord(
            self.N, tuple((g, -e) for g, e in reversed(self.letters))
        )

    def __str__(self):
        return format_letters(self.letters)


@dataclass(frozen=True)
class AffineInvariant:
    """The affine map t -> N^h * t + c attached to a group element."""

    N: int
    h: int
    c: Fraction

    def __post_init__(self):
        if not isinstance(self.c, Fraction):
            object.__setattr__(self, "c", Fraction(self.c))
        if not smooth_denominator(self.c, self.N):
            raise InvalidParams(
                f"translation part {self.c} is not in Z[1/{self.N}]"
            )

    def compose(self, other: "AffineInvariant") -> "AffineInvariant":
        """self after other, i.e. the invariant of the product self*other."""
        if self.N != other.N:
            raise BaseMismatch(f"mixed N: {self.N} vs {other.N}")
        return AffineInvariant(
            self.N,
            self.h + other.h,
            self.c + Fraction(self.N) ** self.h * other.c,
        )

    def inverse(self) -> "AffineInvariant":
        return AffineInvariant(
            self.N, -self.h, -self.c * Fraction(self.N) ** -self.h
        )

    @staticmethod
    def identity(N: int) -> "AffineInvariant":
        return AffineInvariant(N, 0, Fraction(0))


@dataclass(frozen=True)
class BSNormalForm:
    """The unique expression b^-x a^y b^z of a group element."""

    N: int
    x: int
    y: int
    z: int

    def __post_init__(self):
        if self.x < 0 or self.z < 0:
            raise InvalidParams("normal form requires x, z >= 0")
        if self.x > 0 and self.z > 0 and self.y % self.N == 0:
            raise InvalidParams(
                f"not a normal form: N={self.N} divides y={self.y} "
                f"with x={self.x} > 0 and z={self.z} > 0"
            )

    def invariant(self) -> AffineInvariant:
        return AffineInvariant(
            self.N,
            self.z - self.x,
            Fraction(self.y, self.N**self.x),
        )

    def word(self) -> BSWord:
        letters = []
        if self.x:
            letters.append(("b", -self.x))
        if self.y:
            letters.append(("a", self.y))
        if self.z:
            letters.append(("b", self.z))
        return BSWord(self.N, tuple(letters))

    def __str__(self):
        return str(self.word())


def evaluate(w: BSWord) -> AffineInvariant:
    """Image of the word under the affine action (a: t+1, b: N*t)."""
    inv = AffineInvariant.identity(w.N)
    for gen, exp in w.letters:
        if gen == "a":
            step = AffineInvariant(w.N, 0, Fraction(exp))
        else:
            step = AffineInvariant(w.N, exp, Fraction(0))
        inv = inv.compose(step)
    return inv


def normal_form_of(inv: AffineInvariant) -> BSNormalForm:
    """The unique normal form with the given affine invariant.

    x is the least x >= -h with N**x * c an integer, read off the per-prime
    valuations of c in one step.  The result must map back to inv.
    """
    x = max(-inv.h, integral_level(inv.c, inv.N))
    form = BSNormalForm(inv.N, x, int(inv.c * inv.N**x), x + inv.h)
    if form.invariant() != inv:
        raise AssertionError(
            f"normal form self-check failed: {form!r} has invariant "
            f"{form.invariant()!r}, expected {inv!r}"
        )
    return form


def normalize(w: BSWord) -> BSNormalForm:
    return normal_form_of(evaluate(w))


def multiply(u: BSNormalForm, v: BSNormalForm) -> BSNormalForm:
    if u.N != v.N:
        raise BaseMismatch(f"mixed N: {u.N} vs {v.N}")
    return normal_form_of(u.invariant().compose(v.invariant()))


def invert(u: BSNormalForm) -> BSNormalForm:
    return normal_form_of(u.invariant().inverse())


def _power_letters(image: tuple[tuple[str, int], ...], exp: int):
    if exp >= 0:
        return image * exp
    return tuple((g, -e) for g, e in reversed(image)) * (-exp)


def apply_collins(gen: str, w: BSWord) -> BSWord:
    """Apply one substitution generator to a word, letter by letter.

    gen is one of "A", "B" (conjugation by a resp. b), "C", "D", "Q1", "Q2",
    ... (power map by the i-th prime of N) or "theta_<m>".
    """
    N = w.N
    if gen in ("A", "B"):
        conj = ("a", 1) if gen == "A" else ("b", 1)
        inv = (conj[0], -1)

        def image(letter, exp):
            if letter == conj[0]:
                return ((letter, exp),)
            return (conj, (letter, exp), inv)

    elif gen == "C":

        def image(letter, exp):
            if letter == "a":
                return ((letter, exp),)
            return _power_letters((("a", 1), ("b", 1)), exp)

    elif gen == "D":

        def image(letter, exp):
            return ((letter, -exp if letter == "a" else exp),)

    elif gen.startswith("Q"):
        try:
            index = int(gen[1:])
        except ValueError:
            raise InvalidGenerator(f"unknown generator {gen!r}") from None
        primes = [p for p, _ in _prime_signature(N).primes]
        if not 1 <= index <= len(primes):
            raise InvalidGenerator(
                f"{gen} out of range: {N} has {len(primes)} prime(s)"
            )
        return apply_collins(f"theta_{primes[index - 1]}", w)
    elif gen.startswith("theta_"):
        try:
            m = int(gen[6:])
        except ValueError:
            raise InvalidGenerator(f"unknown generator {gen!r}") from None
        if m < 1:
            raise InvalidGenerator("theta_m needs m >= 1")

        def image(letter, exp):
            return ((letter, m * exp if letter == "a" else exp),)

    else:
        raise InvalidGenerator(f"unknown generator {gen!r}")

    letters: list[tuple[str, int]] = []
    for letter, exp in w.letters:
        letters.extend(image(letter, exp))
    return BSWord(N, tuple(letters))
