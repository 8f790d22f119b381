"""Error taxonomy shared by all modules.

Every failure mode a caller is expected to handle gets its own class so the
CLI can map exceptions to exit codes without string matching.
"""


class BslatError(Exception):
    """Base class for all library errors."""


class ParseError(BslatError):
    """Malformed textual input (words, rationals, JSON payloads)."""


class ValidationError(BslatError):
    """Structured input that parses but violates a documented precondition."""


class BaseMismatch(ValidationError):
    """Operands built over different bases n were combined."""


class NotInvertible(ValidationError):
    """Inverse requested for an element that has none in the working ring."""


class InvalidGenerator(ValidationError):
    """Unknown substitution generator, or parameters outside its domain."""


class NotElliptic(ValidationError):
    """Operation requires a height-zero (elliptic) isometry."""


class NotHyperbolic(ValidationError):
    """Operation requires a height-changing (hyperbolic) isometry."""


class DoesNotFix(ValidationError):
    """A map was expected to fix a vertex (or axis labels) and does not."""


class NotCommuting(ValidationError):
    """A level permutation does not commute with the full-cycle translation."""


class AxisMismatch(ValidationError):
    """Two hyperbolic maps translate along different axes."""


class HeightMismatch(ValidationError):
    """Two hyperbolic maps have different height changes."""


class InvalidParams(ValidationError):
    """Numeric parameters outside the documented domain."""


class NotStraightenable(ValidationError):
    """Embedding is not in the position the straightening recipe requires."""


class CaseInvalid(ValidationError):
    """Presentation case incompatible with the given n, l parameters."""


class ZeroTranslation(ValidationError):
    """A nonzero translation amount is required."""


class NotMember(ValidationError):
    """Element does not belong to the enumerated group."""


class TooLarge(BslatError):
    """Requested enumeration exceeds the documented feasibility bounds."""
