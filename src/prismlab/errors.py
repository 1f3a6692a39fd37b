"""Error types shared across the library."""


class PrismlabError(Exception):
    """Base class for all library errors."""


class ZeroInversion(PrismlabError):
    """Attempted to invert the zero field element."""


class NotAUnit(PrismlabError):
    """Series has vanishing constant term, so it is not invertible."""


class NotAUniformizer(PrismlabError):
    """Series does not vanish to exact order one."""


class DegreeMismatch(PrismlabError):
    """Operands live in divided-power rings with different (n, D, m)."""


class IndexOutOfRange(PrismlabError):
    """Face or degeneracy index outside the allowed range."""


class NotAStratification(PrismlabError):
    """A failed mathematical check of an operator family, such as phi_0 = id;
    a fault of shape, type or range is an InputFormatError."""


class LeibnizViolation(PrismlabError):
    """phi_1 fails the twisted Leibniz relation required of a stratification:
    a failed check, as NotAStratification."""


class RingMismatch(PrismlabError):
    """Objects built over different base data cannot be combined."""


class BadTruncationIndex(PrismlabError):
    """Truncation index outside (0, m)."""


class InvalidValuation(PrismlabError):
    """A valuation input outside the meaningful range."""


class InputFormatError(PrismlabError):
    """Malformed or inconsistent input, serialized or given to a constructor
    in process: a fault of shape, type or range. Every constructor raises
    it, and the CLI exits 2 on it."""
