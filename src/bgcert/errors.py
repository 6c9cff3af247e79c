"""Exceptions and warnings shared across the package."""

from __future__ import annotations


class BgcertError(Exception):
    """Base class for every domain error raised by this package."""


class UnknownPreset(BgcertError):
    """Requested geometry preset does not exist."""


class NonIntegralGeometry(BgcertError):
    """d/6 + c2h/12 is not an integer, so (d, c2h) cannot be a polarized CY3."""


class NegativeLinearSystem(BgcertError):
    """The derived dim|H| would be negative."""


class InconsistentGeometry(BgcertError):
    """An explicitly supplied dim|H| contradicts the Riemann-Roch identity."""


class BetaOutOfRange(BgcertError):
    """Curve degree beta falls outside 1 <= beta < d/2."""


class NegativeRank(BgcertError):
    """Slope is undefined for negative-rank classes."""


class ZeroRank(BgcertError):
    """The operation needs a positive (or at least non-zero) rank."""


class NoPositiveRoot(BgcertError):
    """The tilt slope has no positive zero for this class."""


class NonpositiveCh2H(BgcertError):
    """ch2.H must be positive here."""


class TooManyCandidates(BgcertError):
    """The degree has more candidates than the enumeration limit allows."""


class NumberTooLong(BgcertError):
    """A value to print has more digits than the interpreter writes of an int."""


class ConfigError(BgcertError):
    """Invalid CLI or config-file input; carries the offending field when known."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class VirtualClassWarning(UserWarning):
    """A construction left the cone of honest sheaf classes (negative rank)."""
