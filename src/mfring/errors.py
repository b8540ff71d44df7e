"""Exception types shared across the package."""


class MfringError(Exception):
    """Base class for all package errors."""


class ContextMismatch(MfringError):
    """Operands belong to different cyclotomic field contexts."""


class ConductorMismatch(MfringError):
    """Requested root of unity does not live in this field."""


class BadLeadingShape(MfringError):
    """Series does not start 1 + a*q with a nonzero."""


class InvalidOrder(MfringError):
    """Character value order incompatible with the generator order."""


class GroupMismatch(MfringError):
    """Characters live on different unit groups."""


class ImprimitiveCharacter(MfringError):
    """A primitive character is required here."""


class ParityViolation(MfringError):
    """Character parity does not match (-1)**k."""


class BadWeight(MfringError):
    """Weight outside the constructor's domain."""


class NotPositiveDefinite(MfringError):
    """Binary quadratic form is not positive definite."""


class UnknownForm(MfringError):
    """Name does not resolve to a catalog form or constructor."""


class UnknownIdentity(MfringError):
    """No catalog identity with this name."""


class PrecisionTooLow(MfringError):
    """Fewer coefficients supplied than the certified cutoff needs."""


class PrecisionTooHigh(MfringError):
    """A series would hold more coordinates than the package's ceiling."""


class OutOfTable(MfringError):
    """No dimension table entry covers this group/weight."""


class CatalogError(MfringError):
    """Malformed catalog data."""


class QuasiModularUse(CatalogError):
    """A quasi-modular series was used where a modular form is required."""
