"""Exception types shared across the package."""


class LatticeError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateInput(LatticeError):
    """Input fails a nondegeneracy precondition (collinear, duplicated, flat)."""


class DegenerateResult(LatticeError):
    """An operation produced a lower-dimensional or empty result."""


class DimensionMismatch(LatticeError):
    """Operands live in different ambient dimensions."""


class ZeroVector(LatticeError):
    """A vector that must be nonzero is identically zero."""


class TooLarge(LatticeError):
    """Instance exceeds the size limit of an exhaustive procedure."""


class CapExceeded(LatticeError):
    """A configured work cap would be exceeded."""


class RegionTooLarge(CapExceeded):
    """Region holds more lattice points than its cap allows."""


class ParseError(LatticeError):
    """Malformed polytope document or CLI input."""
