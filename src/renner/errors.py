"""Exception types shared across the package."""


class RennerError(Exception):
    """Base class for all errors raised by this package."""


class InvalidType(RennerError):
    """Unsupported Cartan type/rank combination."""


class SizeCapExceeded(RennerError):
    """A generated structure grew past its configured size cap."""


class FaithfulnessError(RennerError):
    """The Weyl group does not act faithfully on the weight orbit."""


class ZeroElement(RennerError):
    """The operation is undefined for the zero element."""


class ConstructionError(RennerError):
    """An internal consistency check failed while building a structure."""
